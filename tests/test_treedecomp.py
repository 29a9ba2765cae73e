import pytest

import sepkit.treedecomp
from sepkit.graphs import DomainError, Graph
from sepkit.oracle import (FIXTURES, bf_treewidth, complete_graph, cycle_graph,
                           hypercube)
from sepkit.treedecomp import (INTRODUCE, JOIN, LEAF, TreeDecomposition,
                               decompose, format_td, make_nice, min_fill_order,
                               validate_decomposition, validate_nice)

from strategies import seeded_graphs

PP = FIXTURES["PP"].graph


def test_decompose_examples():
    k4 = complete_graph(4)
    assert decompose(k4).width == 3
    tree = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert decompose(tree).width == 1
    assert decompose(cycle_graph(4)).width == 2


def test_exact_treewidth_known_values():
    assert bf_treewidth(complete_graph(5)) == 4
    assert bf_treewidth(cycle_graph(6)) == 2
    assert bf_treewidth(hypercube(3)) == 3
    assert bf_treewidth(Graph(1)) == 0
    assert bf_treewidth(Graph(3)) == 0


def test_validate_detects_broken_decompositions():
    td = decompose(PP)
    assert validate_decomposition(PP, td)
    # drop the bag covering an edge
    covering = next(i for i, bag in enumerate(td.bags) if {0, 1} <= set(bag))
    bags = list(td.bags)
    bags[covering] = tuple(v for v in bags[covering] if v != 0)
    if not bags[covering]:
        bags[covering] = (1,)
    broken = TreeDecomposition(tuple(bags), td.tree)
    assert not validate_decomposition(PP, broken)
    # split a vertex's subtree: duplicate vertex into two far-apart bags only
    bad = TreeDecomposition(((0, 1), (1, 2), (0, 2)), ((0, 1), (1, 2)))
    assert not validate_decomposition(Graph(3, [(0, 1), (1, 2)]), bad)


def test_validate_requires_tree():
    td = TreeDecomposition(((0,), (0,)), ())
    assert not validate_decomposition(Graph(1), td)


def test_make_nice_single_bag_clique():
    k4 = complete_graph(4)
    td = TreeDecomposition(((0, 1, 2, 3),), ())
    nice = make_nice(td, k4)
    kinds = [nd.kind for nd in nice.nodes]
    assert kinds.count(LEAF) == 1 and kinds.count(INTRODUCE) == 4
    assert validate_nice(k4, nice)
    assert nice.width == 3


def test_make_nice_path_of_bags():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    td = TreeDecomposition(((0, 1), (1, 2), (2, 3)), ((0, 1), (1, 2)))
    nice = make_nice(td, g)
    assert validate_nice(g, nice)
    assert nice.width == td.width == 1
    kinds = [nd.kind for nd in nice.nodes]
    assert JOIN not in kinds


def test_make_nice_branching_gets_join():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    td = TreeDecomposition(((0, 1), (0, 2), (0, 3)), ((0, 1), (0, 2)))
    nice = make_nice(td, g)
    assert any(nd.kind == JOIN for nd in nice.nodes)
    assert validate_nice(g, nice)


def test_make_nice_rejects_invalid():
    with pytest.raises(DomainError):
        make_nice(TreeDecomposition(((0,),), ()), Graph(2, [(0, 1)]))


def test_make_nice_root_vertex_choice():
    td = decompose(PP)
    nice = make_nice(td, PP, root_vertex=5)
    assert validate_nice(PP, nice)


def test_random_decompositions_valid_and_nice():
    for G, rng in seeded_graphs(80, seed=23, n_lo=1, n_hi=11,
                                ps=(0.15, 0.3, 0.6, 0.9)):
        td = decompose(G)
        assert validate_decomposition(G, td)
        assert td.width >= bf_treewidth(G)
        nice = make_nice(td, G, root_vertex=0)
        assert validate_nice(G, nice)
        assert nice.width == td.width
        assert len(nice.nodes) <= 2 * (td.width + 2) * max(len(td.bags), 1) + G.n + 2


def test_validate_nice_negative_shapes():
    from sepkit.treedecomp import NiceDecomposition, NiceNode, FORGET
    g = Graph(2, [(0, 1)])
    nice = make_nice(decompose(g), g)
    assert validate_nice(g, nice)
    # wrong graph
    assert not validate_nice(Graph(3, [(0, 1), (1, 2)]), nice)
    # non-empty root bag
    chopped = NiceDecomposition(nice.nodes[:-1])
    assert not validate_nice(g, chopped)
    # join with mismatched child bags
    bad = NiceDecomposition((
        NiceNode(LEAF, None, (), ()),
        NiceNode(INTRODUCE, 0, (0,), (0,)),
        NiceNode(LEAF, None, (), ()),
        NiceNode(JOIN, None, (0,), (1, 2)),
        NiceNode(FORGET, 0, (), (3,)),
    ))
    assert not validate_nice(Graph(1), bad)


def test_validate_nice_requires_a_tree_decomposition():
    # each shape passes the per-node checks and meets every vertex and edge
    # of P3, but is no tree decomposition; on it the DP would cut 0 from 2
    # without deleting 1 at k=0
    from sepkit.solver import ANY, CutConstraints, dp_constrained_cut
    from sepkit.treedecomp import FORGET, NiceDecomposition, NiceNode
    P3 = Graph(3, [(0, 1), (1, 2)])

    def node(kind, vertex, bag, *children):
        return NiceNode(kind, vertex, bag, children)

    shapes = {
        # 1 is introduced, forgotten and introduced again on one path
        "reintroduced": (
            node(LEAF, None, ()), node(INTRODUCE, 0, (0,), 0),
            node(INTRODUCE, 1, (0, 1), 1), node(FORGET, 1, (0,), 2),
            node(FORGET, 0, (), 3), node(INTRODUCE, 1, (1,), 4),
            node(INTRODUCE, 2, (1, 2), 5), node(FORGET, 1, (2,), 6),
            node(FORGET, 2, (), 7)),
        # 1 is forgotten in both branches of a join
        "forgotten twice": (
            node(LEAF, None, ()), node(INTRODUCE, 0, (0,), 0),
            node(INTRODUCE, 1, (0, 1), 1), node(FORGET, 1, (0,), 2),
            node(LEAF, None, ()), node(INTRODUCE, 1, (1,), 4),
            node(INTRODUCE, 2, (1, 2), 5), node(FORGET, 1, (2,), 6),
            node(FORGET, 2, (), 7), node(INTRODUCE, 0, (0,), 8),
            node(JOIN, None, (0,), 3, 9), node(FORGET, 0, (), 10)),
        # nodes that no path from the root reaches introduce 1
        "unreachable": (
            node(LEAF, None, ()), node(INTRODUCE, 0, (0,), 0),
            node(INTRODUCE, 1, (0, 1), 1), node(INTRODUCE, 2, (0, 1, 2), 2),
            node(LEAF, None, ()), node(INTRODUCE, 0, (0,), 4),
            node(FORGET, 0, (), 5), node(INTRODUCE, 2, (2,), 6),
            node(FORGET, 2, (), 7)),
    }
    cons = CutConstraints(((0, 2),))
    assert dp_constrained_cut(P3, make_nice(decompose(P3), P3), cons, 0, ANY) is None
    for name, nodes in shapes.items():
        assert not validate_nice(P3, NiceDecomposition(nodes)), name
        with pytest.raises(DomainError):
            dp_constrained_cut(P3, NiceDecomposition(nodes), cons, 0, ANY)


def test_imported_td_drives_the_solver():
    # a decomposition built by hand feeds make_nice and the DP end to end
    from sepkit.solver import EDGELESS, CutConstraints, dp_constrained_cut
    td = TreeDecomposition(((0, 1), (1, 2), (2, 3)), ((0, 1), (1, 2)))
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert validate_decomposition(g, td)
    nice = make_nice(td, g, root_vertex=0)
    wit = dp_constrained_cut(g, nice, CutConstraints(((0, 3),)), 1, EDGELESS)
    assert wit is not None and len(wit) == 1


def test_pace_roundtrip():
    # the export of PP's decomposition, pinned: bag and vertex ids are
    # 1-based, and tree edges follow the bags
    assert format_td(decompose(PP), PP.n) == (
        "s td 6 3 6\n"
        "b 1 1 2 4\n"
        "b 2 2 3 4\n"
        "b 3 3 4 6\n"
        "b 4 4 5 6\n"
        "b 5 5 6\n"
        "b 6 6\n"
        "1 2\n2 3\n3 4\n4 5\n5 6\n")


def _eliminate(adj, v):
    nbrs = adj.pop(v)
    for u in nbrs:
        adj[u].discard(v)
    for u in nbrs:
        for w in nbrs:
            if u < w:
                adj[u].add(w)
                adj[w].add(u)


def _fill_in(adj, v):
    nbrs = sorted(adj[v])
    return sum(1 for i, u in enumerate(nbrs) for w in nbrs[i + 1:] if w not in adj[u])


def _min_fill_rescan(G):
    """Reference twin of min_fill_order on adjacency sets: every fill count
    recomputed at every step."""
    adj = {v: set(G.adj[v]) for v in range(G.n)}
    order = []
    while adj:
        v = min(adj, key=lambda u: (_fill_in(adj, u), u))
        order.append(v)
        _eliminate(adj, v)
    return order


def _bags_from_order(G, order):
    """Reference twin of the bag construction on adjacency sets: v's bag is
    v and its neighbours when eliminated, hung off the bag of the earliest
    eliminated of them (or the next bag)."""
    adj = {v: set(G.adj[v]) for v in range(G.n)}
    position = {v: i for i, v in enumerate(order)}
    bags, edges = [], []
    for i, v in enumerate(order):
        nbrs = set(adj[v])
        bags.append(tuple(sorted(nbrs | {v})))
        if nbrs:
            edges.append((i, min(position[u] for u in nbrs)))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
        _eliminate(adj, v)
    return TreeDecomposition(tuple(bags) or ((),), tuple(edges))


def test_min_fill_order_matches_full_rescan():
    for G, _rng in seeded_graphs(1000, seed=53, n_lo=0, n_hi=30,
                                 ps=(0.05, 0.1, 0.2, 0.3, 0.5)):
        order = _min_fill_rescan(G)
        assert min_fill_order(G) == order
        assert decompose(G) == _bags_from_order(G, order)


def test_decompose_eliminates_each_vertex_once(monkeypatch):
    # the bags are read off the min-fill elimination itself, not off a
    # second elimination along its order
    calls = []
    eliminate = sepkit.treedecomp._eliminate

    def counted(adj, v):
        calls.append(v)
        return eliminate(adj, v)

    monkeypatch.setattr(sepkit.treedecomp, "_eliminate", counted)
    for G, _rng in seeded_graphs(50, seed=61, n_lo=0, n_hi=30):
        calls.clear()
        td = decompose(G)
        assert sorted(calls) == list(range(G.n))
        assert validate_decomposition(G, td)
