import pytest

from sepkit.graphs import DomainError, Graph
from sepkit.oracle import FIXTURES, complete_graph, cycle_graph, hypercube
from sepkit.treedecomp import (INTRODUCE, JOIN, LEAF, TreeDecomposition,
                               _decomposition_from_order, _eliminate, _fill_in,
                               decompose, exact_treewidth, exact_treewidth_order,
                               format_td, make_nice, min_fill_order,
                               minor_min_width, parse_td, validate_decomposition,
                               validate_nice)

from strategies import seeded_graphs

PP = FIXTURES["PP"].graph


def test_decompose_examples():
    k4 = complete_graph(4)
    assert decompose(k4).width == 3
    tree = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert decompose(tree).width == 1
    assert decompose(cycle_graph(4)).width == 2


def test_exact_treewidth_known_values():
    assert exact_treewidth(complete_graph(5)) == 4
    assert exact_treewidth(cycle_graph(6)) == 2
    assert exact_treewidth(hypercube(3)) == 3
    assert exact_treewidth(Graph(1)) == 0
    assert exact_treewidth(Graph(3)) == 0


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
        assert td.width >= exact_treewidth(G)
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


def test_imported_td_drives_the_solver():
    # a hand-written PACE file feeds make_nice and the DP end to end
    from sepkit.solver import EDGELESS, CutConstraints, dp_constrained_cut
    text = "s td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n"
    td, n = parse_td(text)
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert n == 4 and validate_decomposition(g, td)
    nice = make_nice(td, g, root_vertex=0)
    wit = dp_constrained_cut(g, nice, CutConstraints(((0, 3),)), 1, EDGELESS)
    assert wit is not None and len(wit) == 1


def test_pace_roundtrip():
    td = decompose(PP)
    text = format_td(td, PP.n)
    td2, n = parse_td(text)
    assert td2 == td and n == PP.n
    assert text.startswith(f"s td {len(td.bags)} {td.width + 1} {PP.n}")


def test_pace_parse_errors():
    from sepkit.graphs import ParseError
    with pytest.raises(ParseError):
        parse_td("b 1 2\n")
    with pytest.raises(ParseError):
        parse_td("s td 2 1 1\nb 1 1\nb 1 1\n1 2\n")


def test_pace_non_integer_fields():
    from sepkit.graphs import ParseError
    for text, line in (("s td 1 2 3\nb x 1 2\n", 2), ("s td 1 x 3\n", 1),
                       ("s td 1 2 3\nb 1 1 y\n", 2),
                       ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 z\n", 4)):
        with pytest.raises(ParseError) as info:
            parse_td(text)
        assert info.value.line == line


def _min_fill_rescan(G):
    """Reference twin of min_fill_order: every fill count recomputed at
    every step."""
    adj = {v: set(G.adj[v]) for v in range(G.n)}
    order = []
    while adj:
        v = min(adj, key=lambda u: (_fill_in(adj, u), u))
        order.append(v)
        _eliminate(adj, v)
    return order


def test_min_fill_order_matches_full_rescan():
    for G, _rng in seeded_graphs(1000, seed=53, n_lo=0, n_hi=30,
                                 ps=(0.05, 0.1, 0.2, 0.3, 0.5)):
        assert min_fill_order(G) == _min_fill_rescan(G)


def _decompose_always_exact(G):
    """Reference twin of decompose without the lower-bound skip: the exact
    order whenever min-fill's width exceeds n / 2."""
    td = _decomposition_from_order(G, min_fill_order(G))
    if G.n <= 12 and td.width > G.n / 2:
        width, order = exact_treewidth_order(G)
        if width < td.width:
            td = _decomposition_from_order(G, order)
    return td


def test_decompose_matches_always_exact_twin():
    for G, _rng in seeded_graphs(400, seed=61, n_lo=0, n_hi=12,
                                 ps=(0.15, 0.3, 0.5, 0.7, 0.9)):
        assert decompose(G) == _decompose_always_exact(G)


def test_minor_min_width_is_a_lower_bound():
    for G, _rng in seeded_graphs(400, seed=67, n_lo=1, n_hi=10,
                                 ps=(0.15, 0.3, 0.5, 0.7, 0.9)):
        assert minor_min_width(G) <= exact_treewidth(G)
    assert minor_min_width(complete_graph(5)) == 4
    assert minor_min_width(cycle_graph(6)) == 2
    assert minor_min_width(Graph(3)) == 0


def test_decompose_skips_exact_width_on_q4_torso(monkeypatch):
    # the torso of Q4 0->15 at k=4 has 10 vertices and min-fill width 6 > 5,
    # which the minor-min-width bound meets
    import sepkit.treedecomp
    from sepkit.reduction import reduce_instance
    torso = reduce_instance(hypercube(4), (0, 15), 4).gstar
    want = _decompose_always_exact(torso)
    assert torso.n == 10 and want.width == 6 == minor_min_width(torso)

    def refuse(G):
        raise AssertionError("exact treewidth run although the bound proves min-fill optimal")

    monkeypatch.setattr(sepkit.treedecomp, "exact_treewidth_order", refuse)
    assert decompose(torso) == want
