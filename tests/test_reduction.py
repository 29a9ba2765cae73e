import itertools
import random
import time
import warnings

import pytest

import sepkit.reduction
from sepkit.graphs import DomainError, Graph, induced_subgraph
from sepkit.oracle import (FIXTURES, RandomModel, cycle_graph, enumerate_minimal_separators,
                           path_graph, random_graph)
from sepkit.reduction import (GADGET, SATURATION_LIMIT, TreewidthBounds,
                              _neighbourhood_pairs, cover_set,
                              layer_system, reduce_instance, torso, tw_bound)
from sepkit.chains import build_chain
from sepkit.separation import PairNetwork, is_separator, min_vertex_separator, st_flow
from sepkit.treedecomp import decompose

from strategies import grid, nonadjacent_pair, seeded_graphs, walled_grid

P3 = FIXTURES["P3"].graph
C4 = FIXTURES["C4"].graph
PP = FIXTURES["PP"].graph
Q3 = FIXTURES["Q3"].graph


def test_torso_examples():
    # the torso-added edges are the torso's edges outside G[C], on the same ids
    for G, C, edges, added in ((path_graph(3), (0, 2), [(0, 1)], [(0, 2)]),
                               (C4, (0, 2), [(0, 1)], [(0, 2)]),
                               (PP, (0, 1, 5), [(0, 1), (0, 2), (1, 2)], [(0, 5), (1, 5)])):
        tr = torso(G, C)
        assert tr.orig == C and tr.graph.edges() == edges
        assert tr.induced == induced_subgraph(G, C).graph
        assert [(tr.orig[u], tr.orig[v]) for u, v in tr.graph.edges()
                if not tr.induced.has_edge(u, v)] == added


def test_torso_domain_error():
    with pytest.raises(DomainError):
        torso(P3, (9,))


def test_tw_bound_examples():
    assert (tw_bound(1, 0).g_value, tw_bound(1, 0).f_value) == (6, 1)
    assert (tw_bound(1, 1).g_value, tw_bound(1, 1).f_value) == (195, 10)
    assert (tw_bound(2, 0).g_value, tw_bound(2, 0).f_value) == (12, 1)


def test_tw_bound_saturates_without_a_warning():
    # ``saturated`` is the only report: under an error filter no warning
    # raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tb = tw_bound(6, 12)
    assert tb.saturated and tb.g_value == 2 ** 63 - 1


def test_tw_bound_stops_once_saturated():
    # one pass per unit of excess took about a second per million before the
    # loop stopped at saturation
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tb = tw_bound(2, 10 ** 7)
    assert time.perf_counter() - start < 2.0
    assert tb.saturated and tb.g_value == tb.f_value == SATURATION_LIMIT


def test_treewidth_bounds_fields():
    names = list(TreewidthBounds._fields)
    assert names == ["ell", "excess", "g_value", "f_value", "saturated"]


def test_reduce_width_bound_saturates():
    assert reduce_instance(C4, (0, 2), 64).width_bound == SATURATION_LIMIT
    assert reduce_instance(C4, (0, 2), 8).width_bound < SATURATION_LIMIT


def test_tw_bound_domain():
    with pytest.raises(DomainError):
        tw_bound(0, 1)


def test_cover_examples():
    assert cover_set(P3, 0, 2, 1) == (0, 1, 2)
    assert cover_set(PP, 0, 5, 2) == (0, 1, 2, 3, 4, 5)
    assert cover_set(Q3, 0, 7, 6) == tuple(range(8))
    assert cover_set(PP, 0, 5, 1) == (0, 5)       # ell exceeds budget
    assert cover_set(Graph(2, [(0, 1)]), 0, 1, 3) == (0, 1)


def test_cover_at_excess_zero_reads_the_residual(monkeypatch):
    # PP 0-5 has ell = 2, so k = 2 is excess 0: no chain is built
    calls = []
    chain = sepkit.reduction.build_chain

    def counted(*args, **kwargs):
        calls.append(1)
        return chain(*args, **kwargs)

    monkeypatch.setattr(sepkit.reduction, "build_chain", counted)
    assert cover_set(PP, 0, 5, 2) == (0, 1, 2, 3, 4, 5)
    assert calls == []


def test_layer_system_partitions():
    ch = build_chain(PP, 0, 5)
    system = layer_system(ch, 0, 5, PP.n)
    flat = [v for layer, _, _ in system for v in layer]
    assert len(flat) == len(set(flat))
    assert set(flat) <= set(range(6)) - {0, 5}
    # each layer lies between consecutive boundaries of the closed chain
    bounds = [(0,), *ch.boundaries, (5,)]
    assert [(prev, cur) for _, prev, cur in system] == list(zip(bounds, bounds[1:]))
    # no layer edge escapes its boundary pool
    for layer, prev, cur in system:
        allowed = set(layer) | set(prev) | set(cur)
        for v in layer:
            assert set(PP.adj[v]) <= allowed


def test_cover_completeness_random():
    rng = random.Random(2024)
    checked = 0
    for G, grng in seeded_graphs(120, seed=13, n_lo=5, n_hi=12):
        pair = nonadjacent_pair(G, grng)
        if pair is None:
            continue
        s, t = pair
        r = min_vertex_separator(G, (s,), (t,))
        if not r.is_finite:
            continue
        k = int(r.size) + rng.choice((0, 1, 2))
        cov = set(cover_set(G, s, t, k))
        assert {s, t} <= cov
        for S in enumerate_minimal_separators(G, s, t, k):
            assert set(S) <= cov
        checked += 1
    assert checked >= 100


def _disjoint_subset_pairs(pool):
    """Unordered pairs (A, B) of disjoint non-empty subsets of pool, one per
    base-3 code (digit i for pool[i]: neither, A or B), kept when the lowest
    selected element is in A."""
    for code in range(3 ** len(pool)):
        A, B = [], []
        c = code
        for v in pool:
            c, r = divmod(c, 3)
            if r == 1:
                A.append(v)
            elif r == 2:
                B.append(v)
        if A and B and min(A) < min(B):
            yield tuple(A), tuple(B)


def _contract_terminal_sets(G, keep, A, B):
    """G[keep] plus a joined to N(A) and b to N(B), and the edge a-b when A
    and B are adjacent: the kept vertices ascending, then a and b."""
    index = {v: i for i, v in enumerate(keep)}
    a, b = len(keep), len(keep) + 1
    edges = set()
    for u, v in G.edges():
        iu, iv = index.get(u), index.get(v)
        if iu is not None and iv is not None:
            edges.add((iu, iv))
        elif iu is not None or iv is not None:
            i, w = (iu, v) if iu is not None else (iv, u)
            if w in A:
                edges.add((i, a))
            elif w in B:
                edges.add((i, b))
        elif (u in A and v in B) or (u in B and v in A):
            edges.add((a, b))
    return Graph(b + 1, edges), a, b


def _cover_reference(G, s, t, k):
    """``cover_set`` as the plain recursion: every (A, B) pair of every layer
    is contracted, flowed and recursed on, adjacent or repeated."""
    if G.has_edge(s, t):
        return (min(s, t), max(s, t))
    r = min_vertex_separator(G, (s,), (t,), cap=k)
    if not r.within(k):
        return (min(s, t), max(s, t))
    excess = k - int(r.size)
    chain = build_chain(G, s, t)
    cover = {s, t}
    for S in chain.boundaries:
        cover.update(S)
    if excess == 0:
        return tuple(sorted(cover))
    for layer, prev, cur in layer_system(chain, s, t, G.n):
        if not layer:
            continue
        for A, B in _disjoint_subset_pairs(sorted(set(prev) | set(cur))):
            H, a, b = _contract_terminal_sets(G, layer, A, B)
            rr = min_vertex_separator(H, (a,), (b,), cap=k)
            if not rr.within(k):
                continue
            sub_budget = min(k, int(rr.size) + excess - 1)
            cover.update(layer[v] for v in _cover_reference(H, a, b, sub_budget)
                         if v < a)
    return tuple(sorted(cover))


def _boundary_pair_masks(G, pos, prev, cur):
    """The boundary pair A = prev - cur, B = cur - prev as its neighbourhood
    masks, the side with the lowest vertex first; None when a side is empty
    or an A-B edge exists."""
    A, B = set(prev) - set(cur), set(cur) - set(prev)
    if not A or not B or any(G.has_edge(u, v) for u in A for v in B):
        return None
    if min(B) < min(A):
        A, B = B, A
    na, nb = ({w for v in side for w in G.adj[v] if w in pos} for side in (A, B))
    return sum(1 << pos[w] for w in na), sum(1 << pos[w] for w in nb)


def test_neighbourhood_pairs_are_first_occurrences_of_subset_pairs():
    # the base-3 enumeration with the A-B edge skip, reduced to the first
    # occurrence of each (N(A) & L, N(B) & L), in the order it gives them:
    # exactly the walk when prev = cur = pool, which has no boundary pair,
    # and the walk after its boundary pair, which it does not repeat, for a
    # random split of the pool into prev and cur
    adjacent_pools = lonely = split = 0
    for G, rng in seeded_graphs(300, seed=61, n_lo=4, n_hi=13):
        vs = list(range(G.n))
        rng.shuffle(vs)
        cut = rng.randint(1, min(6, G.n - 1))
        pool, layer = tuple(sorted(vs[:cut])), tuple(sorted(vs[cut:]))
        pos = {v: i for i, v in enumerate(layer)}
        want = []
        for A, B in _disjoint_subset_pairs(pool):
            if any(G.has_edge(u, v) for u in A for v in B):
                continue
            na = sum(1 << pos[w] for w in {w for v in A for w in G.adj[v] if w in pos})
            nb = sum(1 << pos[w] for w in {w for v in B for w in G.adj[v] if w in pos})
            if (na, nb) not in want:
                want.append((na, nb))
        assert list(_neighbourhood_pairs(G, pos, pool, pool)) == want
        # each pool vertex in prev only, in cur only or in both
        sides = [rng.randrange(3) for _ in pool]
        prev = tuple(v for v, side in zip(pool, sides) if side != 1)
        cur = tuple(v for v, side in zip(pool, sides) if side != 0)
        first = _boundary_pair_masks(G, pos, prev, cur)
        got = list(_neighbourhood_pairs(G, pos, prev, cur))
        if first is None:
            assert got == want
        else:
            assert got == [first] + [p for p in want if p != first]
            split += 1
        adjacent_pools += any(G.has_edge(u, v) for u, v in itertools.combinations(pool, 2))
        lonely += any(not set(G.adj[v]) & set(layer) for v in pool)
    assert adjacent_pools >= 100 and lonely >= 100 and split >= 50, (adjacent_pools, lonely, split)


def test_boundary_pair_is_a_pair_of_the_walk():
    # A = S_{i-1} - S_i and B = S_i - S_{i-1}, oriented as the walk orients
    # a pair, comes first, and the walk over the layer's pool follows
    # without it
    cases = []
    for G, grng in seeded_graphs(400, seed=71, n_lo=6, n_hi=20, ps=(0.15, 0.2, 0.3)):
        pair = nonadjacent_pair(G, grng)
        if pair is not None:
            cases.append((G, *pair))
    rng = random.Random(71)
    for rows, cols in ((2, 6), (3, 6), (3, 9), (4, 5), (4, 8)) * 4:
        label = list(range(rows * cols))
        rng.shuffle(label)
        cases.append((Graph(rows * cols, [(label[u], label[v]) for u, v in grid(rows, cols).edges()]),
                      label[0], label[-1]))
    met = flipped = shared = 0
    for G, s, t in cases:
        r = min_vertex_separator(G, (s,), (t,))
        if r.size == 0:
            continue
        for layer, prev, cur in layer_system(build_chain(G, s, t), s, t, G.n):
            pos = {v: i for i, v in enumerate(layer)}
            pool = tuple(sorted(set(prev) | set(cur)))
            walk = list(_neighbourhood_pairs(G, pos, pool, pool))
            got = list(_neighbourhood_pairs(G, pos, prev, cur))
            want = _boundary_pair_masks(G, pos, prev, cur)
            if want is None:
                assert got == walk
                continue
            assert got == [want] + [p for p in walk if p != want] and want in walk
            # the side holding the lowest vertex, whose mask comes first
            A, B = set(prev) - set(cur), set(cur) - set(prev)
            low = B if min(B) < min(A) else A
            flipped += low is B
            met += 1
            # OR, not sum: two vertices of a side share a layer neighbour
            shared += (sum(len([w for w in G.adj[v] if w in pos]) for v in low)
                       > bin(want[0]).count("1"))
    assert met >= 80 and flipped >= 20 and shared >= 20, (met, flipped, shared)


def test_cover_matches_unmemoised_recursion():
    cases = [(grid(r, c), 0, r * c - 1, k)
             for r, c in ((2, 5), (3, 3), (3, 5), (4, 4)) for k in range(1, 6)]
    for G, grng in seeded_graphs(200, seed=53, n_lo=5, n_hi=22,
                                 ps=(0.15, 0.25, 0.35)):
        pair = nonadjacent_pair(G, grng)
        if pair is not None:
            cases.append((G, *pair, grng.randint(1, 5)))
    assert len(cases) >= 200
    positive = 0
    for G, s, t, k in cases:
        want = _cover_reference(G, s, t, k)
        assert cover_set(G, s, t, k) == want
        positive += len(want) > 2
    assert positive >= 100


def test_cover_is_v_without_a_chain_when_every_vertex_is_on_a_minimum_separator(monkeypatch):
    # on a walled grid every vertex but s and t lies on a minimum separator,
    # so the cover is V at any excess, read off the flow with no chain
    calls = []
    chain = sepkit.reduction.build_chain

    def counted(*args, **kwargs):
        calls.append(1)
        return chain(*args, **kwargs)

    monkeypatch.setattr(sepkit.reduction, "build_chain", counted)
    G, s, t = walled_grid(4, 30)
    for k in (5, 6, 9):
        assert cover_set(G, s, t, k) == tuple(range(G.n))
    assert calls == []
    monkeypatch.undo()
    # the plain recursion builds the chain and walks every layer; it reaches
    # the same covers where the shortcut applies and where it does not
    cases = [(*walled_grid(r, c), r + e) for r, c in ((1, 4), (2, 3), (2, 4), (3, 2))
             for e in (1, 2)]
    cases += [(path_graph(6), 0, 5, 2), (cycle_graph(8), 0, 4, 3), (cycle_graph(7), 1, 4, 4)]
    for G, rng in seeded_graphs(150, seed=71, n_lo=4, n_hi=12, ps=(0.2, 0.3, 0.45)):
        pair = nonadjacent_pair(G, rng)
        if pair is not None:
            cases.append((G, *pair, rng.randint(1, 4)))
    every = 0
    for G, s, t, k in cases:
        r = min_vertex_separator(G, (s,), (t,), cap=k)
        if r.within(k) and 0 < r.size < k:
            every += len(r.residual.sides()) == G.n - 2
        assert cover_set(G, s, t, k) == _cover_reference(G, s, t, k)
    assert every >= 12, every


def _count_layer_flows(monkeypatch, cap=None) -> list:
    """Records each ``PairNetwork.flow`` call; past ``cap`` calls it raises,
    so a cover that would run far more flows fails at once."""
    calls = []
    flow = PairNetwork.flow

    def counted(*args, **kwargs):
        calls.append(1)
        if cap is not None and len(calls) > cap:
            raise AssertionError(f"more than {cap} layer flows")
        return flow(*args, **kwargs)

    monkeypatch.setattr(PairNetwork, "flow", counted)
    return calls


def test_cover_flows_once_per_distinct_subproblem(monkeypatch):
    # the plain recursion runs 4,328 flows here: one per (A, B) pair, most of
    # them adjacent pairs or repeats of a contracted graph already solved;
    # every layer subproblem is flowed on its layer's PairNetwork, and the
    # boundary pair, flowed first, covers each layer (the walk alone, in
    # vertex-id order, ran 57)
    calls = _count_layer_flows(monkeypatch)
    assert cover_set(grid(4, 4), 0, 15, 5) == tuple(range(16))
    assert len(calls) == 2


def test_cover_at_a_flow_of_size_0_is_the_terminals():
    # no 0-3 path: the only minimal separator is the empty set, and the
    # recursion, one level per unit of budget, overflowed the stack at k = 2000
    G = Graph(4, [(0, 1), (2, 3)])
    assert cover_set(G, 0, 3, 2) == cover_set(G, 0, 3, 2000) == (0, 3)


@pytest.mark.parametrize("rows, cols, k, flows", [
    (3, 6, 6, 1), (3, 20, 3, 1), (3, 20, 40, 1), (4, 4, 5, 2)])
def test_cover_flows_do_not_depend_on_the_labelling(monkeypatch, rows, cols, k, flows):
    # corner to corner; the walk alone, in vertex-id order, ran 1-190 layer
    # flows on grid 3x6 over these relabellings and did not finish grid 3x20
    # at k = 40; flowing each layer's boundary pair first runs the same
    # number on every labelling, and the cover is the same set
    G = grid(rows, cols)
    n = G.n
    calls = _count_layer_flows(monkeypatch, cap=flows)
    covers = set()
    for seed in range(8):
        label = list(range(n))
        random.Random(seed).shuffle(label)
        H = Graph(n, [(label[u], label[v]) for u, v in G.edges()])
        calls.clear()
        cover = cover_set(H, label[0], label[n - 1], k)
        assert len(calls) == flows, seed
        covers.add(frozenset(label.index(v) for v in cover))
    assert len(covers) == 1


def _count_graph_builds(monkeypatch, G, s, t, k):
    builds = []
    init = Graph.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    cover = cover_set(G, s, t, k)
    monkeypatch.undo()
    return cover, len(builds)


def test_cover_builds_one_graph_per_neighbourhood_pair(monkeypatch):
    # a subproblem graph is built only for a sub-cover that recurses at
    # sub-excess >= 1; one per distinct (N(A) & L, N(B) & L) of a layer
    # built 1,560 here, and one per (A, B) pair without an A-B edge 4,978
    G = random_graph(RandomModel(22, 0.25, 7))
    cover, builds = _count_graph_builds(monkeypatch, G, 0, 21, 8)
    assert cover == tuple(v for v in range(22) if v != 3)
    assert builds == 103


def test_cover_cliff_builds_graphs_only_to_recurse(monkeypatch):
    # the cover of gmincut's cover-bound cliff, gnp(30, 0.25, 30) 0-29 at
    # k = 9: a graph per distinct neighbourhood pair built 55,454 here; the
    # boundary pairs, flowed first, add 7 layer flows to the walk's 17,150
    G = random_graph(RandomModel(30, 0.25, 30))
    calls = _count_layer_flows(monkeypatch)
    cover, builds = _count_graph_builds(monkeypatch, G, 0, 29, 9)
    assert cover == tuple(v for v in range(30) if v != 2)
    assert builds == 1100 and len(calls) == 17157


def test_layer_flows_match_min_vertex_separator():
    # each subproblem of a layer, flowed on the layer's one network, answers
    # as a fresh flow on its contracted graph does
    checked = over = 0
    for G, grng in seeded_graphs(150, seed=67, n_lo=6, n_hi=18, ps=(0.2, 0.3)):
        pair = nonadjacent_pair(G, grng)
        if pair is None:
            continue
        s, t = pair
        r = min_vertex_separator(G, (s,), (t,))
        if r.size == 0:
            continue
        k = int(r.size) + grng.randint(0, 2)
        for layer, prev, cur in layer_system(build_chain(G, s, t), s, t, G.n):
            pos = {v: i for i, v in enumerate(layer)}
            inside = tuple((pos[u], pos[v]) for u, v in G.edges() if u in pos and v in pos)
            network = PairNetwork(len(layer), inside)
            a, b = len(layer), len(layer) + 1
            for na, nb in _neighbourhood_pairs(G, pos, prev, cur):
                H = Graph(b + 1, [*inside, *((i, a) for i in range(a) if na >> i & 1),
                                  *((i, b) for i in range(a) if nb >> i & 1)])
                assert network.graph(na, nb) == H
                want = min_vertex_separator(H, (a,), (b,), cap=k)
                got = network.flow(na, nb, cap=k)
                assert (got.size, got.exceeds_cap, got.witness) == \
                    (want.size, want.exceeds_cap, want.witness)
                checked += 1
                if want.residual is None:
                    over += 1
                    continue
                assert got.residual.sides() == want.residual.sides()
                # the subproblem graph keeps the layer flow, so st_flow on it
                # runs none
                assert st_flow(network.graph(na, nb, got), a, b, cap=k) is got
    assert checked >= 500 and over >= 20, (checked, over)


def test_separation_preservation_in_torso():
    # separation through torso equals separation in the original graph for
    # every small separator inside C
    rng = random.Random(99)
    for trial in range(40):
        n = rng.randint(4, 9)
        G = random_graph(RandomModel(n, rng.choice((0.25, 0.4)), 5000 + trial))
        a, b = rng.sample(range(n), 2)
        extra = [v for v in range(n) if v not in (a, b) and rng.random() < 0.5]
        C = sorted({a, b, *extra})
        tr = torso(G, C)
        na, nb = tr.orig.index(a), tr.orig.index(b)
        others = [v for v in C if v not in (a, b)]
        for r in range(0, min(3, len(others)) + 1):
            for S in itertools.combinations(others, r):
                inside = is_separator(tr.graph, [tr.orig.index(v) for v in S], (na,), (nb,))
                outside = is_separator(G, S, (a,), (b,))
                assert inside == outside


def test_reduce_examples():
    ri = reduce_instance(P3, (0, 2), 1)
    assert ri.gstar == P3 == ri.induced
    ri = reduce_instance(C4, (0, 2), 2)
    assert ri.gstar == C4

    ri = reduce_instance(PP, (0, 5), 1)
    assert ri.cover == (0, 5)
    # the torso joins the terminals; the class graph G[cover] has no edge
    assert ri.gstar == Graph(2, [(0, 1)]) and ri.induced == Graph(2)
    # serialised, the torso edge becomes k+1 = 2 gadget vertices of degree 2
    data = ri.to_jsonable()
    assert data["n"] == 4 and data["edges"] == [[1, 3], [1, 4], [2, 3], [2, 4]]
    # no s-t separator of size <= 1 on either side
    assert enumerate_minimal_separators(PP, 0, 5, 1) == []
    assert enumerate_minimal_separators(ri.gstar, 0, 1, 1) == []


def test_reduce_requires_two_terminals():
    with pytest.raises(DomainError):
        reduce_instance(P3, (0,), 1)


def test_reduce_induced_subgraph_identity():
    for G, rng in seeded_graphs(40, seed=17, n_lo=5, n_hi=10):
        terms = tuple(rng.sample(range(G.n), 2))
        ri = reduce_instance(G, terms, 2)
        # the solve graph is the torso of the cover, the class graph G[cover]
        assert ri.gstar == torso(G, ri.cover).graph
        assert ri.induced == induced_subgraph(G, ri.cover).graph


def test_reduce_preserves_minimal_separator_family():
    checked = 0
    for G, rng in seeded_graphs(60, seed=19, n_lo=5, n_hi=10):
        s, t = rng.sample(range(G.n), 2)
        k = rng.randint(1, 3)
        ri = reduce_instance(G, (s, t), k)
        fam_g = set()
        if not G.has_edge(s, t):
            fam_g = {frozenset(S) for S in enumerate_minimal_separators(G, s, t, k)}
        ss, tt = ri.to_gstar(s), ri.to_gstar(t)
        fam_star = set()
        if not ri.gstar.has_edge(ss, tt):
            for S in enumerate_minimal_separators(ri.gstar, ss, tt, k):
                fam_star.add(frozenset(ri.cover[v] for v in S))
        assert fam_g == fam_star
        checked += 1
    assert checked >= 50


def _gadget_reduction_jsonable(G, terminals, k):
    """Reference twin: the replacement graph as reduce_instance built it when
    every torso-added edge was replaced by k+1 undeletable two-edge gadget
    paths inside the solve graph. The two lowest terminals are the one pair
    covered; the others are kept as vertices. The printed k and the gadgets
    use k clamped to n - 2, the largest separator G can have."""
    terms = G.check_vertices(terminals)
    cover = set(terms)
    contributing = 0
    g_max = 0
    s, t = terms[:2]
    if not G.has_edge(s, t):
        r = min_vertex_separator(G, (s,), (t,), cap=k)
        if r.within(k):
            cover.update(cover_set(G, s, t, k))
            contributing += 1
            if r.size >= 1:
                g_max = tw_bound(int(r.size), k - int(r.size)).g_value
    width_bound = min(3 * contributing * (g_max + 1) + 1 + len(terms) - 2, SATURATION_LIMIT)
    tor = torso(G, cover)
    added_new = {(i, j) for i, j in tor.graph.edges() if not G.has_edge(tor.orig[i], tor.orig[j])}
    edges = [e for e in tor.graph.edges() if e not in added_new]
    origin = list(tor.orig)
    nxt = len(tor.orig)
    for u, v in sorted(added_new):
        for _ in range(min(k, G.n - 2) + 1):
            edges += [(u, nxt), (v, nxt)]
            origin.append(GADGET)
            nxt += 1
    gstar = Graph(nxt, edges)
    if nxt > len(tor.orig):
        width_bound = max(width_bound, 2)
    return {
        "n": gstar.n,
        "edges": [[u + 1, v + 1] for u, v in gstar.edges()],
        "cover": [v + 1 for v in tor.orig],
        "terminals": [v + 1 for v in terms],
        "k": min(k, G.n - 2),
        "origin": [GADGET if o == GADGET else o + 1 for o in origin],
        "width_bound": width_bound,
    }


def test_reduce_jsonable_matches_gadget_construction():
    cases = [(fx.graph, (fx.s, fx.t), k) for fx in FIXTURES.values() for k in (1, 2, 3)]
    for G, rng in seeded_graphs(220, seed=53, n_lo=5, n_hi=12):
        cases.append((G, tuple(rng.sample(range(G.n), rng.randint(2, 3))),
                      rng.randint(1, 3)))
    with_gadgets = 0
    for G, terms, k in cases:
        data = reduce_instance(G, terms, k).to_jsonable()
        assert data == _gadget_reduction_jsonable(G, terms, k)
        with_gadgets += GADGET in data["origin"]
    assert with_gadgets >= 50


def test_serialised_width_within_printed_bound():
    # with no contributing pair the torso's own bound can be 1, but two
    # terminals joined by k+1 >= 2 gadgets form K_{2,k+1}, of width 2
    raised = 0
    for G, rng in seeded_graphs(200, seed=59, n_lo=5, n_hi=11):
        terms = tuple(rng.sample(range(G.n), rng.randint(2, 3)))
        ri = reduce_instance(G, terms, rng.randint(0, 3))
        data = ri.to_jsonable()
        serialised = Graph(data["n"], [(u - 1, v - 1) for u, v in data["edges"]])
        assert decompose(serialised).width <= data["width_bound"], (G.edges(), terms, ri.k)
        raised += data["width_bound"] > ri.width_bound
    assert raised >= 20, raised


def test_reduced_instance_json_roundtrip():
    ri = reduce_instance(PP, (0, 5), 1)
    data = ri.to_jsonable()
    assert data["cover"] == [1, 6]
    assert data["origin"] == [1, 6, GADGET, GADGET]
    assert data["k"] == 1
    import json
    assert json.loads(json.dumps(data)) == data
