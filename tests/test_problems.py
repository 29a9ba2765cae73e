import itertools
import random

import pytest

import sepkit.graphs
import sepkit.problems
from sepkit.graphs import DomainError, Graph, delete_vertices, two_coloring, vset
from sepkit.oracle import (FIXTURES, bf_edge_induced_vertex_cut,
                           bf_exact_stable_bipartization, bf_g_mincut,
                           bf_max_matching_size, bf_odd_cycle_transversal,
                           bf_separator_union, bf_stable_bipartization,
                           complete_graph, cycle_graph, path_graph,
                           _bipartite_after, _independent)
from sepkit.oracle import enumerate_minimal_separators
from sepkit.problems import (EdgeCutWitness, _attached, bipartite_max_independent_set,
                             bipartization_branches, edge_induced_vertex_cut,
                             exact_separator_union, exact_stable_bipartization,
                             odd_cycle_transversal, stable_bipartization,
                             stable_st_cut)
from sepkit.separation import PairNetwork, is_separator, min_vertex_separator
from sepkit.solver import (ANY, EDGELESS, MATCH_DEFICIENCY, CutConstraints, collect, g_mincut,
                           g_multicut_uncut)

from strategies import nonadjacent_pair, odd_cycle_transversal_by_recolouring, seeded_graphs

P3 = FIXTURES["P3"].graph
C4 = FIXTURES["C4"].graph
D4 = FIXTURES["D4"].graph
PP = FIXTURES["PP"].graph


def test_stable_st_cut_examples():
    assert stable_st_cut(C4, 0, 2, 2) == (1, 3)
    assert stable_st_cut(D4, 0, 2, 2) is None
    assert stable_st_cut(Graph(2), 0, 1, 0) == ()


def test_oct_examples():
    assert odd_cycle_transversal(C4, 0) == ()
    out = odd_cycle_transversal(cycle_graph(5), 1)
    assert out is not None and len(out) == 1
    assert odd_cycle_transversal(complete_graph(4), 1) is None
    out = odd_cycle_transversal(complete_graph(4), 2)
    assert out is not None and len(out) == 2


def test_oct_returns_minimum_size():
    # two triangles sharing a vertex: greedy compression alone would settle
    # on two vertices, the minimum transversal is the shared one
    shared = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert odd_cycle_transversal(shared, 3) == (0,)
    for G, rng in seeded_graphs(80, seed=79, n_lo=4, n_hi=12,
                                ps=(0.25, 0.45, 0.65)):
        k = rng.randint(0, 4)
        fast = odd_cycle_transversal(G, k)
        slow = bf_odd_cycle_transversal(G, k)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert len(fast) == len(slow)


def _compress_oct_reference(G, S0, k):
    """The compression step as its own branch loop, the reference twin of
    ``_compress_oct``: each branch (R, B0, W0) with |R| <= k and both colour
    classes independent cuts X from Y in G - S0 with fresh terminals
    attached, at budget k - |R|, and the first cut within it plus R wins."""
    rest = delete_vertices(G, S0)
    col = two_coloring(rest.graph)
    Bp, Wp = set(rest.map_back(col[0])), set(rest.map_back(col[1]))
    for digits in itertools.product((0, 1, 2), repeat=len(S0)):
        R, B0, W0 = (tuple(v for v, d in zip(S0, digits) if d == side) for side in range(3))
        if len(R) > k or not (_independent(G, B0) and _independent(G, W0)):
            continue
        B = {u for w in W0 for u in G.adj[w]} - set(S0)    # forced black
        W = {u for b in B0 for u in G.adj[b]} - set(S0)    # forced white
        X = (B & Bp) | (W & Wp)
        Y = (B & Wp) | (W & Bp)
        s, t = rest.graph.n, rest.graph.n + 1
        H = Graph(t + 1, rest.graph.edges() + [(s, rest.to_new(x)) for x in X]
                  + [(t, rest.to_new(y)) for y in Y])
        r = min_vertex_separator(H, (s,), (t,), cap=k - len(R))
        if r.within(k - len(R)):
            return vset(R + rest.map_back(r.witness))
    return None


def test_compress_oct_matches_reference_twin(monkeypatch):
    # every compression step that odd_cycle_transversal runs, in the prefix
    # pass and in the final shrinking loop, answers as the twin does
    steps = []
    compress = sepkit.problems._compress_oct

    def twinned(G, S0, k):
        out = compress(G, S0, k)
        assert out == _compress_oct_reference(G, S0, k), (G, S0, k)
        steps.append(out is not None)
        return out

    monkeypatch.setattr(sepkit.problems, "_compress_oct", twinned)
    for G, rng in seeded_graphs(420, seed=89, n_lo=5, n_hi=16,
                                ps=(0.2, 0.3, 0.45)):
        odd_cycle_transversal(G, rng.randint(0, 4))
    assert len(steps) >= 300 and 50 <= sum(steps) <= len(steps) - 50, \
        (len(steps), sum(steps))


def test_stable_bipartization_examples():
    out = stable_bipartization(complete_graph(3), 1)
    assert out is not None and len(out) == 1
    for k in range(5):
        assert stable_bipartization(complete_graph(4), k) is None
    assert stable_bipartization(C4, 0) == ()


def _near_bipartite(n, degree, odd, seed):
    """Random bipartite graph on two halves with the given expected degree,
    plus ``odd`` edges inside one half each (the benchmark's generator)."""
    rng = random.Random(seed)
    half = n // 2
    p = degree / (n - half)
    pairs = {(i, j) for i in range(half) for j in range(half, n) if rng.random() < p}
    while odd:
        lo, hi = rng.choice(((0, half), (half, n)))
        a, b = sorted(rng.sample(range(lo, hi), 2))
        if (a, b) not in pairs:
            pairs.add((a, b))
            odd -= 1
    return Graph(n, pairs)


def test_oct_builds_one_prefix_graph_per_compression_step(monkeypatch):
    # the prefix pass grows a parity union-find; only a compression step
    # builds its prefix graph
    builds, steps = [], []
    induced, compress = sepkit.graphs.induced_subgraph, sepkit.problems._compress_oct

    def counted(*args):
        builds.append(1)
        return induced(*args)

    def counted_step(*args):
        steps.append(1)
        return compress(*args)

    for module in (sepkit.graphs, sepkit.problems):
        monkeypatch.setattr(module, "induced_subgraph", counted)
    monkeypatch.setattr(sepkit.problems, "_compress_oct", counted_step)
    G = _near_bipartite(100, 4.0, 3, 103)
    for k in (1, 2, 3):
        builds.clear()
        steps.clear()
        odd_cycle_transversal(G, k)
        assert steps and len(builds) <= len(steps), (k, len(builds), len(steps))


def test_oct_colours_only_in_compression_steps(monkeypatch):
    # the prefix pass decides each vertex in its parity union-find; two_coloring
    # runs only in a compression step, once for its branches and once to
    # re-verify its answer
    colourings, steps = [], []
    colour, compress = sepkit.problems.two_coloring, sepkit.problems._compress_oct

    def counted(*args):
        colourings.append(1)
        return colour(*args)

    def counted_step(*args):
        steps.append(1)
        return compress(*args)

    monkeypatch.setattr(sepkit.problems, "two_coloring", counted)
    monkeypatch.setattr(sepkit.problems, "_compress_oct", counted_step)
    G = _near_bipartite(100, 4.0, 3, 103)
    for k in (1, 2, 3):
        colourings.clear()
        steps.clear()
        odd_cycle_transversal(G, k)
        assert steps and len(colourings) <= 2 * len(steps), (k, len(colourings), len(steps))


def test_compress_oct_builds_one_network_per_step(monkeypatch):
    # every branch flows on the step's one PairNetwork of G - S0: no branch
    # builds a graph of its own
    built = {"network": 0, "attached": 0, "graph": 0}
    per_step = []
    init, attached, graph_init = PairNetwork.__init__, sepkit.problems._attached, Graph.__init__
    compress = sepkit.problems._compress_oct

    def counter(key, real):
        def counted(*args, **kwargs):
            built[key] += 1
            return real(*args, **kwargs)
        return counted

    def step(*args):
        before = dict(built)
        out = compress(*args)
        per_step.append(tuple(built[key] - before[key] for key in built))
        return out

    monkeypatch.setattr(PairNetwork, "__init__", counter("network", init))
    monkeypatch.setattr(sepkit.problems, "_attached", counter("attached", attached))
    monkeypatch.setattr(Graph, "__init__", counter("graph", graph_init))
    monkeypatch.setattr(sepkit.problems, "_compress_oct", step)
    for k in (1, 2, 3):
        odd_cycle_transversal(_near_bipartite(100, 4.0, 3, 103), k)
    for G, rng in seeded_graphs(40, seed=97, n_lo=5, n_hi=14):
        odd_cycle_transversal(G, rng.randint(0, 4))
    assert len(per_step) >= 40 and set(per_step) == {(1, 0, 0)}, per_step


def test_oct_matches_recolouring_twin():
    # the union-find prefix loop keeps every verdict of a fresh colouring
    # per vertex, so each compression step and transversal are the same
    found = 0
    for G, rng in seeded_graphs(300, seed=101, n_lo=1, n_hi=40,
                                ps=(0.05, 0.1, 0.15, 0.25)):
        k = rng.randint(0, 5)
        out = odd_cycle_transversal(G, k)
        assert out == odd_cycle_transversal_by_recolouring(G, k), (G, k)
        found += out is not None
    rng = random.Random(107)
    for _ in range(40):
        G = _near_bipartite(rng.randint(60, 150), rng.choice((2.0, 3.0, 4.0)),
                            rng.randint(1, 5), rng.randrange(10 ** 6))
        k = rng.randint(0, 5)
        out = odd_cycle_transversal(G, k)
        assert out == odd_cycle_transversal_by_recolouring(G, k), (G, k)
        found += out is not None
    assert 100 <= found <= 300, found


def _stable_bipartization_reference(G, k):
    """Reference twin of ``stable_bipartization``: the branch loop with its
    own split of the transversal S0, each branch graph built as G minus B0
    and W0 plus s joined to X and R and t joined to Y and R."""
    S0 = odd_cycle_transversal(G, k)
    if S0 is None:
        return None
    Bp, Wp = map(set, two_coloring(G, S0))
    for digits in itertools.product((0, 1, 2), repeat=len(S0)):
        R, B0, W0 = (tuple(v for v, d in zip(S0, digits) if d == side) for side in range(3))
        if not (_independent(G, B0) and _independent(G, W0)):
            continue
        if len(R) > k or not _independent(G, R):
            continue
        B = {u for w in W0 for u in G.adj[w]} - set(S0)
        W = {u for b in B0 for u in G.adj[b]} - set(S0)
        X = (B & Bp) | (W & Wp) | set(R)
        Y = (B & Wp) | (W & Bp) | set(R)
        rest = delete_vertices(G, B0 + W0)
        s = rest.graph.n
        H = Graph(s + 2, [*rest.graph.edges(), *((s, rest.to_new(v)) for v in X),
                          *((s + 1, rest.to_new(v)) for v in Y)])
        wit = g_mincut(H, s, s + 1, k, EDGELESS)
        if wit is not None:
            return rest.map_back(wit)
    return None


def test_stable_bipartization_matches_branch_graph_twin():
    # branch graphs built from the plain branch record give the witnesses
    # that the graph of G minus B0 and W0 gives, past the oracle's n <= 14
    found = 0
    for G, rng in seeded_graphs(300, seed=109, n_lo=1, n_hi=40,
                                ps=(0.05, 0.1, 0.15, 0.25)):
        k = rng.randint(0, 5)
        out = stable_bipartization(G, k)
        assert out == _stable_bipartization_reference(G, k), (G, k)
        found += out is not None
    rng = random.Random(113)
    for _ in range(40):
        G = _near_bipartite(rng.randint(60, 150), rng.choice((2.0, 3.0, 4.0)),
                            rng.randint(1, 5), rng.randrange(10 ** 6))
        k = rng.randint(0, 5)
        out = stable_bipartization(G, k)
        assert out == _stable_bipartization_reference(G, k), (G, k)
        found += out is not None
    assert 100 <= found <= 300, found


def test_stable_bipartization_dp_states_sum_over_branches(monkeypatch):
    G = _near_bipartite(20, 3.0, 3, 4)
    with collect() as stats:
        assert stable_bipartization(G, 3) is None
    # reference: every branch's g_mincut read under its own collect()
    per_branch = []
    g_mincut = sepkit.problems.g_mincut

    def counted(*args):
        with collect() as own:
            out = g_mincut(*args)
        per_branch.append(own.get("dp_states", 0))
        return out

    monkeypatch.setattr(sepkit.problems, "g_mincut", counted)
    assert stable_bipartization(G, 3) is None
    # six of the 18 branches stop at a flow above k and run no DP
    assert sum(1 for n in per_branch if n) == 12
    assert stats["dp_states"] == sum(per_branch) == 457


def test_stable_bipartization_stats_describe_the_last_branch():
    # the last branch stops at its flow, so no cover, width or bound of an
    # earlier branch's DP may stand next to its null ell and excess
    with collect() as stats:
        assert stable_bipartization(_near_bipartite(20, 3.0, 3, 4), 3) is None
    assert stats == {"ell": None, "excess": None, "cover_size": None,
                     "width_bound": None, "width": None, "dp_states": 457}


def test_exact_stable_bipartization_examples():
    out = exact_stable_bipartization(cycle_graph(5), 2)
    assert out is not None and len(out) == 2
    assert _independent(cycle_graph(5), out) and _bipartite_after(cycle_graph(5), out)
    assert exact_stable_bipartization(complete_graph(3), 2) is None
    out = exact_stable_bipartization(P3, 1)
    assert out is not None and len(out) == 1


def test_exact_stable_bipartization_budget_above_n_answers_at_once(monkeypatch):
    # a budget above the allowed vertices can never fill, so the search
    # stops at its root instead of branching on the cycle vertices; a call
    # count, not a time, bounds it
    calls = []
    solve = sepkit.problems._exact_solve

    def counted(*args):
        calls.append(1)
        if len(calls) > 50:
            raise RuntimeError("exact search did not stop")
        return solve(*args)

    monkeypatch.setattr(sepkit.problems, "_exact_solve", counted)
    G = _near_bipartite(100, 4.0, 3, 103)
    for k in (G.n + 1, 1_000_000):
        calls.clear()
        assert exact_stable_bipartization(G, k) is None
        assert len(calls) == 1


def test_exact_stable_bipartization_split_branch():
    # odd cycles longer than 3k+1 with every vertex allowed go through the
    # split-and-extend route
    for n, k in ((5, 1), (11, 3), (13, 2)):
        G = cycle_graph(n)
        out = exact_stable_bipartization(G, k)
        assert out is not None and len(out) == k
        assert _independent(G, out) and _bipartite_after(G, out)


def test_exact_stable_bipartization_annotated():
    c5 = cycle_graph(5)
    assert exact_stable_bipartization(c5, 1, allowed=(0,)) == (0,)
    assert exact_stable_bipartization(c5, 2, allowed=(0, 1)) is None
    assert exact_stable_bipartization(c5, 2, allowed=(0, 2)) == (0, 2)
    assert exact_stable_bipartization(c5, 1, allowed=()) is None


def test_exact_stable_bipartization_negative_k():
    with pytest.raises(DomainError):
        exact_stable_bipartization(P3, -1)


def test_bipartite_max_independent_set():
    assert set(bipartite_max_independent_set(C4)) in ({0, 2}, {1, 3})
    assert len(bipartite_max_independent_set(path_graph(5))) == 3
    assert len(bipartite_max_independent_set(Graph(4))) == 4
    with pytest.raises(DomainError):
        bipartite_max_independent_set(cycle_graph(3))


def test_bipartite_max_independent_set_is_maximum():
    # König: the largest independent set of a bipartite graph leaves out one
    # vertex per edge of a maximum matching
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randint(0, 12)
        black = set(rng.sample(range(n), rng.randint(0, n)))
        p = rng.random()
        H = Graph(n, [(u, v) for u in black for v in range(n)
                      if v not in black and rng.random() < p])
        out = bipartite_max_independent_set(H)
        assert _independent(H, out)
        assert len(out) == n - bf_max_matching_size(H)


def test_bipartite_max_independent_set_long_augmenting_paths():
    # 2 x 1500 ladder, rung i is (2i, 2i+1): augmenting paths run the whole
    # ladder, which overflowed a recursive search
    n = 1500
    edges = [(2 * i, 2 * i + 1) for i in range(n)]
    edges += [(2 * i + r, 2 * i + 2 + r) for i in range(n - 1) for r in (0, 1)]
    assert len(bipartite_max_independent_set(Graph(2 * n, edges))) == n


def test_eivc_examples():
    p4 = path_graph(4)
    wit = edge_induced_vertex_cut(p4, 0, 3, 1)
    assert wit == EdgeCutWitness(((1, 2),), (1, 2))
    assert edge_induced_vertex_cut(C4, 0, 2, 1) is None
    wit = edge_induced_vertex_cut(C4, 0, 2, 2)
    assert wit is not None and wit.deleted == (1, 3) and len(wit.edges) == 2
    assert edge_induced_vertex_cut(Graph(2, [(0, 1)]), 0, 1, 9) is None


def test_eivc_witness_semantics():
    for G, rng in seeded_graphs(60, seed=53, n_lo=4, n_hi=10):
        s, t = rng.sample(range(G.n), 2)
        k = rng.randint(0, 3)
        wit = edge_induced_vertex_cut(G, s, t, k)
        if wit is None:
            continue
        assert len(wit.edges) <= k
        for u, v in wit.edges:
            assert G.has_edge(u, v)
        deleted = {v for e in wit.edges for v in e} - {s, t}
        assert tuple(sorted(deleted)) == wit.deleted
        assert is_separator(G, deleted, (s,), (t,))


def test_eivc_agrees_with_matching_deficiency_reduction():
    for G, rng in seeded_graphs(60, seed=59, n_lo=4, n_hi=9):
        s, t = rng.sample(range(G.n), 2)
        k = rng.randint(0, 2)
        direct = bf_edge_induced_vertex_cut(G, s, t, k)
        reduced = bf_g_mincut(G, s, t, 2 * k, MATCH_DEFICIENCY(k).membership)
        fast = edge_induced_vertex_cut(G, s, t, k)
        assert (direct is None) == (reduced is None) == (fast is None)


def test_exact_separator_union_examples():
    assert exact_separator_union(P3, 0, 2, 1) == (1,)
    assert exact_separator_union(PP, 0, 5, 2) == (1, 2, 3, 4)
    assert exact_separator_union(C4, 0, 2, 1) == ()


def test_exact_separator_union_adjacent_error():
    with pytest.raises(DomainError):
        exact_separator_union(Graph(2, [(0, 1)]), 0, 1, 1)


def test_problem_decisions_match_oracle():
    for G, rng in seeded_graphs(60, seed=61, n_lo=4, n_hi=11):
        k = rng.randint(0, 3)
        assert (odd_cycle_transversal(G, k) is None) == \
            (bf_odd_cycle_transversal(G, k) is None)
        assert (stable_bipartization(G, k) is None) == \
            (bf_stable_bipartization(G, k) is None)
        assert (exact_stable_bipartization(G, k) is None) == \
            (bf_exact_stable_bipartization(G, k) is None)


def test_exact_separator_union_matches_oracle():
    checked = 0
    for G, rng in seeded_graphs(40, seed=67, n_lo=4, n_hi=10):
        pair = nonadjacent_pair(G, rng)
        if pair is None:
            continue
        s, t = pair
        k = rng.randint(0, 5)
        assert exact_separator_union(G, s, t, k) == bf_separator_union(G, s, t, k)
        checked += 1
    assert checked >= 30


def _separator_union_reference(G, s, t, k):
    """``exact_separator_union`` as a scan of every vertex of G, cover or
    not: a minimum-separator vertex qualifies at once, any other v when
    G - v has a separator of size <= k-1 cutting s from t while keeping s
    joined to one neighbour of v and t to another."""
    flow = min_vertex_separator(G, (s,), (t,))
    if flow.size == 0 or flow.size > k:
        return ()
    out = []
    on_minimum = flow.residual.sides()
    for v in range(G.n):
        if v in (s, t):
            continue
        if v in on_minimum:
            out.append(v)
            continue
        rest = delete_vertices(G, (v,))
        ns, nt = rest.to_new(s), rest.to_new(t)
        if not min_vertex_separator(rest.graph, (ns,), (nt,), cap=k - 1).within(k - 1):
            continue
        if any(g_multicut_uncut(rest.graph,
                                CutConstraints(((ns, nt),),
                                               ((ns, rest.to_new(v1)), (nt, rest.to_new(v2)))),
                                k - 1, ANY) is not None
               for v1 in G.adj[v] for v2 in G.adj[v] if v1 != v2):
            out.append(v)
    return tuple(out)


def test_exact_separator_union_matches_all_vertex_scan():
    # past the oracle's n <= 14 cap, at excess 0 or 1 where the minimum
    # separator allows k <= 4
    nonempty = 0
    for G, rng in seeded_graphs(32, seed=83, n_lo=15, n_hi=24,
                                ps=(0.15, 0.2, 0.25)):
        pair = nonadjacent_pair(G, rng)
        if pair is None:
            continue
        s, t = pair
        ell = min_vertex_separator(G, (s,), (t,)).size
        k = min(4, int(ell) + rng.randint(0, 1)) if 0 < ell <= 4 else rng.randint(1, 4)
        want = _separator_union_reference(G, s, t, k)
        assert exact_separator_union(G, s, t, k) == want
        nonempty += bool(want)
    assert nonempty >= 25


def _gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def test_exact_separator_union_tests_only_cover_vertices(monkeypatch):
    # cut-ladder's gnp12 at k=5: every candidate outside a minimum separator
    # lies outside the cover, so no multicut-uncut call is needed
    G = _gnp(12, 0.25, 121)
    calls = []
    multicut = sepkit.problems.g_multicut_uncut

    def counted(*args, **kwargs):
        calls.append(1)
        return multicut(*args, **kwargs)

    monkeypatch.setattr(sepkit.problems, "g_multicut_uncut", counted)
    assert exact_separator_union(G, 3, 5, 5) == bf_separator_union(G, 3, 5, 5)
    assert calls == []


def test_exact_separator_union_runs_one_flow_per_candidate(monkeypatch):
    # each candidate G - v gets one multicut-uncut call, which reuses the
    # capped s-t flow of G - v instead of running its own
    G = Graph(8, [(0, 1), (0, 2), (0, 4), (0, 6), (1, 2), (1, 5), (1, 6), (2, 3),
                  (2, 4), (2, 6), (2, 7), (3, 4), (3, 6), (4, 5), (5, 7)])
    rests, flows, multicuts = [], [], []
    delete, flow, multicut = (sepkit.problems.delete_vertices, min_vertex_separator,
                              sepkit.problems.g_multicut_uncut)

    def deleted(*args):
        rests.append(delete(*args))
        return rests[-1]

    def flowed(H, A, B, cap=None):
        flows.append((H, set(A) | set(B)))
        return flow(H, A, B, cap=cap)

    def multicut_counted(H, *args, **kwargs):
        multicuts.append(H)
        return multicut(H, *args, **kwargs)

    monkeypatch.setattr(sepkit.problems, "delete_vertices", deleted)
    monkeypatch.setattr(sepkit.problems, "g_multicut_uncut", multicut_counted)
    for module in (sepkit.separation, sepkit.problems):
        monkeypatch.setattr(module, "min_vertex_separator", flowed)
    assert exact_separator_union(G, 0, 7, 3) == bf_separator_union(G, 0, 7, 3) == (1, 2, 4, 5)
    per_v = [(sum(H is rest.graph for H in multicuts),
              sum(H is rest.graph and ends == {rest.to_new(0), rest.to_new(7)}
                  for H, ends in flows)) for rest in rests]
    assert len(rests) == 2 and per_v == [(1, 1)] * len(rests), per_v


def test_exact_separator_union_call_count_pinned(monkeypatch):
    # cut-ladder's gnp16 at k=3: five candidates pass the G - v flow, and
    # each is one call; a loop over ordered neighbour pairs makes 88
    G = _gnp(16, 0.25, 79)
    calls = []
    multicut = sepkit.problems.g_multicut_uncut

    def counted(*args, **kwargs):
        calls.append(1)
        return multicut(*args, **kwargs)

    monkeypatch.setattr(sepkit.problems, "g_multicut_uncut", counted)
    assert exact_separator_union(G, 8, 10, 3) == _separator_union_reference(G, 8, 10, 3) \
        == (0, 1, 4, 11, 14, 15)
    assert len(calls) == 5


def test_every_branch_separator_contains_r():
    G = cycle_graph(5)
    S0 = odd_cycle_transversal(G, 2)
    saw_nonempty_r = False
    for R, B0, W0, X, Y in bipartization_branches(G, S0):
        assert _independent(G, B0) and _independent(G, W0)
        if not R:
            continue
        saw_nonempty_r = True
        colored = set(B0 + W0)
        kept = tuple(v for v in range(G.n) if v not in colored)
        H = _attached(G, kept, X + R, Y + R)
        r_ids = {kept.index(v) for v in R}
        for S in enumerate_minimal_separators(H, len(kept), len(kept) + 1, H.n):
            assert r_ids <= set(S)
    assert saw_nonempty_r
    with pytest.raises(DomainError):
        next(bipartization_branches(G, ()))    # C5 itself is not bipartite


def test_oct_witnesses_verify():
    for G, rng in seeded_graphs(40, seed=71, n_lo=4, n_hi=11):
        k = rng.randint(0, 4)
        out = odd_cycle_transversal(G, k)
        if out is not None:
            assert len(out) <= k and _bipartite_after(G, out)
        sb = stable_bipartization(G, k)
        if sb is not None:
            assert len(sb) <= k and _independent(G, sb) and _bipartite_after(G, sb)
        ex = exact_stable_bipartization(G, k)
        if ex is not None:
            assert len(ex) == k and _independent(G, ex) and _bipartite_after(G, ex)
