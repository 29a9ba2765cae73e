import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepkit.solver
from sepkit.graphs import DomainError, Graph
from sepkit.oracle import (FIXTURES, bf_g_mincut, bf_max_matching_size,
                           bf_multicut_uncut, complete_graph, cycle_graph,
                           path_graph)
from sepkit.reduction import reduce_instance
from sepkit.solver import (ANY, BIPARTITE, EDGELESS, FOREST, MATCH_DEFICIENCY,
                           MAX_DEGREE, FORBIDDEN_INDUCED, CutConstraints,
                           HereditaryClass, VerificationError, check_hereditary,
                           decode_graph6, _canon, dp_constrained_cut, g_mincut,
                           g_multicut_uncut, matching_deficiency,
                           maximum_matching, parse_class)
from sepkit.treedecomp import decompose, make_nice

from strategies import graphs, grid, seeded_graphs

P3 = FIXTURES["P3"].graph
C4 = FIXTURES["C4"].graph
D4 = FIXTURES["D4"].graph


def _nice(G, root=0):
    return make_nice(decompose(G), G, root_vertex=root)


def test_dp_examples():
    wit = dp_constrained_cut(P3, _nice(P3), CutConstraints(((0, 2),)), 1, EDGELESS)
    assert wit.deletion_set == (1,)
    wit = dp_constrained_cut(C4, _nice(C4), CutConstraints(((0, 2),)), 2, EDGELESS)
    assert wit.deletion_set == (1, 3)
    assert dp_constrained_cut(D4, _nice(D4), CutConstraints(((0, 2),)), 2, EDGELESS) is None


def test_dp_judges_class_on_induced_graph():
    # D4 is C4 plus the chord 1-3, which joins blocks but is no edge of the
    # class graph C4
    cons = CutConstraints(((0, 2),))
    assert dp_constrained_cut(D4, _nice(D4), cons, 2, EDGELESS) is None
    wit = dp_constrained_cut(D4, _nice(D4), cons, 2, EDGELESS, C4)
    assert wit.deletion_set == (1, 3) and wit.induced_graph == Graph(2)


def test_dp_validates_decomposition():
    with pytest.raises(DomainError):
        dp_constrained_cut(C4, _nice(P3), CutConstraints(((0, 2),)), 1, EDGELESS)


def test_dp_stats_populated():
    stats = {}
    dp_constrained_cut(C4, _nice(C4), CutConstraints(((0, 2),)), 2, EDGELESS,
                       stats_out=stats)
    assert stats["dp_states"] > 0 and stats["width"] == 2


def test_g_mincut_examples():
    assert g_mincut(C4, 0, 2, 2, EDGELESS).deletion_set == (1, 3)
    assert g_mincut(D4, 0, 2, 2, EDGELESS) is None
    assert g_mincut(Graph(2, [(0, 1)]), 0, 1, 5, EDGELESS) is None


def test_g_mincut_k0_by_components():
    assert g_mincut(Graph(3, [(0, 1)]), 0, 2, 0, EDGELESS).deletion_set == ()
    assert g_mincut(P3, 0, 2, 0, EDGELESS) is None


def test_g_mincut_witness_is_minimal_separator():
    for G, rng in seeded_graphs(40, seed=29, n_lo=5, n_hi=12):
        s, t = rng.sample(range(G.n), 2)
        k = rng.randint(1, 4)
        wit = g_mincut(G, s, t, k, ANY)
        if wit is None:
            continue
        from sepkit.separation import is_separator
        S = wit.deletion_set
        assert is_separator(G, S, (s,), (t,))
        for v in S:
            assert not is_separator(G, set(S) - {v}, (s,), (t,))


def test_g_multicut_examples():
    star = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 3)])
    wit = g_multicut_uncut(star, CutConstraints(((1, 2),), ((1, 3),)), 1, EDGELESS)
    assert wit.deletion_set == (0,)
    # uncut-only at k=0: yes iff pairs already connected
    assert g_multicut_uncut(star, CutConstraints((), ((1, 3),)), 0, EDGELESS).deletion_set == ()
    assert g_multicut_uncut(Graph(2), CutConstraints((), ((0, 1),)), 0, EDGELESS) is None
    # adjacent cut pair is immediately infeasible
    assert g_multicut_uncut(star, CutConstraints(((0, 1),)), 3, EDGELESS) is None


def test_g_multicut_shared_terminals_evaluated_independently():
    # same pair as cut and uncut can never be satisfied
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    cons = CutConstraints(((0, 3),), ((0, 3),))
    assert g_multicut_uncut(g, cons, 2, ANY) is None
    # sharing one endpoint is fine
    cons = CutConstraints(((0, 3),), ((0, 1),))
    wit = g_multicut_uncut(g, cons, 1, ANY)
    assert wit is not None and wit.deletion_set == (2,)


def test_heredity_prune_differential():
    for G, rng in seeded_graphs(25, seed=31, n_lo=5, n_hi=9):
        s, t = rng.sample(range(G.n), 2)
        if G.has_edge(s, t):
            continue
        k = rng.randint(1, 3)
        ri = reduce_instance(G, (s, t), k)
        nice = make_nice(decompose(ri.gstar), ri.gstar)
        cons = CutConstraints(((ri.to_gstar(s), ri.to_gstar(t)),))
        for cls in (EDGELESS, FOREST, MAX_DEGREE(1)):
            pruned = dp_constrained_cut(ri.gstar, nice, cons, k, cls,
                                        ri.induced, prune_hereditary=True)
            lazy = dp_constrained_cut(ri.gstar, nice, cons, k, cls,
                                      ri.induced, prune_hereditary=False)
            assert (pruned is None) == (lazy is None)


def test_gadget_vertices_never_in_witnesses():
    for G, rng in seeded_graphs(30, seed=37, n_lo=5, n_hi=10):
        s, t = rng.sample(range(G.n), 2)
        wit = g_mincut(G, s, t, 3, ANY)
        if wit is not None:
            assert set(wit.deletion_set) <= set(range(G.n))


def test_builtin_classes_membership():
    assert EDGELESS.contains(Graph(3))
    assert not EDGELESS.contains(P3)
    assert FOREST.contains(P3) and not FOREST.contains(cycle_graph(3))
    assert BIPARTITE.contains(C4) and not BIPARTITE.contains(cycle_graph(5))
    assert MAX_DEGREE(1).contains(Graph(4, [(0, 1), (2, 3)]))
    assert not MAX_DEGREE(1).contains(P3)
    assert MATCH_DEFICIENCY(2).contains(P3)    # 3 vertices, matching size 1
    assert not MATCH_DEFICIENCY(1).contains(P3)
    assert ANY.contains(complete_graph(5))


def test_builtin_classes_are_hereditary():
    # spot-validation over every graph with at most five vertices
    for cls in (EDGELESS, ANY, FOREST, BIPARTITE, MAX_DEGREE(1),
                MAX_DEGREE(2), MATCH_DEFICIENCY(0), MATCH_DEFICIENCY(2),
                FORBIDDEN_INDUCED([cycle_graph(3)])):
        assert check_hereditary(cls), cls.name


def test_check_hereditary_detects_violations():
    fixed_size = HereditaryClass("exactly-two", lambda H: H.n == 2)
    assert not check_hereditary(fixed_size, max_n=3)


def test_budget_cannot_exceed_class_max_check():
    cramped = HereditaryClass("cramped", lambda H: True, max_check=2)
    P5 = path_graph(5)
    with pytest.raises(DomainError):
        dp_constrained_cut(P5, _nice(P5), CutConstraints(((0, 4),)), 3, cramped)
    # the budget is first clamped to the deletable vertices (one, on P3)
    wit = dp_constrained_cut(P3, _nice(P3), CutConstraints(((0, 2),)), 3, cramped)
    assert wit.deletion_set == (1,)
    with pytest.raises(DomainError):
        cramped.contains(complete_graph(4))


def test_only_exponential_checkers_cap_their_graphs():
    for sel in ("edgeless", "any", "forest", "bipartite", "maxdeg:2"):
        assert parse_class(sel).max_check is None, sel
    assert parse_class("matchdef:1").max_check == 20
    assert parse_class("forbid:Bw").max_check == 12


def test_budget_above_64_on_uncapped_class():
    # K_{2,70}: the only separator is all 70 middle vertices; this raised
    # "budget 70 exceeds class max_check 64" while every class had a cap
    G = Graph(72, [(a, v) for a in (0, 1) for v in range(2, 72)])
    wit = g_mincut(G, 0, 1, 70, EDGELESS)
    assert wit is not None and wit.deletion_set == tuple(range(2, 72))


def _canon_reference(m, p, edges):
    """The canonical form by brute force over every permutation of the
    free vertices, isolated ones included."""
    best = None
    for perm in itertools.permutations(range(p, m)):
        remap = list(range(p)) + list(perm)
        cand = tuple(sorted(tuple(sorted((remap[a], remap[b]))) for a, b in edges))
        if best is None or cand < best:
            best = cand
    return (m, p, best)


def test_canon_matches_full_permutation_search():
    rng = random.Random(59)
    for _ in range(5000):
        m = rng.randint(0, 7)
        p = rng.randint(0, m)
        pairs = list(itertools.combinations(range(m), 2))
        edges = tuple(rng.sample(pairs, rng.randint(0, min(len(pairs), 7))))
        assert _canon.__wrapped__(m, p, edges) == _canon_reference(m, p, edges)


def test_forbidden_induced():
    no_triangle = FORBIDDEN_INDUCED([cycle_graph(3)])
    assert no_triangle.contains(C4)
    assert not no_triangle.contains(complete_graph(3))
    assert not no_triangle.contains(complete_graph(4))


def test_matching_helpers():
    for G, rng in seeded_graphs(40, seed=41, n_lo=1, n_hi=8,
                                ps=(0.2, 0.5, 0.8)):
        M = maximum_matching(G)
        assert len(M) == bf_max_matching_size(G)
        used = [v for e in M for v in e]
        assert len(used) == len(set(used))
        for u, v in M:
            assert G.has_edge(u, v)
        assert matching_deficiency(G) == G.n - len(M)


def test_decode_graph6():
    g = decode_graph6("A_")   # n=2, single edge
    assert g.n == 2 and g.m == 1
    g = decode_graph6("Bw")   # n=3, bits 111: the triangle
    assert g.n == 3 and g.m == 3
    g = decode_graph6("Bg")   # n=3, bits 101: the path
    assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]
    with pytest.raises(DomainError):
        decode_graph6("")


def test_parse_class():
    assert parse_class("edgeless") is EDGELESS
    assert parse_class("forest") is FOREST
    assert parse_class("maxdeg:2").contains(cycle_graph(4))
    assert parse_class("maxdeg:1") is parse_class("maxdeg:1")
    assert parse_class("matchdef:1").name == "matchdef:1"
    assert not parse_class("forbid:Bw").contains(decode_graph6("Bw"))
    with pytest.raises(DomainError):
        parse_class("nosuch")


@pytest.mark.parametrize("selector", ["maxdeg:x", "maxdeg:", "maxdeg:-1",
                                      "matchdef:", "matchdef:1.5", "matchdef:-2"])
def test_parse_class_rejects_bad_parameter(selector):
    with pytest.raises(DomainError):
        parse_class(selector)


def test_failed_reverification_raises_verification_error(monkeypatch):
    monkeypatch.setattr(sepkit.solver, "verify_solution", lambda *args: False)
    with pytest.raises(VerificationError):
        g_mincut(C4, 0, 2, 2, EDGELESS)
    with pytest.raises(VerificationError):
        g_multicut_uncut(C4, CutConstraints(((0, 2),)), 2, EDGELESS)


def _gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p])


Q3 = FIXTURES["Q3"].graph


# (graph, s, t, k, class) -> (dp_states, width, witness), recorded before the
# DP memoised its transitions; on a fixed decomposed graph any change to a
# state count is a bug. The _gnp(12, 0.4, 123) rows were re-recorded when the
# DP moved from the gadget replacement graph to the torso of the cover: their
# covers add torso edges, so the decomposed graph lost its gadget vertices.
# Their widths and witnesses stayed the same.
@pytest.mark.parametrize("G, s, t, k, cls, want", [
    (Q3, 0, 7, 5, "any", (452, 3, (3, 5, 6))),
    (Q3, 0, 7, 5, "forest", (452, 3, (3, 5, 6))),
    (Q3, 0, 7, 5, "bipartite", (452, 3, (3, 5, 6))),
    (Q3, 0, 7, 5, "maxdeg:1", (301, 3, (3, 5, 6))),
    (_gnp(12, 0.4, 123), 5, 9, 5, "any", (1484, 6, (7, 8, 10))),
    (_gnp(12, 0.4, 123), 5, 9, 5, "bipartite", (781, 6, (7, 8, 10))),
    (_gnp(12, 0.4, 123), 5, 9, 4, "maxdeg:1", (240, 5, None)),
    (_gnp(12, 0.4, 121), 2, 4, 5, "any", (2248, 4, (3, 5, 9, 10))),
    (grid(3, 6), 0, 17, 4, "any", (4546, 3, (2, 8, 14))),
])
def test_dp_state_counts_pinned(G, s, t, k, cls, want):
    stats = {}
    wit = g_mincut(G, s, t, k, parse_class(cls), stats_out=stats)
    got = (stats["dp_states"], stats["width"], None if wit is None else wit.deletion_set)
    assert got == want


@settings(max_examples=50, deadline=None)
@given(graphs(min_n=3, max_n=8), st.data())
def test_mincut_matches_oracle_hypothesis(G, data):
    s = data.draw(st.integers(0, G.n - 1))
    t = data.draw(st.integers(0, G.n - 1).filter(lambda v: v != s))
    k = data.draw(st.integers(0, 3))
    cls = data.draw(st.sampled_from([EDGELESS, FOREST, MAX_DEGREE(1)]))
    fast = g_mincut(G, s, t, k, cls)
    slow = bf_g_mincut(G, s, t, k, cls.membership)
    assert (fast is None) == (slow is None)
    if fast is not None:
        from sepkit.separation import is_separator
        assert is_separator(G, fast.deletion_set, (s,), (t,))
        assert len(fast.deletion_set) <= k
        assert cls.contains(fast.induced_graph)


def test_mincut_matches_oracle_across_classes():
    classes = [EDGELESS, FOREST, MAX_DEGREE(1), BIPARTITE]
    for i, (G, rng) in enumerate(seeded_graphs(80, seed=43, n_lo=5, n_hi=12)):
        s, t = rng.sample(range(G.n), 2)
        k = rng.randint(0, 4)
        cls = classes[i % len(classes)]
        fast = g_mincut(G, s, t, k, cls)
        slow = bf_g_mincut(G, s, t, k, cls.membership)
        assert (fast is None) == (slow is None)


def test_multicut_matches_oracle():
    for i, (G, rng) in enumerate(seeded_graphs(60, seed=47, n_lo=4, n_hi=10)):
        cut = [tuple(rng.sample(range(G.n), 2))]
        uncut = [tuple(rng.sample(range(G.n), 2))] if G.n >= 4 and rng.random() < 0.7 else []
        k = rng.randint(0, 3)
        fast = g_multicut_uncut(G, CutConstraints(tuple(cut), tuple(uncut)), k, EDGELESS)
        slow = bf_multicut_uncut(G, cut, uncut, k, EDGELESS.membership)
        assert (fast is None) == (slow is None)
