import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepkit.separation
from sepkit.graphs import DomainError, Graph, bits, boundary, components
from sepkit.oracle import (FIXTURES, bf_max_disjoint_paths,
                           bf_min_separator_size, enumerate_minimal_separators)
from sepkit.problems import exact_separator_union
from sepkit.reduction import cover_set
from sepkit.separation import (INFINITE, SeparatorResult, is_separator,
                               min_separator_containing, min_vertex_separator,
                               minimalize_separator, st_flow)
from sepkit.solver import ANY, g_mincut

from strategies import (graphs, nonadjacent_pair, seeded_graphs,
                        separator_through_by_deletion)

P3 = FIXTURES["P3"].graph
C4 = FIXTURES["C4"].graph
D4 = FIXTURES["D4"].graph
PP = FIXTURES["PP"].graph


def test_min_separator_examples():
    r = min_vertex_separator(P3, (0,), (2,))
    assert r.size == 1 and r.witness == (1,)
    r = min_vertex_separator(Graph(2, [(0, 1)]), (0,), (1,))
    assert r.size == INFINITE and not r.exceeds_cap
    r = min_vertex_separator(PP, (0,), (5,))
    assert r.size == 2 and r.witness == (1, 3)


def test_min_separator_overlapping_sets_infinite():
    r = min_vertex_separator(C4, (0, 1), (1, 2))
    assert r.size == INFINITE and not r.exceeds_cap


def test_min_separator_cap():
    r = min_vertex_separator(PP, (0,), (5,), cap=1)
    assert r.exceeds_cap and not r.is_finite
    assert r.size == 2   # lower bound reached
    r = min_vertex_separator(PP, (0,), (5,), cap=2)
    assert r.is_finite and r.size == 2


def test_min_separator_set_terminals():
    r = min_vertex_separator(PP, (0, 1), (4, 5,))
    assert r.is_finite
    assert is_separator(PP, r.witness, (0, 1), (4, 5))


def test_min_separator_empty_terminals_error():
    with pytest.raises(DomainError):
        min_vertex_separator(P3, (), (2,))


def test_witness_is_source_closest():
    # both {a1,b1} and {a2,b2} are minimum: canonical pick is nearest the source
    assert min_vertex_separator(PP, (0,), (5,)).witness == (1, 3)
    assert min_vertex_separator(PP, (5,), (0,)).witness == (2, 4)


def test_is_separator_examples():
    assert is_separator(P3, (1,), (0,), (2,))
    assert not is_separator(C4, (1,), (0,), (2,))
    # A and B share a vertex not in S: never separated
    assert not is_separator(C4, (), (1,), (1,))


def test_minimalize_examples():
    assert minimalize_separator(P3, (1,), (0,), (2,)) == (1,)
    assert minimalize_separator(C4, (1, 3), (0,), (2,)) == (1, 3)
    # ascending scan drops a1 first, then keeps a2 and b1
    assert minimalize_separator(PP, (1, 2, 3), (0,), (5,)) == (2, 3)


def test_minimalize_requires_separator():
    with pytest.raises(DomainError):
        minimalize_separator(C4, (1,), (0,), (2,))


def test_min_separator_containing_examples():
    assert min_separator_containing(P3, 0, 2, 1).witness == (1,)
    assert min_separator_containing(PP, 0, 5, 2).witness == (2, 3)
    assert min_separator_containing(D4, 0, 2, 1).witness == (1, 3)


def test_min_separator_containing_absent():
    # a2 is in no minimum separator of D4's companion: take C4 plus chords
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    # vertex 3 and 4 form the only size-2 separators between 0 and 2? sanity via oracle
    r = min_separator_containing(g, 1, 4, 3)
    oracle_seps = enumerate_minimal_separators(g, 1, 4, 99)
    ell = min(len(S) for S in oracle_seps)
    in_minimum = any(3 in S for S in oracle_seps if len(S) == ell)
    assert (r is not None) == in_minimum


def test_min_separator_containing_adjacent_error():
    with pytest.raises(DomainError):
        min_separator_containing(Graph(3, [(0, 1)]), 0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=8), st.data())
def test_flow_size_matches_subset_enumeration(G, data):
    s = data.draw(st.integers(0, G.n - 1))
    t = data.draw(st.integers(0, G.n - 1).filter(lambda v: v != s))
    fast = min_vertex_separator(G, (s,), (t,))
    assert fast.size == bf_min_separator_size(G, (s,), (t,))
    if fast.is_finite:
        assert is_separator(G, fast.witness, (s,), (t,))
        assert len(fast.witness) == fast.size


def test_menger_duality_on_random_graphs():
    # max internally disjoint paths equals the flow answer (n <= 10, sparse,
    # denser cases covered up to n = 8 to keep path packing affordable)
    checked = 0
    for G, rng in seeded_graphs(60, seed=5, n_lo=4, n_hi=10, ps=(0.2, 0.3)):
        s, t = 0, G.n - 1
        if G.has_edge(s, t):
            continue
        assert min_vertex_separator(G, (s,), (t,)).size == bf_max_disjoint_paths(G, s, t)
        checked += 1
    for G, rng in seeded_graphs(30, seed=6, n_lo=4, n_hi=8, ps=(0.5, 0.7)):
        s, t = 0, G.n - 1
        if G.has_edge(s, t):
            continue
        assert min_vertex_separator(G, (s,), (t,)).size == bf_max_disjoint_paths(G, s, t)
        checked += 1
    assert checked > 40


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=3, max_n=8), st.data())
def test_minimalize_is_minimal(G, data):
    s = data.draw(st.integers(0, G.n - 1))
    t = data.draw(st.integers(0, G.n - 1).filter(lambda v: v != s))
    r = min_vertex_separator(G, (s,), (t,))
    if not r.is_finite:
        return
    extra = [v for v in range(G.n) if v not in (s, t)]
    S = set(r.witness) | set(extra[:2]) - {s, t}
    if not is_separator(G, S, (s,), (t,)):
        return
    out = minimalize_separator(G, S, (s,), (t,))
    assert is_separator(G, out, (s,), (t,))
    for v in out:
        assert not is_separator(G, set(out) - {v}, (s,), (t,))


def test_membership_test_agrees_with_enumeration():
    for G, rng in seeded_graphs(40, seed=7, n_lo=4, n_hi=9):
        pairs = [(i, j) for i in range(G.n) for j in range(i + 1, G.n)
                 if not G.has_edge(i, j)]
        if not pairs:
            continue
        s, t = pairs[0]
        r = min_vertex_separator(G, (s,), (t,))
        ell = int(r.size) if r.is_finite else None
        if ell is None or ell == 0:
            continue
        minimum = [S for S in enumerate_minimal_separators(G, s, t, ell) if len(S) == ell]
        for v in range(G.n):
            if v in (s, t):
                continue
            got = min_separator_containing(G, s, t, v)
            assert (got is not None) == any(v in S for S in minimum)
            if got is not None:
                assert got.size == ell and v in got.witness
                assert is_separator(G, got.witness, (s,), (t,))


def test_residual_is_outside_equality_and_repr():
    r = min_vertex_separator(PP, (0,), (5,))
    assert r.residual is not None
    bare = SeparatorResult(2, (1, 3))
    assert r == bare and hash(r) == hash(bare) and repr(r) == repr(bare)
    assert repr(r) == "SeparatorResult(size=2, witness=(1, 3), exceeds_cap=False)"
    assert r != SeparatorResult(2, (1, 3), exceeds_cap=True) and r != SeparatorResult(2, (2, 4))
    assert r != (2, (1, 3), False)
    # a flow stopped at its cap is not a maximum flow and keeps no residual
    assert min_vertex_separator(PP, (0,), (5,), cap=1).residual is None
    assert min_vertex_separator(C4, (0, 1), (1, 2)).residual is None


def test_a_kept_flow_answers_as_a_fresh_flow(monkeypatch):
    # st_flow keeps each graph's last s-t flow; whatever caps and pairs came
    # before, every answer is the one a fresh flow on an equal graph gives,
    # and a flow runs only when the kept one cannot answer
    fresh_runs = []
    flow = sepkit.separation.min_vertex_separator

    def counted(*args, **kwargs):
        fresh_runs.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(sepkit.separation, "min_vertex_separator", counted)
    calls = reused = finished = stopped = 0
    for G, rng in seeded_graphs(120, seed=331, n_lo=4, n_hi=20, ps=(0.15, 0.3, 0.5)):
        s, t, u = rng.sample(range(G.n), 3)
        pairs = [(s, t), (s, t), (t, s), (s, u)]
        ells = {p: flow(G, p[:1], p[1:]).size for p in pairs}
        kept = None     # (pair, result) as the model of the graph's slot
        for _ in range(10):
            pair = rng.choice(pairs)
            top = 2 if ells[pair] == INFINITE else int(ells[pair]) + 2
            cap = rng.choice([None, *range(top + 1)])
            before = len(fresh_runs)
            got = st_flow(G, *pair, cap)
            want = flow(Graph(G.n, G.edges()), pair[:1], pair[1:], cap)
            assert (got.size, got.witness, got.exceeds_cap, got.residual is None) == \
                (want.size, want.witness, want.exceeds_cap, want.residual is None)
            if want.residual is not None:
                assert got.residual.sides() == want.residual.sides()
            answers = kept is not None and kept[0] == pair and (
                kept[1].residual is not None
                or kept[1].exceeds_cap and cap is not None and kept[1].size > cap)
            assert len(fresh_runs) - before == (not answers)
            if answers:
                reused += 1
                finished += kept[1].residual is not None
                stopped += kept[1].exceeds_cap
            else:
                kept = (pair, got)
            calls += 1
    assert calls == 1200 and reused >= 200 and finished >= 150 and stopped >= 12, \
        (reused, finished, stopped)


def test_stages_share_one_kept_flow(monkeypatch):
    # g_mincut, cover_set and exact_separator_union on one graph object all
    # read the same kept result; none of them changes what its residual
    # network answers
    flowed = []

    def counted(*args, **kwargs):
        flowed.append(args[0])
        return min_vertex_separator(*args, **kwargs)

    monkeypatch.setattr(sepkit.separation, "min_vertex_separator", counted)
    checked = 0
    for G, rng in seeded_graphs(60, seed=337, n_lo=6, n_hi=16, ps=(0.25, 0.35)):
        s, t = sorted(rng.sample(range(G.n), 2))
        ell = min_vertex_separator(G, (s,), (t,)).size
        if G.has_edge(s, t) or ell in (0, INFINITE):
            continue
        k = int(ell) + rng.randint(0, 2)
        g_mincut(G, s, t, k, ANY)
        cover_set(G, s, t, k)
        exact_separator_union(G, s, t, k)
        assert sum(H is G for H in flowed) == 1
        fresh = min_vertex_separator(Graph(G.n, G.edges()), (s,), (t,))
        assert st_flow(G, s, t).residual.sides() == fresh.residual.sides()
        checked += 1
    assert checked >= 30, checked


def _side_set(A, side):
    return set(A) | set(bits(side))


def test_residual_membership_matches_deletion_definition():
    found = checked = 0
    for G, rng in seeded_graphs(40, seed=11, n_lo=10, n_hi=40, ps=(0.08, 0.12, 0.2)):
        pair = nonadjacent_pair(G, rng)
        if pair is None:
            continue
        A, B = (pair[0],), (pair[1],)
        if G.n >= 20:
            # set terminals: add a second vertex to each side when it keeps
            # the sides disjoint and non-adjacent
            a2, b2 = rng.sample([v for v in range(G.n) if v not in pair], 2)
            if not (G.has_edge(a2, b2) or G.has_edge(a2, pair[1])
                    or G.has_edge(pair[0], b2)):
                A, B = A + (a2,), B + (b2,)
        sides = min_vertex_separator(G, A, B).residual.sides()
        assert list(sides) == sorted(sides)
        for v in range(G.n):
            if v in A or v in B:
                assert v not in sides
                continue
            expected = separator_through_by_deletion(G, A, B, v)
            assert (v in sides) == (expected is not None)
            if expected is not None:
                # A | side is the A-side of that separator: its boundary, and
                # the components of G minus it that meet A
                X = _side_set(A, sides[v])
                assert boundary(G, X) == expected
                assert X == {u for C in components(G, expected) if set(C) & set(A) for u in C}
            checked += 1
            found += expected is not None
    assert checked > 500 and found > 100


def test_sides_match_deletion_definition_on_sparse_graphs():
    # on sparse graphs too, where flows of size 0 and isolated vertices (an
    # unsaturated in-arc) are common
    assert min_vertex_separator(Graph(3), (0,), (2,)).residual.sides() == {}
    # PP from 0 to 5: the separators closest to 0 through 1 and 3, 2, and 4
    # are (1, 3), (2, 3) and (1, 4), with 0-sides {0}, {0, 1} and {0, 3}
    assert min_vertex_separator(PP, (0,), (5,)).residual.sides() == \
        {1: 0, 2: 0b10, 3: 0, 4: 0b1000}
    empty = isolated = set_terminals = found = 0
    for G, rng in seeded_graphs(300, seed=29, n_lo=4, n_hi=24, ps=(0.05, 0.12, 0.25, 0.4)):
        ends = rng.sample(range(G.n), 4)
        A, B = {ends[0]}, {ends[1]}
        if rng.random() < 0.5:
            A.add(ends[2])
            B.add(ends[3])
        flow = min_vertex_separator(G, A, B)
        if not flow.is_finite:
            continue
        sides = flow.residual.sides()
        for v in range(G.n):
            if v not in A and v not in B:
                expected = separator_through_by_deletion(G, A, B, v)
                assert (v in sides) == (expected is not None)
                if expected is not None:
                    assert boundary(G, _side_set(A, sides[v])) == expected
        empty += flow.size == 0
        isolated += any(not G.adj[v] for v in range(G.n) if v not in A | B)
        set_terminals += len(A) == 2
        found += len(sides)
    assert empty >= 20 and isolated >= 20 and set_terminals >= 40 and found >= 250, \
        (empty, isolated, set_terminals, found)


def test_min_separator_size_matches_networkx_past_oracle_cap():
    nx = pytest.importorskip("networkx")
    checked = 0
    for G, rng in seeded_graphs(8, seed=12, n_lo=100, n_hi=300, ps=(0.015, 0.025)):
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        hubs = [v for v in range(G.n) if G.degree(v) >= 3]
        s, t = rng.sample(hubs, 2)
        if G.has_edge(s, t):
            continue
        expected = len(nx.minimum_node_cut(H, s, t)) if nx.has_path(H, s, t) else 0
        r = min_vertex_separator(G, (s,), (t,))
        assert r.size == expected
        assert is_separator(G, r.witness, (s,), (t,))
        checked += 1
    assert checked >= 6
