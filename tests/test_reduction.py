import dataclasses
import itertools
import random
import time
import warnings

import pytest

import sepkit.reduction
from sepkit.graphs import (DomainError, Graph, contract_terminal_sets,
                           induced_subgraph)
from sepkit.oracle import (FIXTURES, RandomModel, enumerate_minimal_separators,
                           path_graph, random_graph)
from sepkit.reduction import (GADGET, SATURATION_LIMIT, TreewidthBounds,
                              _disjoint_subset_pairs, cover_set, layer_system,
                              reduce_instance, torso, tw_bound)
from sepkit.chains import build_chain
from sepkit.separation import is_separator, min_vertex_separator

from strategies import grid, nonadjacent_pair, seeded_graphs

P3 = FIXTURES["P3"].graph
C4 = FIXTURES["C4"].graph
PP = FIXTURES["PP"].graph
Q3 = FIXTURES["Q3"].graph


def test_torso_examples():
    tr = torso(path_graph(3), (0, 2))
    assert tr.graph.edges() == [(0, 1)] and tr.added_edges == ((0, 2),)
    tr = torso(C4, (0, 2))
    assert tr.graph.edges() == [(0, 1)] and tr.added_edges == ((0, 2),)
    tr = torso(PP, (0, 1, 5))
    assert tr.graph.edges() == [(0, 1), (0, 2), (1, 2)]
    assert tr.added_edges == ((0, 5), (1, 5))


def test_torso_domain_error():
    with pytest.raises(DomainError):
        torso(P3, (9,))


def test_tw_bound_examples():
    assert (tw_bound(1, 0).g_value, tw_bound(1, 0).f_value) == (6, 1)
    assert (tw_bound(1, 1).g_value, tw_bound(1, 1).f_value) == (195, 10)
    assert (tw_bound(2, 0).g_value, tw_bound(2, 0).f_value) == (12, 1)


def test_tw_bound_saturates_with_warning():
    with pytest.warns(UserWarning):
        tb = tw_bound(6, 12)
    assert tb.saturated and tb.g_value == 2 ** 63 - 1


def test_tw_bound_stops_once_saturated():
    # one pass per unit of excess took about a second per million before the
    # loop stopped at saturation
    start = time.perf_counter()
    with pytest.warns(UserWarning):
        tb = tw_bound(2, 10 ** 7)
    assert time.perf_counter() - start < 2.0
    assert tb.saturated and tb.g_value == tb.f_value == SATURATION_LIMIT


def test_treewidth_bounds_fields():
    names = [f.name for f in dataclasses.fields(TreewidthBounds)]
    assert names == ["ell", "excess", "g_value", "f_value", "saturated"]


def test_reduce_width_bound_saturates():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert reduce_instance(C4, (0, 2), 64).width_bound == SATURATION_LIMIT
        assert reduce_instance(C4, (0, 2), 8).width_bound < SATURATION_LIMIT


def test_cover_reuses_given_flow():
    for G, s, t, k in ((PP, 0, 5, 3), (Q3, 0, 7, 4), (C4, 0, 2, 2)):
        flow = min_vertex_separator(G, (s,), (t,), cap=k)
        assert cover_set(G, s, t, k, flow=flow) == cover_set(G, s, t, k)
    with pytest.raises(DomainError):
        cover_set(PP, 0, 5, 3, flow=min_vertex_separator(PP, (0,), (4,)))


def test_tw_bound_domain():
    with pytest.raises(DomainError):
        tw_bound(0, 1)


def test_cover_examples():
    assert cover_set(P3, 0, 2, 1) == (0, 1, 2)
    assert cover_set(PP, 0, 5, 2) == (0, 1, 2, 3, 4, 5)
    assert cover_set(Q3, 0, 7, 6) == tuple(range(8))
    assert cover_set(PP, 0, 5, 1) == (0, 5)       # ell exceeds budget
    assert cover_set(Graph(2, [(0, 1)]), 0, 1, 3) == (0, 1)


def test_layer_system_partitions():
    ch = build_chain(PP, 0, 5)
    system = layer_system(ch)
    flat = [v for layer in system.layers for v in layer]
    assert len(flat) == len(set(flat))
    assert set(flat) <= set(range(6)) - {0, 5}
    # no layer edge escapes its boundary pool
    for layer, pool in zip(system.layers, system.pools):
        allowed = set(layer) | set(pool)
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


def _cover_reference(G, s, t, k):
    """``cover_set`` as the plain recursion: every (A, B) pair of every layer
    is contracted, flowed and recursed on, adjacent or repeated."""
    if G.has_edge(s, t):
        return (min(s, t), max(s, t))
    r = min_vertex_separator(G, (s,), (t,), cap=k)
    if not r.within(k):
        return (min(s, t), max(s, t))
    excess = k - int(r.size)
    chain = build_chain(G, s, t, flow=r)
    cover = {s, t}
    for S in chain.boundaries:
        cover.update(S)
    if excess == 0:
        return tuple(sorted(cover))
    system = layer_system(chain)
    for layer, pool in zip(system.layers, system.pools):
        if not layer:
            continue
        for A, B in _disjoint_subset_pairs(pool):
            con = contract_terminal_sets(G, layer, A, B)
            rr = min_vertex_separator(con.graph, (con.a,), (con.b,), cap=k)
            if not rr.within(k):
                continue
            sub_budget = min(k, int(rr.size) + excess - 1)
            cover.update(con.map_back(
                _cover_reference(con.graph, con.a, con.b, sub_budget)))
    return tuple(sorted(cover))


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


def test_cover_flows_once_per_distinct_subproblem(monkeypatch):
    # the plain recursion runs 4,328 flows here: one per (A, B) pair, most of
    # them adjacent pairs or repeats of a contracted graph already solved
    calls = []
    flow = sepkit.reduction.min_vertex_separator

    def counted(*args, **kwargs):
        calls.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(sepkit.reduction, "min_vertex_separator", counted)
    assert cover_set(grid(4, 4), 0, 15, 5) == tuple(range(16))
    assert len(calls) <= 250


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
        na, nb = tr.to_new(a), tr.to_new(b)
        others = [v for v in C if v not in (a, b)]
        for r in range(0, min(3, len(others)) + 1):
            for S in itertools.combinations(others, r):
                inside = is_separator(tr.graph, [tr.to_new(v) for v in S], (na,), (nb,))
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
    paths inside the solve graph."""
    terms = G.check_vertices(terminals)
    cover = set(terms)
    contributing = 0
    g_max = 0
    for i, s in enumerate(terms):
        for t in terms[i + 1:]:
            if G.has_edge(s, t):
                continue
            r = min_vertex_separator(G, (s,), (t,), cap=k)
            if not r.within(k):
                continue
            cover.update(cover_set(G, s, t, k, flow=r))
            contributing += 1
            if r.size >= 1:
                g_max = max(g_max, tw_bound(int(r.size), k - int(r.size)).g_value)
    width_bound = min(3 * contributing * (g_max + 1) + 1, SATURATION_LIMIT)
    tor = torso(G, cover)
    added_new = {(tor.to_new(u), tor.to_new(v)) for u, v in tor.added_edges}
    edges = [e for e in tor.graph.edges() if e not in added_new]
    origin = list(tor.orig)
    nxt = len(tor.orig)
    for u, v in sorted(added_new):
        for _ in range(k + 1):
            edges += [(u, nxt), (v, nxt)]
            origin.append(GADGET)
            nxt += 1
    gstar = Graph(nxt, edges)
    return {
        "n": gstar.n,
        "edges": [[u + 1, v + 1] for u, v in gstar.edges()],
        "cover": [v + 1 for v in tor.orig],
        "terminals": [v + 1 for v in terms],
        "k": k,
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


def test_reduced_instance_json_roundtrip():
    ri = reduce_instance(PP, (0, 5), 1)
    data = ri.to_jsonable()
    assert data["cover"] == [1, 6]
    assert data["origin"] == [1, 6, GADGET, GADGET]
    assert data["k"] == 1
    import json
    assert json.loads(ri.to_json()) == data
