import pytest

import sepkit.chains
import sepkit.graphs
from sepkit.chains import SeparatorChain, build_chain, validate_chain
from sepkit.graphs import DomainError, Graph, boundary, components
from sepkit.oracle import FIXTURES, enumerate_minimal_separators
from sepkit.reduction import cover_set
from sepkit.separation import min_vertex_separator

from strategies import (nonadjacent_pair, seeded_graphs, separator_through_by_deletion,
                        walled_grid)

P3 = FIXTURES["P3"].graph
C4 = FIXTURES["C4"].graph
PP = FIXTURES["PP"].graph


def _minimum_seps(G, s, t):
    ell = int(min_vertex_separator(G, (s,), (t,)).size)
    return [S for S in enumerate_minimal_separators(G, s, t, ell) if len(S) == ell]


def test_chain_p3():
    ch = build_chain(P3, 0, 2)
    assert ch.q == 1 and ch.sets == ((0,),) and ch.boundaries == ((1,),)
    assert validate_chain(P3, 0, 2, ch, _minimum_seps(P3, 0, 2))


def test_chain_c4():
    ch = build_chain(C4, 0, 2)
    assert ch.sets == ((0,),) and ch.boundaries == ((1, 3),)
    assert validate_chain(C4, 0, 2, ch, _minimum_seps(C4, 0, 2))


def test_chain_pp():
    ch = build_chain(PP, 0, 5)
    assert ch.sets == ((0,), (0, 1), (0, 1, 3))
    assert ch.boundaries == ((1, 3), (2, 3), (2, 4))
    assert validate_chain(PP, 0, 5, ch, _minimum_seps(PP, 0, 5))


def test_chain_rejects_adjacent_terminals():
    with pytest.raises(DomainError):
        build_chain(Graph(2, [(0, 1)]), 0, 1)


def test_chain_disconnected_terminals():
    ch = build_chain(Graph(3, [(0, 1)]), 0, 2)
    assert ch.ell == 0 and ch.q == 0
    assert validate_chain(Graph(3, [(0, 1)]), 0, 2, ch, [()])


def test_validate_rejects_uncovered_separator():
    ch = build_chain(PP, 0, 5)
    truncated = SeparatorChain(ch.ell, ch.sets[:1], ch.boundaries[:1])
    assert not validate_chain(PP, 0, 5, truncated, _minimum_seps(PP, 0, 5))


def test_validate_rejects_non_nested_pair():
    ch = build_chain(PP, 0, 5)
    crossed = SeparatorChain(ch.ell, ((0, 1), (0, 3)), ch.boundaries)
    assert not validate_chain(PP, 0, 5, crossed, _minimum_seps(PP, 0, 5))


def test_validate_rejects_wrong_boundary_size():
    ch = build_chain(PP, 0, 5)
    wrong = SeparatorChain(1, ch.sets, ch.boundaries)
    assert not validate_chain(PP, 0, 5, wrong, _minimum_seps(PP, 0, 5))


def test_random_chains_validate():
    checked = 0
    for G, rng in seeded_graphs(120, seed=11, n_lo=4, n_hi=11):
        pair = nonadjacent_pair(G, rng)
        if pair is None:
            continue
        s, t = pair
        ch = build_chain(G, s, t)
        assert validate_chain(G, s, t, ch, _minimum_seps(G, s, t))
        checked += 1
    assert checked >= 100


def test_chain_reuses_given_flow():
    flow = min_vertex_separator(PP, (0,), (5,), cap=3)
    assert build_chain(PP, 0, 5, flow=flow) == build_chain(PP, 0, 5)
    with pytest.raises(DomainError):
        build_chain(PP, 0, 5, flow=min_vertex_separator(PP, (5,), (0,)))
    with pytest.raises(DomainError):
        build_chain(PP, 0, 5, flow=min_vertex_separator(C4, (0,), (2,)))


def _sides_by_deletion(G, s, t):
    """The distinct s-sides X_v of the minimum separators closest to s
    through each vertex v, from the by-deletion twin and ``components``,
    sorted by (size, sorted ids) as ``build_chain`` sorts them."""
    sides = set()
    for v in range(G.n):
        if v not in (s, t):
            S = separator_through_by_deletion(G, (s,), (t,), v)
            if S is not None:
                sides.add(next(frozenset(C) for C in components(G, S) if s in C))
    return sorted(sides, key=lambda X: (len(X), sorted(X)))


def _uncrossed_chain(G, s, t):
    """Reference twin: the per-vertex s-sides made laminar by pairwise
    uncrossing (a crossing pair is replaced by intersection and union)."""
    ell = int(min_vertex_separator(G, (s,), (t,)).size)
    collection = _sides_by_deletion(G, s, t)
    max_steps = G.n * len(collection) ** 2
    steps = 0
    crossing = True
    while crossing:
        crossing = False
        for i, Xi in enumerate(collection):
            Xj = next((Y for Y in collection[i + 1:] if not (Xi <= Y or Y <= Xi)), None)
            if Xj is None:
                continue
            steps += 1
            assert steps <= max_steps, "uncrossing failed to make progress"
            inter, union = Xi & Xj, Xi | Xj
            d_inter, d_union = set(boundary(G, inter)), set(boundary(G, union))
            assert len(d_inter) == len(d_union) == ell
            assert d_inter | d_union == set(boundary(G, Xi)) | set(boundary(G, Xj))
            rest = [X for X in collection if X not in (Xi, Xj)]
            rest += [X for X in dict.fromkeys((inter, union)) if X not in rest]
            collection = sorted(rest, key=lambda X: (len(X), sorted(X)))
            crossing = True
            break
    return ell, [boundary(G, X) for X in collection]


def _chain_cases():
    for name, fx in FIXTURES.items():
        G = fx.graph
        for s in range(G.n):
            for t in range(s + 1, G.n):
                if not G.has_edge(s, t):
                    yield f"{name}-{s}-{t}", G, s, t
    for i, (G, rng) in enumerate(seeded_graphs(320, seed=23, n_lo=5, n_hi=30)):
        pair = nonadjacent_pair(G, rng)
        if pair is not None:
            yield f"seeded-{i}", G, pair[0], pair[1]


def test_chain_matches_uncrossing_twin():
    checked = 0
    for name, G, s, t in _chain_cases():
        ch = build_chain(G, s, t)
        ell, twin_bounds = _uncrossed_chain(G, s, t)
        assert ch.ell == ell, name
        covered = set().union(*map(set, ch.boundaries))
        assert covered == set().union(*map(set, twin_bounds)), name
        assert all(set(a) < set(b) for a, b in zip(ch.sets, ch.sets[1:])), name
        assert all(len(S) == ell for S in ch.boundaries), name
        if G.n <= 14:
            assert validate_chain(G, s, t, ch, _minimum_seps(G, s, t)), name
        else:
            assert validate_chain(G, s, t, ch, ()), name
        checked += 1
    assert checked >= 300


def test_walled_grid_chain_matches_deletion_twin():
    # past the oracle's n <= 14 cap: on the walled grid 4x30 (n = 122) each
    # chain set moves the cut by one vertex, and the running unions of the
    # by-deletion sides are the chain
    G, s, t = walled_grid(4, 30)
    ch = build_chain(G, s, t)
    sets, union = [], frozenset()
    for X in _sides_by_deletion(G, s, t):
        if not X <= union:
            union |= X
            sets.append(tuple(sorted(union)))
    assert ch.ell == 4 and ch.q == 4 * 30 - 3
    assert ch.sets == tuple(sets)
    assert ch.boundaries == tuple(boundary(G, X) for X in sets)
    assert cover_set(G, s, t, 5) == tuple(range(G.n))


def test_build_chain_calls_no_boundary(monkeypatch):
    # each boundary comes from the union's neighbourhood mask; boundary() is
    # patched only around build_chain, since validate_chain still uses it
    def refuse(G, X):
        raise AssertionError("build_chain called boundary")

    cases = [walled_grid(4, 30)]
    for G, rng in seeded_graphs(40, seed=67, n_lo=5, n_hi=14):
        pair = nonadjacent_pair(G, rng)
        if pair is not None:
            cases.append((G, *pair))
    for G, s, t in cases:
        with monkeypatch.context() as m:
            m.setattr(sepkit.chains, "boundary", refuse)
            m.setattr(sepkit.graphs, "boundary", refuse)
            ch = build_chain(G, s, t)
        seps = _minimum_seps(G, s, t) if G.n <= 14 else ()
        assert validate_chain(G, s, t, ch, seps)
