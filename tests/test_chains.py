import pytest

from sepkit.chains import SeparatorChain, build_chain, validate_chain
from sepkit.graphs import DomainError, Graph
from sepkit.oracle import FIXTURES, enumerate_minimal_separators
from sepkit.separation import min_vertex_separator

from strategies import nonadjacent_pair, seeded_graphs

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
    assert ch.sets == ((0,), (0, 1, 3))
    assert ch.boundaries == ((1, 3), (2, 4))
    assert validate_chain(PP, 0, 5, ch, _minimum_seps(PP, 0, 5))


def test_chain_sentinels():
    ch = build_chain(PP, 0, 5)
    assert ch.x_lo == () and ch.s_lo == (0,) and ch.s_hi == (5,)
    assert ch.x_hi == (0, 1, 2, 3, 4)
    assert ch.sets_with_sentinels()[0] == () and ch.boundaries_with_sentinels()[-1] == (5,)


def test_chain_rejects_adjacent_terminals():
    with pytest.raises(DomainError):
        build_chain(Graph(2, [(0, 1)]), 0, 1)


def test_chain_disconnected_terminals():
    ch = build_chain(Graph(3, [(0, 1)]), 0, 2)
    assert ch.ell == 0 and ch.q == 0
    assert validate_chain(Graph(3, [(0, 1)]), 0, 2, ch, [()])


def test_validate_rejects_uncovered_separator():
    ch = build_chain(PP, 0, 5)
    truncated = SeparatorChain(ch.ell, ch.sets[:1], ch.boundaries[:1],
                               ch.x_lo, ch.x_hi, ch.s_lo, ch.s_hi)
    assert not validate_chain(PP, 0, 5, truncated, _minimum_seps(PP, 0, 5))


def test_validate_rejects_non_nested_pair():
    ch = build_chain(PP, 0, 5)
    crossed = SeparatorChain(ch.ell, ((0, 1), (0, 3)), ch.boundaries,
                             ch.x_lo, ch.x_hi, ch.s_lo, ch.s_hi)
    assert not validate_chain(PP, 0, 5, crossed, _minimum_seps(PP, 0, 5))


def test_validate_rejects_wrong_boundary_size():
    ch = build_chain(PP, 0, 5)
    wrong = SeparatorChain(1, ch.sets, ch.boundaries, ch.x_lo, ch.x_hi, ch.s_lo, ch.s_hi)
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
