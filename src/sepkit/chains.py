"""Nested chains of minimum s-t separators.

A chain is a strictly nested family X_1 c ... c X_q of s-sides whose
boundaries all have minimum-separator size and together cover every minimum
s-t separator. It is read off one maximum flow: for every vertex v on some
minimum separator, the residual network gives the minimum separator closest
to s that contains v (``Residual.separator_through``), and its s-side joins
the collection. The collection is made laminar by uncrossing: a crossing
pair is replaced by intersection and union, which keeps boundary sizes and
coverage intact and strictly improves the (collection size, -sum of squared
sizes) measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import DomainError, Graph, boundary, reachable_from
from .separation import SeparatorResult, st_flow


@dataclass(frozen=True)
class SeparatorChain:
    ell: int
    sets: tuple[tuple[int, ...], ...]          # X_1..X_q, ascending by size
    boundaries: tuple[tuple[int, ...], ...]    # S_i = boundary(X_i)
    # sentinels, stored explicitly: the layer decomposition consumes them
    x_lo: tuple[int, ...]                      # X_0, empty
    x_hi: tuple[int, ...]                      # X_{q+1}, V minus {t}
    s_lo: tuple[int, ...]                      # S_0 = {s}
    s_hi: tuple[int, ...]                      # S_{q+1} = {t}

    @property
    def q(self) -> int:
        return len(self.sets)

    def sets_with_sentinels(self) -> list[tuple[int, ...]]:
        return [self.x_lo, *self.sets, self.x_hi]

    def boundaries_with_sentinels(self) -> list[tuple[int, ...]]:
        return [self.s_lo, *self.boundaries, self.s_hi]


def build_chain(G: Graph, s: int, t: int,
                flow: Optional[SeparatorResult] = None) -> SeparatorChain:
    """Construct the nested chain for non-adjacent distinct s, t.

    ``flow``, a finished s-t flow of G such as ``cover_set`` already holds,
    is reused instead of running a new one.
    """
    G.check_vertices((s, t))
    if s == t or G.has_edge(s, t):
        raise DomainError("terminals must be distinct and non-adjacent")
    r = st_flow(G, s, t, flow)
    assert r.is_finite
    ell = int(r.size)

    # distinct minimum separators have distinct s-sides
    sides: dict[tuple[int, ...], frozenset[int]] = {}
    for v in range(G.n):
        witness = r.residual.separator_through(v)
        if witness is None or witness in sides:
            continue
        X = frozenset(reachable_from(G, (s,), witness))
        assert len(boundary(G, X)) == ell
        sides[witness] = X
    collection = sorted(sides.values(), key=lambda X: (len(X), sorted(X)))

    q0 = len(collection)
    max_steps = G.n * q0 * q0
    steps = 0
    while True:
        replaced = False
        for i in range(len(collection)):
            for j in range(i + 1, len(collection)):
                Xi, Xj = collection[i], collection[j]
                if Xi <= Xj or Xj <= Xi:
                    continue
                steps += 1
                assert steps <= max_steps, "uncrossing failed to make progress"
                inter, union = Xi & Xj, Xi | Xj
                d_inter = set(boundary(G, inter))
                d_union = set(boundary(G, union))
                # submodular equality and coverage preservation must hold
                assert len(d_inter) == len(d_union) == ell
                assert d_inter | d_union == set(boundary(G, Xi)) | set(boundary(G, Xj))
                rest = [X for p, X in enumerate(collection) if p not in (i, j)]
                for X in (inter, union):
                    if X not in rest:
                        rest.append(X)
                rest.sort(key=lambda X: (len(X), sorted(X)))
                collection = rest
                replaced = True
                break
            if replaced:
                break
        if not replaced:
            break

    collection.sort(key=len)
    sets = tuple(tuple(sorted(X)) for X in collection)
    bounds = tuple(boundary(G, X) for X in sets)
    x_hi = tuple(v for v in range(G.n) if v != t)
    return SeparatorChain(ell, sets, bounds, (), x_hi, (s,), (t,))


def validate_chain(G: Graph, s: int, t: int, chain: SeparatorChain,
                   oracle_seps: Sequence[Iterable[int]]) -> bool:
    """Check the chain invariants and that every oracle-enumerated minimum
    separator is covered by the boundaries."""
    sets_ = [set(X) for X in chain.sets]
    for a, b in zip(sets_, sets_[1:]):
        if not a < b:
            return False
    forbidden = {t} | set(G.adj[t])
    for X, S in zip(sets_, chain.boundaries):
        if s not in X or X & forbidden:
            return False
        if tuple(boundary(G, X)) != tuple(S) or len(S) != chain.ell:
            return False
    cover = set().union(*(set(S) for S in chain.boundaries)) if chain.boundaries else set()
    return all(set(S) <= cover for S in oracle_seps)
