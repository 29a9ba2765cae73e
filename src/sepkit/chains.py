"""Nested chains of minimum s-t separators.

A chain is a strictly nested family X_1 c ... c X_q of s-sides whose
boundaries all have minimum-separator size and together cover every minimum
s-t separator. It is read off one maximum flow: one pass over the residual
network names the vertices on some minimum separator
(``Residual.separator_vertices``); for each such v the residual network
gives the minimum separator closest to s that contains v
(``Residual.separator_through``), and X_v, its s-side, joins the
collection. The collection is sorted by (size, sorted ids) and the
chain is the sequence of its running unions, one set each time the union
grows.

This is exact. The union of two minimum-separator s-sides is again one, by
submodularity of |N(.)|, so every running union has a minimum boundary.
Suppose v lies on a minimum separator and inside another vertex u's side
X_u. Then u's residual closure holds both copies of v, so it holds v's
closure too and X_u strictly contains X_v; X_u sorts after X_v. So no set
before X_v contains v, and v is on the boundary of the first union that
takes in X_v.
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

    @property
    def q(self) -> int:
        return len(self.sets)


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
    for v in r.residual.separator_vertices():
        witness = r.residual.separator_through(v)
        if witness not in sides:
            sides[witness] = frozenset(reachable_from(G, (s,), witness))
    sets: list[tuple[int, ...]] = []
    bounds: list[tuple[int, ...]] = []
    union: frozenset[int] = frozenset()
    for X in sorted(sides.values(), key=lambda X: (len(X), sorted(X))):
        if X <= union:
            continue
        union |= X
        sets.append(tuple(sorted(union)))
        bounds.append(boundary(G, union))
        assert len(bounds[-1]) == ell
    return SeparatorChain(ell, tuple(sets), tuple(bounds))


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
