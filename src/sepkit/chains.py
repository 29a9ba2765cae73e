"""Nested chains of minimum s-t separators.

A chain is a strictly nested family X_1 c ... c X_q of s-sides whose
boundaries all have minimum-separator size and together cover every minimum
s-t separator. It is read off one maximum flow: one pass over the residual
network (``Residual.sides``) names every vertex v on some minimum separator
together with its side, so that X_v = {s} | side is the s-side of the
minimum separator closest to s that contains v. The distinct X_v are sorted
by (size, sorted ids) and the chain is the sequence of their running unions,
one set each time the union grows.

This is exact. The union of two minimum-separator s-sides is again one, by
submodularity of |N(.)|, so every running union has a minimum boundary.
Suppose v lies on a minimum separator and inside another vertex u's side
X_u. Then u's residual closure holds both copies of v, so it holds v's
closure too and X_u strictly contains X_v; X_u sorts after X_v. So no set
before X_v contains v, and v is on the boundary of the first union that
takes in X_v.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cmp_to_key
from typing import Iterable, Sequence

from .graphs import DomainError, Graph, adjacency_masks, bits, boundary
from .separation import st_flow


class SeparatorChain(namedtuple("SeparatorChain", "ell sets boundaries")):
    """The chain of one s-t pair:

        ell: int
        sets: tuple[tuple[int, ...], ...]          # X_1..X_q, ascending by size
        boundaries: tuple[tuple[int, ...], ...]    # S_i = boundary(X_i)
    """

    __slots__ = ()

    @property
    def q(self) -> int:
        return len(self.sets)


def _by_size_then_ids(X: int, Y: int) -> int:
    """Order vertex masks by size, then by their ascending ids: among masks
    of one size, the one holding the lowest id of X ^ Y comes first."""
    if X.bit_count() != Y.bit_count():
        return X.bit_count() - Y.bit_count()
    return -1 if X & (X ^ Y) & -(X ^ Y) else 1


def build_chain(G: Graph, s: int, t: int) -> SeparatorChain:
    """Construct the nested chain for non-adjacent distinct s, t.

    The running union's neighbourhood is kept as a mask that takes in the
    neighbours of the vertices each union gains, so each boundary is that
    mask minus the union and no vertex's neighbours are read twice. The
    flow is ``st_flow``'s, so the finished s-t flow that ``cover_set`` has
    just run on G is read again, not rerun.
    """
    G.check_vertices((s, t))
    if s == t or G.has_edge(s, t):
        raise DomainError("terminals must be distinct and non-adjacent")
    r = st_flow(G, s, t)
    assert r.is_finite
    ell = int(r.size)

    # distinct minimum separators have distinct s-sides
    sides = {X | 1 << s for X in r.residual.sides().values()}
    sets: list[tuple[int, ...]] = []
    bounds: list[tuple[int, ...]] = []
    adj = adjacency_masks(G)
    union, near, ids = 0, 0, ()
    for X in sorted(sides, key=cmp_to_key(_by_size_then_ids)):
        gained = bits(X & ~union)
        if not gained:
            continue
        # the union grows, so this sort merges two ascending runs
        ids = tuple(sorted((*ids, *gained)))
        union |= X
        for v in gained:
            near |= adj[v]
        sets.append(ids)
        bounds.append(tuple(bits(near & ~union)))
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
