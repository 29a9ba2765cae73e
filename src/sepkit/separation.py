"""Minimum vertex separators between vertex sets, by unit-capacity flow.

The flow network splits every candidate vertex v into an in/out arc of
capacity one; a super-source covers A and a super-sink covers B. The network
is stored as flat arc arrays (head, residual capacity; the reverse of arc a
is a ^ 1), and augmenting paths are found by BFS. Which paths it finds
depends on the order of each node's arcs, but the flow's size and its
canonical witness, the min cut closest to A, are the same for every maximum
flow.

A finished flow keeps its residual network (``SeparatorResult.residual``).
By Picard and Queyranne (1980) the closed sets of a maximum flow's residual
network that contain the source and not the sink are exactly the minimum
cuts. So one flow answers, for every vertex v at once, whether v lies on a
minimum separator and which one is closest to A: the residual closure of the
source and v's in-copy, when it reaches neither v's out-copy nor the sink.
Since every maximum flow has the same closed sets, these answers do not
depend on which augmenting paths were found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional

from .graphs import DomainError, Graph, components, vset

INFINITE = math.inf


@dataclass(eq=False, repr=False, slots=True)
class Residual:
    """Residual network of a finished maximum flow between vertex sets.

    Node 2v is the in-copy of vertex v, 2v+1 its out-copy; the last two
    nodes are the super-source and the super-sink.
    """
    inner: tuple[int, ...]          # vertices outside both terminal sets, ascending
    adj: list[list[int]]            # node -> arc ids
    head: list[int]
    cap: list[int]                  # residual capacity per arc
    reach: bytearray                # nodes residual-reachable from the source
    witness: tuple[int, ...]        # the source-closest minimum separator

    def separator_through(self, v: int) -> Optional[tuple[int, ...]]:
        """The minimum separator closest to A among those containing v, or
        None when v lies on no minimum separator (or is a terminal)."""
        v_in, v_out = 2 * v, 2 * v + 1
        adj, head, cap, reach = self.adj, self.head, self.cap, self.reach
        if not adj[v_in] or reach[v_out]:   # a terminal's copies have no arcs
            return None
        if reach[v_in]:
            return self.witness
        sink = len(reach) - 1
        seen = bytearray(reach)
        seen[v_in] = 1
        stack = [v_in]
        while stack:
            for a in adj[stack.pop()]:
                if cap[a]:
                    y = head[a]
                    if not seen[y]:
                        if y == v_out or y == sink:
                            return None
                        seen[y] = 1
                        stack.append(y)
        return tuple(u for u in self.inner if seen[2 * u] and not seen[2 * u + 1])


@dataclass(frozen=True)
class SeparatorResult:
    """Outcome of a minimum-separator computation.

    ``size`` is an int when a separator avoiding both terminal sets exists,
    and ``INFINITE`` when none can (terminal sets overlap or touch). When a
    cap was given and the search stopped early, ``exceeds_cap`` is set and
    ``size`` is the lower bound reached (cap + 1); this is a distinct state
    from INFINITE. A finite result from ``min_vertex_separator`` carries the
    residual network of its maximum flow. Every result of it records the graph
    and terminal sets it answers for, outside ``==`` and ``repr``.
    """
    size: float
    witness: tuple[int, ...] = ()
    exceeds_cap: bool = False
    residual: Optional[Residual] = field(default=None, compare=False, repr=False)
    graph: Optional[Graph] = field(default=None, compare=False, repr=False)
    sources: Optional[frozenset[int]] = field(default=None, compare=False, repr=False)
    sinks: Optional[frozenset[int]] = field(default=None, compare=False, repr=False)

    @property
    def is_finite(self) -> bool:
        return not self.exceeds_cap and self.size != INFINITE

    def within(self, budget: int) -> bool:
        return self.is_finite and self.size <= budget

    def belongs_to(self, G: Graph, A: Iterable[int], B: Iterable[int]) -> bool:
        return self.graph is G and self.sources == frozenset(A) and self.sinks == frozenset(B)


_BIG = 1 << 30


def min_vertex_separator(G: Graph, A: Iterable[int], B: Iterable[int],
                         cap: Optional[int] = None) -> SeparatorResult:
    """Minimum set of vertices outside A and B separating A from B.

    Witness is canonical: the vertices whose in-copy is residual-reachable
    from the source while the out-copy is not (the cut closest to A). With
    ``cap`` given, the search stops as soon as the flow exceeds it.
    """
    A_s = frozenset(G.check_vertices(A))
    B_s = frozenset(G.check_vertices(B))
    if not A_s or not B_s:
        raise DomainError("terminal sets must be non-empty")
    result = partial(SeparatorResult, graph=G, sources=A_s, sinks=B_s)
    if A_s & B_s:
        return result(INFINITE)
    for a in A_s:
        for w in G.adj[a]:
            if w in B_s:
                return result(INFINITE)

    source = 2 * G.n
    sink = source + 1
    adj: list[list[int]] = [[] for _ in range(sink + 1)]
    head: list[int] = []
    res: list[int] = []

    def add_arc(x, y, c):
        adj[x].append(len(head))
        head.append(y)
        res.append(c)
        adj[y].append(len(head))
        head.append(x)
        res.append(0)

    inner = tuple(v for v in range(G.n) if v not in A_s and v not in B_s)
    for v in inner:
        add_arc(2 * v, 2 * v + 1, 1)
    from_source: set[int] = set()
    to_sink: set[int] = set()
    for u, v in G.edges():
        u_term, v_term = u in A_s or u in B_s, v in A_s or v in B_s
        if not u_term and not v_term:
            add_arc(2 * u + 1, 2 * v, _BIG)
            add_arc(2 * v + 1, 2 * u, _BIG)
            continue
        if u_term == v_term:
            continue    # A-A and B-B edges are irrelevant; A-B handled above
        term, w = (u, v) if u_term else (v, u)
        if term in A_s:
            if w not in from_source:
                from_source.add(w)
                add_arc(source, 2 * w, _BIG)
        elif w not in to_sink:
            to_sink.add(w)
            add_arc(2 * w + 1, sink, _BIG)

    flow = 0
    while True:
        if cap is not None and flow > cap:
            return result(cap + 1, exceeds_cap=True)
        seen = bytearray(sink + 1)
        seen[source] = 1
        via = [0] * (sink + 1)
        queue = [source]
        found = False
        for x in queue:
            for a in adj[x]:
                if res[a]:
                    y = head[a]
                    if not seen[y]:
                        seen[y] = 1
                        via[y] = a
                        queue.append(y)
                        if y == sink:
                            found = True
                            break
            if found:
                break
        if not found:
            break
        y = sink
        while y != source:
            a = via[y]
            res[a] -= 1
            res[a ^ 1] += 1
            y = head[a ^ 1]
        flow += 1

    # the last search reached exactly the source side of the source-closest
    # min cut
    witness = tuple(v for v in inner if seen[2 * v] and not seen[2 * v + 1])
    assert len(witness) == flow
    return result(flow, witness, residual=Residual(inner, adj, head, res, seen, witness))


def st_flow(G: Graph, s: int, t: int, flow: Optional[SeparatorResult] = None,
            cap: Optional[int] = None) -> SeparatorResult:
    """The minimum s-t separator of G capped at ``cap``: ``flow``, which must
    be of this graph and pair, when it is finished or stopped above ``cap``,
    else a fresh ``min_vertex_separator``."""
    if flow is not None and not flow.belongs_to(G, (s,), (t,)):
        raise DomainError("flow belongs to another graph or terminal pair")
    if flow is not None and (flow.residual is not None
                             or cap is not None and flow.exceeds_cap and flow.size > cap):
        return flow
    return min_vertex_separator(G, (s,), (t,), cap=cap)


def is_separator(G: Graph, S: Iterable[int], A: Iterable[int], B: Iterable[int]) -> bool:
    """True iff no component of G minus S meets both A minus S and B minus S."""
    S_s = set(G.check_vertices(S))
    A_s = set(G.check_vertices(A)) - S_s
    B_s = set(G.check_vertices(B)) - S_s
    for comp in components(G, S_s):
        cs = set(comp)
        if cs & A_s and cs & B_s:
            return False
    return True


def minimalize_separator(G: Graph, S: Iterable[int], A: Iterable[int],
                         B: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal subset of S still separating A from B.

    Scans S ascending and drops every vertex whose removal keeps separation,
    so the result is deterministic.
    """
    S_s = vset(S)
    if not is_separator(G, S_s, A, B):
        raise DomainError("input set does not separate the terminal sets")
    current = set(S_s)
    for v in S_s:
        trial = current - {v}
        if is_separator(G, trial, A, B):
            current = trial
    return tuple(sorted(current))


def min_separator_containing(G: Graph, s: int, t: int, v: int) -> Optional[SeparatorResult]:
    """The minimum s-t separator closest to s among those containing v, if v
    lies on any minimum s-t separator; one s-t flow decides it (see
    ``Residual.separator_through``).
    """
    G.check_vertices((s, t, v))
    if s == t or G.has_edge(s, t):
        raise DomainError("terminals must be distinct and non-adjacent")
    if v in (s, t):
        raise DomainError("candidate vertex must differ from the terminals")
    r = min_vertex_separator(G, (s,), (t,))
    witness = r.residual.separator_through(v)
    if witness is None:
        return None
    return SeparatorResult(int(r.size), witness)
