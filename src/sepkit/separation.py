"""Minimum vertex separators between vertex sets, by unit-capacity flow.

The flow network splits every candidate vertex v into an in/out arc of
capacity one; a super-source covers A and a super-sink covers B. The network
is stored as flat arc arrays (head, residual capacity; the reverse of arc a
is a ^ 1), built by one function, ``_network``, and every flow runs the same
augmenting loop, ``_max_flow``, which finds augmenting paths by BFS. Which
paths it finds depends on the order of each node's arcs, but the flow's size
and its canonical witness, the min cut closest to A, are the same for every
maximum flow.

``min_vertex_separator`` builds a network for one graph and one pair of
terminal sets. ``PairNetwork`` builds the network of a fixed graph once and
runs many flows on it, each between two extra terminals a and b whose
neighbourhoods the flow picks: it copies the capacity array and switches on
the arcs of a's and b's neighbours. The cover recursion flows every
subproblem of a layer this way, and a compression step of odd cycle
transversal every branch.

A finished flow keeps its residual network (``SeparatorResult.residual``).
By Picard and Queyranne (1980) the closed sets of a maximum flow's residual
network that contain the source and not the sink are exactly the minimum
cuts. So one pass over the residual network (``Residual.sides``) names every
vertex v on a minimum separator together with its side: the A-side of the
minimum separator closest to A among those containing v, read off the
residual closure of the source and v's in-copy. Since every maximum flow has
the same closed sets, these answers do not depend on which augmenting paths
were found.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .graphs import DomainError, Graph, bits, boundary, components, vset

INFINITE = math.inf


class Residual:
    """Residual network of a finished maximum flow between vertex sets.

    Node 2v is the in-copy of vertex v, 2v+1 its out-copy; the last two
    nodes are the super-source and the super-sink. The first arc of an inner
    vertex's in-copy is its in-out arc (``_network``).
    """

    __slots__ = ("inner", "adj", "head", "cap", "reach")

    def __init__(self, inner: tuple[int, ...], adj: list[list[int]], head: list[int],
                 cap: list[int], reach: bytearray):
        self.inner = inner      # vertices outside both terminal sets, ascending
        self.adj = adj          # node -> arc ids
        self.head = head
        self.cap = cap          # residual capacity per arc
        self.reach = reach      # nodes residual-reachable from the source

    def sides(self) -> dict[int, int]:
        """{v: side} in ascending v for every vertex v on a minimum
        separator. The side is the bit mask of the inner vertices whose
        out-copy lies in the residual closure of the source and v's in-copy;
        with A the source set, A | side is the A-side X_v of the minimum
        separator closest to A among those containing v, and that separator
        is the boundary of X_v.

        v lies on a minimum separator iff that closure reaches neither v's
        out-copy nor the sink. One reverse search from the sink marks the
        source closure and every node that reaches the sink. From an
        unmarked in-copy, the closure adds only unmarked nodes, so one
        iterative Tarjan pass over them gives every closure: Tarjan closes a
        strongly connected component after all of its successors, so the
        closure of a component is its own out-copies OR'd with its
        successors' closures. An unsaturated in-arc, such as an isolated
        vertex's when no flow passes, puts v on no minimum separator, and
        needs no search.
        """
        adj, head, cap, reach = self.adj, self.head, self.cap, self.reach
        size = len(reach)
        # done: the source closure, and the nodes that reach the sink
        done = bytearray(reach)
        done[-1] = 1
        stack = [size - 1]
        while stack:
            for a in adj[stack.pop()]:
                if cap[a ^ 1]:
                    x = head[a]
                    if not done[x]:
                        done[x] = 1
                        stack.append(x)
        base = 0
        for v in self.inner:
            if reach[2 * v + 1]:
                base |= 1 << v
        # Tarjan's SCCs of the nodes outside ``done`` that the saturated
        # in-copies reach, iteratively; comp 0 is not yet closed, and
        # closure[c] holds the out-copies that component c reaches
        number = [0] * size
        low = [0] * size
        comp = [0] * size
        closure = [0]
        count = 0
        open_nodes = []
        for v in self.inner:
            root = 2 * v
            if done[root] or number[root] or cap[adj[root][0]]:
                continue
            count += 1
            number[root] = low[root] = count
            open_nodes.append(root)
            path = [(root, iter(adj[root]))]
            while path:
                x, arcs = path[-1]
                for a in arcs:
                    if cap[a]:
                        y = head[a]
                        if done[y] or comp[y]:
                            continue
                        if not number[y]:
                            count += 1
                            number[y] = low[y] = count
                            open_nodes.append(y)
                            path.append((y, iter(adj[y])))
                            break
                        if number[y] < low[x]:
                            low[x] = number[y]
                else:
                    path.pop()
                    if path and low[x] < low[path[-1][0]]:
                        low[path[-1][0]] = low[x]
                    if low[x] == number[x]:
                        # a successor is closed, in this component or
                        # still open in it (comp 0): the last two add 0
                        c = len(closure)
                        closure.append(0)
                        mask = 0
                        y = -1
                        while y != x:
                            y = open_nodes.pop()
                            comp[y] = c
                            if y & 1:
                                mask |= 1 << (y >> 1)
                            for a in adj[y]:
                                if cap[a] and not done[head[a]]:
                                    mask |= closure[comp[head[a]]]
                        closure[c] = mask
        out = {}
        for v in self.inner:
            v_in = 2 * v
            if cap[adj[v_in][0]] or reach[v_in + 1]:
                continue
            if reach[v_in]:
                out[v] = base
            elif not done[v_in] and not closure[comp[v_in]] >> v & 1:
                out[v] = base | closure[comp[v_in]]
        return out


class SeparatorResult:
    """Outcome of a minimum-separator computation.

    ``size`` is an int when a separator avoiding both terminal sets exists,
    and ``INFINITE`` when none can (terminal sets overlap or touch). When a
    cap was given and the search stopped early, ``exceeds_cap`` is set and
    ``size`` is the lower bound reached (cap + 1); this is a distinct state
    from INFINITE. A finite result from ``min_vertex_separator`` or
    ``PairNetwork.flow`` carries the residual network of its maximum flow.
    Every result of ``min_vertex_separator`` records the graph and terminal
    sets it answers for. ``==``, ``hash`` and ``repr`` read only ``size``,
    ``witness`` and ``exceeds_cap``; a result is not changed once built.
    """

    __slots__ = ("size", "witness", "exceeds_cap", "residual", "graph", "sources", "sinks")

    def __init__(self, size: float, witness: tuple[int, ...] = (), exceeds_cap: bool = False,
                 residual: Optional[Residual] = None, graph: Optional[Graph] = None,
                 sources: Optional[frozenset[int]] = None,
                 sinks: Optional[frozenset[int]] = None):
        self.size = size
        self.witness = witness
        self.exceeds_cap = exceeds_cap
        self.residual = residual
        self.graph = graph
        self.sources = sources
        self.sinks = sinks

    def _key(self) -> tuple:
        return self.size, self.witness, self.exceeds_cap

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"SeparatorResult(size={self.size!r}, witness={self.witness!r}, "
                f"exceeds_cap={self.exceeds_cap!r})")

    @property
    def is_finite(self) -> bool:
        return not self.exceeds_cap and self.size != INFINITE

    def within(self, budget: int) -> bool:
        return self.is_finite and self.size <= budget

    def belongs_to(self, G: Graph, A: Iterable[int], B: Iterable[int]) -> bool:
        return self.graph is G and self.sources == frozenset(A) and self.sinks == frozenset(B)


_BIG = 1 << 30


def _network(n: int, inner: tuple[int, ...], edges: Sequence[tuple[int, int]],
             sources: Sequence[int], sinks: Sequence[int], terminal_cap: int):
    """Arc arrays (adj, head, cap) of the split network on n vertices.

    Node 2v is v's in-copy, 2v+1 its out-copy, 2n the super-source and 2n+1
    the super-sink. The arcs, each followed by its reverse of capacity 0:
    one in-out arc of capacity 1 per vertex of ``inner``; u_out -> v_in and
    v_out -> u_in of capacity ``_BIG`` per edge (u, v) of inner vertices;
    one arc from the source into each vertex of ``sources``; then one arc
    from each vertex of ``sinks`` to the sink. The terminal arcs have
    capacity ``terminal_cap``. Every node lists its arcs in id order, so an
    inner in-copy's first arc is its in-out arc.
    """
    source, sink = 2 * n, 2 * n + 1
    head = [x for v in inner for x in (2 * v + 1, 2 * v)]
    head += [x for u, v in edges for x in (2 * v, 2 * u + 1, 2 * u, 2 * v + 1)]
    head += [x for v in sources for x in (2 * v, source)]
    head += [x for v in sinks for x in (sink, 2 * v + 1)]
    cap = ([1, 0] * len(inner) + [_BIG, 0] * (2 * len(edges))
           + [terminal_cap, 0] * (len(sources) + len(sinks)))
    tail = head[:]
    tail[0::2], tail[1::2] = head[1::2], head[0::2]
    adj: list[list[int]] = [[] for _ in range(sink + 1)]
    for a, x in enumerate(tail):
        adj[x].append(a)
    return adj, head, cap


def _max_flow(adj: list[list[int]], head: list[int], cap: list[int],
              inner: tuple[int, ...], limit: Optional[int], **about) -> SeparatorResult:
    """Augment ``cap`` in place along shortest paths from the source to the
    sink of a ``_network`` until none is left, or stop once the flow
    exceeds ``limit``. ``about`` names the graph and terminal sets for the
    result."""
    sink = len(adj) - 1
    source = sink - 1
    flow = 0
    while True:
        if limit is not None and flow > limit:
            return SeparatorResult(limit + 1, exceeds_cap=True, **about)
        seen = bytearray(sink + 1)
        seen[source] = 1
        via = [0] * (sink + 1)
        queue = [source]
        for x in queue:
            for a in adj[x]:
                if cap[a]:
                    y = head[a]
                    if not seen[y]:
                        seen[y] = 1
                        via[y] = a
                        queue.append(y)
            if seen[sink]:
                break
        if not seen[sink]:
            break
        y = sink
        while y != source:
            a = via[y]
            cap[a] -= 1
            cap[a ^ 1] += 1
            y = head[a ^ 1]
        flow += 1
    # the last search reached exactly the source side of the source-closest
    # min cut
    witness = tuple(v for v in inner if seen[2 * v] and not seen[2 * v + 1])
    assert len(witness) == flow
    return SeparatorResult(flow, witness, residual=Residual(inner, adj, head, cap, seen),
                           **about)


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
    about = {"graph": G, "sources": A_s, "sinks": B_s}
    if A_s & B_s:
        return SeparatorResult(INFINITE, **about)
    for a in A_s:
        for w in G.adj[a]:
            if w in B_s:
                return SeparatorResult(INFINITE, **about)
    # A-A and B-B edges are irrelevant, and A-B edges were refused above
    terminal = A_s | B_s
    inner = tuple(v for v in range(G.n) if v not in terminal)
    edges = [(u, v) for u in inner for v in G.adj[u] if u < v and v not in terminal]
    sources = vset(w for a in A_s for w in G.adj[a] if w not in terminal)
    sinks = vset(w for b in B_s for w in G.adj[b] if w not in terminal)
    return _max_flow(*_network(G.n, inner, edges, sources, sinks, _BIG), inner, cap, **about)


class PairNetwork:
    """One flow network for every graph on n + 2 vertices that has the given
    edges among 0..n-1 and any edges from a = n and b = n + 1 to them.

    The network of G[0..n-1] is built once, with an arc from the source into
    every vertex and one from every vertex to the sink, all switched off.
    ``flow(na, nb, cap)`` copies the capacities, switches on the arcs of
    the vertices in the bit masks na = N(a) and nb = N(b), and answers as
    ``min_vertex_separator(H, (a,), (b,), cap)`` on that graph H would:
    the same size, cap stop, witness and residual closures, with the same
    node numbering, so the residual serves H. The result records no graph
    (``graph``); a caller that needs one builds a new result with the graph
    and terminals bound, as ``reduction._layer_cover`` does.
    """

    __slots__ = ("n", "inner", "edges", "_adj", "_head", "_cap", "_sources")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        self.n = n
        self.inner = tuple(range(n))
        self.edges = edges
        self._adj, self._head, self._cap = _network(n + 2, self.inner, edges,
                                                    self.inner, self.inner, 0)
        self._sources = 2 * n + 4 * len(edges)      # the first source arc; sink arcs follow

    def graph(self, na: int, nb: int) -> Graph:
        """The graph H that ``flow(na, nb)`` answers for."""
        a, b = self.n, self.n + 1
        return Graph(b + 1, [*self.edges, *((i, a) for i in self.inner if na >> i & 1),
                             *((i, b) for i in self.inner if nb >> i & 1)])

    def flow(self, na: int, nb: int, cap: Optional[int] = None) -> SeparatorResult:
        """The a-b flow of ``graph(na, nb)``, stopped once it exceeds ``cap``."""
        res = self._cap[:]
        for mask, first in ((na, self._sources), (nb, self._sources + 2 * self.n)):
            while mask:
                low = mask & -mask
                res[first + 2 * (low.bit_length() - 1)] = _BIG
                mask ^= low
        return _max_flow(self._adj, self._head, res, self.inner, cap)


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
    lies on any minimum s-t separator: the boundary of v's side in one s-t
    flow (``Residual.sides``). The solve path no longer calls it; it stays
    because ``perfbench/spans.py`` wraps it by name, so its deletion belongs
    to a change of the benchmark.
    """
    G.check_vertices((s, t, v))
    if s == t or G.has_edge(s, t):
        raise DomainError("terminals must be distinct and non-adjacent")
    if v in (s, t):
        raise DomainError("candidate vertex must differ from the terminals")
    r = min_vertex_separator(G, (s,), (t,))
    side = r.residual.sides().get(v)
    if side is None:
        return None
    return SeparatorResult(int(r.size), boundary(G, [s, *bits(side)]))
