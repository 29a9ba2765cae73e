"""Immutable simple undirected graphs and the elementary operations on them.

Vertices are 0-based ints internally; the text format and the CLI use 1-based
ids. All operations are pure: anything that "edits" a graph returns a new one.
Neighbor lists are kept sorted so that every traversal in the package is
deterministic.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Iterable, Optional


class GraphError(Exception):
    pass


class ParseError(GraphError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DomainError(GraphError):
    pass


def vset(vertices: Iterable[int]) -> tuple[int, ...]:
    """Normalize an iterable of vertex ids into a sorted duplicate-free tuple."""
    return tuple(sorted(set(vertices)))


def bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending: the vertices of a vertex mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def adjacency_masks(G: Graph) -> list[int]:
    """Each vertex's neighbours as a vertex mask, indexed by vertex."""
    return [sum(1 << u for u in a) for a in G.adj]


class Graph:
    """Simple undirected graph: no loops, no parallel edges.

    ``adj[v]`` is a sorted tuple of neighbors, the only adjacency stored.
    ``_st_flow``, (s, t, result) or None, is the last flow that
    ``separation.st_flow`` ran on the graph; it stays out of ``==``, ``hash``
    and ``repr``, and keeps that flow alive as long as the graph.
    """

    __slots__ = ("n", "adj", "_st_flow")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise DomainError("vertex count must be non-negative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self._freeze(nbrs)

    def _freeze(self, nbrs: list[set[int]]) -> None:
        """Set ``n`` and ``adj`` from checked neighbour sets, one per vertex:
        the last step of ``__init__`` and of ``parse_graph``, which fills the
        sets as it reads the edge lines."""
        self.n = len(nbrs)
        self.adj = tuple(tuple(sorted(s)) for s in nbrs)
        self._st_flow = None

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def check_vertices(self, X: Iterable[int]) -> tuple[int, ...]:
        xs = vset(X)
        if xs and (xs[0] < 0 or xs[-1] >= self.n):
            raise DomainError(f"vertex set {xs} not within 0..{self.n - 1}")
        return xs

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.adj == other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- text format ----------------------------------------------------------
#
# `c <comment>` lines ignored, exactly one `p <n> <m>` header, then `e <u> <v>`
# with 1-based endpoints. Duplicate edge lines collapse; loops are rejected.

# the most vertices a header may declare: ``Graph`` allocates per vertex, so a
# huge count in a one-line file would otherwise exhaust memory before failing
MAX_VERTICES = 2 ** 20


def parse_graph(text: str) -> Graph:
    """The graph of ``text``, read in one pass: each edge line goes straight
    into the neighbour sets, which the header allocates once its vertex
    count has passed the ``MAX_VERTICES`` check."""
    n = None
    nbrs: list[set[int]] = []
    declared_m = 0
    header_line = 0
    edge_lines = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        # split() drops the same whitespace as strip(), so a blank line has
        # no fields and a comment line's first field starts with "c"
        fields = line.split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "e":
            if n is None:
                raise ParseError("edge before header", lineno)
            if len(fields) != 3:
                raise ParseError("edge must be 'e <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("non-integer endpoint", lineno) from None
            if u == v:
                raise ParseError(f"loop at vertex {u}", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range: {u} {v}", lineno)
            edge_lines += 1
            nbrs[u - 1].add(v - 1)
            nbrs[v - 1].add(u - 1)
        elif kind.startswith("c"):
            continue
        elif kind == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 3:
                raise ParseError("header must be 'p <n> <m>'", lineno)
            try:
                n, declared_m = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("non-integer header field", lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative count in header", lineno)
            if n > MAX_VERTICES:
                raise ParseError(f"header declares {n} vertices, more than "
                                 f"the limit of {MAX_VERTICES}", lineno)
            header_line = lineno
            nbrs = [set() for _ in range(n)]
        else:
            raise ParseError(f"unknown line type {kind!r}", lineno)
    if n is None:
        raise ParseError("missing 'p' header", 1)
    if edge_lines != declared_m:
        raise ParseError(
            f"header declares {declared_m} edges but {edge_lines} edge lines found",
            header_line)
    G = Graph.__new__(Graph)
    G._freeze(nbrs)
    return G


def serialize_graph(G: Graph) -> str:
    lines = [f"p {G.n} {G.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in G.edges()]
    return "\n".join(lines) + "\n"


# -- elementary operations -------------------------------------------------

def boundary(G: Graph, X: Iterable[int]) -> tuple[int, ...]:
    """Vertices outside X with at least one neighbor in X."""
    xs = set(G.check_vertices(X))
    out = set()
    for v in xs:
        for w in G.adj[v]:
            if w not in xs:
                out.add(w)
    return tuple(sorted(out))


def components(G: Graph, removed: Iterable[int] = ()) -> list[tuple[int, ...]]:
    """Connected components of G minus ``removed``, each sorted, ordered by
    smallest member."""
    gone = set(G.check_vertices(removed))
    seen = set(gone)
    comps = []
    for start in range(G.n):
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in G.adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


class InducedSubgraph(namedtuple("InducedSubgraph", "graph orig")):
    """G[X] and the map back to G:

        graph: Graph
        orig: tuple[int, ...]          # new id -> original id
    """

    __slots__ = ()

    def to_new(self, v: int) -> int:
        # orig is sorted, so binary search would do; linear is fine at our sizes
        return self.orig.index(v)

    def map_back(self, vs: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self.orig[v] for v in vs))


def induced_subgraph(G: Graph, X: Iterable[int]) -> InducedSubgraph:
    """G[X] relabeled 0..|X|-1 in ascending original order, plus the mapping."""
    xs = G.check_vertices(X)
    index = {v: i for i, v in enumerate(xs)}
    edges = [(index[u], index[v]) for u, v in G.edges() if u in index and v in index]
    return InducedSubgraph(Graph(len(xs), edges), xs)


def delete_vertices(G: Graph, X: Iterable[int]) -> InducedSubgraph:
    xs = set(G.check_vertices(X))
    return induced_subgraph(G, [v for v in range(G.n) if v not in xs])


def two_coloring(G: Graph, removed: Iterable[int] = ()
                 ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A proper 2-coloring (B, W) of G minus ``removed`` if that graph is
    bipartite, else None.

    Per component, the smallest vertex goes to the B side.
    """
    color = [-1] * G.n
    for v in G.check_vertices(removed):
        color[v] = 2    # neither side, so never a conflict
    for start in range(G.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in G.adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    black = tuple(v for v in range(G.n) if color[v] == 0)
    white = tuple(v for v in range(G.n) if color[v] == 1)
    return black, white


def shortest_odd_cycle(G: Graph) -> Optional[tuple[int, ...]]:
    """A minimum-length odd cycle, or None if G is bipartite.

    Runs a BFS in the bipartite double cover, whose node 2u + side is u at
    path parity side, from (v, even) to (v, odd) for each v ascending; the
    best distance is the length of a shortest odd closed walk, which at the
    global minimum is a simple cycle. A search stops once it can no longer
    beat the best distance so far.
    """
    adj = G.adj
    best_cycle: Optional[tuple[int, ...]] = None
    best = 2 * G.n + 1      # longer than any odd closed walk a search finds
    for v in range(G.n):
        if best == 3:
            break
        src, target = 2 * v, 2 * v + 1
        dist = [-1] * (2 * G.n)
        parent = [0] * (2 * G.n)
        dist[src] = 0
        queue = [src]
        for x in queue:
            d = dist[x] + 1
            if x == target or d >= best:
                break
            flip = (x & 1) ^ 1
            for w in adj[x >> 1]:
                y = 2 * w + flip
                if dist[y] < 0:
                    dist[y] = d
                    parent[y] = x
                    queue.append(y)
        if 0 <= dist[target] < best:
            best = dist[target]
            walk = []
            cur = target
            while cur != src:
                walk.append(cur >> 1)
                cur = parent[cur]
            walk.append(v)
            walk.reverse()               # v ... v, length best + 1
            best_cycle = tuple(walk[:-1])
    if best_cycle is None:
        return None
    if __debug__:
        _assert_min_odd_cycle_shape(G, best_cycle)
    return best_cycle


def _assert_min_odd_cycle_shape(G: Graph, cyc: tuple[int, ...]) -> None:
    L = len(cyc)
    assert L % 2 == 1 and L >= 3
    assert len(set(cyc)) == L, "shortest odd closed walk must be simple"
    on_cycle = set(cyc)
    for i, u in enumerate(cyc):
        assert G.has_edge(u, cyc[(i + 1) % L])
    if L > 3:
        for i in range(L):
            for j in range(i + 2, L):
                if i == 0 and j == L - 1:
                    continue
                assert not G.has_edge(cyc[i], cyc[j]), "chord in minimum odd cycle"
        for v in range(G.n):
            if v not in on_cycle:
                assert sum(1 for w in G.adj[v] if w in on_cycle) <= 2
