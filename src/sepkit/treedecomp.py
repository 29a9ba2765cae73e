"""Tree decompositions: min-fill heuristic, validation, nice form for the
solver DP, and PACE-style text export.

Solver correctness relies only on decomposition validity; the heuristic width
just controls DP table sizes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import DomainError, Graph

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[tuple[int, ...], ...]
    tree: tuple[tuple[int, int], ...]     # edges over bag indices

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for i, j in self.tree:
            adj[i].append(j)
            adj[j].append(i)
        return [sorted(a) for a in adj]


def _eliminate(adj: dict[int, set[int]], v: int) -> None:
    nbrs = adj.pop(v)
    for u in nbrs:
        adj[u].discard(v)
    for u in nbrs:
        for w in nbrs:
            if u < w:
                adj[u].add(w)
                adj[w].add(u)


def _fill_in(adj: dict[int, set[int]], v: int) -> int:
    nbrs = sorted(adj[v])
    count = 0
    for i, u in enumerate(nbrs):
        for w in nbrs[i + 1:]:
            if w not in adj[u]:
                count += 1
    return count


def _decomposition_from_order(G: Graph, order: list[int]) -> TreeDecomposition:
    """Standard bag construction: bag of v = v plus its neighbors at
    elimination time; each bag hangs off the bag of the earliest-eliminated
    vertex among those neighbors."""
    if G.n == 0:
        return TreeDecomposition(((),), ())
    adj = {v: set(G.adj[v]) for v in range(G.n)}
    position = {v: i for i, v in enumerate(order)}
    bags = []
    rest : list[list[int]] = []
    for v in order:
        bags.append(tuple(sorted(adj[v] | {v})))
        rest.append(sorted(adj[v], key=lambda u: position[u]))
        _eliminate(adj, v)
    edges = []
    for i, nbrs in enumerate(rest):
        if nbrs:
            edges.append((i, position[nbrs[0]]))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges))


def min_fill_order(G: Graph) -> list[int]:
    """Greedy elimination order: least fill-in first, ties by lowest id.

    Eliminating v changes the neighbourhood of v's neighbours and the
    adjacency inside the neighbourhood of their neighbours, so only those
    fill counts are recomputed."""
    adj = {v: set(G.adj[v]) for v in range(G.n)}
    fill = {v: _fill_in(adj, v) for v in adj}
    order = []
    while adj:
        v = min(fill, key=lambda u: (fill[u], u))
        order.append(v)
        nbrs = adj[v]
        _eliminate(adj, v)
        del fill[v]
        stale = set(nbrs)
        for u in nbrs:
            stale.update(adj[u])
        for u in stale:
            fill[u] = _fill_in(adj, u)
    return order


def decompose(G: Graph) -> TreeDecomposition:
    """Min-fill decomposition with ascending-id tie-breaking."""
    return _decomposition_from_order(G, min_fill_order(G))


def validate_decomposition(G: Graph, td: TreeDecomposition) -> bool:
    nb = len(td.bags)
    if nb == 0:
        return False
    if len(td.tree) != nb - 1:
        return False
    adj = td.neighbors()
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    if len(seen) != nb:
        return False
    holds = [[] for _ in range(G.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < G.n:
                return False
            holds[v].append(i)
    if any(not h for h in holds):
        return False
    for u, v in G.edges():
        if not any(u in td.bags[i] and v in td.bags[i] for i in holds[u]):
            return False
    for v in range(G.n):
        mine = set(holds[v])
        start = holds[v][0]
        seen_v = {start}
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if j in mine and j not in seen_v:
                    seen_v.add(j)
                    queue.append(j)
        if seen_v != mine:
            return False
    return True


# -- nice form --------------------------------------------------------------

@dataclass(frozen=True)
class NiceNode:
    kind: str
    vertex: Optional[int]
    bag: tuple[int, ...]
    children: tuple[int, ...]


@dataclass(frozen=True)
class NiceDecomposition:
    """Rooted nice decomposition in post-order (children precede parents);
    the last node is the root and has an empty bag."""
    nodes: tuple[NiceNode, ...]

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def width(self) -> int:
        return max((len(nd.bag) for nd in self.nodes), default=0) - 1


class _NiceBuilder:
    def __init__(self):
        self.nodes: list[NiceNode] = []

    def add(self, kind, vertex, bag, children) -> int:
        self.nodes.append(NiceNode(kind, vertex, tuple(sorted(bag)), tuple(children)))
        return len(self.nodes) - 1

    def leaf(self) -> int:
        return self.add(LEAF, None, (), ())

    def chain_to(self, idx: int, have: tuple[int, ...], want: Iterable[int]) -> int:
        want_s = set(want)
        cur = set(have)
        for v in sorted(cur - want_s):
            cur.discard(v)
            idx = self.add(FORGET, v, cur, (idx,))
        for v in sorted(want_s - cur):
            cur.add(v)
            idx = self.add(INTRODUCE, v, cur, (idx,))
        return idx


def make_nice(td: TreeDecomposition, G: Graph, root_vertex: Optional[int] = None) -> NiceDecomposition:
    """Convert a valid decomposition to nice form, rooted at the first bag
    containing ``root_vertex`` (bag 0 otherwise). Width is preserved."""
    if not validate_decomposition(G, td):
        raise DomainError("invalid tree decomposition")
    root = 0
    if root_vertex is not None:
        for i, bag in enumerate(td.bags):
            if root_vertex in bag:
                root = i
                break
    adj = td.neighbors()
    b = _NiceBuilder()

    parent = {root: None}
    order = [root]
    queue = deque([root])
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if j not in parent:
                parent[j] = i
                order.append(j)
                queue.append(j)

    topped: dict[int, int] = {}
    for i in reversed(order):
        kids = [j for j in adj[i] if parent.get(j) == i]
        bag = td.bags[i]
        if not kids:
            idx = b.chain_to(b.leaf(), (), bag)
        else:
            tops = []
            for j in kids:
                tops.append(b.chain_to(topped[j], td.bags[j], bag))
            idx = tops[0]
            for other in tops[1:]:
                idx = b.add(JOIN, None, bag, (idx, other))
        topped[i] = idx
    final = b.chain_to(topped[root], td.bags[root], ())
    if b.nodes[final].bag:
        raise AssertionError("root bag must end empty")
    return NiceDecomposition(tuple(b.nodes))


def validate_nice(G: Graph, nice: NiceDecomposition) -> bool:
    """Shape and coverage checks for a nice decomposition of G."""
    seen_vertices = set()
    covered_edges = set()
    for idx, nd in enumerate(nice.nodes):
        if any(c >= idx for c in nd.children):
            return False
        bag = set(nd.bag)
        if nd.kind == LEAF:
            if nd.children or bag:
                return False
        elif nd.kind == INTRODUCE:
            (c,) = nd.children
            if set(nice.nodes[c].bag) | {nd.vertex} != bag or nd.vertex in nice.nodes[c].bag:
                return False
            seen_vertices.add(nd.vertex)
            for u in nice.nodes[c].bag:
                if G.has_edge(u, nd.vertex):
                    covered_edges.add((min(u, nd.vertex), max(u, nd.vertex)))
        elif nd.kind == FORGET:
            (c,) = nd.children
            if set(nice.nodes[c].bag) - {nd.vertex} != bag or nd.vertex not in nice.nodes[c].bag:
                return False
        elif nd.kind == JOIN:
            if len(nd.children) != 2:
                return False
            if any(nice.nodes[c].bag != nd.bag for c in nd.children):
                return False
        else:
            return False
    if nice.nodes[-1].bag:
        return False
    return seen_vertices == set(range(G.n)) and covered_edges == set(G.edges())


# -- PACE-style text export ---------------------------------------------------

def format_td(td: TreeDecomposition, n: int) -> str:
    lines = [f"s td {len(td.bags)} {td.width + 1} {n}"]
    for i, bag in enumerate(td.bags, start=1):
        lines.append("b " + " ".join([str(i)] + [str(v + 1) for v in bag]))
    for i, j in td.tree:
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"
