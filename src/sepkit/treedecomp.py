"""Tree decompositions: min-fill heuristic, validation, nice form for the
solver DP, and PACE-style text export.

Solver correctness relies only on decomposition validity; the heuristic width
just controls DP table sizes. Min-fill, the bag construction and both
validators work on int adjacency masks, a vertex's neighbours as the set
bits of one int. A nice node is its kind, vertex and children: its bag is
derived from those, as a mask, and never stored.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Iterable, Optional

from .graphs import DomainError, Graph, adjacency_masks, bits

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


class TreeDecomposition(namedtuple("TreeDecomposition", "bags tree")):
    """Bags and the tree over them:

        bags: tuple[tuple[int, ...], ...]
        tree: tuple[tuple[int, int], ...]     # edges over bag indices
    """

    __slots__ = ()

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for i, j in self.tree:
            adj[i].append(j)
            adj[j].append(i)
        return [sorted(a) for a in adj]


def _eliminate(adj: list[int], v: int) -> int:
    """Make v's neighbours a clique and drop v from them; v's mask is left
    as it was and returned."""
    nb = adj[v]
    for u in bits(nb):
        adj[u] = (adj[u] | nb) & ~(1 << u | 1 << v)
    return nb


def _fill_in(adj: list[int], v: int) -> int:
    """Non-adjacent pairs among v's neighbours: each neighbour u misses
    the others outside its mask, and every pair is missed from both ends."""
    nb = rest = adj[v]
    missed = 0
    while rest:
        low = rest & -rest
        missed += (nb & ~adj[low.bit_length() - 1]).bit_count()
        rest ^= low
    return (missed - nb.bit_count()) // 2


def _min_fill(G: Graph) -> list[tuple[int, int]]:
    """Greedy elimination, least fill-in first and ties by lowest id, as
    (v, v's neighbour mask when eliminated) steps.

    Eliminating v changes the neighbourhood of v's neighbours and the
    adjacency inside the neighbourhood of their neighbours, so only those
    fill counts are recomputed."""
    adj = adjacency_masks(G)
    fill = [_fill_in(adj, v) for v in range(G.n)]
    alive = list(range(G.n))
    steps = []
    while alive:
        # the first minimum of an ascending list: ties go to the lowest id
        v = min(alive, key=fill.__getitem__)
        alive.remove(v)
        nb = _eliminate(adj, v)
        steps.append((v, nb))
        stale = nb
        for u in bits(nb):
            stale |= adj[u]
        for u in bits(stale):
            fill[u] = _fill_in(adj, u)
    return steps


def min_fill_order(G: Graph) -> list[int]:
    """The min-fill elimination order whose steps ``decompose`` reads."""
    return [v for v, _ in _min_fill(G)]


def decompose(G: Graph) -> TreeDecomposition:
    """Min-fill decomposition with ascending-id tie-breaking, read off one
    elimination: the bag of the i-th eliminated vertex v is v plus its
    neighbours at that step, hung off the bag of the earliest eliminated of
    them, or off bag i + 1 when it has none."""
    steps = _min_fill(G)
    position = [0] * G.n
    for i, (v, _) in enumerate(steps):
        position[v] = i
    bags = []
    edges = []
    for i, (v, nb) in enumerate(steps):
        bags.append(tuple(bits(nb | 1 << v)))
        if nb:
            edges.append((i, min(position[u] for u in bits(nb))))
        elif i + 1 < len(steps):
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags) or ((),), tuple(edges))


def validate_decomposition(G: Graph, td: TreeDecomposition) -> bool:
    """Every vertex in a bag, every edge inside a bag, and each vertex's bags
    a subtree: rooted at bag 0, exactly one of them has its parent's bag
    without the vertex (or is the root)."""
    nb = len(td.bags)
    if nb == 0:
        return False
    if len(td.tree) != nb - 1:
        return False
    adj = td.neighbors()
    parent = [-1] * nb
    seen = [False] * nb
    seen[0] = True
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                parent[j] = i
                queue.append(j)
    if not all(seen):
        return False
    masks = []
    for bag in td.bags:
        mask = 0
        for v in bag:
            if not 0 <= v < G.n:
                return False
            mask |= 1 << v
        masks.append(mask)
    reach = [0] * G.n       # the union of the bags holding each vertex
    once = twice = 0        # vertices with one top bag, and with more
    for i, mask in enumerate(masks):
        for v in bits(mask):
            reach[v] |= mask
        top = mask if parent[i] < 0 else mask & ~masks[parent[i]]
        twice |= once & top
        once |= top
    if once != (1 << G.n) - 1 or twice:
        return False
    return all(not m & ~r for m, r in zip(adjacency_masks(G), reach))


# -- nice form --------------------------------------------------------------

class NiceNode(namedtuple("NiceNode", "kind vertex children")):
    """One node of a nice decomposition; its bag is not stored but follows
    from these fields and its child's bag (``NiceDecomposition.bags``):

        kind: str
        vertex: Optional[int]       # introduced or forgotten; None otherwise
        children: tuple[int, ...]
    """

    __slots__ = ()


class NiceDecomposition(namedtuple("NiceDecomposition", "nodes")):
    """Rooted nice decomposition in post-order (children precede parents);
    the last node is the root. Each bag is derived: empty at a leaf, the
    child's bag plus or minus the vertex at an introduce or forget node,
    and the children's common bag at a join; the root's bag is empty.

        nodes: tuple[NiceNode, ...]
    """

    __slots__ = ()

    def bags(self) -> list[int]:
        """Each node's bag as a mask of vertex bits, in node order; an
        introduce or forget node toggles its vertex in its child's bag."""
        masks: list[int] = []
        for nd in self.nodes:
            if nd.kind == LEAF:
                masks.append(0)
            elif nd.kind == JOIN:
                masks.append(masks[nd.children[0]])
            else:
                masks.append(masks[nd.children[0]] ^ 1 << nd.vertex)
        return masks

    @property
    def width(self) -> int:
        return max((m.bit_count() for m in self.bags()), default=0) - 1


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
    nodes: list[NiceNode] = []

    def add(kind: str, vertex: Optional[int], children: tuple[int, ...]) -> int:
        nodes.append(NiceNode(kind, vertex, children))
        return len(nodes) - 1

    def move(idx: int, have: Iterable[int], want: Iterable[int]) -> int:
        # from node idx with bag ``have`` up to bag ``want``
        for v in sorted(set(have).difference(want)):
            idx = add(FORGET, v, (idx,))
        for v in sorted(set(want).difference(have)):
            idx = add(INTRODUCE, v, (idx,))
        return idx

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
            idx = move(add(LEAF, None, ()), (), bag)
        else:
            tops = [move(topped[j], td.bags[j], bag) for j in kids]
            idx = tops[0]
            for other in tops[1:]:
                idx = add(JOIN, None, (idx, other))
        topped[i] = idx
    move(topped[root], td.bags[root], ())
    return NiceDecomposition(tuple(nodes))


def validate_nice(G: Graph, nice: NiceDecomposition) -> bool:
    """Shape and coverage checks for a nice decomposition of G.

    Every child precedes its parent, and every node but the last (the
    root) is the child of exactly one later node. A leaf has no children;
    an introduce or forget node has one, whose bag lacks or holds the
    node's vertex, a vertex of G; a join has two with equal bags. The
    root's bag is empty, every vertex is forgotten exactly once and every
    edge is met when its later endpoint is introduced. Since a vertex only
    leaves a bag at its forget node on the way to the empty root, the nodes
    holding it form a subtree: a tree decomposition of G."""
    nodes = nice.nodes
    if not nodes:
        return False
    n = G.n
    nbrs = adjacency_masks(G)
    masks = []
    parents = [0] * len(nodes)
    met = [0] * n           # met[v]: neighbours v shared a bag with at an introduce
    forgotten = twice = 0
    for idx, nd in enumerate(nodes):
        kids = nd.children
        if any(not 0 <= c < idx for c in kids):
            return False
        for c in kids:
            parents[c] += 1
        if nd.kind == LEAF:
            if kids:
                return False
            masks.append(0)
        elif nd.kind == JOIN:
            if len(kids) != 2 or masks[kids[0]] != masks[kids[1]]:
                return False
            masks.append(masks[kids[0]])
        elif nd.kind in (INTRODUCE, FORGET):
            v = nd.vertex
            if len(kids) != 1 or not isinstance(v, int) or not 0 <= v < n:
                return False
            bit, below = 1 << v, masks[kids[0]]
            if nd.kind == INTRODUCE:
                if below & bit:
                    return False
                hit = nbrs[v] & below
                met[v] |= hit
                for u in bits(hit):
                    met[u] |= bit
            else:
                if not below & bit:
                    return False
                twice |= forgotten & bit
                forgotten |= bit
            masks.append(below ^ bit)
        else:
            return False
    if masks[-1] or parents[-1] or any(p != 1 for p in parents[:-1]):
        return False
    return forgotten == (1 << n) - 1 and not twice and met == nbrs


# -- PACE-style text export ---------------------------------------------------

def format_td(td: TreeDecomposition, n: int) -> str:
    lines = [f"s td {len(td.bags)} {td.width + 1} {n}"]
    for i, bag in enumerate(td.bags, start=1):
        lines.append("b " + " ".join([str(i)] + [str(v + 1) for v in bag]))
    for i, j in td.tree:
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"
