"""End-user separation and bipartization problems assembled from the pipeline.

All searches work on the original vertex ids; auxiliary graphs (compression
steps, terminal attachments, vertex splitting) carry explicit mappings back.
Every returned witness is re-verified against the original instance.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional

from .graphs import (DomainError, Graph, delete_vertices, induced_subgraph,
                     shortest_odd_cycle, two_coloring, vset)
from .reduction import cover_set
from .separation import PairNetwork, is_separator, min_vertex_separator
from .solver import (ANY, EDGELESS, MATCH_DEFICIENCY, CutConstraints, VerificationError,
                     g_mincut, g_multicut_uncut, maximum_matching)


def _is_independent(G: Graph, S: Iterable[int]) -> bool:
    ss = vset(S)
    return all(not G.has_edge(u, v) for u, v in itertools.combinations(ss, 2))


# -- stable s-t cut -----------------------------------------------------------

def stable_st_cut(G: Graph, s: int, t: int, k: int) -> Optional[tuple[int, ...]]:
    """Independent s-t separator of size at most k. The CLI calls
    ``g_mincut`` itself; this stays because ``perfbench/spans.py`` wraps it
    by name, so its deletion belongs to a change of the benchmark."""
    return g_mincut(G, s, t, k, EDGELESS)


# -- odd cycle transversal ------------------------------------------------------

def _compress_oct(G: Graph, S0: tuple[int, ...], k: int) -> Optional[tuple[int, ...]]:
    """One compression step: an odd-cycle transversal of size <= k given one
    of size k+1, by one capped vertex cut per branch of S0.

    Every cut of a branch graph is R plus a cut of its core: G - S0 in
    ascending vertex order, plus s joined to X and t joined to Y. So every
    branch flows on one ``PairNetwork`` of G - S0, built once per step, with
    its X and Y switched on, and its core is cut within k - |R|. The flow
    has the size, cap stop and witness that ``min_vertex_separator`` gives
    on the core, and the first branch with a cut within budget wins."""
    s0 = set(S0)
    rest = tuple(v for v in range(G.n) if v not in s0)
    index = {v: i for i, v in enumerate(rest)}
    network = PairNetwork(len(rest), tuple((i, index[w]) for i, v in enumerate(rest)
                                           for w in G.adj[v] if w > v and w in index))
    for br in bipartization_branches(G, S0):
        budget = k - len(br.R)
        if budget < 0:
            continue
        r = network.flow(sum(1 << index[x] for x in br.X),
                         sum(1 << index[y] for y in br.Y), cap=budget)
        if r.within(budget):
            out = vset(br.R + tuple(rest[i] for i in r.witness))
            if two_coloring(G, out) is None:
                raise VerificationError("odd cycle transversal failed re-verification")
            return out
    return None


class _ParityForest:
    """Union-find over a bipartite graph that is built one vertex at a time:
    each vertex stores its parent and its colour relative to that parent,
    so a vertex's colour relative to its root is the XOR along its path."""

    __slots__ = ("parent", "parity")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n

    def find(self, v: int) -> tuple[int, int]:
        """v's root and v's colour relative to it; compresses the path."""
        parent, parity = self.parent, self.parity
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        root, above = v, 0
        for u in reversed(path):        # nearest the root first
            above ^= parity[u]
            parent[u], parity[u] = root, above
        return root, parity[path[0]] if path else 0

    def add(self, v: int, nbrs: Iterable[int]) -> bool:
        """Join v to its already added neighbours ``nbrs`` if the graph stays
        bipartite, that is unless two of them in one component need v on
        opposite sides; on a conflict nothing changes and False is returned."""
        want: dict[int, int] = {}      # root -> v's colour relative to it
        for w in nbrs:
            root, colour = self.find(w)
            if want.setdefault(root, colour ^ 1) != colour ^ 1:
                return False
        for root, colour in want.items():
            self.parent[root], self.parity[root] = v, colour
        return True


def odd_cycle_transversal(G: Graph, k: int) -> Optional[tuple[int, ...]]:
    """A minimum odd-cycle transversal if its size is at most k, else None.

    Iterative compression over the vertices in ascending order, followed by
    repeated compression of the final transversal: compression from any
    transversal finds a strictly smaller one whenever that exists, so the
    loop bottoms out at minimum size. G[0..i-1] minus the current
    transversal is kept in a parity union-find, and vertex i joins it unless
    two of its earlier neighbours outside the transversal need opposite
    colours in one component. Only then does i enter the transversal, or a
    compression step replace it; that step builds the prefix graph G[0..i],
    and the union-find is rebuilt from scratch after it.
    """
    current: tuple[int, ...] = ()
    out: set[int] = set()
    forest = _ParityForest(G.n)
    for i in range(G.n):
        if forest.add(i, [w for w in G.adj[i] if w < i and w not in out]):
            continue
        candidate = vset(current + (i,))
        if len(candidate) <= k:
            current = candidate
            out.add(i)
            continue
        prefix = induced_subgraph(G, range(i + 1)).graph   # ids coincide
        compressed = _compress_oct(prefix, candidate, k)
        if compressed is None:
            return None
        current, out = compressed, set(compressed)
        forest = _ParityForest(G.n)
        for v in range(i + 1):
            if v not in out:
                joined = forest.add(v, [w for w in G.adj[v] if w < v and w not in out])
                assert joined, "the prefix minus the transversal must be bipartite"
    while current:
        smaller = _compress_oct(G, current, len(current) - 1)
        if smaller is None:
            break
        current = smaller
    return current


# -- stable bipartization ---------------------------------------------------------

def _attached(G: Graph, orig: tuple[int, ...], X: Iterable[int], Y: Iterable[int]) -> Graph:
    """G on ``orig``, renumbered in that order, plus s = len(orig) joined to
    X and t = s + 1 joined to Y."""
    index = {v: i for i, v in enumerate(orig)}
    s = len(orig)
    edges = [(i, index[w]) for i, v in enumerate(orig)
             for w in G.adj[v] if w > v and w in index]
    edges += [(s, index[v]) for v in X]
    edges += [(s + 1, index[v]) for v in Y]
    return Graph(s + 2, edges)


class _Branch(NamedTuple):
    """One way of resolving an odd-cycle transversal S0: remove R, colour B0
    black and W0 white; a removal that then separates the forced sides X
    and Y makes G bipartite."""
    R: tuple[int, ...]
    B0: tuple[int, ...]
    W0: tuple[int, ...]
    X: tuple[int, ...]
    Y: tuple[int, ...]


def bipartization_branches(G: Graph, S0: tuple[int, ...]):
    """The branches ``(R, B0, W0, X, Y)`` of the 3^{|S0|} splits of S0 that
    leave both colour classes independent, vertices of S0 ascending, digits
    ordered (remove, black, white).

    G minus S0 is bipartite with sides Bp, Wp. A neighbour of W0 outside S0
    is forced black and one of B0 forced white; X holds the forced vertices
    that keep their side and Y those that must switch, so a valid removal
    separates X from Y. A branch is only these five sorted tuples: each
    caller builds what it cuts on."""
    col = two_coloring(G, S0)
    if col is None:
        raise DomainError("S0 must be an odd cycle transversal of G")
    Bp, Wp = set(col[0]), set(col[1])
    s0 = set(S0)
    for digits in itertools.product((0, 1, 2), repeat=len(S0)):
        R, B0, W0 = (tuple(v for v, d in zip(S0, digits) if d == side) for side in range(3))
        if not (_is_independent(G, B0) and _is_independent(G, W0)):
            continue
        B = {u for w in W0 for u in G.adj[w]} - s0
        W = {u for b in B0 for u in G.adj[b]} - s0
        X = (B & Bp) | (W & Wp)
        Y = (B & Wp) | (W & Bp)
        yield _Branch(R, B0, W0, vset(X), vset(Y))


def stable_bipartization(G: Graph, k: int) -> Optional[tuple[int, ...]]:
    """Independent set of size at most k whose removal makes G bipartite.

    A branch of the transversal runs only if R fits in k and is independent.
    It then cuts independently within k on ``kept``, the vertices outside
    B0 and W0 in ascending order, with s = len(kept) joined to X and R and
    t = s + 1 to Y and R. Every s-t separator of that graph contains R,
    because both terminals are adjacent to all of R, and the class check
    sees R's edges."""
    S0 = odd_cycle_transversal(G, k)
    if S0 is None:
        return None
    for R, B0, W0, X, Y in bipartization_branches(G, S0):
        if len(R) > k or not _is_independent(G, R):
            continue
        colored = set(B0 + W0)
        kept = tuple(v for v in range(G.n) if v not in colored)
        wit = g_mincut(_attached(G, kept, X + R, Y + R), len(kept), len(kept) + 1,
                       k, EDGELESS)
        if wit is None:
            continue
        S = vset(kept[v] for v in wit)
        if not (_is_independent(G, S) and two_coloring(G, S) is not None and len(S) <= k):
            raise VerificationError("stable bipartization failed re-verification")
        return S
    return None


# -- exact stable bipartization ----------------------------------------------------

def bipartite_max_independent_set(H: Graph) -> tuple[int, ...]:
    """Maximum independent set of a bipartite graph: the complement of a
    minimum vertex cover, which by König's theorem is a minimum vertex cut
    between a terminal joined to every black vertex and one joined to every
    white vertex."""
    col = two_coloring(H)
    if col is None:
        raise DomainError("graph is not bipartite")
    black, white = col
    cover = set(min_vertex_separator(_attached(H, tuple(range(H.n)), black, white),
                                     (H.n,), (H.n + 1,)).witness)
    return tuple(v for v in range(H.n) if v not in cover)


def _split_outside(G: Graph, allowed: set[int], copies: int) -> tuple[Graph, tuple[int, ...]]:
    """Replace every vertex outside ``allowed`` by mutually non-adjacent
    copies sharing its neighborhood."""
    ids: list[int] = []
    orig: list[int] = []
    slot: dict[int, list[int]] = {}
    nxt = 0
    for v in range(G.n):
        reps = 1 if v in allowed else copies
        slot[v] = list(range(nxt, nxt + reps))
        for _ in range(reps):
            orig.append(v)
        nxt += reps
    edges = []
    for u, v in G.edges():
        for cu in slot[u]:
            for cv in slot[v]:
                edges.append((cu, cv))
    return Graph(nxt, edges), tuple(orig)


def exact_stable_bipartization(G: Graph, k: int,
                               allowed: Optional[Iterable[int]] = None) -> Optional[tuple[int, ...]]:
    """Independent set of size exactly k whose removal makes G bipartite.

    ``allowed`` restricts the deletion set to a subset of vertices (the
    annotated variant); by default every vertex is allowed.
    """
    if k < 0:
        raise DomainError("k must be non-negative")
    D = vset(range(G.n)) if allowed is None else G.check_vertices(allowed)
    return _exact_solve(G, D, k, ())


def _exact_solve(G: Graph, allowed: tuple[int, ...], budget: int,
                 chosen: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """One node of the exact search: ``chosen`` holds the deletions so far,
    independent in G, and ``allowed`` the vertices still allowed, which
    exclude every chosen vertex and its neighbourhood. Returns chosen plus
    ``budget`` allowed vertices that make G bipartite, or None. A pick of v
    recurses with v added to chosen and v and N(v) dropped from allowed."""
    assert not set(allowed) & set(chosen), "allowed must avoid chosen"
    # a budget above the allowed count never fills: the bipartite case keeps
    # at most every allowed vertex, a pick lowers both by at least one, and
    # the long-cycle case needs more than 3 * budget + 1 allowed vertices
    if budget > len(allowed):
        return None
    if two_coloring(G, chosen) is not None:
        if budget == 0:
            return chosen
        # allowed avoids chosen, so G[allowed] lies in G minus chosen
        sub = induced_subgraph(G, allowed)
        best = bipartite_max_independent_set(sub.graph)
        if len(best) < budget:
            return None
        return vset(chosen + sub.map_back(best[:budget]))
    if budget == 0:
        return None
    live = delete_vertices(G, chosen)
    cyc = tuple(live.orig[v] for v in shortest_odd_cycle(live.graph))
    d_set = set(allowed)
    on_d = [v for v in cyc if v in d_set]
    if not on_d:
        return None
    if len(on_d) <= 3 * budget + 1:
        for v in sorted(on_d):
            nbrs = set(G.adj[v])
            result = _exact_solve(G, tuple(u for u in allowed if u != v and u not in nbrs),
                                  budget - 1, vset(chosen + (v,)))
            if result is not None:
                return result
        return None
    # long chordless odd cycle rich in allowed vertices: solve the at-most-k
    # problem restricted to the allowed set, then pad with independent cycle
    # vertices (each deleted vertex rules out at most three of them)
    allowed_live = {live.to_new(v) for v in allowed}
    split, orig_of = _split_outside(live.graph, allowed_live, budget + 1)
    found = stable_bipartization(split, budget)
    if found is None:
        return None
    S = live.map_back(x for x in {orig_of[y] for y in found} if x in allowed_live)
    missing = budget - len(S)
    if missing:
        blocked = set(S) | {u for v in S for u in G.adj[v]}
        free = [v for v in cyc if v in d_set and v not in blocked]
        assert len(free) >= 3 * missing + 1, "cycle must retain enough allowed vertices"
        S = vset(S + tuple(free[0:2 * missing:2]))
    out = vset(chosen + S)
    assert len(out) == len(chosen) + budget
    if not (_is_independent(G, out) and two_coloring(G, out) is not None):
        raise VerificationError("stable bipartization failed re-verification")
    return out


# -- edge-induced vertex cut --------------------------------------------------------

class EdgeCutWitness(NamedTuple):
    edges: tuple[tuple[int, int], ...]
    deleted: tuple[int, ...]


def edge_induced_vertex_cut(G: Graph, s: int, t: int, k: int) -> Optional[EdgeCutWitness]:
    """At most k edges whose endpoint set, terminals excluded, separates s
    from t. Decided through the matching-deficiency mincut at budget 2k.
    """
    G.check_vertices((s, t))
    if s == t:
        raise DomainError("terminals must be distinct")
    S = g_mincut(G, s, t, 2 * k, MATCH_DEFICIENCY(k))   # already inclusion-minimal
    if S is None:
        return None
    sub = induced_subgraph(G, S)
    matched: set[int] = set()
    F = []
    for u, v in maximum_matching(sub.graph):
        ou, ov = sub.orig[u], sub.orig[v]
        F.append((min(ou, ov), max(ou, ov)))
        matched.update((ou, ov))
    for v in S:
        if v in matched:
            continue
        partners = [u for u in G.adj[v] if u not in (s, t)]
        partner = partners[0] if partners else G.adj[v][0]
        F.append((min(v, partner), max(v, partner)))
    F.sort()
    deleted = vset(v for e in F for v in e if v not in (s, t))
    if len(F) > k or not is_separator(G, deleted, (s,), (t,)):
        raise VerificationError("edge witness failed re-verification")
    return EdgeCutWitness(tuple(F), deleted)


# -- exact separator union ------------------------------------------------------------

def exact_separator_union(G: Graph, s: int, t: int, k: int) -> tuple[int, ...]:
    """The exact set of vertices lying on some minimal s-t separator of size
    at most k.

    A vertex v qualifies iff some set of at most k-1 vertices separates s
    from t in G minus v while the components of s and of t each still meet
    N(v): v is then essential in that set plus v, and a minimal separator's
    full components give such a set. Each candidate is decided by one
    multicut-uncut call on G minus v with the unconstrained class, the cut
    pair (s, t) and the reach constraints (s, N(v)) and (t, N(v)). Three
    sound shortcuts keep this affordable: only vertices of ``cover_set``,
    which contains every vertex of every minimal separator of size at most
    k, are tested; membership in a minimum separator answers immediately
    (read off the residual network of one s-t flow, which the cover reuses);
    and vertices whose deletion leaves the minimum separator size above k-1
    can never qualify. The capped flow of G minus v that decides the last
    shortcut is handed to the call, whose reduction covers the pair s-t
    alone and keeps N(v) as vertices.
    """
    G.check_vertices((s, t))
    if s == t or G.has_edge(s, t):
        raise DomainError("terminals must be distinct and non-adjacent")
    flow = min_vertex_separator(G, (s,), (t,))
    if flow.size == 0 or flow.size > k:
        return ()
    out = []
    on_minimum = flow.residual.sides()
    for v in cover_set(G, s, t, k, flow=flow):
        if v in (s, t):
            continue
        if v in on_minimum:
            out.append(v)
            continue
        rest = delete_vertices(G, (v,))
        ns, nt = rest.to_new(s), rest.to_new(t)
        # oriented as reduce_instance meets the cut pair, which then reuses it
        r = min_vertex_separator(rest.graph, (min(ns, nt),), (max(ns, nt),), cap=k - 1)
        if not r.within(k - 1):
            continue
        nbrs = tuple(rest.to_new(u) for u in G.adj[v])
        cons = CutConstraints(((ns, nt),), reach=((ns, nbrs), (nt, nbrs)))
        if g_multicut_uncut(rest.graph, cons, k - 1, ANY, flow=r) is not None:
            out.append(v)
    return tuple(out)
