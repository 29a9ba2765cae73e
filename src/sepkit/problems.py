"""End-user separation and bipartization problems assembled from the pipeline.

All searches work on the original vertex ids; auxiliary graphs (compression
steps, terminal attachments, vertex splitting) carry explicit mappings back.
Every returned witness is re-verified against the original instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import (DomainError, Graph, delete_vertices, induced_subgraph,
                     shortest_odd_cycle, two_coloring, vset)
from .separation import is_separator, min_vertex_separator
from .solver import (ANY, EDGELESS, MATCH_DEFICIENCY, CutConstraints, VerificationError,
                     g_mincut, g_multicut_uncut, maximum_matching)


def _is_independent(G: Graph, S: Iterable[int]) -> bool:
    ss = vset(S)
    return all(not G.has_edge(u, v) for u, v in itertools.combinations(ss, 2))


def _bipartite_without(G: Graph, S: Iterable[int]) -> bool:
    return two_coloring(delete_vertices(G, S).graph) is not None


# -- stable s-t cut -----------------------------------------------------------

def stable_st_cut(G: Graph, s: int, t: int, k: int,
                  stats_out: Optional[dict] = None) -> Optional[tuple[int, ...]]:
    """Independent s-t separator of size at most k."""
    wit = g_mincut(G, s, t, k, EDGELESS, stats_out=stats_out)
    return None if wit is None else wit.deletion_set


# -- odd cycle transversal ------------------------------------------------------

def _attach_terminals(H: Graph, X: Iterable[int], Y: Iterable[int]) -> tuple[Graph, int, int]:
    """H plus fresh s adjacent to X and fresh t adjacent to Y."""
    s, t = H.n, H.n + 1
    edges = list(H.edges())
    edges += [(s, x) for x in set(X)]
    edges += [(t, y) for y in set(Y)]
    return Graph(H.n + 2, edges), s, t


def _branch_assignments(S0: tuple[int, ...]):
    """All (remove, black, white) assignments of S0, vertices ascending."""
    for digits in itertools.product((0, 1, 2), repeat=len(S0)):
        R = tuple(v for v, d in zip(S0, digits) if d == 0)
        B0 = tuple(v for v, d in zip(S0, digits) if d == 1)
        W0 = tuple(v for v, d in zip(S0, digits) if d == 2)
        yield R, B0, W0


def _remainder_coloring(G: Graph, S0: tuple):
    """2-coloring of the bipartite graph left by removing the transversal S0,
    as original-id sets."""
    rest = delete_vertices(G, S0)
    col = two_coloring(rest.graph)
    assert col is not None
    return {rest.orig[v] for v in col[0]}, {rest.orig[v] for v in col[1]}


def _forced_sides(G: Graph, S0: tuple, B0: tuple, W0: tuple, Bp: set, Wp: set):
    """X, Y from the must-be-black / must-be-white neighborhoods of the
    colored transversal vertices."""
    s0 = set(S0)
    B = {u for w in W0 for u in G.adj[w]} - s0    # forced black
    W = {u for b in B0 for u in G.adj[b]} - s0    # forced white
    X = (B & Bp) | (W & Wp)
    Y = (B & Wp) | (W & Bp)
    return X, Y


def _compress_oct(G: Graph, S0: tuple[int, ...], k: int) -> Optional[tuple[int, ...]]:
    """One compression step: an odd-cycle transversal of size <= k given one
    of size k+1, by 3^{|S0|} vertex-cut calls."""
    rest = delete_vertices(G, S0)
    Bp, Wp = _remainder_coloring(G, S0)
    for R, B0, W0 in _branch_assignments(S0):
        if len(R) > k:
            continue
        if not (_is_independent(G, B0) and _is_independent(G, W0)):
            continue
        X, Y = _forced_sides(G, S0, B0, W0, Bp, Wp)
        H, s, t = _attach_terminals(rest.graph,
                                    [rest.to_new(x) for x in X],
                                    [rest.to_new(y) for y in Y])
        r = min_vertex_separator(H, (s,), (t,), cap=k - len(R))
        if r.within(k - len(R)):
            out = vset(R + rest.map_back(r.witness))
            assert _bipartite_without(G, out)
            return out
    return None


def odd_cycle_transversal(G: Graph, k: int) -> Optional[tuple[int, ...]]:
    """A minimum odd-cycle transversal if its size is at most k, else None.

    Iterative compression over the vertices in ascending order, followed by
    repeated compression of the final transversal: compression from any
    transversal finds a strictly smaller one whenever that exists, so the
    loop bottoms out at minimum size.
    """
    current: tuple[int, ...] = ()
    for i in range(G.n):
        prefix = induced_subgraph(G, range(i + 1)).graph   # ids coincide
        if _bipartite_without(prefix, current):
            continue
        candidate = vset(current + (i,))
        if len(candidate) <= k:
            current = candidate
            continue
        compressed = _compress_oct(prefix, candidate, k)
        if compressed is None:
            return None
        current = compressed
    while current:
        smaller = _compress_oct(G, current, len(current) - 1)
        if smaller is None:
            break
        current = smaller
    return current


# -- stable bipartization ---------------------------------------------------------

@dataclass(frozen=True)
class BipartizationBranch:
    """One way of resolving an odd-cycle transversal S0: remove R, color B0
    black and W0 white, then separate the forced sides X and Y in the graph
    with fresh terminals attached. Every s-t separator of ``graph`` contains
    R, because both terminals are adjacent to all of R."""
    S0: tuple[int, ...]
    R: tuple[int, ...]
    B0: tuple[int, ...]
    W0: tuple[int, ...]
    X: tuple[int, ...]
    Y: tuple[int, ...]
    graph: Graph            # original minus B0+W0, plus terminals s and t
    s: int
    t: int
    orig: tuple[int, ...]   # graph id -> original id, for the original part

    def map_back(self, vs) -> tuple[int, ...]:
        return tuple(sorted(self.orig[v] for v in vs))


def bipartization_branches(G: Graph, S0: tuple[int, ...]):
    """The 3^{|S0|} branch instances with both color classes independent,
    vertices of S0 ascending, digits ordered (remove, black, white)."""
    Bp, Wp = _remainder_coloring(G, S0)
    for R, B0, W0 in _branch_assignments(S0):
        if not (_is_independent(G, B0) and _is_independent(G, W0)):
            continue
        X, Y = _forced_sides(G, S0, B0, W0, Bp, Wp)
        rest = delete_vertices(G, B0 + W0)
        Gp, s, t = _attach_terminals(rest.graph,
                                     [rest.to_new(v) for v in X | set(R)],
                                     [rest.to_new(v) for v in Y | set(R)])
        yield BipartizationBranch(tuple(S0), R, B0, W0, vset(X), vset(Y),
                                  Gp, s, t, rest.orig)


def stable_bipartization(G: Graph, k: int,
                         stats_out: Optional[dict] = None) -> Optional[tuple[int, ...]]:
    """Independent set of size at most k whose removal makes G bipartite."""
    S0 = odd_cycle_transversal(G, k)
    if S0 is None:
        return None
    for branch in bipartization_branches(G, S0):
        if len(branch.R) > k or not _is_independent(G, branch.R):
            continue
        wit = g_mincut(branch.graph, branch.s, branch.t, k, EDGELESS,
                       stats_out=stats_out)
        if wit is None:
            continue
        S = branch.map_back(wit.deletion_set)
        if _is_independent(G, S) and _bipartite_without(G, S) and len(S) <= k:
            return S
    return None


# -- exact stable bipartization ----------------------------------------------------

def _bipartite_matching(H: Graph, left: set[int]) -> dict[int, int]:
    """Maximum matching of bipartite H via augmenting paths; returns the
    right-to-left matched map."""
    match_r: dict[int, int] = {}
    for root in sorted(left):
        # depth-first search for an augmenting path from root, kept on an
        # explicit stack of (left vertex, next neighbor index, right vertex
        # it was reached through)
        seen: set[int] = set()
        stack = [(root, 0, -1)]
        while stack:
            l, i, via = stack[-1]
            nbrs = H.adj[l]
            while i < len(nbrs) and nbrs[i] in seen:
                i += 1
            if i == len(nbrs):
                stack.pop()
                continue
            r = nbrs[i]
            seen.add(r)
            stack[-1] = (l, i + 1, via)
            if r in match_r:
                stack.append((match_r[r], 0, r))
                continue
            # r is free: flip the matching along the path on the stack
            for l, _, via in reversed(stack):
                match_r[r] = l
                r = via
            break
    return match_r


def bipartite_max_independent_set(H: Graph) -> tuple[int, ...]:
    """Maximum independent set of a bipartite graph: complement of the vertex
    cover obtained from a maximum matching."""
    col = two_coloring(H)
    if col is None:
        raise DomainError("graph is not bipartite")
    left, right = set(col[0]), set(col[1])
    match_r = _bipartite_matching(H, left)
    match_l = {l: r for r, l in match_r.items()}
    frontier = [l for l in sorted(left) if l not in match_l]
    reach = set(frontier)
    while frontier:
        nxt = []
        for l in frontier:
            if l in left:
                for r in H.adj[l]:
                    if r not in reach and match_l.get(l) != r:
                        reach.add(r)
                        nxt.append(r)
            else:
                m = match_r.get(l)
                if m is not None and m not in reach:
                    reach.add(m)
                    nxt.append(m)
        frontier = nxt
    cover = (left - reach) | (right & reach)
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


@dataclass(frozen=True)
class AnnotatedInstance:
    """State of the exact search: deletions chosen so far (independent in the
    original graph) and the vertices still allowed, which exclude every chosen
    vertex and its neighborhood."""
    graph: Graph
    allowed: tuple[int, ...]
    budget: int
    chosen: tuple[int, ...] = ()

    def __post_init__(self):
        assert not set(self.allowed) & set(self.chosen)

    def pick(self, v: int) -> "AnnotatedInstance":
        nbrs = set(self.graph.adj[v])
        return AnnotatedInstance(
            self.graph,
            tuple(u for u in self.allowed if u != v and u not in nbrs),
            self.budget - 1,
            vset(self.chosen + (v,)))


def exact_stable_bipartization(G: Graph, k: int,
                               allowed: Optional[Iterable[int]] = None) -> Optional[tuple[int, ...]]:
    """Independent set of size exactly k whose removal makes G bipartite.

    ``allowed`` restricts the deletion set to a subset of vertices (the
    annotated variant); by default every vertex is allowed.
    """
    if k < 0:
        raise DomainError("k must be non-negative")
    D = vset(range(G.n)) if allowed is None else G.check_vertices(allowed)
    return _exact_solve(AnnotatedInstance(G, D, k))


def _exact_solve(inst: AnnotatedInstance) -> Optional[tuple[int, ...]]:
    G = inst.graph
    live = delete_vertices(G, inst.chosen)
    if two_coloring(live.graph) is not None:
        if inst.budget == 0:
            return inst.chosen
        sub = induced_subgraph(live.graph, [live.to_new(v) for v in inst.allowed])
        best = bipartite_max_independent_set(sub.graph)
        if len(best) < inst.budget:
            return None
        picked = live.map_back(sub.map_back(best[:inst.budget]))
        return vset(inst.chosen + picked)
    if inst.budget == 0:
        return None
    cyc = tuple(live.orig[v] for v in shortest_odd_cycle(live.graph))
    d_set = set(inst.allowed)
    on_d = [v for v in cyc if v in d_set]
    if not on_d:
        return None
    if len(on_d) <= 3 * inst.budget + 1:
        for v in sorted(on_d):
            result = _exact_solve(inst.pick(v))
            if result is not None:
                return result
        return None
    # long chordless odd cycle rich in allowed vertices: solve the at-most-k
    # problem restricted to the allowed set, then pad with independent cycle
    # vertices (each deleted vertex rules out at most three of them)
    allowed_live = {live.to_new(v) for v in inst.allowed}
    split, orig_of = _split_outside(live.graph, allowed_live, inst.budget + 1)
    found = stable_bipartization(split, inst.budget)
    if found is None:
        return None
    S = live.map_back(x for x in {orig_of[y] for y in found} if x in allowed_live)
    missing = inst.budget - len(S)
    if missing:
        blocked = set(S) | {u for v in S for u in G.adj[v]}
        free = [v for v in cyc if v in d_set and v not in blocked]
        assert len(free) >= 3 * missing + 1, "cycle must retain enough allowed vertices"
        S = vset(S + tuple(free[0:2 * missing:2]))
    out = vset(inst.chosen + S)
    assert len(out) == len(inst.chosen) + inst.budget
    assert _is_independent(G, out) and _bipartite_without(G, out)
    return out


# -- edge-induced vertex cut --------------------------------------------------------

@dataclass(frozen=True)
class EdgeCutWitness:
    edges: tuple[tuple[int, int], ...]
    deleted: tuple[int, ...]


def edge_induced_vertex_cut(G: Graph, s: int, t: int, k: int,
                            stats_out: Optional[dict] = None) -> Optional[EdgeCutWitness]:
    """At most k edges whose endpoint set, terminals excluded, separates s
    from t. Decided through the matching-deficiency mincut at budget 2k.
    """
    G.check_vertices((s, t))
    if s == t:
        raise DomainError("terminals must be distinct")
    wit = g_mincut(G, s, t, 2 * k, MATCH_DEFICIENCY(k), stats_out=stats_out)
    if wit is None:
        return None
    S = wit.deletion_set   # already inclusion-minimal
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

    A vertex v qualifies iff for some neighbors v1, v2 of v there is a set of
    at most k-1 vertices separating s from t in G minus v while keeping s
    connected to v1 and t connected to v2; decided by multicut-uncut calls
    with the unconstrained class. Two sound shortcuts keep this affordable:
    membership in a minimum separator answers immediately (read off the
    residual network of one s-t flow), and vertices whose deletion leaves
    the minimum separator size above k-1 can never qualify.
    """
    G.check_vertices((s, t))
    if s == t or G.has_edge(s, t):
        raise DomainError("terminals must be distinct and non-adjacent")
    flow = min_vertex_separator(G, (s,), (t,))
    if flow.size == 0 or flow.size > k:
        return ()
    out = []
    for v in range(G.n):
        if v in (s, t):
            continue
        if flow.residual.separator_through(v) is not None:
            out.append(v)
            continue
        rest = delete_vertices(G, (v,))
        ns, nt = rest.to_new(s), rest.to_new(t)
        r = min_vertex_separator(rest.graph, (ns,), (nt,), cap=k - 1)
        if not r.within(k - 1):
            continue
        nbrs = G.adj[v]
        hit = False
        for v1 in nbrs:
            for v2 in nbrs:
                if hit or v1 == v2:
                    continue
                cons = CutConstraints(((ns, nt),),
                                      ((ns, rest.to_new(v1)), (nt, rest.to_new(v2))))
                if g_multicut_uncut(rest.graph, cons, k - 1, ANY) is not None:
                    hit = True
            if hit:
                break
        if hit:
            out.append(v)
    return tuple(out)
