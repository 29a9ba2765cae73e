"""Torso graphs, the recursive cover-set construction, and the
bounded-treewidth replacement graph.

``cover_set(G, s, t, k)`` returns a vertex set containing s, t, and every
vertex of every minimal s-t separator of size at most k. At excess 0 the
chain boundaries suffice; for positive excess, each layer between consecutive
boundaries is handled by contracting boundary subsets onto two fresh
terminals and recursing with a smaller excess. Each terminal pair costs one
max-flow: the flow that decides whether a pair has a separator within budget
is handed to ``cover_set`` and on to ``build_chain``, which reads the chain
from its residual network.

The layer recursion solves each distinct contracted subproblem once. A pair
(A, B) with an edge between A and B is skipped before contracting: the
contraction would have the edge a-b, for which no separator exists. Any other
pair is keyed by (contracted graph, k, excess); ``Graph`` equality compares n
and the adjacency, and a and b are always the last two ids of a contraction.
The value is the sub-cover in contracted ids, or None when the capped flow
exceeds k, and each pair maps it back through its own contraction. This is
exact: ``cover_set`` on a contracted graph is a deterministic function of the
graph and the budget, and the capped flow and the sub-budget
``min(k, size + excess - 1)`` are fixed by the key, so a hit returns what
recomputing would. The table is made by the top-level call, shared by its
whole recursion and dropped when it returns; relabelled inputs would never
hit across calls.

``reduce_instance`` unions the covers over all terminal pairs and returns
the torso of that cover C. A set inside C separates two terminals in G
exactly when it separates them in the torso, so every minimal terminal
separator of size <= k survives. A torso-added edge carries connectivity
only: the graph of a deleted set is judged on G[C]. Gadget vertices exist
only in the serialised form that ``reduce`` prints.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional

from .chains import SeparatorChain, build_chain
from .graphs import (DomainError, Graph, components, contract_terminal_sets,
                     induced_subgraph, vset)
from .separation import SeparatorResult, min_vertex_separator, st_flow

GADGET = "gadget"
SATURATION_LIMIT = 2 ** 63 - 1
_MISSING = object()


@dataclass(frozen=True)
class TreewidthBounds:
    ell: int
    excess: int
    g_value: int
    f_value: int
    saturated: bool = False


def tw_bound(ell: int, excess: int) -> TreewidthBounds:
    """Width bound g and work bound f for the cover recursion.

    g(l, 0) = 6l and g(l, e) = 3 * (2l + 3^(2l) * (g(l, e-1) + 1));
    f(l, 0) = 1 and f(l, e) = f(l, e-1) * 3^(2l) + 1. Values beyond 2^63 - 1
    saturate with a warning; g >= f throughout, so the loop stops once f
    saturates.
    """
    if ell < 1 or excess < 0:
        raise DomainError("need ell >= 1 and excess >= 0")
    g, f = 6 * ell, 1
    branch = 3 ** (2 * ell)
    saturated = False
    for _ in range(excess):
        g = 3 * (2 * ell + branch * (g + 1))
        f = f * branch + 1
        if g > SATURATION_LIMIT or f > SATURATION_LIMIT:
            saturated = True
            g = min(g, SATURATION_LIMIT)
            f = min(f, SATURATION_LIMIT)
            if f == SATURATION_LIMIT:
                break
    if saturated:
        warnings.warn(f"treewidth bound saturated for ell={ell}, excess={excess}",
                      stacklevel=2)
    return TreewidthBounds(ell, excess, g, f, saturated)


@dataclass(frozen=True)
class TorsoResult:
    graph: Graph                       # on C, relabeled ascending
    orig: tuple[int, ...]              # new id -> original id
    added_edges: tuple[tuple[int, int], ...]   # original ids, absent from G

    def to_new(self, v: int) -> int:
        return self.orig.index(v)


def torso(G: Graph, C: Iterable[int]) -> TorsoResult:
    """Graph on C with an edge for each original adjacency or each path whose
    internal vertices avoid C."""
    cs = G.check_vertices(C)
    index = {v: i for i, v in enumerate(cs)}
    edges = {(index[u], index[v]) for u, v in G.edges()
             if u in index and v in index}
    original = set(edges)
    for comp in components(G, cs):
        attach = sorted({index[w] for v in comp for w in G.adj[v] if w in index})
        for i, u in enumerate(attach):
            for v in attach[i + 1:]:
                edges.add((u, v))
    added = tuple(sorted((cs[u], cs[v]) for u, v in edges - original))
    return TorsoResult(Graph(len(cs), edges), cs, added)


@dataclass(frozen=True)
class LayerSystem:
    """Layers L_i between consecutive chain boundaries, with the boundary pool
    each layer may touch."""
    chain: SeparatorChain
    layers: tuple[tuple[int, ...], ...]
    pools: tuple[tuple[int, ...], ...]


def layer_system(chain: SeparatorChain) -> LayerSystem:
    xs = chain.sets_with_sentinels()
    ss = chain.boundaries_with_sentinels()
    layers = []
    pools = []
    for i in range(1, len(xs)):
        prev = set(xs[i - 1]) | set(ss[i - 1])
        layers.append(tuple(v for v in xs[i] if v not in prev))
        pools.append(vset(set(ss[i]) | set(ss[i - 1])))
    return LayerSystem(chain, tuple(layers), tuple(pools))


def _disjoint_subset_pairs(pool: tuple[int, ...]):
    """Unordered pairs (A, B) of disjoint non-empty subsets of pool.

    Each element takes one of three states; the lowest selected element is
    normalized into A, which enumerates every unordered pair exactly once.
    """
    n = len(pool)
    for code in range(3 ** n):
        A, B = [], []
        c = code
        for v in pool:
            c, r = divmod(c, 3)
            if r == 1:
                A.append(v)
            elif r == 2:
                B.append(v)
        if A and B and min(A) < min(B):
            yield tuple(A), tuple(B)


def cover_set(G: Graph, s: int, t: int, k: int,
              flow: Optional[SeparatorResult] = None,
              memo: Optional[dict] = None) -> tuple[int, ...]:
    """All vertices on minimal s-t separators of size <= k, plus s and t.

    Degrades to {s, t} when the terminals are adjacent or no separator of
    size <= k exists. ``flow``, a finished s-t flow of G, is reused instead
    of running a new one. ``memo`` is the recursion's table of contracted
    subproblems; callers leave it unset and the top-level call makes it.
    """
    G.check_vertices((s, t))
    if s == t:
        raise DomainError("terminals must be distinct")
    if G.has_edge(s, t):
        return vset((s, t))
    r = st_flow(G, s, t, flow, cap=k)
    if not r.within(k):
        return vset((s, t))
    ell = int(r.size)
    excess = k - ell

    chain = build_chain(G, s, t, flow=r)
    cover: set[int] = {s, t}
    for S in chain.boundaries:
        cover.update(S)
    if excess == 0:
        return tuple(sorted(cover))

    if memo is None:
        memo = {}
    system = layer_system(chain)
    for layer, pool in zip(system.layers, system.pools):
        for A, B in _disjoint_subset_pairs(pool):
            # a sub-cover maps back into the layer: nothing left to add
            if cover.issuperset(layer):
                break
            # an A-B edge becomes the edge a-b: no separator at all
            if any(G.has_edge(u, v) for u in A for v in B):
                continue
            con = contract_terminal_sets(G, layer, A, B)
            key = (con.graph, k, excess)
            sub = memo.get(key, _MISSING)
            if sub is _MISSING:
                sub = None
                rr = min_vertex_separator(con.graph, (con.a,), (con.b,), cap=k)
                if rr.within(k):
                    sub_budget = min(k, int(rr.size) + excess - 1)
                    sub = cover_set(con.graph, con.a, con.b, sub_budget,
                                    flow=rr, memo=memo)
                memo[key] = sub
            if sub is not None:
                cover.update(con.map_back(sub))
    return tuple(sorted(cover))


@dataclass(frozen=True)
class ReducedInstance:
    """Torso of the cover, which keeps the minimal terminal-pair separators
    of size <= k, with bookkeeping to map answers back."""
    gstar: Graph                             # torso(G, cover), cover ascending
    induced: Graph                           # G[cover], for the class check
    cover: tuple[int, ...]                   # C', original ids
    terminals: tuple[int, ...]               # original ids
    k: int
    width_bound: int

    def to_gstar(self, v: int) -> int:
        return self.cover.index(v)

    def map_back(self, vs: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self.cover[v] for v in vs))

    def to_jsonable(self) -> dict:
        """G[cover] plus k+1 undeletable gadget vertices adjacent to u and v
        for each torso-added edge uv: no separator within k can cut it."""
        base, edges = self.gstar.n, self.induced.edges()
        gadgets = [e for e in sorted(set(self.gstar.edges()) - set(edges))
                   for _ in range(self.k + 1)]
        edges += [(x, base + i) for i, e in enumerate(gadgets) for x in e]
        return {
            "n": base + len(gadgets),
            "edges": [[u + 1, v + 1] for u, v in sorted(edges)],
            "cover": [v + 1 for v in self.cover],
            "terminals": [v + 1 for v in self.terminals],
            "k": self.k,
            "origin": [v + 1 for v in self.cover] + [GADGET] * len(gadgets),
            "width_bound": self.width_bound,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)


def reduce_instance(G: Graph, terminals: Iterable[int], k: int) -> ReducedInstance:
    """Reduce G to the torso of the union of the terminal-pair covers."""
    terms = G.check_vertices(terminals)
    if len(terms) < 2:
        raise DomainError("need at least two terminals")
    cover: set[int] = set(terms)
    contributing = 0
    g_max = 0
    for i, s in enumerate(terms):
        for t in terms[i + 1:]:
            if G.has_edge(s, t):
                continue
            r = min_vertex_separator(G, (s,), (t,), cap=k)
            if not r.within(k):
                continue
            cover.update(cover_set(G, s, t, k, flow=r))
            contributing += 1
            if r.size >= 1:
                g_max = max(g_max, tw_bound(int(r.size), k - int(r.size)).g_value)
    # bounds the serialised graph: one extra for the degree-2 gadgets
    width_bound = min(3 * contributing * (g_max + 1) + 1, SATURATION_LIMIT)
    tor = torso(G, cover)
    return ReducedInstance(tor.graph, induced_subgraph(G, tor.orig).graph,
                           tor.orig, terms, k, width_bound)
