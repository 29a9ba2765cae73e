"""Torso graphs, the recursive cover-set construction, and the
bounded-treewidth replacement graph.

``cover_set(G, s, t, k)`` returns a vertex set containing s, t, and every
vertex of every minimal s-t separator of size at most k. At excess 0 those
are the vertices on some minimum separator, the keys of the one pass over
the residual network of the s-t flow (``Residual.sides``); no chain is
built. A flow of size 0 leaves only the empty separator, so the cover is
{s, t} at any budget. For positive excess the chain boundaries go in, and
each layer L between consecutive boundaries is covered by subproblems: a
pair (A, B) of disjoint subsets of the two boundaries is contracted onto
two fresh terminals a and b, and the cover recurses with a smaller excess.
Each terminal pair costs one max-flow: the flow that decides whether a pair
has a separator within budget is handed to ``cover_set`` and on to
``build_chain``, which reads every side of the chain from one pass over its
residual network;
``g_mincut`` hands its own flow, run for ``ell`` and ``excess``, to
``reduce_instance``, and ``exact_separator_union`` hands the flow of G - v
to its one call on G - v.

The contracted graph of (A, B) is G[L] with a joined to N(A) & L and b to
N(B) & L, so a subproblem is keyed by that neighbourhood pair:
``_neighbourhood_pairs`` yields each distinct pair of a layer once, and
prunes every (A, B) with an edge between A and B, whose contraction would
have the edge a-b, for which no separator exists. A subproblem graph has
the layer's vertices in ascending order, then a and b as its last two ids.

Each layer between boundaries S_{i-1} and S_i (S_0 = {s}, S_{q+1} = {t})
first flows its boundary pair, A = S_{i-1} - S_i and B = S_i - S_{i-1},
when both are non-empty and no A-B edge exists (``_boundary_pair``). It is
oriented as the walk orients a pair, with the lowest vertex in A, so it has
the walk's table key and the walk's own visit is a hit. Its sub-cover
usually covers the whole layer at once, so a layer stops after one flow
whatever the vertex ids; the walk alone, in id order, meets the pair that
covers the layer early or late depending on the labelling. The visit order
cannot change the cover: the boundary pair is itself a pair of the walk; a
layer's loop stops only once the cover holds the whole layer, after which a
pair could add only layer vertices, and until then it adds the sub-cover of
every pair it meets; and by induction over the recursion, each table value
is the same function of its key in any visit order.

Every subproblem of a layer is flowed on one ``PairNetwork``, built once
from G[L] on the layer's first miss; a flow copies its capacities and
switches on a's and b's arcs. At sub-excess 0 the sub-cover is that flow's
minimum-separator vertices, and only a sub-cover that recurses at
sub-excess >= 1 builds its subproblem graph, to which the flow is bound.

The recursion solves each distinct subproblem once. The table is keyed by
(|L|, the edges of G[L] in layer positions, k, excess), then by the pair
(N(A) & L, N(B) & L) as masks over the layer positions, and holds the
sub-cover in layer positions, empty when the capped flow exceeds k. Two
subproblems are equal graphs iff these keys are equal, since ``adj`` is
sorted and positions rise with ids, so the edges come in one canonical
order; equal graphs can come from different layers. This is exact:
``cover_set`` on a subproblem is a deterministic function of the graph and
the budget, and the capped flow and the sub-budget
``min(k, size + excess - 1)`` are fixed by the key, so a hit returns what
recomputing would. The table is made by the top-level call, shared by its
whole recursion and dropped when it returns; relabelled inputs would never
hit across calls.

``reduce_instance`` unions the covers of the cut pairs only and returns the
torso of that cover C; every other terminal, such as an uncut pair's end or
a reach constraint's source or target, joins C as a plain vertex. An
inclusion-minimal solution lies inside C: each of its vertices is needed to
separate some cut pair, so it lies on a minimal separator of that pair
within the budget. A set inside C leaves two vertices of C connected in G
exactly when it does in the torso, so every cut, uncut and reach verdict
carries over. A torso-added edge carries connectivity only: the graph of a
deleted set is judged on G[C]. Gadget vertices exist only in the serialised
form that ``reduce`` prints.
"""

from __future__ import annotations

import itertools
import warnings
from typing import Iterable, NamedTuple, Optional

from .chains import SeparatorChain, build_chain
from .graphs import DomainError, Graph, components, induced_subgraph, vset
from .separation import PairNetwork, SeparatorResult, st_flow

GADGET = "gadget"
SATURATION_LIMIT = 2 ** 63 - 1


class TreewidthBounds(NamedTuple):
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


class TorsoResult(NamedTuple):
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


def layer_system(chain: SeparatorChain, s: int, t: int, n: int) -> list[tuple]:
    """(layer L_i, pool) pairs: the vertices between consecutive chain
    boundaries and the two boundaries they may touch, with the chain closed
    by X_0 = {}, S_0 = {s} and X_{q+1} = V - t, S_{q+1} = {t}. Each layer
    is one set difference, X_i - X_{i-1} - S_{i-1}."""
    xs = [(), *chain.sets, tuple(v for v in range(n) if v != t)]
    ss = [(s,), *chain.boundaries, (t,)]
    return [(tuple(sorted(set(xs[i]).difference(xs[i - 1], ss[i - 1]))),
             vset(ss[i] + ss[i - 1])) for i in range(1, len(xs))]


def _neighbourhood_pairs(G: Graph, layer: tuple[int, ...], pool: tuple[int, ...]):
    """The distinct (N(A) & L, N(B) & L) over unordered pairs (A, B) of
    disjoint non-empty subsets of pool with no A-B edge, as masks over the
    positions of ``layer``, each yielded where it first appears.

    Each pool vertex goes to neither side, to A or to B, the last pool
    vertex decided first, and a pair counts once, when its lowest vertex is
    in A: the order of the base-3 codes, pool[i] the i-th digit. A branch
    that puts a vertex next to the other side is pruned: an A-B edge
    becomes the edge a-b, for which no separator exists.
    """
    pos = {v: i for i, v in enumerate(layer)}
    at = {v: j for j, v in enumerate(pool)}
    reach = [sum(1 << pos[w] for w in G.adj[v] if w in pos) for v in pool]
    near = [sum(1 << at[w] for w in G.adj[v] if w in at) for v in pool]
    seen = set()
    # (vertices left to decide, A, B, N(A) & L, N(B) & L, side of the lowest)
    stack = [(len(pool), 0, 0, 0, 0, 0)]
    while stack:
        j, A, B, na, nb, low = stack.pop()
        if not j:
            if low == 1 and B and (na, nb) not in seen:
                seen.add((na, nb))
                yield na, nb
            continue
        j -= 1
        if not near[j] & A:
            stack.append((j, A, B | 1 << j, na, nb | reach[j], 2))
        if not near[j] & B:
            stack.append((j, A | 1 << j, B, na | reach[j], nb, 1))
        stack.append((j, A, B, na, nb, low))


def _boundary_pair(G: Graph, pos: dict, prev: tuple[int, ...],
                   cur: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The layer's boundary pair A = prev - cur, B = cur - prev as
    (N(A) & L, N(B) & L), masks over the layer positions ``pos``, oriented
    as ``_neighbourhood_pairs`` orients it: the side with the lowest vertex
    is A. A 1-tuple, or empty when a side is empty or an A-B edge exists."""
    A, B = set(prev).difference(cur), set(cur).difference(prev)
    if not A or not B or any(w in B for v in A for w in G.adj[v]):
        return ()
    masks = []
    for side in sorted((A, B), key=min):
        # OR, not sum: two vertices of a side can share a neighbour
        mask = 0
        for v in side:
            for w in G.adj[v]:
                if w in pos:
                    mask |= 1 << pos[w]
        masks.append(mask)
    return ((masks[0], masks[1]),)


def cover_set(G: Graph, s: int, t: int, k: int,
              flow: Optional[SeparatorResult] = None,
              memo: Optional[dict] = None) -> tuple[int, ...]:
    """All vertices on minimal s-t separators of size <= k, plus s and t.

    Degrades to {s, t} when the terminals are adjacent, no separator of
    size <= k exists or the flow has size 0, whose only minimal separator is
    the empty set; returning there keeps the recursion from descending once
    per unit of a huge budget. At excess 0 the cover is the minimum-separator
    vertices, the keys of the flow's ``Residual.sides``; they are exactly the
    union of the chain's boundaries (see ``chains``), which is not built.
    Otherwise each layer flows its
    boundary pair before the walk over its neighbourhood pairs, and stops
    once the layer is covered; the cover is the same in any visit order
    (see the module docstring). ``flow``, a finished s-t flow of G, is
    reused instead of running a new one. ``memo`` is the recursion's table
    of layer subproblems; callers leave it unset and the top-level call
    makes it.
    """
    G.check_vertices((s, t))
    if s == t:
        raise DomainError("terminals must be distinct")
    if G.has_edge(s, t):
        return vset((s, t))
    r = st_flow(G, s, t, flow, cap=k)
    if not r.within(k) or r.size == 0:
        # a flow of size 0 leaves only the empty set as a minimal separator
        return vset((s, t))
    excess = k - int(r.size)
    if excess == 0:
        # the chain's boundaries hold exactly the minimum-separator vertices
        return vset([s, t, *r.residual.sides()])

    chain = build_chain(G, s, t, flow=r)
    cover: set[int] = {s, t}
    for S in chain.boundaries:
        cover.update(S)

    if memo is None:
        memo = {}
    bounds = [(s,), *chain.boundaries, (t,)]
    for (layer, pool), prev, cur in zip(layer_system(chain, s, t, G.n), bounds, bounds[1:]):
        pos = {v: i for i, v in enumerate(layer)}
        inside = tuple((i, pos[w]) for i, v in enumerate(layer) for w in G.adj[v]
                       if pos.get(w, -1) > i)
        table = memo.setdefault((len(layer), inside, k, excess), {})
        network = None
        for na, nb in itertools.chain(_boundary_pair(G, pos, prev, cur),
                                      _neighbourhood_pairs(G, layer, pool)):
            # a sub-cover maps back into the layer: nothing left to add
            if cover.issuperset(layer):
                break
            sub = table.get((na, nb))
            if sub is None:
                if network is None:
                    network = PairNetwork(len(layer), inside)
                sub = table[(na, nb)] = _layer_cover(network, na, nb, k, excess, memo)
            cover.update(layer[i] for i in sub)
    return tuple(sorted(cover))


def _layer_cover(network: PairNetwork, na: int, nb: int, k: int, excess: int,
                 memo: dict) -> tuple[int, ...]:
    """The cover of the layer subproblem (na, nb) without its terminals, in
    layer positions; empty when its capped flow exceeds k. At sub-excess 0
    it is the flow's minimum-separator vertices, and only a deeper
    recursion builds the subproblem graph."""
    r = network.flow(na, nb, cap=k)
    if not r.within(k):
        return ()
    sub_budget = min(k, int(r.size) + excess - 1)
    if sub_budget == r.size:
        return tuple(r.residual.sides())
    a, b = network.n, network.n + 1
    H = network.graph(na, nb)
    r = SeparatorResult(r.size, r.witness, r.exceeds_cap, r.residual,
                        H, frozenset((a,)), frozenset((b,)))
    return tuple(i for i in cover_set(H, a, b, sub_budget, flow=r, memo=memo) if i < a)


class ReducedInstance(NamedTuple):
    """Torso of the cover, which keeps the minimal separators of size <= k
    of the cut pairs and every other terminal, with bookkeeping to map
    answers back."""
    gstar: Graph                             # torso(G, cover), cover ascending
    induced: Graph                           # G[cover], for the class check
    cover: tuple[int, ...]                   # C', original ids
    terminals: tuple[int, ...]               # original ids
    k: int                                   # at most n - 2 (reduce_instance)
    width_bound: int

    def to_gstar(self, v: int) -> int:
        return self.cover.index(v)

    def map_back(self, vs: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self.cover[v] for v in vs))

    def to_jsonable(self) -> dict:
        """G[cover] plus k+1 undeletable gadget vertices adjacent to u and v
        for each torso-added edge uv: no separator within k can cut it. The
        ends of a gadget share a bag of the torso's decomposition, so one
        bag {u, v, x} per gadget x keeps the width at most 2 or the
        torso's."""
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
            "width_bound": max(self.width_bound, 2) if gadgets else self.width_bound,
        }


def reduce_instance(G: Graph, terminals: Iterable[int], k: int,
                    pairs: Optional[Iterable[tuple[int, int]]] = None,
                    flow: Optional[SeparatorResult] = None) -> ReducedInstance:
    """Reduce G to the torso of the union of the covers of ``pairs``, the
    pairs that must be separated; every other terminal joins the cover C as
    a plain vertex.

    ``pairs`` default to the two lowest terminals, the single pair of a
    two-terminal call; each pair's ends must be terminals. A pair whose ends
    are equal or adjacent, or whose capped flow exceeds k, has no separator
    within budget and adds only its ends. ``flow`` is used, as ``st_flow``
    allows, for the pair (lower id, higher id) it belongs to, and must
    belong to one of them.

    This keeps every inclusion-minimal solution Z of a constrained cut with
    these cut pairs, any uncut pairs and reach constraints whose ends,
    sources and targets are among the terminals, and a hereditary class:
    Z - z still meets the class and the budget, and keeping z only adds
    connectivity, so every uncut pair and reach constraint still holds; Z - z
    must then join some cut pair (a, b) through z, and z lies on a minimal
    a-b separator inside Z, of size <= k, which cover(a, b) holds. For Z
    inside C two vertices of C are connected in G - Z iff they are in the
    torso minus Z, so every cut, uncut and reach verdict carries over.

    ``width_bound`` is the paper's 3 * p * (g + 1) + 1 over the p pairs that
    contribute a cover, with g the largest of their ``tw_bound`` values,
    plus one for each terminal outside every such pair (put it in every
    bag); the 1 covers the degree-2 gadgets of the serialised form. With no
    contributing pair the torso is on the terminals alone, and the bound is
    their number minus one; the serialised form then claims at least 2
    when it has a gadget (``to_jsonable``).

    The instance keeps k clamped to n - 2, since no a-b separator of G is
    larger, so a huge budget costs the serialised form at most n - 1
    gadgets per torso-added edge. The covers and ``width_bound`` are those
    of the recursion run at the given k.
    """
    terms = G.check_vertices(terminals)
    if len(terms) < 2:
        raise DomainError("need at least two terminals")
    if pairs is None:
        pairs = (terms[:2],)
    ordered = sorted({(min(a, b), max(a, b)) for a, b in pairs})
    if not {v for pair in ordered for v in pair} <= set(terms):
        raise DomainError("pair ends must be terminals")
    if flow is not None and not any(flow.belongs_to(G, (a,), (b,)) for a, b in ordered):
        raise DomainError("flow belongs to another graph or terminal pair")
    cover: set[int] = set(terms)
    contributing: list[tuple[int, int]] = []
    g_max = 0
    for a, b in ordered:
        if a == b or G.has_edge(a, b):
            continue
        own = flow is not None and flow.belongs_to(G, (a,), (b,))
        r = st_flow(G, a, b, flow if own else None, cap=k)
        if not r.within(k):
            continue
        cover.update(cover_set(G, a, b, k, flow=r))
        contributing.append((a, b))
        if r.size >= 1:
            g_max = max(g_max, tw_bound(int(r.size), k - int(r.size)).g_value)
    outside = len(set(terms).difference(*contributing))
    width_bound = (3 * len(contributing) * (g_max + 1) + 1 + outside if contributing
                   else outside - 1)
    width_bound = min(width_bound, SATURATION_LIMIT)
    tor = torso(G, cover)
    return ReducedInstance(tor.graph, induced_subgraph(G, tor.orig).graph,
                           tor.orig, terms, min(k, G.n - 2), width_bound)
