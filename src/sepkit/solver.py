"""Constrained-cut dynamic programming over nice tree decompositions.

The DP searches for a deletion set S of at most k non-terminal vertices such
that the graph induced on S belongs to a hereditary class, every cut pair
ends up in different components and every uncut pair in the same component.
On a reduced instance G is the torso of the cover: blocks merge along all of
its edges, but the deleted set's graph comes from G[cover] (``induced``).

A state at a decomposition node consists of
  * which bag vertices are deleted,
  * the partition of the kept bag vertices into connectivity blocks, each
    block carrying the set of terminals attached to it,
  * the partition of terminals whose components are already finalized, and
  * a canonically labeled copy of the graph induced on all deleted vertices,
    with the currently-in-bag deleted vertices pinned.

Pruning: a state dies when its accumulated induced graph leaves the class
(sound because the class is hereditary), when a finalized component contains
both endpoints of a cut pair, or when two distinct finalized components split
an uncut pair. Edges between deleted vertices are recorded when the later
endpoint is introduced, which by the decomposition axioms reconstructs the
exact induced subgraph.

Every transition is a pure function of the state components it reads:
introducing a kept vertex of the blocks, introducing a deleted vertex of the
deleted set and the form, and a join of each component pair (forms, closed
partitions, blocks) separately. Many states share components, and the chains
of join nodes that the nice form builds over one bag meet the same pairs
again, so one ``dp_constrained_cut`` call keeps each transition's result,
pruning verdict included, in dicts that live as long as the call. The states
visited, their order and the back-pointers are those of the plain loop.

The budget k is first clamped to the number of deletable vertices, since no
accumulated graph can have more; only then is it held against the class's
``max_check``. Only the classes whose membership test is exponential carry
one (``matchdef:`` and ``forbid:``); the others decide any size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .graphs import (DomainError, Graph, components, induced_subgraph,
                     two_coloring, vset)
from .reduction import reduce_instance
from .separation import minimalize_separator, min_vertex_separator
from .treedecomp import FORGET, INTRODUCE, JOIN, LEAF, decompose, make_nice, validate_nice


# -- hereditary classes -------------------------------------------------------

class HereditaryClass:
    """Decidable graph class closed under induced subgraphs.

    ``max_check``, when set, is the largest graph the membership test is
    asked to decide; None means no limit.
    """

    def __init__(self, name: str, membership: Callable[[Graph], bool],
                 max_check: Optional[int] = None):
        self.name = name
        self.membership = membership
        self.max_check = max_check
        self._cache: dict = {}

    def contains(self, G: Graph) -> bool:
        if self.max_check is not None and G.n > self.max_check:
            raise DomainError(f"class {self.name} only decides up to {self.max_check} vertices")
        return bool(self.membership(G))

    def contains_key(self, m: int, edges: tuple) -> bool:
        key = (m, edges)
        if key not in self._cache:
            self._cache[key] = self.contains(Graph(m, edges))
        return self._cache[key]

    def __repr__(self):
        return f"HereditaryClass({self.name})"


def _is_forest(G: Graph) -> bool:
    parent = list(range(G.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in G.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def maximum_matching(G: Graph) -> tuple[tuple[int, int], ...]:
    """Maximum matching of a small graph by branching on the lowest
    non-isolated vertex, memoized over alive-vertex bitmasks."""
    masks = [0] * G.n
    for u, v in G.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u

    @lru_cache(maxsize=None)
    def best(alive: int) -> int:
        rest = alive
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            nb = masks[v] & alive
            if nb:
                out = best(alive & ~(1 << v))
                while nb:
                    w = (nb & -nb).bit_length() - 1
                    nb &= nb - 1
                    out = max(out, 1 + best(alive & ~(1 << v) & ~(1 << w)))
                return out
        return 0

    matching = []
    alive = (1 << G.n) - 1
    while True:
        target = best(alive)
        if target == 0:
            break
        found = False
        for v in range(G.n):
            if found or not alive & (1 << v):
                continue
            for w in sorted(G.adj[v]):
                if alive & (1 << w) and 1 + best(alive & ~(1 << v) & ~(1 << w)) == target:
                    matching.append((v, w))
                    alive &= ~(1 << v) & ~(1 << w)
                    found = True
                    break
        if not found:
            break
    return tuple(matching)


def matching_deficiency(G: Graph) -> int:
    return G.n - len(maximum_matching(G))


EDGELESS = HereditaryClass("edgeless", lambda H: H.m == 0)
ANY = HereditaryClass("any", lambda H: True)
FOREST = HereditaryClass("forest", _is_forest)
BIPARTITE = HereditaryClass("bipartite", lambda H: two_coloring(H) is not None)


def MAX_DEGREE(d: int) -> HereditaryClass:
    return HereditaryClass(f"maxdeg:{d}", lambda H: all(H.degree(v) <= d for v in range(H.n)))


def MATCH_DEFICIENCY(k: int) -> HereditaryClass:
    return HereditaryClass(f"matchdef:{k}", lambda H: matching_deficiency(H) <= k,
                           max_check=20)


def FORBIDDEN_INDUCED(patterns: Iterable[Graph]) -> HereditaryClass:
    pats = tuple(patterns)

    def member(H: Graph) -> bool:
        for P in pats:
            if P.n > H.n:
                continue
            p_edges = set(P.edges())
            for sub in itertools.combinations(range(H.n), P.n):
                for perm in itertools.permutations(sub):
                    if all(H.has_edge(perm[a], perm[b]) == ((a, b) in p_edges)
                           for a in range(P.n) for b in range(a + 1, P.n)):
                        return False
        return True

    return HereditaryClass("forbid", member, max_check=12)


def decode_graph6(token: str) -> Graph:
    """Decode one standard graph6 string (n <= 62)."""
    data = [ord(c) - 63 for c in token.strip()]
    if not data or any(not 0 <= x < 64 for x in data):
        raise DomainError(f"bad graph6 token {token!r}")
    n = data[0]
    if n == 63:
        raise DomainError("graph6 strings with n > 62 not supported")
    bits = []
    for x in data[1:]:
        bits.extend((x >> s) & 1 for s in range(5, -1, -1))
    need = n * (n - 1) // 2
    if len(bits) < need:
        raise DomainError(f"graph6 token too short for n={n}")
    edges = []
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                edges.append((row, col))
            i += 1
    return Graph(n, edges)


@lru_cache(maxsize=32)
def parse_class(selector: str) -> HereditaryClass:
    """CLI class selectors: edgeless, any, forest, bipartite, maxdeg:<d>,
    matchdef:<k>, forbid:<comma-separated graph6 tokens>. A selector seen
    before returns the same class object, membership cache included."""
    sel = selector.strip()
    simple = {"edgeless": EDGELESS, "any": ANY, "forest": FOREST, "bipartite": BIPARTITE}
    if sel in simple:
        return simple[sel]
    head, colon, arg = sel.partition(":")
    if colon and head in ("maxdeg", "matchdef"):
        if not arg.strip().isdecimal():
            raise DomainError(f"class selector {selector!r} needs a non-negative integer")
        return (MAX_DEGREE if head == "maxdeg" else MATCH_DEFICIENCY)(int(arg))
    if sel.startswith("forbid:"):
        return FORBIDDEN_INDUCED([decode_graph6(tok) for tok in sel.split(":", 1)[1].split(",")])
    raise DomainError(f"unknown class selector {selector!r}")


def check_hereditary(cls: HereditaryClass, max_n: int = 5) -> bool:
    """Debug helper: verify closure under vertex deletion on all graphs with
    at most max_n vertices."""
    for n in range(max_n + 1):
        all_pairs = list(itertools.combinations(range(n), 2))
        for picks in itertools.chain.from_iterable(
                itertools.combinations(all_pairs, r) for r in range(len(all_pairs) + 1)):
            H = Graph(n, picks)
            if not cls.contains(H):
                continue
            for v in range(n):
                keep = [u for u in range(n) if u != v]
                idx = {u: i for i, u in enumerate(keep)}
                sub = Graph(n - 1, [(idx[a], idx[b]) for a, b in picks if a != v and b != v])
                if not cls.contains(sub):
                    return False
    return True


# -- constraints and witnesses --------------------------------------------------

@dataclass(frozen=True)
class CutConstraints:
    cut_pairs: tuple[tuple[int, int], ...]
    uncut_pairs: tuple[tuple[int, int], ...] = ()

    @property
    def terminals(self) -> tuple[int, ...]:
        return vset(v for p in self.cut_pairs + self.uncut_pairs for v in p)


@dataclass
class DPWitness:
    deletion_set: tuple[int, ...]
    induced_graph: Graph
    stats: dict = field(default_factory=dict)


# -- canonical accumulated graphs ------------------------------------------------
#
# form = (m, p, edges): vertices 0..m-1, pins 0..p-1 (the bag-deleted vertices
# in ascending id order), edges a sorted tuple of ordered pairs. Free vertices
# are relabeled to the permutation minimizing the edge encoding.
#
# Only the r free vertices that touch an edge are permuted, over the labels
# p..p+r-1; the isolated ones take the labels above. That loses nothing:
# moving a touched vertex to a lower unused label lowers every pair it is
# in, so the sorted edge tuple can only fall.

@lru_cache(maxsize=None)
def _canon(m: int, p: int, edges: tuple) -> tuple:
    touched = sorted({x for e in edges for x in e if x >= p})
    if not touched:
        return (m, p, tuple(sorted(edges)))
    best = None
    for perm in itertools.permutations(range(p, p + len(touched))):
        remap = list(range(m))
        for x, y in zip(touched, perm):
            remap[x] = y
        cand = tuple(sorted(tuple(sorted((remap[a], remap[b]))) for a, b in edges))
        if best is None or cand < best:
            best = cand
    return (m, p, best)


def _form_add_pin(form: tuple, rank: int, nbr_ranks: Iterable[int]) -> tuple:
    """New pinned vertex at pin position ``rank`` adjacent to the given
    existing pin positions."""
    m, p, edges = form

    def remap(x):
        if x < p:
            return x if x < rank else x + 1
        return x + 1

    new_edges = [tuple(sorted((remap(a), remap(b)))) for a, b in edges]
    new_edges += [tuple(sorted((rank, remap(r)))) for r in nbr_ranks]
    return _canon(m + 1, p + 1, tuple(new_edges))


def _form_unpin(form: tuple, rank: int) -> tuple:
    m, p, edges = form

    def remap(x):
        if x == rank:
            return p - 1
        if x < p:
            return x if x < rank else x - 1
        return x

    return _canon(m, p - 1, tuple(tuple(sorted((remap(a), remap(b)))) for a, b in edges))


def _form_join(left: tuple, right: tuple) -> Optional[tuple]:
    mL, p, edgesL = left
    mR, pR, edgesR = right
    assert p == pR
    pin_left = {e for e in edgesL if e[1] < p}
    pin_right = {e for e in edgesR if e[1] < p}
    assert pin_left == pin_right, "pinned subgraphs must agree at a join"

    def remap(x):
        return x if x < p else mL + (x - p)

    merged = set(edgesL)
    merged.update(tuple(sorted((remap(a), remap(b)))) for a, b in edgesR)
    return _canon(mL + mR - p, p, tuple(merged))


# -- block bookkeeping -----------------------------------------------------------

def _blocks_introduce(blocks: tuple, v: int, G: Graph, terminals: frozenset) -> tuple:
    nbrs = G.neighbor_sets()[v]
    verts = {v}
    terms = {v} if v in terminals else set()
    rest = []
    for bv, bt in blocks:
        if any(u in nbrs for u in bv):
            verts.update(bv)
            terms.update(bt)
        else:
            rest.append((bv, bt))
    rest.append((tuple(sorted(verts)), tuple(sorted(terms))))
    return tuple(sorted(rest))


def _blocks_join(left: tuple, right: tuple) -> tuple:
    parent: dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for bv, _ in left + right:
        for u in bv:
            parent.setdefault(u, u)
        for u in bv[1:]:
            parent[find(bv[0])] = find(u)
    groups: dict[int, tuple[set, set]] = {}
    for bv, bt in left + right:
        root = find(bv[0])
        verts, terms = groups.setdefault(root, (set(), set()))
        verts.update(bv)
        terms.update(bt)
    return tuple(sorted((tuple(sorted(v)), tuple(sorted(t))) for v, t in groups.values()))


# -- the DP proper ----------------------------------------------------------------

_MISSING = object()


def dp_constrained_cut(G: Graph, nice, cons: CutConstraints, k: int,
                       cls: HereditaryClass, induced: Optional[Graph] = None,
                       prune_hereditary: bool = True,
                       stats_out: Optional[dict] = None) -> Optional[DPWitness]:
    """Search for a valid deletion set over a nice decomposition of G.
    Blocks merge along every edge of G; the class judges the deleted set in
    ``induced`` (default G), a spanning subgraph of G."""
    if not validate_nice(G, nice):
        raise DomainError("nice decomposition does not match the graph")
    induced = G if induced is None else induced
    terminals = frozenset(G.check_vertices(cons.terminals))
    # no accumulated graph can outgrow the deletable vertices
    k = min(k, G.n - len(terminals))
    if cls.max_check is not None and k > cls.max_check:
        raise DomainError(f"budget {k} exceeds class max_check {cls.max_check}")
    nbr_sets = induced.neighbor_sets()
    cut_pairs = tuple(cons.cut_pairs)
    uncut_pairs = tuple((a, b) for a, b in cons.uncut_pairs if a != b)

    def class_ok(form):
        if not prune_hereditary:
            return True
        m, _p, edges = form
        return cls.contains_key(m, edges)

    def close_checks(group: tuple, closed: tuple) -> bool:
        gs = set(group)
        for a, b in cut_pairs:
            if a in gs and b in gs:
                return False
        done = set().union(*map(set, closed)) if closed else set()
        for a, b in uncut_pairs:
            if (a in gs and b in done) or (b in gs and a in done):
                return False
        return True

    def cross_closed_ok(closed: tuple) -> bool:
        where = {}
        for i, grp in enumerate(closed):
            for x in grp:
                where[x] = i
        for a, b in uncut_pairs:
            if a in where and b in where and where[a] != where[b]:
                return False
        return True

    def delete_vertex(deleted: tuple, form: tuple, v: int) -> tuple:
        rank = sum(1 for d in deleted if d < v)
        nbr_ranks = [i for i, d in enumerate(deleted) if d in nbr_sets[v]]
        nform = _form_add_pin(form, rank, nbr_ranks)
        return nform, class_ok(nform), tuple(sorted(deleted + (v,)))

    def join_forms(lform: tuple, rform: tuple) -> Optional[tuple]:
        nform = _form_join(lform, rform)
        if nform[0] > k or not class_ok(nform):
            return None
        return nform

    def join_closed(lclosed: tuple, rclosed: tuple) -> Optional[tuple]:
        nclosed = tuple(sorted(lclosed + rclosed))
        return nclosed if cross_closed_ok(nclosed) else None

    # transition memos for this call (module docstring): introduce memos by
    # vertex, then component; join memos by left, then right component;
    # None marks a pruned join
    keep_memos: dict = {}
    del_memos: dict = {}
    form_joins: dict = {}
    closed_joins: dict = {}
    block_joins: dict = {}

    tables: list[dict] = []
    total_states = 0
    peak = 0

    empty_form = _canon(0, 0, ())
    for idx, nd in enumerate(nice.nodes):
        table: dict = {}

        def put(key, back):
            if key not in table:
                table[key] = (len(table), back)

        if nd.kind == LEAF:
            put(((), (), (), empty_form), ("leaf",))

        elif nd.kind == INTRODUCE:
            v = nd.vertex
            child = nd.children[0]
            keep_memo = keep_memos.setdefault(v, {})
            del_memo = del_memos.setdefault(v, {})
            for key in tables[child]:
                deleted, blocks, closed, form = key
                # keep v
                nblocks = keep_memo.get(blocks)
                if nblocks is None:
                    nblocks = keep_memo[blocks] = _blocks_introduce(blocks, v, G, terminals)
                put((deleted, nblocks, closed, form), ("keep", key))
                # delete v
                if v not in terminals and form[0] < k:
                    dk = (deleted, form)
                    out = del_memo.get(dk)
                    if out is None:
                        out = del_memo[dk] = delete_vertex(deleted, form, v)
                    nform, ok, ndel = out
                    if ok:
                        put((ndel, blocks, closed, nform), ("del", key))

        elif nd.kind == FORGET:
            v = nd.vertex
            child = nd.children[0]
            for key in tables[child]:
                deleted, blocks, closed, form = key
                if v in deleted:
                    rank = deleted.index(v)
                    nform = _form_unpin(form, rank)
                    ndel = tuple(d for d in deleted if d != v)
                    put((ndel, blocks, closed, nform), ("fd", key))
                else:
                    nblocks = []
                    group = None
                    for bv, bt in blocks:
                        if v in bv:
                            rest = tuple(u for u in bv if u != v)
                            if rest:
                                nblocks.append((rest, bt))
                            else:
                                group = bt
                        else:
                            nblocks.append((bv, bt))
                    nclosed = closed
                    if group:
                        if not close_checks(group, closed):
                            continue
                        nclosed = tuple(sorted(closed + (group,)))
                    put((deleted, tuple(sorted(nblocks)), nclosed, form), ("fk", key))

        elif nd.kind == JOIN:
            lchild, rchild = nd.children
            by_deleted: dict = {}
            for rkey in tables[rchild]:
                by_deleted.setdefault(rkey[0], []).append(rkey)
            for lkey in tables[lchild]:
                deleted, lblocks, lclosed, lform = lkey
                form_memo = form_joins.setdefault(lform, {})
                closed_memo = closed_joins.setdefault(lclosed, {})
                block_memo = block_joins.setdefault(lblocks, {})
                for rkey in by_deleted.get(deleted, ()):
                    _, rblocks, rclosed, rform = rkey
                    nform = form_memo.get(rform, _MISSING)
                    if nform is _MISSING:
                        nform = form_memo[rform] = join_forms(lform, rform)
                    if nform is None:
                        continue
                    nclosed = closed_memo.get(rclosed, _MISSING)
                    if nclosed is _MISSING:
                        nclosed = closed_memo[rclosed] = join_closed(lclosed, rclosed)
                    if nclosed is None:
                        continue
                    nblocks = block_memo.get(rblocks)
                    if nblocks is None:
                        nblocks = block_memo[rblocks] = _blocks_join(lblocks, rblocks)
                    put((deleted, nblocks, nclosed, nform), ("join", lkey, rkey))

        tables.append(table)
        total_states += len(table)
        peak = max(peak, len(table))

    if stats_out is not None:
        stats_out["dp_states"] = total_states
        stats_out["dp_peak_table"] = peak
        stats_out["width"] = nice.width

    root = tables[-1]
    answer = None
    for key, (index, _back) in root.items():
        _deleted, _blocks, closed, form = key
        if not prune_hereditary and not cls.contains_key(form[0], form[2]):
            continue
        if answer is None or index < answer[1]:
            answer = (key, index)
    if answer is None:
        return None

    deletion = _reconstruct(tables, nice, answer[0])
    sub = induced_subgraph(induced, deletion)
    if __debug__:
        got = _canon(sub.graph.n, 0, tuple(sub.graph.edges()))
        want = _canon(answer[0][3][0], 0, answer[0][3][2])
        assert got == want, "accumulated graph must match the true induced subgraph"
    wit = DPWitness(deletion, sub.graph)
    if stats_out is not None:
        wit.stats.update(stats_out)
    return wit


def _reconstruct(tables, nice, root_key) -> tuple[int, ...]:
    deleted: set[int] = set()
    stack = [(len(nice.nodes) - 1, root_key)]
    while stack:
        node_idx, key = stack.pop()
        back = tables[node_idx][key][1]
        kind = back[0]
        nd = nice.nodes[node_idx]
        if kind == "leaf":
            continue
        if kind == "del":
            deleted.add(nd.vertex)
            stack.append((nd.children[0], back[1]))
        elif kind in ("keep", "fk", "fd"):
            stack.append((nd.children[0], back[1]))
        elif kind == "join":
            stack.append((nd.children[0], back[1]))
            stack.append((nd.children[1], back[2]))
    return tuple(sorted(deleted))


# -- pipelines ---------------------------------------------------------------------

class VerificationError(Exception):
    """A witness failed its re-verification against the original graph."""


def verify_solution(G: Graph, S: Iterable[int], cons: CutConstraints, k: int,
                    cls: HereditaryClass) -> bool:
    """Re-check a witness against the original graph."""
    ss = vset(S)
    if len(ss) > k or set(ss) & set(cons.terminals):
        return False
    if not cls.contains(induced_subgraph(G, ss).graph):
        return False
    comp_of = {}
    for i, comp in enumerate(components(G, ss)):
        for v in comp:
            comp_of[v] = i
    for a, b in cons.cut_pairs:
        if a in comp_of and b in comp_of and comp_of[a] == comp_of[b]:
            return False
    for a, b in cons.uncut_pairs:
        if a != b and comp_of.get(a) != comp_of.get(b):
            return False
    return True


def g_mincut(G: Graph, s: int, t: int, k: int, cls: HereditaryClass,
             stats_out: Optional[dict] = None) -> Optional[DPWitness]:
    """Separator of size <= k inducing a member of cls, via the reduced graph."""
    G.check_vertices((s, t))
    if s == t:
        raise DomainError("terminals must be distinct")
    stats = {} if stats_out is None else stats_out
    r = min_vertex_separator(G, (s,), (t,), cap=k)
    stats["ell"] = None if not r.is_finite else int(r.size)
    stats["excess"] = None if not r.is_finite else k - int(r.size)
    if G.has_edge(s, t):
        return None
    if k == 0:
        if any(s in comp and t in comp for comp in map(set, components(G))):
            return None
        if not cls.contains(Graph(0)):
            return None
        return DPWitness((), Graph(0), dict(stats))
    final = CutConstraints(((s, t),))
    wit = g_multicut_uncut(G, final, k, cls, stats_out=stats)
    if wit is None:
        return None
    S = minimalize_separator(G, wit.deletion_set, (s,), (t,))
    if not verify_solution(G, S, final, k, cls):
        raise VerificationError("reduced-instance witness failed re-verification")
    return DPWitness(S, induced_subgraph(G, S).graph, dict(stats))


def g_multicut_uncut(G: Graph, cons: CutConstraints, k: int, cls: HereditaryClass,
                     stats_out: Optional[dict] = None) -> Optional[DPWitness]:
    """Deletion set separating every cut pair, keeping every uncut pair
    connected, inducing a member of cls."""
    stats = {} if stats_out is None else stats_out
    for a, b in cons.cut_pairs:
        if a == b or G.has_edge(a, b):
            return None
    uncut = tuple((a, b) for a, b in cons.uncut_pairs if a != b)
    norm = CutConstraints(tuple(cons.cut_pairs), uncut)
    terms = norm.terminals
    if not norm.cut_pairs:
        # deleting nothing is optimal when nothing must be separated
        if not cls.contains(Graph(0)):
            return None
        if verify_solution(G, (), norm, k, cls):
            return DPWitness((), Graph(0), dict(stats))
        return None
    ri = reduce_instance(G, terms, k)
    stats["cover_size"] = len(ri.cover)
    stats["width_bound"] = ri.width_bound
    td = decompose(ri.gstar)
    nice = make_nice(td, ri.gstar, root_vertex=ri.to_gstar(min(terms)))
    mapped = CutConstraints(
        tuple((ri.to_gstar(a), ri.to_gstar(b)) for a, b in norm.cut_pairs),
        tuple((ri.to_gstar(a), ri.to_gstar(b)) for a, b in norm.uncut_pairs))
    wit = dp_constrained_cut(ri.gstar, nice, mapped, k, cls, ri.induced,
                             stats_out=stats)
    if wit is None:
        return None
    S = ri.map_back(wit.deletion_set)
    if not verify_solution(G, S, norm, k, cls):
        raise VerificationError("reduced-instance witness failed re-verification")
    return DPWitness(S, induced_subgraph(G, S).graph, dict(stats))
