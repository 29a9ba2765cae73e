"""Constrained-cut dynamic programming over nice tree decompositions.

The DP searches for a deletion set S of at most k non-terminal vertices such
that the graph induced on S belongs to a hereditary class, every cut pair
ends up in different components, every uncut pair in the same component, and
the component of every reach source holds a kept vertex of its targets.
On a reduced instance G is the torso of the cover: blocks merge along all of
its edges, but the deleted set's graph comes from G[cover] (``induced``).

A state at a decomposition node consists of
  * which bag vertices are deleted (the pins, ranked by id),
  * the partition of the kept bag vertices into connectivity blocks, each
    block carrying the marks of its kept vertices: the terminals, and the
    reach constraints whose targets it holds, and
  * the class's summary of the graph induced on all deleted vertices so far.

The deleted set is an int bitmask over G's vertex ids, so a pin's rank is the
number of deleted bits below its own. A block is a pair of ints, the mask of
its kept bag vertices and the mask of its marks (one bit per terminal, one
per reach constraint), and a state's blocks are a sorted tuple, unique since
vertex masks are disjoint. One call gives each distinct blocks tuple and
each distinct summary an int id, in the order they first appear, and a
state is the triple (deleted mask, block id, summary id). Two states are
equal exactly when their encodings are, and a table is a dict filled in the
order of its ``put`` calls, so the states it holds, their order and the
first root state reached depend on the transitions alone, not on how a
state is spelled: the encoding leaves ``dp_states`` and every witness as
they are. The neighbour masks of G and of ``induced`` are built once per
call.

A summary (``ClassSummary``) keeps of that graph only what decides how it can
still be extended. The DP changes the graph in three ways: a new pin with
edges to some pins, a pin turning free (its edges are then final), and the
gluing of two graphs along the same pins at a join. A summary must be a right
congruence for these operations: two graphs with equal summaries (and the
same pins) stay in or out of the class together under every sequence of
them, and the summary of the result depends only on the summary. Merging
states with equal summaries is then exact. This is the usual feedback vertex
set and odd cycle transversal over treewidth argument (Cygan et al.,
*Parameterized Algorithms*, 2015, ch. 7). The built-in summaries: the count m
and pin count for ``any`` and ``edgeless``; the pins' degrees for
``maxdeg:d`` (a free vertex's degree is final); for ``forest`` and
``bipartite``, the components that hold pins, spelled in rank masks like the
deleted set. A forest component is its pins' mask, and a glued graph is
acyclic iff it has c_L + c_R + |pin-pin edges| - p components; a bipartite
component is the masks of its two colour sides, its lowest pin's side first.
A class given by a membership test alone keeps a canonically labeled copy of
the whole graph, with the pins fixed, and judges it by membership
(``matchdef:``, ``forbid:``).

Element 0 of every summary is m, the size of the deleted set, which the
budget checks read: a join glues mL + mR - p deleted vertices. Every
summary also fixes the pin count p. The join memo below is keyed by the two
summaries' ids, so a summary of m alone would let joins with different pin
counts share an entry. Fields fixed by the pins, such as the pin-pin edges, never
split states, since the deleted bag vertices are part of the state anyway.

Pruning: a state dies when its accumulated induced graph leaves the class
(sound because the class is hereditary), or when forgetting a kept vertex
empties its block and that block's marks hold both ends of a cut pair,
exactly one end of an uncut pair, or a reach source without the mark of its
targets. This is exact. The root bag is empty, so every kept vertex's block
closes exactly once; a closed block cannot grow, since a vertex is only
adjacent to vertices it shares a bag with, so its marks are those of a
finished component of G minus the deleted set and every cut, uncut and reach
verdict on it is final. Nothing about a finished component needs to be
carried. Edges between deleted vertices are recorded
when the later endpoint is introduced, which by the decomposition axioms
reconstructs the exact induced subgraph.

Every transition is a pure function of the state components it reads, so
one ``dp_constrained_cut`` call keeps each transition's result, pruning
verdict included, in dicts keyed by ids that live as long as the call:
keeping or forgetting a kept vertex v by (v, block id); ``add_pin`` by
(summary id, rank, neighbour rank mask), which one entry serves for every
deleted set that gives v that rank and mask; ``unpin`` by (summary id,
rank); a join by the two summary ids and by the two block ids. Many states
share components, and the chains of join nodes that the nice form builds
over one bag meet the same pairs again. A table entry's value is its
back-pointer: the child state itself below an introduce or forget node, the
(left, right) pair below a join. The states visited, their order and the
back-pointers are those of the plain loop.

The budget k is first clamped to the number of deletable vertices, since no
accumulated graph can have more; only then is it held against the class's
``max_check``. Only the classes whose membership test is exponential carry
one (``matchdef:`` and ``forbid:``); the others decide any size.

Stats reach a caller through ``with collect() as stats:`` (a NO answer has no
witness to carry them): the innermost block gets the last ``ell``, ``excess``,
``cover_size``, ``width_bound`` and ``width``, and ``dp_states`` summed over
its DP runs. Outside any block nothing is recorded. ``g_mincut`` notes
``cover_size``, ``width_bound`` and ``width`` as None right after its capped
s-t flow, so each call overwrites every key it owns and a block describes
the last call. When that flow exceeds k the call answers NO there, with
``ell`` and ``excess`` None too.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .graphs import (DomainError, Graph, adjacency_masks, bits, components,
                     induced_subgraph, two_coloring, vset)
from .reduction import reduce_instance
from .separation import SeparatorResult, minimalize_separator, min_vertex_separator
from .treedecomp import FORGET, INTRODUCE, JOIN, LEAF, decompose, make_nice, validate_nice


# -- hereditary classes -------------------------------------------------------

class ClassSummary(NamedTuple):
    """What the DP keeps of the deleted set's graph (module docstring).

    Pins are the deleted bag vertices, named by rank 0..p-1. ``empty`` is the
    summary of the empty graph. ``add_pin(s, rank, nbr_mask)`` inserts a pin
    at ``rank`` adjacent to the pins in the rank mask ``nbr_mask`` (ranks
    before the insert); ``unpin(s, rank)`` makes that pin free;
    ``join(l, r)`` glues two graphs with the same pins. ``add_pin`` and
    ``join`` return None when the result leaves the class. Summaries are
    hashable tuples whose element 0 is the vertex count m and which
    determine p; all four operations are pure.
    """
    empty: tuple
    add_pin: Callable[[tuple, int, int], Optional[tuple]]
    unpin: Callable[[tuple, int], tuple]
    join: Callable[[tuple, tuple], Optional[tuple]]


class HereditaryClass:
    """Decidable graph class closed under induced subgraphs.

    ``max_check``, when set, is the largest graph the membership test is
    asked to decide; None means no limit. ``summary`` is what the DP tracks
    of a deleted set's graph; it must accept exactly the graphs that
    ``membership`` accepts. Without one the DP keeps a canonical form of
    the whole graph and judges it with ``membership``.
    """

    def __init__(self, name: str, membership: Callable[[Graph], bool],
                 max_check: Optional[int] = None,
                 summary: Optional[ClassSummary] = None):
        self.name = name
        self.membership = membership
        self.max_check = max_check
        self._cache: dict = {}
        self.summary = _form_summary(self) if summary is None else summary

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


# -- built-in class summaries ------------------------------------------------------
#
# Pins keep their rank order: inserting at rank r moves ranks >= r up by one,
# removing rank r moves ranks > r down. A set of pins is a mask over their
# ranks; pin-pin edges are a sorted tuple of rank pairs.

def _pin_edges_add(edges: tuple, rank: int, nb: int) -> tuple:
    def lift(x):
        return x + (x >= rank)
    return tuple(sorted([(lift(a), lift(b)) for a, b in edges]
                        + [tuple(sorted((rank, lift(r)))) for r in bits(nb)]))


def _pin_edges_drop(edges: tuple, rank: int) -> tuple:
    return tuple((a - (a > rank), b - (b > rank)) for a, b in edges
                 if a != rank and b != rank)


def _count_summary(edgeless: bool) -> ClassSummary:
    """(m, p): ``any`` needs nothing more, ``edgeless`` refuses every edge."""
    def add_pin(s, rank, nb):
        if edgeless and nb:
            return None
        return (s[0] + 1, s[1] + 1)

    return ClassSummary((0, 0), add_pin, lambda s, rank: (s[0], s[1] - 1),
                        lambda l, r: (l[0] + r[0] - l[1], l[1]))


def _degree_summary(d: int) -> ClassSummary:
    """(m, pin degrees, pin-pin edges); a join counts each pin-pin edge once."""
    def add_pin(s, rank, nb):
        m, degs, edges = s
        degs = list(degs)
        for r in bits(nb):
            degs[r] += 1
        degs.insert(rank, nb.bit_count())
        if max(degs) > d:
            return None
        return (m + 1, tuple(degs), _pin_edges_add(edges, rank, nb))

    def unpin(s, rank):
        m, degs, edges = s
        return (m, degs[:rank] + degs[rank + 1:], _pin_edges_drop(edges, rank))

    def join(l, r):
        m, degs, edges = l
        both = list(degs)
        for a, b in edges:
            both[a] -= 1
            both[b] -= 1
        degs = tuple(x + y for x, y in zip(both, r[1]))
        if degs and max(degs) > d:
            return None
        return (m + r[0] - len(degs), degs, edges)

    return ClassSummary((0, (), ()), add_pin, unpin, join)


def _widen(x: int, rank: int) -> int:
    """A rank mask with a zero bit inserted at ``rank``."""
    low = x & ((1 << rank) - 1)
    return low | (x ^ low) << 1


def _narrow(x: int, rank: int) -> int:
    """A rank mask with bit ``rank`` removed."""
    low = x & ((1 << rank) - 1)
    return low | (x >> rank + 1) << rank


def _oriented(a: int, b: int) -> tuple:
    """The sides of a component, the side of its lowest pin first."""
    return (a, b) if a & -(a | b) else (b, a)


def _glue(left: Iterable[tuple], right: Iterable[tuple]) -> Optional[list]:
    """The components (side, side) of two graphs glued along their pins:
    each right component swallows the merged ones it meets, flipped to agree
    with its sides, as ``join_blocks`` merges blocks. None on a parity clash,
    which a forest's components, passed as (mask, 0), never meet."""
    out = list(left)
    for a, b in right:
        rest = []
        for oa, ob in out:
            if oa & a or ob & b:
                if oa & b or ob & a:
                    return None
                a, b = a | oa, b | ob
            elif oa & b or ob & a:
                a, b = a | ob, b | oa
            else:
                rest.append((oa, ob))
        rest.append((a, b))
        out = rest
    return out


def _forest_summary() -> ClassSummary:
    """(m, pin-pin edges, components), a component as its pins' rank mask."""
    def add_pin(s, rank, nb):
        m, edges, comps = s
        merged, rest = 1 << rank, []
        for c in comps:
            touched = c & nb
            if touched & (touched - 1):
                return None     # two edges into one tree close a cycle
            if touched:
                merged |= _widen(c, rank)
            else:
                rest.append(_widen(c, rank))
        rest.append(merged)
        return (m + 1, _pin_edges_add(edges, rank, nb), tuple(sorted(rest)))

    def unpin(s, rank):
        m, edges, comps = s
        return (m, _pin_edges_drop(edges, rank),
                tuple(sorted(c for c in (_narrow(c, rank) for c in comps) if c)))

    def join(l, r):
        m, edges, comps = l
        p = sum(comps).bit_length()
        glued = _glue([(c, 0) for c in comps], [(c, 0) for c in r[2]])
        # acyclic iff the glued graph has |V| - |E| components
        if len(glued) != len(comps) + len(r[2]) + len(edges) - p:
            return None
        return (m + r[0] - p, edges, tuple(sorted(c for c, _ in glued)))

    return ClassSummary((0, (), ()), add_pin, unpin, join)


def _bipartite_summary() -> ClassSummary:
    """(m, components), a component as the rank masks of its two sides."""
    def add_pin(s, rank, nb):
        m, comps = s
        same, other, rest = 1 << rank, 0, []
        for a, b in comps:
            if a & nb:
                if b & nb:
                    return None     # neighbours on both sides close an odd cycle
                same, other = same | _widen(b, rank), other | _widen(a, rank)
            elif b & nb:
                same, other = same | _widen(a, rank), other | _widen(b, rank)
            else:
                rest.append((_widen(a, rank), _widen(b, rank)))
        rest.append(_oriented(same, other))
        return (m + 1, tuple(sorted(rest)))

    def unpin(s, rank):
        narrowed = ((_narrow(a, rank), _narrow(b, rank)) for a, b in s[1])
        return (s[0], tuple(sorted(_oriented(a, b) for a, b in narrowed if a | b)))

    def join(l, r):
        glued = _glue(l[1], r[1])
        if glued is None:
            return None
        p = sum(a | b for a, b in l[1]).bit_length()
        return (l[0] + r[0] - p, tuple(sorted(_oriented(a, b) for a, b in glued)))

    return ClassSummary((0, ()), add_pin, unpin, join)


def maximum_matching(G: Graph) -> tuple[tuple[int, int], ...]:
    """Maximum matching of a small graph by branching on the lowest
    non-isolated vertex, memoized over alive-vertex bitmasks.

    The matching is read off ``best`` in one pass: each step takes the
    first edge (v, w), v and then w ascending, that some maximum matching of
    the alive vertices keeps. No later step starts below a matched v: an
    edge that keeps the maximum then kept it before v's step as well."""
    masks = adjacency_masks(G)

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
    target = best(alive)
    for v in range(G.n):
        if alive >> v & 1:
            for w in bits(masks[v] & alive):
                if 1 + best(alive & ~(1 << v | 1 << w)) == target:
                    matching.append((v, w))
                    alive &= ~(1 << v | 1 << w)
                    target -= 1
                    break
    return tuple(matching)


def matching_deficiency(G: Graph) -> int:
    return G.n - len(maximum_matching(G))


EDGELESS = HereditaryClass("edgeless", lambda H: H.m == 0,
                           summary=_count_summary(edgeless=True))
ANY = HereditaryClass("any", lambda H: True, summary=_count_summary(edgeless=False))
FOREST = HereditaryClass("forest", lambda H: H.m == H.n - len(components(H)),
                         summary=_forest_summary())
BIPARTITE = HereditaryClass("bipartite", lambda H: two_coloring(H) is not None,
                            summary=_bipartite_summary())


def MAX_DEGREE(d: int) -> HereditaryClass:
    return HereditaryClass(f"maxdeg:{d}", lambda H: all(H.degree(v) <= d for v in range(H.n)),
                           summary=_degree_summary(d))


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
    flags = []
    for x in data[1:]:
        flags.extend((x >> s) & 1 for s in range(5, -1, -1))
    need = n * (n - 1) // 2
    if len(flags) < need:
        raise DomainError(f"graph6 token too short for n={n}")
    edges = []
    i = 0
    for col in range(1, n):
        for row in range(col):
            if flags[i]:
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


# -- constraints and witnesses --------------------------------------------------

class CutConstraints(NamedTuple):
    """Each cut pair ends in two components of G - S and each uncut pair in
    one. A reach constraint (a, B) keeps a, and a's component holds a kept
    vertex of B; the vertices of B may be deleted. The terminals, which S
    avoids, are the pair ends and the reach sources."""
    cut_pairs: tuple[tuple[int, int], ...]
    uncut_pairs: tuple[tuple[int, int], ...] = ()
    reach: tuple[tuple[int, tuple[int, ...]], ...] = ()

    @property
    def terminals(self) -> tuple[int, ...]:
        return vset([v for p in self.cut_pairs + self.uncut_pairs for v in p]
                    + [a for a, _ in self.reach])


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


def _form_add_pin(form: tuple, rank: int, nb: int) -> tuple:
    """New pinned vertex at pin position ``rank`` adjacent to the existing
    pin positions set in ``nb``."""
    m, p, edges = form

    def remap(x):
        if x < p:
            return x if x < rank else x + 1
        return x + 1

    new_edges = [tuple(sorted((remap(a), remap(b)))) for a, b in edges]
    new_edges += [tuple(sorted((rank, remap(r)))) for r in bits(nb)]
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


def _form_summary(cls: HereditaryClass) -> ClassSummary:
    """The default summary: the canonical form, judged by membership."""
    def judged(form: tuple) -> Optional[tuple]:
        return form if cls.contains_key(form[0], form[2]) else None

    return ClassSummary(_canon(0, 0, ()),
                        lambda form, rank, nb: judged(_form_add_pin(form, rank, nb)),
                        _form_unpin,
                        lambda left, right: judged(_form_join(left, right)))


# -- stats ---------------------------------------------------------------------------

_active_stats: ContextVar[Optional[dict]] = ContextVar("sepkit_stats", default=None)


@contextmanager
def collect() -> Iterator[dict]:
    """A fresh dict of the stats noted in the body (module docstring)."""
    token = _active_stats.set({})
    try:
        yield _active_stats.get()
    finally:
        _active_stats.reset(token)


def _note(key: str, value, add: bool = False) -> None:
    stats = _active_stats.get()
    if stats is not None:
        stats[key] = stats.get(key, 0) + value if add else value


# -- the DP proper ----------------------------------------------------------------

_MISSING = object()


def dp_constrained_cut(G: Graph, nice, cons: CutConstraints, k: int, cls: HereditaryClass,
                       induced: Optional[Graph] = None) -> Optional[tuple[int, ...]]:
    """Search for a valid deletion set over a nice decomposition of G.
    Blocks merge along every edge of G; the class judges the deleted set in
    ``induced`` (default G), a spanning subgraph of G. An ``induced`` with
    other vertices or an edge that G lacks is a DomainError."""
    if not validate_nice(G, nice):
        raise DomainError("nice decomposition does not match the graph")
    induced = G if induced is None else induced
    nbrs = adjacency_masks(G)
    if induced.n != G.n:
        raise DomainError("induced graph must have the vertices of G")
    ind_nbrs = adjacency_masks(induced)
    if any(b & ~a for a, b in zip(nbrs, ind_nbrs)):
        raise DomainError("induced graph must be a subgraph of G")
    terminals = G.check_vertices(cons.terminals)
    # a kept vertex's marks: bit j if it is terminal j (in id order), bit
    # T + i if it is a target of reach constraint i, for T terminals
    term_bit = {v: 1 << j for j, v in enumerate(terminals)}
    marks = [term_bit.get(v, 0) for v in range(G.n)]
    reach_ok = []
    for i, (a, targets) in enumerate(cons.reach):
        bit = 1 << (len(terminals) + i)
        for b in G.check_vertices(targets):
            marks[b] |= bit
        reach_ok.append((term_bit[a], bit))
    cut_masks = [term_bit[a] | term_bit[b] for a, b in cons.cut_pairs]
    uncut_masks = [term_bit[a] | term_bit[b] for a, b in cons.uncut_pairs]
    # no accumulated graph can outgrow the deletable vertices
    k = min(k, G.n - len(terminals))
    if cls.max_check is not None and k > cls.max_check:
        raise DomainError(f"budget {k} exceeds class max_check {cls.max_check}")
    summary = cls.summary

    def finished_ok(bm: int) -> bool:
        return not any(bm & c == c for c in cut_masks) and \
            not any(bm & u not in (0, u) for u in uncut_masks) and \
            not any(bm & a and not bm & t for a, t in reach_ok)

    def keep_vertex(blocks: tuple, v: int) -> tuple:
        nb = nbrs[v]
        verts, bmarks = 1 << v, marks[v]
        rest = []
        for bv, bm in blocks:
            if bv & nb:
                verts |= bv
                bmarks |= bm
            else:
                rest.append((bv, bm))
        rest.append((verts, bmarks))
        return tuple(sorted(rest))

    def forget_kept(blocks: tuple, bit: int) -> Optional[tuple]:
        nblocks = []
        for bv, bm in blocks:
            if bv & bit:
                if bv != bit:
                    nblocks.append((bv ^ bit, bm))
                elif not finished_ok(bm):
                    return None     # the component is finished and fails
            else:
                nblocks.append((bv, bm))
        return tuple(sorted(nblocks))

    def join_blocks(left: tuple, right: tuple) -> tuple:
        # each right block swallows the merged blocks it meets
        out = list(left)
        for bv, bm in right:
            rest = []
            for ov, om in out:
                if ov & bv:
                    bv |= ov
                    bm |= om
                else:
                    rest.append((ov, om))
            rest.append((bv, bm))
            out = rest
        return tuple(sorted(out))

    # each distinct blocks tuple and summary gets an id for this call, and a
    # state is (deleted, block id, summary id); the ids are one-to-one, so
    # the tables hold the states of the tuple spelling in the same order
    block_ids: dict = {}
    block_list: list = []
    summ_ids: dict = {}
    summ_list: list = []
    summ_m: list = []

    def block_id(blocks: tuple) -> int:
        bid = block_ids.get(blocks)
        if bid is None:
            bid = block_ids[blocks] = len(block_list)
            block_list.append(blocks)
        return bid

    def summ_id(summ: Optional[tuple]) -> Optional[int]:
        if summ is None:
            return None
        sid = summ_ids.get(summ)
        if sid is None:
            sid = summ_ids[summ] = len(summ_list)
            summ_list.append(summ)
            summ_m.append(summ[0])
        return sid

    def pin_of(deleted: int, v: int) -> tuple:
        """Deleting v next to ``deleted``: the new deleted set, and v's rank
        and neighbour rank mask with the add_pin memo of that pair."""
        bit = 1 << v
        nb = 0
        rest = deleted & ind_nbrs[v]
        while rest:
            low = rest & -rest
            nb |= 1 << (deleted & (low - 1)).bit_count()
            rest ^= low
        rank = (deleted & (bit - 1)).bit_count()
        return deleted | bit, rank, nb, add_pin_memos.setdefault((rank, nb), {})

    def join_summaries(lsid: int, rsid: int, p: int) -> Optional[int]:
        if summ_m[lsid] + summ_m[rsid] - p > k:
            return None
        return summ_id(summary.join(summ_list[lsid], summ_list[rsid]))

    # transition memos for this call (module docstring), all keyed by ids:
    # keep and forget of a kept vertex by vertex, then block id; add_pin by
    # (rank, neighbour rank mask), then summary id, with the (rank, mask) of
    # each (vertex, deleted set) kept too; unpin by rank, then summary id;
    # joins by left id, then right id. None marks a pruned transition
    keep_memos: dict = {}
    forget_memos: dict = {}
    pin_memos: dict = {}
    add_pin_memos: dict = {}
    unpin_memos: dict = {}
    summary_joins: dict = {}
    block_joins: dict = {}

    tables: list[dict] = []
    total_states = 0

    # an entry keeps what it came from: nothing at a leaf, the child key at
    # an introduce or forget node and (left key, right key) at a join
    for nd in nice.nodes:
        table: dict = {}
        put = table.setdefault

        if nd.kind == LEAF:
            put((0, block_id(()), summ_id(summary.empty)), ())

        elif nd.kind == INTRODUCE:
            v = nd.vertex
            keep_memo = keep_memos.setdefault(v, {})
            pin_memo = pin_memos.setdefault(v, {})
            deletable = v not in term_bit
            for key in tables[nd.children[0]]:
                deleted, bid, sid = key
                # keep v
                nbid = keep_memo.get(bid)
                if nbid is None:
                    nbid = keep_memo[bid] = block_id(keep_vertex(block_list[bid], v))
                put((deleted, nbid, sid), key)
                # delete v
                if deletable and summ_m[sid] < k:
                    pin = pin_memo.get(deleted)
                    if pin is None:
                        pin = pin_memo[deleted] = pin_of(deleted, v)
                    ndel, rank, nb, add_pin_memo = pin
                    nsid = add_pin_memo.get(sid, _MISSING)
                    if nsid is _MISSING:
                        nsid = add_pin_memo[sid] = summ_id(
                            summary.add_pin(summ_list[sid], rank, nb))
                    if nsid is not None:
                        put((ndel, bid, nsid), key)

        elif nd.kind == FORGET:
            bit = 1 << nd.vertex
            below = bit - 1
            forget_memo = forget_memos.setdefault(nd.vertex, {})
            for key in tables[nd.children[0]]:
                deleted, bid, sid = key
                if deleted & bit:
                    rank = (deleted & below).bit_count()
                    unpin_memo = unpin_memos.setdefault(rank, {})
                    nsid = unpin_memo.get(sid)
                    if nsid is None:
                        nsid = unpin_memo[sid] = summ_id(summary.unpin(summ_list[sid], rank))
                    put((deleted ^ bit, bid, nsid), key)
                else:
                    nbid = forget_memo.get(bid, _MISSING)
                    if nbid is _MISSING:
                        nblocks = forget_kept(block_list[bid], bit)
                        nbid = forget_memo[bid] = (None if nblocks is None
                                                   else block_id(nblocks))
                    if nbid is not None:
                        put((deleted, nbid, sid), key)

        elif nd.kind == JOIN:
            lchild, rchild = nd.children
            by_deleted: dict = {}
            for rkey in tables[rchild]:
                by_deleted.setdefault(rkey[0], []).append(rkey)
            for lkey in tables[lchild]:
                deleted, lbid, lsid = lkey
                summary_memo = summary_joins.setdefault(lsid, {})
                block_memo = block_joins.setdefault(lbid, {})
                for rkey in by_deleted.get(deleted, ()):
                    _, rbid, rsid = rkey
                    nsid = summary_memo.get(rsid, _MISSING)
                    if nsid is _MISSING:
                        nsid = summary_memo[rsid] = join_summaries(lsid, rsid,
                                                                   deleted.bit_count())
                    if nsid is None:
                        continue
                    nbid = block_memo.get(rbid)
                    if nbid is None:
                        nbid = block_memo[rbid] = block_id(
                            join_blocks(block_list[lbid], block_list[rbid]))
                    put((deleted, nbid, nsid), (lkey, rkey))

        tables.append(table)
        total_states += len(table)

    _note("dp_states", total_states, add=True)
    _note("width", nice.width)

    root = tables[-1]
    if not root:
        return None
    # the first root state reached; re-verified by the callers
    return _reconstruct(tables, nice, next(iter(root)))


def _reconstruct(tables, nice, root_key) -> tuple[int, ...]:
    """The deleted set of the solution ending in ``root_key``: the union of
    the deleted masks along its trace, which visits every node, and a
    deleted vertex is marked in every traced state whose bag holds it."""
    deleted = 0
    stack = [(len(nice.nodes) - 1, root_key)]
    while stack:
        idx, key = stack.pop()
        deleted |= key[0]
        nd = nice.nodes[idx]
        back = tables[idx][key]
        if nd.kind == JOIN:
            stack.extend(zip(nd.children, back))
        elif nd.kind != LEAF:
            stack.append((nd.children[0], back))
    return tuple(v for v in range(deleted.bit_length()) if deleted >> v & 1)


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
    for a, targets in cons.reach:
        if all(comp_of.get(b) != comp_of[a] for b in targets):
            return False
    return True


def g_mincut(G: Graph, s: int, t: int, k: int, cls: HereditaryClass
             ) -> Optional[tuple[int, ...]]:
    """Separator of size <= k inducing a member of cls, via the reduced
    graph; NO without a reduction when the minimum separator exceeds k."""
    G.check_vertices((s, t))
    if s == t:
        raise DomainError("terminals must be distinct")
    # oriented as reduce_instance meets the pair, which then reuses it
    r = min_vertex_separator(G, (min(s, t),), (max(s, t),), cap=k)
    _note("ell", int(r.size) if r.is_finite else None)
    _note("excess", k - int(r.size) if r.is_finite else None)
    for key in ("cover_size", "width_bound", "width"):
        _note(key, None)
    # a flow above k proves that every s-t separator is larger than k
    if r.exceeds_cap or G.has_edge(s, t):
        return None
    if k == 0:
        # the flow at cap 0 left s and t disconnected
        if not cls.contains(Graph(0)):
            return None
        return ()
    final = CutConstraints(((s, t),))
    wit = g_multicut_uncut(G, final, k, cls, flow=r)
    if wit is None:
        return None
    S = minimalize_separator(G, wit, (s,), (t,))
    if not verify_solution(G, S, final, k, cls):
        raise VerificationError("reduced-instance witness failed re-verification")
    return S


def g_multicut_uncut(G: Graph, cons: CutConstraints, k: int, cls: HereditaryClass,
                     flow: Optional[SeparatorResult] = None) -> Optional[tuple[int, ...]]:
    """Deletion set separating every cut pair, keeping every uncut pair
    connected and every reach constraint met, inducing a member of cls. Only
    the cut pairs are covered; uncut ends, reach sources and reach targets
    join the cover as vertices (``reduce_instance``). ``flow``, a flow of
    one cut pair from its lower to its higher end, is handed on."""
    for a, b in cons.cut_pairs:
        if a == b or G.has_edge(a, b):
            return None
    uncut = tuple((a, b) for a, b in cons.uncut_pairs if a != b)
    norm = CutConstraints(tuple(cons.cut_pairs), uncut, tuple(cons.reach))
    terms = norm.terminals
    if not norm.cut_pairs:
        # deleting nothing is optimal when nothing must be separated
        if verify_solution(G, (), norm, k, cls):
            return ()
        return None
    targets = [b for _, B in norm.reach for b in B]
    ri = reduce_instance(G, (*terms, *targets), k, pairs=norm.cut_pairs, flow=flow)
    _note("cover_size", len(ri.cover))
    _note("width_bound", ri.width_bound)
    td = decompose(ri.gstar)
    nice = make_nice(td, ri.gstar, root_vertex=ri.to_gstar(min(terms)))
    mapped = CutConstraints(
        tuple((ri.to_gstar(a), ri.to_gstar(b)) for a, b in norm.cut_pairs),
        tuple((ri.to_gstar(a), ri.to_gstar(b)) for a, b in norm.uncut_pairs),
        tuple((ri.to_gstar(a), tuple(map(ri.to_gstar, B))) for a, B in norm.reach))
    wit = dp_constrained_cut(ri.gstar, nice, mapped, k, cls, ri.induced)
    if wit is None:
        return None
    S = ri.map_back(wit)
    if not verify_solution(G, S, norm, k, cls):
        raise VerificationError("reduced-instance witness failed re-verification")
    return S
