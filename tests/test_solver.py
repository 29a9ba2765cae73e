import functools
import importlib
import inspect
import itertools
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepkit
import sepkit.reduction
import sepkit.separation
import sepkit.solver
from sepkit.graphs import (DomainError, Graph, components, induced_subgraph,
                           two_coloring, vset)
from sepkit.oracle import (FIXTURES, bf_g_mincut, bf_max_matching_size,
                           bf_multicut_uncut, complete_graph, cycle_graph,
                           path_graph, _separates)
from sepkit.reduction import reduce_instance
from sepkit.solver import (ANY, BIPARTITE, EDGELESS, FOREST, MATCH_DEFICIENCY,
                           MAX_DEGREE, FORBIDDEN_INDUCED, CutConstraints,
                           HereditaryClass, VerificationError,
                           collect, decode_graph6, _canon, _note,
                           dp_constrained_cut, g_mincut,
                           g_multicut_uncut, matching_deficiency,
                           maximum_matching, parse_class, verify_solution)
from sepkit.treedecomp import FORGET, INTRODUCE, JOIN, LEAF, decompose, make_nice

from strategies import graphs, grid, seeded_graphs

P3 = FIXTURES["P3"].graph
C4 = FIXTURES["C4"].graph
D4 = FIXTURES["D4"].graph


def _nice(G, root=0):
    return make_nice(decompose(G), G, root_vertex=root)


def test_dp_examples():
    wit = dp_constrained_cut(P3, _nice(P3), CutConstraints(((0, 2),)), 1, EDGELESS)
    assert wit == (1,)
    wit = dp_constrained_cut(C4, _nice(C4), CutConstraints(((0, 2),)), 2, EDGELESS)
    assert wit == (1, 3)
    assert dp_constrained_cut(D4, _nice(D4), CutConstraints(((0, 2),)), 2, EDGELESS) is None


def test_dp_judges_class_on_induced_graph():
    # D4 is C4 plus the chord 1-3, which joins blocks but is no edge of the
    # class graph C4
    cons = CutConstraints(((0, 2),))
    assert dp_constrained_cut(D4, _nice(D4), cons, 2, EDGELESS) is None
    wit = dp_constrained_cut(D4, _nice(D4), cons, 2, EDGELESS, C4)
    assert wit == (1, 3) and induced_subgraph(C4, wit).graph == Graph(2)


def test_dp_refuses_induced_graph_outside_g():
    # induced must span G's vertices and hold only edges of G; any other
    # graph is refused rather than used to judge the deleted set
    P5 = path_graph(5)
    cons = CutConstraints(((0, 4),))
    for induced in (Graph(3), Graph(6), Graph(5, [(1, 3)])):
        with pytest.raises(DomainError):
            dp_constrained_cut(P5, _nice(P5), cons, 2, EDGELESS, induced)
    assert dp_constrained_cut(P5, _nice(P5), cons, 2, EDGELESS, Graph(5)) is not None


def test_dp_validates_decomposition():
    with pytest.raises(DomainError):
        dp_constrained_cut(C4, _nice(P3), CutConstraints(((0, 2),)), 1, EDGELESS)


def test_dp_stats_populated():
    with collect() as stats:
        dp_constrained_cut(C4, _nice(C4), CutConstraints(((0, 2),)), 2, EDGELESS)
    assert stats["dp_states"] > 0 and stats["width"] == 2


def _twin_dp(G, nice, cons, k, cls, induced=None):
    """Reference twin of dp_constrained_cut: one plain loop over tuple
    states (deleted vertices, blocks as (vertices, marks) tuples, summary),
    no memos and no ids, with the library's transition order. A mark is
    ("t", v) for terminal v and ("r", i) for a target of reach constraint i.
    Returns (witness or None, states visited)."""
    induced = G if induced is None else induced
    terminals = set(cons.terminals)
    ops = cls.summary
    k = min(k, G.n - len(terminals))

    def marks_of(v):
        out = {("t", v)} if v in terminals else set()
        return out | {("r", i) for i, (_, B) in enumerate(cons.reach) if v in B}

    def finished_ok(m):
        return (not any(("t", a) in m and ("t", b) in m for a, b in cons.cut_pairs)
                and not any((("t", a) in m) != (("t", b) in m) for a, b in cons.uncut_pairs)
                and not any(("t", a) in m and ("r", i) not in m
                            for i, (a, _) in enumerate(cons.reach)))

    def block(verts, m):
        return (tuple(sorted(verts)), tuple(sorted(m)))

    tables = []
    for nd in nice.nodes:
        table = {}

        def put(key, back):
            if key not in table:
                table[key] = back

        if nd.kind == LEAF:
            put(((), (), ops.empty), ())
        elif nd.kind == INTRODUCE:
            v = nd.vertex
            for key in tables[nd.children[0]]:
                deleted, blocks, summ = key
                verts, m, rest = {v}, marks_of(v), []
                for bv, bm in blocks:
                    if any(G.has_edge(u, v) for u in bv):
                        verts.update(bv)
                        m.update(bm)
                    else:
                        rest.append((bv, bm))
                put((deleted, tuple(sorted(rest + [block(verts, m)])), summ), key)
                if v not in terminals and summ[0] < k:
                    rank = sum(1 for u in deleted if u < v)
                    nb = sum(1 << i for i, u in enumerate(deleted) if induced.has_edge(u, v))
                    nsumm = ops.add_pin(summ, rank, nb)
                    if nsumm is not None:
                        put((tuple(sorted(deleted + (v,))), blocks, nsumm), key)
        elif nd.kind == FORGET:
            v = nd.vertex
            for key in tables[nd.children[0]]:
                deleted, blocks, summ = key
                if v in deleted:
                    put((tuple(u for u in deleted if u != v), blocks,
                         ops.unpin(summ, deleted.index(v))), key)
                    continue
                rest, ok = [], True
                for bv, bm in blocks:
                    if v not in bv:
                        rest.append((bv, bm))
                    elif len(bv) > 1:
                        rest.append((tuple(u for u in bv if u != v), bm))
                    else:
                        ok = finished_ok(set(bm))
                if ok:
                    put((deleted, tuple(sorted(rest)), summ), key)
        else:
            lchild, rchild = nd.children
            for lkey in tables[lchild]:
                for rkey in tables[rchild]:
                    deleted = lkey[0]
                    if rkey[0] != deleted or lkey[2][0] + rkey[2][0] - len(deleted) > k:
                        continue
                    nsumm = ops.join(lkey[2], rkey[2])
                    if nsumm is None:
                        continue
                    out = list(lkey[1])
                    for bv, bm in rkey[1]:
                        verts, m, rest = set(bv), set(bm), []
                        for ov, om in out:
                            if verts & set(ov):
                                verts.update(ov)
                                m.update(om)
                            else:
                                rest.append((ov, om))
                        out = rest + [block(verts, m)]
                    put((deleted, tuple(sorted(out)), nsumm), (lkey, rkey))
        tables.append(table)
    states = sum(map(len, tables))
    if not tables[-1]:
        return None, states
    deleted, stack = set(), [(len(tables) - 1, next(iter(tables[-1])))]
    while stack:
        idx, key = stack.pop()
        deleted.update(key[0])
        back = tables[idx][key]
        kids = nice.nodes[idx].children
        stack.extend(zip(kids, back) if len(kids) == 2 else zip(kids, [back]))
    return tuple(sorted(deleted)), states


TWIN_CLASSES = ("any", "edgeless", "forest", "bipartite", "maxdeg:1", "matchdef:1",
                "forbid:Bw")


def test_dp_matches_plain_loop_twin():
    # the interned ids and transition memos of dp_constrained_cut leave its
    # states, their order and its witness those of the plain loop
    kinds = {"uncut": 0, "reach": 0, "induced": 0, "yes": 0}
    for i, (G, rng) in enumerate(seeded_graphs(360, seed=83, n_lo=3, n_hi=12,
                                               ps=(0.2, 0.3, 0.45, 0.6))):
        cls = parse_class(TWIN_CLASSES[i % len(TWIN_CLASSES)])
        vs = range(G.n)
        apart = [(a, b) for a, b in itertools.combinations(vs, 2) if not G.has_edge(a, b)]
        if not apart:
            continue
        cut = tuple(rng.sample(apart, min(len(apart), rng.randint(1, 2))))
        uncut = tuple(tuple(rng.sample(vs, 2)) for _ in range(rng.choice((0, 0, 1, 2))))
        reach = tuple((rng.choice(vs), tuple(rng.sample(vs, rng.randint(1, 3))))
                      for _ in range(rng.choice((0, 0, 1, 2))))
        cons = CutConstraints(cut, uncut, reach)
        induced = None
        if rng.random() < 0.3:
            induced = Graph(G.n, [e for e in G.edges() if rng.random() < 0.7])
        nice = make_nice(decompose(G), G, root_vertex=rng.randrange(G.n))
        k = rng.randint(0, 4)
        with collect() as stats:
            wit = dp_constrained_cut(G, nice, cons, k, cls, induced)
        assert (wit, stats["dp_states"]) == _twin_dp(G, nice, cons, k, cls, induced), \
            (G.edges(), cons, k, cls)
        kinds["uncut"] += bool(uncut)
        kinds["reach"] += bool(reach)
        kinds["induced"] += induced is not None
        kinds["yes"] += wit is not None
    assert min(kinds.values()) >= 60, kinds


def test_g_mincut_examples():
    assert g_mincut(C4, 0, 2, 2, EDGELESS) == (1, 3)
    assert g_mincut(D4, 0, 2, 2, EDGELESS) is None
    assert g_mincut(Graph(2, [(0, 1)]), 0, 1, 5, EDGELESS) is None


def test_g_mincut_k0_by_components():
    assert g_mincut(Graph(3, [(0, 1)]), 0, 2, 0, EDGELESS) == ()
    assert g_mincut(P3, 0, 2, 0, EDGELESS) is None


def test_g_mincut_witness_is_minimal_separator():
    for G, rng in seeded_graphs(40, seed=29, n_lo=5, n_hi=12):
        s, t = rng.sample(range(G.n), 2)
        k = rng.randint(1, 4)
        wit = g_mincut(G, s, t, k, ANY)
        if wit is None:
            continue
        from sepkit.separation import is_separator
        S = wit
        assert is_separator(G, S, (s,), (t,))
        for v in S:
            assert not is_separator(G, set(S) - {v}, (s,), (t,))


def test_g_multicut_examples():
    star = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 3)])
    wit = g_multicut_uncut(star, CutConstraints(((1, 2),), ((1, 3),)), 1, EDGELESS)
    assert wit == (0,)
    # uncut-only at k=0: yes iff pairs already connected
    assert g_multicut_uncut(star, CutConstraints((), ((1, 3),)), 0, EDGELESS) == ()
    assert g_multicut_uncut(Graph(2), CutConstraints((), ((0, 1),)), 0, EDGELESS) is None
    # adjacent cut pair is immediately infeasible
    assert g_multicut_uncut(star, CutConstraints(((0, 1),)), 3, EDGELESS) is None


def test_g_multicut_shared_terminals_evaluated_independently():
    # same pair as cut and uncut can never be satisfied
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    cons = CutConstraints(((0, 3),), ((0, 3),))
    assert g_multicut_uncut(g, cons, 2, ANY) is None
    # sharing one endpoint is fine
    cons = CutConstraints(((0, 3),), ((0, 1),))
    wit = g_multicut_uncut(g, cons, 1, ANY)
    assert wit is not None and wit == (2,)


BUILTIN_CLASSES = (EDGELESS, ANY, FOREST, BIPARTITE, MAX_DEGREE(0), MAX_DEGREE(1),
                   MAX_DEGREE(2))


def test_class_summaries_match_form_twin():
    # a class built from its membership test alone keeps the canonical form
    # of the deleted set's graph: the reference twin of each summary
    twins = [HereditaryClass(cls.name, cls.membership) for cls in BUILTIN_CLASSES]
    graphs = itertools.chain(seeded_graphs(320, seed=31, n_lo=5, n_hi=14),
                             seeded_graphs(80, seed=32, n_lo=15, n_hi=40,
                                           ps=(0.08, 0.12, 0.18)))
    for G, rng in graphs:
        s, t = rng.sample(range(G.n), 2)
        k = rng.randint(1, 5 if G.n <= 14 else 4)
        for cls, twin in zip(BUILTIN_CLASSES, twins):
            fast = g_mincut(G, s, t, k, cls)
            assert (fast is None) == (g_mincut(G, s, t, k, twin) is None), (cls, G, s, t, k)
            if fast is not None:
                assert verify_solution(G, fast, CutConstraints(((s, t),)), k, cls)
            if G.n <= 14:
                assert (fast is None) == (bf_g_mincut(G, s, t, k, cls.membership) is None)


def _summaries_along(H, nice, cls):
    """Run the summary operations of cls over a nice decomposition of H with
    every vertex deleted: per node, the vertices introduced below it and
    their summary (None once rejected)."""
    ops, nbrs = cls.summary, [frozenset(a) for a in H.adj]
    out = []
    for nd in nice.nodes:
        kids = [out[c] for c in nd.children]
        if nd.kind == LEAF:
            seen, summ = frozenset(), ops.empty
        elif nd.kind == JOIN:
            (lseen, lsumm), (rseen, rsumm) = kids
            seen = lseen | rseen
            summ = None if None in (lsumm, rsumm) else ops.join(lsumm, rsumm)
        else:
            [(seen, summ)] = kids
            child_bag = nice.nodes[nd.children[0]].bag
            if nd.kind == INTRODUCE:
                seen = seen | {nd.vertex}
                if summ is not None:
                    rank = sum(1 for u in child_bag if u < nd.vertex)
                    nb = sum(1 << i for i, u in enumerate(child_bag) if u in nbrs[nd.vertex])
                    summ = ops.add_pin(summ, rank, nb)
            elif summ is not None:
                summ = ops.unpin(summ, child_bag.index(nd.vertex))
        out.append((seen, summ))
    return out


def test_class_summaries_decide_membership_at_every_node():
    # each node's summary rejects exactly when the graph introduced below it
    # leaves the class; at joins both sides hold the pin-pin edges
    for G, rng in seeded_graphs(150, seed=53, n_lo=1, n_hi=9, ps=(0.2, 0.35, 0.5)):
        nice = make_nice(decompose(G), G, root_vertex=rng.randrange(G.n))
        for cls in BUILTIN_CLASSES:
            for seen, summ in _summaries_along(G, nice, cls):
                assert (summ is not None) == cls.contains(induced_subgraph(G, seen).graph)
                assert summ is None or summ[0] == len(seen)


def _pin_components(G, seen, pins):
    """Each component of G[seen] that holds pins, as its 2-colouring
    restricted to the pins: (side of its lowest pin, other side)."""
    sub = induced_subgraph(G, seen)
    black, white = (set(sub.map_back(side)) for side in two_coloring(sub.graph))
    out = set()
    for comp in components(sub.graph):
        held = set(sub.map_back(comp)) & set(pins)
        if held:
            first = black if min(held) in black else white
            out.add((frozenset(held & first), frozenset(held - first)))
    return out


def test_class_summaries_record_components_and_sides():
    # at every node the forest summary holds the pins' partition by
    # component of the graph introduced below it, and the bipartite summary
    # each such component's 2-colouring, both as rank masks over the bag
    for G, rng in seeded_graphs(150, seed=59, n_lo=1, n_hi=9, ps=(0.2, 0.35, 0.5)):
        nice = make_nice(decompose(G), G, root_vertex=rng.randrange(G.n))
        for cls in (FOREST, BIPARTITE):
            for nd, (seen, summ) in zip(nice.nodes, _summaries_along(G, nice, cls)):
                if summ is None:
                    continue
                pins = sorted(nd.bag)

                def held(mask):
                    return frozenset(v for i, v in enumerate(pins) if mask >> i & 1)

                comps = summ[2] if cls is FOREST else summ[1]
                assert comps == tuple(sorted(comps))
                want = _pin_components(G, seen, pins)
                if cls is FOREST:
                    assert {held(c) for c in comps} == {a | b for a, b in want}
                else:
                    assert {(held(a), held(b)) for a, b in comps} == want


def test_class_summaries_fix_the_pin_count():
    # the join memo is keyed by the two summaries, so equal vertex counts
    # with different pin counts must give different summaries
    for cls in BUILTIN_CLASSES:
        ops = cls.summary
        two_pins = ops.add_pin(ops.add_pin(ops.empty, 0, 0), 1, 0)
        no_pins = ops.unpin(ops.unpin(two_pins, 1), 0)
        assert two_pins[0] == no_pins[0] == 2 and two_pins != no_pins
        assert ops.join(two_pins, two_pins)[0] == 2


def test_gadget_vertices_never_in_witnesses():
    for G, rng in seeded_graphs(30, seed=37, n_lo=5, n_hi=10):
        s, t = rng.sample(range(G.n), 2)
        wit = g_mincut(G, s, t, 3, ANY)
        if wit is not None:
            assert set(wit) <= set(range(G.n))


def test_builtin_classes_membership():
    assert EDGELESS.contains(Graph(3))
    assert not EDGELESS.contains(P3)
    assert FOREST.contains(P3) and not FOREST.contains(cycle_graph(3))
    assert BIPARTITE.contains(C4) and not BIPARTITE.contains(cycle_graph(5))
    assert MAX_DEGREE(1).contains(Graph(4, [(0, 1), (2, 3)]))
    assert not MAX_DEGREE(1).contains(P3)
    assert MATCH_DEFICIENCY(2).contains(P3)    # 3 vertices, matching size 1
    assert not MATCH_DEFICIENCY(1).contains(P3)
    assert ANY.contains(complete_graph(5))


def check_hereditary(cls: HereditaryClass, max_n: int = 5) -> bool:
    """Closure under vertex deletion, checked on all graphs with at most
    max_n vertices."""
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


def test_builtin_classes_are_hereditary():
    # spot-validation over every graph with at most five vertices
    for cls in (EDGELESS, ANY, FOREST, BIPARTITE, MAX_DEGREE(1),
                MAX_DEGREE(2), MATCH_DEFICIENCY(0), MATCH_DEFICIENCY(2),
                FORBIDDEN_INDUCED([cycle_graph(3)])):
        assert check_hereditary(cls), cls.name


def test_check_hereditary_detects_violations():
    fixed_size = HereditaryClass("exactly-two", lambda H: H.n == 2)
    assert not check_hereditary(fixed_size, max_n=3)


def test_budget_cannot_exceed_class_max_check():
    cramped = HereditaryClass("cramped", lambda H: True, max_check=2)
    P5 = path_graph(5)
    with pytest.raises(DomainError):
        dp_constrained_cut(P5, _nice(P5), CutConstraints(((0, 4),)), 3, cramped)
    # the budget is first clamped to the deletable vertices (one, on P3)
    wit = dp_constrained_cut(P3, _nice(P3), CutConstraints(((0, 2),)), 3, cramped)
    assert wit == (1,)
    with pytest.raises(DomainError):
        cramped.contains(complete_graph(4))


def test_only_exponential_checkers_cap_their_graphs():
    for sel in ("edgeless", "any", "forest", "bipartite", "maxdeg:2"):
        assert parse_class(sel).max_check is None, sel
    assert parse_class("matchdef:1").max_check == 20
    assert parse_class("forbid:Bw").max_check == 12


def test_budget_above_64_on_uncapped_class():
    # K_{2,70}: the only separator is all 70 middle vertices; this raised
    # "budget 70 exceeds class max_check 64" while every class had a cap
    G = Graph(72, [(a, v) for a in (0, 1) for v in range(2, 72)])
    wit = g_mincut(G, 0, 1, 70, EDGELESS)
    assert wit is not None and wit == tuple(range(2, 72))


def _canon_reference(m, p, edges):
    """The canonical form by brute force over every permutation of the
    free vertices, isolated ones included."""
    best = None
    for perm in itertools.permutations(range(p, m)):
        remap = list(range(p)) + list(perm)
        cand = tuple(sorted(tuple(sorted((remap[a], remap[b]))) for a, b in edges))
        if best is None or cand < best:
            best = cand
    return (m, p, best)


def test_canon_matches_full_permutation_search():
    rng = random.Random(59)
    for _ in range(5000):
        m = rng.randint(0, 7)
        p = rng.randint(0, m)
        pairs = list(itertools.combinations(range(m), 2))
        edges = tuple(rng.sample(pairs, rng.randint(0, min(len(pairs), 7))))
        assert _canon.__wrapped__(m, p, edges) == _canon_reference(m, p, edges)


def test_forbidden_induced():
    no_triangle = FORBIDDEN_INDUCED([cycle_graph(3)])
    assert no_triangle.contains(C4)
    assert not no_triangle.contains(complete_graph(3))
    assert not no_triangle.contains(complete_graph(4))


def _maximum_matching_reference(G):
    """Reference twin of maximum_matching's reconstruction: after every
    matched edge, rescan from vertex 0 for the first (v, w), v and then w
    ascending, that keeps the maximum."""
    @functools.lru_cache(maxsize=None)
    def best(alive):
        for v in range(G.n):
            nb = [w for w in G.adj[v] if alive >> w & 1] if alive >> v & 1 else []
            if nb:
                rest = alive & ~(1 << v)
                return max([best(rest)] + [1 + best(rest & ~(1 << w)) for w in nb])
        return 0

    matching = []
    alive = (1 << G.n) - 1
    while best(alive):
        target = best(alive)
        v, w = next((v, w) for v in range(G.n) if alive >> v & 1
                    for w in sorted(G.adj[v])
                    if alive >> w & 1 and 1 + best(alive & ~(1 << v) & ~(1 << w)) == target)
        matching.append((v, w))
        alive &= ~(1 << v) & ~(1 << w)
    return tuple(matching)


def test_maximum_matching_matches_reference():
    # the edges themselves, not only their number, become eivc witnesses
    for G, _rng in seeded_graphs(600, seed=71, n_lo=0, n_hi=16,
                                 ps=(0.1, 0.2, 0.3, 0.5, 0.8)):
        assert maximum_matching(G) == _maximum_matching_reference(G)


def test_matching_helpers():
    for G, rng in seeded_graphs(40, seed=41, n_lo=1, n_hi=8,
                                ps=(0.2, 0.5, 0.8)):
        M = maximum_matching(G)
        assert len(M) == bf_max_matching_size(G)
        used = [v for e in M for v in e]
        assert len(used) == len(set(used))
        for u, v in M:
            assert G.has_edge(u, v)
        assert matching_deficiency(G) == G.n - len(M)


def test_decode_graph6():
    g = decode_graph6("A_")   # n=2, single edge
    assert g.n == 2 and g.m == 1
    g = decode_graph6("Bw")   # n=3, bits 111: the triangle
    assert g.n == 3 and g.m == 3
    g = decode_graph6("Bg")   # n=3, bits 101: the path
    assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]
    with pytest.raises(DomainError):
        decode_graph6("")


def test_parse_class():
    assert parse_class("edgeless") is EDGELESS
    assert parse_class("forest") is FOREST
    assert parse_class("maxdeg:2").contains(cycle_graph(4))
    assert parse_class("maxdeg:1") is parse_class("maxdeg:1")
    assert parse_class("matchdef:1").name == "matchdef:1"
    assert not parse_class("forbid:Bw").contains(decode_graph6("Bw"))
    with pytest.raises(DomainError):
        parse_class("nosuch")


@pytest.mark.parametrize("selector", ["maxdeg:x", "maxdeg:", "maxdeg:-1",
                                      "matchdef:", "matchdef:1.5", "matchdef:-2"])
def test_parse_class_rejects_bad_parameter(selector):
    with pytest.raises(DomainError):
        parse_class(selector)


def test_failed_reverification_raises_verification_error(monkeypatch):
    monkeypatch.setattr(sepkit.solver, "verify_solution", lambda *args: False)
    with pytest.raises(VerificationError):
        g_mincut(C4, 0, 2, 2, EDGELESS)
    with pytest.raises(VerificationError):
        g_multicut_uncut(C4, CutConstraints(((0, 2),)), 2, EDGELESS)


def _gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p])


Q3 = FIXTURES["Q3"].graph


# (graph, s, t, k, class) -> (dp_states, width, witness); on a fixed
# decomposed graph any change to a state count is a bug. The rows were
# re-recorded when the DP moved from the gadget replacement graph to the torso
# of the cover, and again when class summaries replaced canonical forms: the
# summary of `any` is the deleted count alone, and those of forest, bipartite
# and maxdeg:1 forget the free vertices' edges, so equal summaries merge
# states the forms kept apart. Widths and witnesses stayed the same. The two
# grid 3x6 k=7 rows had 30,462 (`any`) and 23,928 (`forest`) states with forms.
@pytest.mark.parametrize("G, s, t, k, cls, want", [
    (Q3, 0, 7, 5, "any", (351, 3, (3, 5, 6))),
    (Q3, 0, 7, 5, "forest", (373, 3, (3, 5, 6))),
    (Q3, 0, 7, 5, "bipartite", (373, 3, (3, 5, 6))),
    (Q3, 0, 7, 5, "maxdeg:1", (299, 3, (3, 5, 6))),
    (_gnp(12, 0.4, 123), 5, 9, 5, "any", (796, 6, (7, 8, 10))),
    (_gnp(12, 0.4, 123), 5, 9, 5, "bipartite", (596, 6, (7, 8, 10))),
    (_gnp(12, 0.4, 123), 5, 9, 4, "maxdeg:1", (235, 5, None)),
    (_gnp(12, 0.4, 121), 2, 4, 5, "any", (1009, 4, (3, 5, 9, 10))),
    (grid(3, 6), 0, 17, 4, "any", (1835, 3, (2, 8, 14))),
    (grid(3, 6), 0, 17, 7, "any", (3245, 3, (2, 8, 14))),
    (grid(3, 6), 0, 17, 7, "forest", (3319, 3, (2, 8, 14))),
    # a torso of 90 vertices: deleted sets and blocks past one machine word
    (grid(3, 30), 0, 89, 3, "edgeless", (5684, 3, (2, 33, 62))),
    (grid(3, 30), 0, 89, 3, "bipartite", (7446, 3, (2, 32, 62))),
    # classes by membership alone keep canonical forms
    (Q3, 0, 7, 5, "matchdef:1", (141, 3, None)),
    (_gnp(12, 0.4, 121), 4, 7, 4, "matchdef:1", (343, 4, (10,))),
    (Q3, 0, 7, 5, "forbid:Bw", (452, 3, (3, 5, 6))),
    (grid(3, 6), 0, 17, 4, "forbid:Bw,CF", (4353, 3, (2, 8, 14))),
])
def test_dp_state_counts_pinned(G, s, t, k, cls, want):
    with collect() as stats:
        wit = g_mincut(G, s, t, k, parse_class(cls))
    got = (stats["dp_states"], stats["width"], None if wit is None else wit)
    assert got == want


@settings(max_examples=50, deadline=None)
@given(graphs(min_n=3, max_n=8), st.data())
def test_mincut_matches_oracle_hypothesis(G, data):
    s = data.draw(st.integers(0, G.n - 1))
    t = data.draw(st.integers(0, G.n - 1).filter(lambda v: v != s))
    k = data.draw(st.integers(0, 3))
    cls = data.draw(st.sampled_from([EDGELESS, FOREST, MAX_DEGREE(1)]))
    fast = g_mincut(G, s, t, k, cls)
    slow = bf_g_mincut(G, s, t, k, cls.membership)
    assert (fast is None) == (slow is None)
    if fast is not None:
        from sepkit.separation import is_separator
        assert is_separator(G, fast, (s,), (t,))
        assert len(fast) <= k
        assert cls.contains(induced_subgraph(G, fast).graph)


def test_mincut_matches_oracle_across_classes():
    classes = [EDGELESS, FOREST, MAX_DEGREE(1), BIPARTITE]
    for i, (G, rng) in enumerate(seeded_graphs(80, seed=43, n_lo=5, n_hi=12)):
        s, t = rng.sample(range(G.n), 2)
        k = rng.randint(0, 4)
        cls = classes[i % len(classes)]
        fast = g_mincut(G, s, t, k, cls)
        slow = bf_g_mincut(G, s, t, k, cls.membership)
        assert (fast is None) == (slow is None)


def test_multicut_matches_oracle():
    for i, (G, rng) in enumerate(seeded_graphs(60, seed=47, n_lo=4, n_hi=10)):
        cut = [tuple(rng.sample(range(G.n), 2))]
        uncut = [tuple(rng.sample(range(G.n), 2))] if G.n >= 4 and rng.random() < 0.7 else []
        k = rng.randint(0, 3)
        fast = g_multicut_uncut(G, CutConstraints(tuple(cut), tuple(uncut)), k, EDGELESS)
        slow = bf_multicut_uncut(G, cut, uncut, k, EDGELESS.membership)
        assert (fast is None) == (slow is None)


def test_multicut_with_uncut_pairs_matches_oracle():
    # a finished component of G - S is judged once, when its block closes:
    # it dies holding both ends of a cut pair or one end of an uncut pair
    classes = [ANY, EDGELESS, FOREST, BIPARTITE]
    yes = 0
    for i, (G, rng) in enumerate(seeded_graphs(600, seed=53, n_lo=6, n_hi=11)):
        apart = [(a, b) for a, b in itertools.combinations(range(G.n), 2)
                 if not G.has_edge(a, b)]
        comp = max(components(G), key=len)
        if not apart or len(comp) < 2:
            continue
        cut = rng.sample(apart, rng.randint(1, min(2, len(apart))))
        together = list(itertools.combinations(sorted(comp), 2))
        uncut = rng.sample(together, rng.randint(1, min(3, len(together))))
        k = rng.randint(1, 4)
        cls = classes[i % len(classes)]
        fast = g_multicut_uncut(G, CutConstraints(tuple(cut), tuple(uncut)), k, cls)
        slow = bf_multicut_uncut(G, cut, uncut, k, cls.membership)
        assert (fast is None) == (slow is None), (G.edges(), cut, uncut, k, cls)
        yes += fast is not None
    assert yes >= 100, yes


def test_reach_constraints_match_oracle():
    # a reach source's block is judged when it closes, like a cut or uncut
    # pair; its targets may be deleted, so they are marks, not terminals.
    # verify_solution is checked on the best solution that ignores reach
    classes = [ANY, EDGELESS, FOREST, BIPARTITE]
    checked = yes = reach_only_fails = 0
    for i, (G, rng) in enumerate(seeded_graphs(1100, seed=71, n_lo=6, n_hi=11)):
        apart = [(a, b) for a, b in itertools.combinations(range(G.n), 2)
                 if not G.has_edge(a, b)]
        if not apart:
            continue
        cut = rng.sample(apart, rng.randint(1, min(2, len(apart))))
        reach = [(rng.randrange(G.n), tuple(rng.sample(range(G.n), rng.randint(1, 3))))
                 for _ in range(rng.randint(1, 2))]
        k = rng.randint(0, 4)
        cls = classes[i % len(classes)]
        cons = CutConstraints(tuple(cut), (), tuple(reach))
        fast = g_multicut_uncut(G, cons, k, cls)
        slow = bf_multicut_uncut(G, cut, (), k, cls.membership, reach)
        assert (fast is None) == (slow is None), (G.edges(), cut, reach, k, cls)
        checked += 1
        yes += fast is not None
        relaxed = bf_multicut_uncut(G, cut, (), k, cls.membership)
        if relaxed is not None:
            kept = not set(relaxed) & {a for a, _ in reach}
            met = kept and all(not _separates(G, relaxed, (a,), B) for a, B in reach)
            assert verify_solution(G, relaxed, cons, k, cls) == met
            reach_only_fails += kept and not met
    assert checked >= 1000 and yes >= 200 and reach_only_fails >= 50, \
        (checked, yes, reach_only_fails)


# k -> (dp_states, width, witness) for a multicut with an uncut pair on grid
# 3x5; a split uncut pair dies when the first of its components closes, so
# a count that rises means a state outlived its verdict
@pytest.mark.parametrize("k, want", [
    (3, (604, 3, None)),
    (4, (847, 3, (7, 9, 11, 13))),
])
def test_multicut_state_counts_pinned(k, want):
    cons = CutConstraints(((0, 14), (2, 12)), ((0, 4),))
    with collect() as stats:
        wit = g_multicut_uncut(grid(3, 5), cons, k, ANY)
    got = (stats["dp_states"], stats["width"], None if wit is None else wit)
    assert got == want


# (cut, uncut, reach, k, class) -> (dp_states, width, witness) on grid 3x6,
# where blocks carry the marks of several terminals and reach constraints
@pytest.mark.parametrize("cut, uncut, reach, k, cls, want", [
    (((0, 17), (2, 15)), (), ((0, (1, 3)), (17, (9, 13))), 4, "forest",
     (1577, 3, (3, 8, 14))),
    (((0, 17), (2, 15)), ((0, 5),), ((17, (1, 15)),), 4, "forest",
     (1004, 3, (9, 10, 11, 14))),
    (((0, 17),), (), ((17, (8, 14)), (0, (4, 6))), 4, "bipartite",
     (2048, 3, (2, 7, 14))),
])
def test_marked_block_state_counts_pinned(cut, uncut, reach, k, cls, want):
    with collect() as stats:
        wit = g_multicut_uncut(grid(3, 6), CutConstraints(cut, uncut, reach), k,
                               parse_class(cls))
    got = (stats["dp_states"], stats["width"], None if wit is None else wit)
    assert got == want


def test_multicut_covers_only_its_cut_pairs(monkeypatch):
    # the uncut end 4 joins the cover as a vertex; covering every terminal
    # pair computed ten top-level covers here
    pairs = []
    cover = sepkit.reduction.cover_set

    def counted(G, s, t, k, flow=None, memo=None):
        if memo is None:
            pairs.append((s, t))
        return cover(G, s, t, k, flow=flow, memo=memo)

    monkeypatch.setattr(sepkit.reduction, "cover_set", counted)
    cons = CutConstraints(((14, 0), (2, 12)), ((0, 4),))
    assert g_multicut_uncut(grid(3, 5), cons, 4, ANY) == (7, 9, 11, 13)
    assert sorted(pairs) == [(0, 14), (2, 12)]


def _minimal_solutions(G, cons, k, cls):
    """Every inclusion-minimal deletion set, by exhaustive search."""
    terms = set(cons.terminals)
    found = []
    for r in range(k + 1):
        for Z in itertools.combinations([v for v in range(G.n) if v not in terms], r):
            if any(set(S) <= set(Z) for S in found):
                continue
            if not cls.contains(induced_subgraph(G, Z).graph):
                continue
            comp = {v: i for i, c in enumerate(components(G, Z)) for v in c}
            if all(comp[a] != comp[b] for a, b in cons.cut_pairs) and \
               all(comp[a] == comp[b] for a, b in cons.uncut_pairs):
                found.append(Z)
    return found


def test_cut_pair_cover_keeps_every_minimal_solution():
    # a minimal solution lies on minimal separators of its cut pairs only, so
    # the cover of the cut pairs plus the other terminals holds it, and the
    # reduced graph's width stays within width_bound
    classes = [ANY, EDGELESS, FOREST, BIPARTITE]
    solved = with_outside = 0
    for i, (G, rng) in enumerate(seeded_graphs(1000, seed=61, n_lo=5, n_hi=10)):
        # ends drawn from four vertices, most of them in one component, so
        # that pairs share ends and uncut pairs can hold
        comp = max(components(G), key=len)
        pool = vset(rng.sample(comp, min(3, len(comp))) + [rng.randrange(G.n)])
        apart = [p for p in itertools.combinations(pool, 2) if not G.has_edge(*p)]
        if not apart:
            continue
        cut = rng.sample(apart, rng.randint(1, min(2, len(apart))))
        rest = [p for p in itertools.combinations(pool, 2) if p not in cut]
        if not rest:
            continue
        uncut = rng.sample(rest, rng.randint(1, min(2, len(rest))))
        cons = CutConstraints(tuple(cut), tuple(uncut))
        k = rng.randint(1, 4)
        cls = classes[i % len(classes)]
        ri = reduce_instance(G, cons.terminals, k, pairs=cons.cut_pairs)
        assert decompose(ri.gstar).width <= ri.width_bound, (G.edges(), cut, uncut, k)
        for Z in _minimal_solutions(G, cons, k, cls):
            assert set(Z) <= set(ri.cover), (G.edges(), cut, uncut, k, cls.name, Z)
            solved += 1
        with_outside += bool(set(cons.terminals).difference(*cut))
    assert solved >= 250 and with_outside >= 600, (solved, with_outside)


def test_g_mincut_runs_one_flow(monkeypatch):
    calls = []
    flow = sepkit.separation.min_vertex_separator

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return flow(*args, **kwargs)

    for module in (sepkit.separation, sepkit.solver):
        monkeypatch.setattr(module, "min_vertex_separator", counted)
    # a cover's layer subproblems are flowed on the layer's PairNetwork
    layer_flow = sepkit.separation.PairNetwork.flow

    def layer_counted(network, na, nb, **kwargs):
        calls.append((na, nb))
        return layer_flow(network, na, nb, **kwargs)

    monkeypatch.setattr(sepkit.separation.PairNetwork, "flow", layer_counted)
    with collect() as stats:
        assert g_mincut(FIXTURES["Q3"].graph, 0, 7, 3, ANY) is not None
    assert calls == [((0,), (7,))]
    assert stats["ell"] == 3 and stats["excess"] == 0


def test_g_mincut_stops_at_a_flow_above_k(monkeypatch):
    # PP's minimum 0-5 separator has size 2: the capped flow proves NO at k=1
    calls = []
    dp = sepkit.solver.dp_constrained_cut

    def counted(*args, **kwargs):
        calls.append(1)
        return dp(*args, **kwargs)

    monkeypatch.setattr(sepkit.solver, "dp_constrained_cut", counted)
    with collect() as stats:
        assert g_mincut(FIXTURES["PP"].graph, 0, 5, 1, ANY) is None
    assert calls == []
    assert stats == dict.fromkeys(("ell", "excess", "cover_size", "width_bound", "width"))


def test_reduce_instance_reuses_given_flow():
    PP = FIXTURES["PP"].graph
    for cap in (1, 2):
        flow = sepkit.separation.min_vertex_separator(PP, (0,), (5,), cap=cap)
        assert reduce_instance(PP, (0, 5), cap, flow=flow) == reduce_instance(PP, (0, 5), cap)
    with pytest.raises(DomainError):
        reduce_instance(PP, (0, 5), 2, flow=sepkit.separation.min_vertex_separator(PP, (5,), (0,)))
    with pytest.raises(DomainError):
        reduce_instance(PP, (0, 5), 2, flow=sepkit.separation.min_vertex_separator(C4, (0,), (2,)))


def test_reduce_instance_refuses_a_flow_of_another_graph():
    # a capped flow of another graph used to be taken for the pair and,
    # having no residual to check, dropped the pair from the cover: NO
    PP = FIXTURES["PP"].graph
    foreign = sepkit.separation.min_vertex_separator(FIXTURES["Q3"].graph, (0,), (7,), cap=2)
    with pytest.raises(DomainError):
        g_multicut_uncut(PP, CutConstraints(((0, 5),)), 2, ANY, flow=foreign)
    with pytest.raises(DomainError):
        reduce_instance(PP, (0, 5), 2, flow=foreign)
    assert g_multicut_uncut(PP, CutConstraints(((0, 5),)), 2, ANY) == (1, 3)


def test_reduce_instance_reruns_a_flow_capped_below_k():
    # a flow that stopped above cap 1 does not decide budget 2
    PP = FIXTURES["PP"].graph
    low = sepkit.separation.min_vertex_separator(PP, (0,), (5,), cap=1)
    assert low.exceeds_cap
    assert reduce_instance(PP, (0, 5), 2, flow=low) == reduce_instance(PP, (0, 5), 2)


# -- the stats collector ------------------------------------------------------------

def test_note_outside_collect_records_nothing():
    _note("ell", 1)
    assert g_mincut(C4, 0, 2, 2, EDGELESS) is not None
    assert sepkit.solver._active_stats.get() is None
    with collect() as stats:
        pass
    assert stats == {}


def test_nested_collect_scopes_do_not_leak():
    with collect() as outer:
        _note("ell", 1)
        with collect() as inner:
            g_mincut(C4, 0, 2, 2, EDGELESS)
        _note("excess", 3)
    assert outer == {"ell": 1, "excess": 3}
    assert inner["ell"] == 2 and inner["dp_states"] > 0
    # dp_states sums over the DPs of one scope; the other keys are overwritten
    with collect() as twice:
        g_mincut(C4, 0, 2, 2, EDGELESS)
        g_mincut(C4, 0, 2, 2, EDGELESS)
    assert twice == {**inner, "dp_states": 2 * inner["dp_states"]}


def test_collect_scope_resets_when_its_body_raises():
    with collect() as outer:
        with pytest.raises(DomainError):
            with collect() as inner:
                _note("ell", 2)
                g_mincut(C4, 0, 0, 2, EDGELESS)
        _note("excess", 3)
    _note("width", 4)
    assert inner == {"ell": 2} and outer == {"excess": 3}


def test_no_function_takes_an_out_parameter():
    # stats travel through collect(), never through an out-parameter
    modules = [sepkit] + [importlib.import_module(f"sepkit.{info.name}")
                          for info in pkgutil.iter_modules(sepkit.__path__)
                          if info.name != "__main__"]
    assert len(modules) > 5
    functions = [fn for module in modules
                 for owner in [module] + [c for _, c in inspect.getmembers(module, inspect.isclass)]
                 for _, fn in inspect.getmembers(owner, inspect.isfunction)]
    assert sepkit.g_mincut in functions and sepkit.Graph.__init__ in functions
    for fn in functions:
        assert not any(name.endswith("_out") for name in inspect.signature(fn).parameters), fn
    assert "collect" in sepkit.__all__
