"""Acceptance suite: every criterion runs at its stated size and tolerance and
prints one pass/fail line. Run with `pytest tests/test_acceptance.py -s`."""

import json
import random
import time
from contextlib import contextmanager

from sepkit.chains import build_chain, validate_chain
from sepkit.cli import run_command
from sepkit.graphs import serialize_graph
from sepkit.oracle import (FIXTURES, RandomModel, bf_edge_induced_vertex_cut,
                           bf_exact_stable_bipartization, bf_g_mincut,
                           bf_multicut_uncut, bf_odd_cycle_transversal,
                           bf_separator_union, bf_stable_bipartization,
                           bf_treewidth, enumerate_minimal_separators,
                           random_graph, _bipartite_after, _independent)
from sepkit.problems import (edge_induced_vertex_cut, exact_separator_union,
                             exact_stable_bipartization, odd_cycle_transversal,
                             stable_bipartization)
from sepkit.reduction import cover_set, reduce_instance, torso, tw_bound
from sepkit.separation import min_vertex_separator
from sepkit.solver import (EDGELESS, FOREST, MATCH_DEFICIENCY, MAX_DEGREE,
                           CutConstraints, g_mincut, g_multicut_uncut)

INF = float("inf")


@contextmanager
def criterion(num, name, limit_s=None):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] C{num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    line = f"[acceptance] C{num:02d} {name}: PASS ({elapsed:.1f}s)"
    print(line)
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s"


def _instances(count, seed, n_lo, n_hi, ps, need_nonadjacent=True):
    """Deterministic instance stream: (graph, s, t, ell, rng)."""
    out = []
    counter = 0
    while len(out) < count:
        s_val = seed * 1_000_003 + counter
        counter += 1
        rng = random.Random(s_val)
        n = rng.randint(n_lo, n_hi)
        G = random_graph(RandomModel(n, rng.choice(ps), s_val))
        if need_nonadjacent:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if not G.has_edge(i, j)]
            if not pairs:
                continue
            s, t = rng.choice(pairs)
        else:
            s, t = rng.sample(range(n), 2)
        r = min_vertex_separator(G, (s,), (t,))
        ell = int(r.size) if r.is_finite else None
        out.append((G, s, t, ell, rng))
    return out


_COVER_INSTANCES = None


def _cover_instances():
    global _COVER_INSTANCES
    if _COVER_INSTANCES is None:
        items = []
        for i, (G, s, t, ell, rng) in enumerate(
                _instances(200, seed=2101, n_lo=6, n_hi=12, ps=(0.2, 0.3, 0.4))):
            e = i % 3
            items.append((G, s, t, ell, e, ell + e))
        _COVER_INSTANCES = items
    return _COVER_INSTANCES


def test_c01_chain_correctness():
    with criterion(1, "chain correctness", limit_s=30):
        done = 0
        counter = 0
        while done < 200:
            seed = 1101 * 1_000_003 + counter
            counter += 1
            rng = random.Random(seed)
            G = random_graph(RandomModel(10, rng.choice((0.2, 0.4)), seed))
            pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)
                     if not G.has_edge(i, j)]
            if not pairs:
                continue
            s, t = rng.choice(pairs)
            chain = build_chain(G, s, t)
            ell = chain.ell
            seps = [S for S in enumerate_minimal_separators(G, s, t, ell)
                    if len(S) == ell]
            assert validate_chain(G, s, t, chain, seps)
            done += 1


def test_c02_cover_completeness():
    with criterion(2, "cover completeness", limit_s=180):
        for G, s, t, ell, e, k in _cover_instances():
            cov = set(cover_set(G, s, t, k))
            assert {s, t} <= cov
            for S in enumerate_minimal_separators(G, s, t, k):
                assert set(S) <= cov


def test_c03_width_bound_at_zero_excess():
    with criterion(3, "torso width bound at excess zero"):
        for G, s, t, ell, e, k in _cover_instances():
            if e != 0 or ell == 0:
                continue
            cov = cover_set(G, s, t, k)
            assert bf_treewidth(torso(G, cov).graph) <= 6 * ell


def test_c04_reduction_preserves_separators():
    with criterion(4, "replacement graph separator family", limit_s=180):
        for i, (G, s, t, ell, rng) in enumerate(
                _instances(150, seed=2401, n_lo=5, n_hi=11, ps=(0.2, 0.35),
                           need_nonadjacent=False)):
            k = 1 + i % 3
            ri = reduce_instance(G, (s, t), k)
            fam_g = set()
            if not G.has_edge(s, t):
                fam_g = {frozenset(S)
                         for S in enumerate_minimal_separators(G, s, t, k)}
            ss, tt = ri.to_gstar(s), ri.to_gstar(t)
            fam_star = set()
            if not ri.gstar.has_edge(ss, tt):
                for S in enumerate_minimal_separators(ri.gstar, ss, tt, k):
                    fam_star.add(frozenset(ri.cover[v] for v in S))
            assert fam_g == fam_star


def test_c05_hypercube_fixture():
    with criterion(5, "hypercube cover"):
        q3 = FIXTURES["Q3"].graph
        assert min_vertex_separator(q3, (0,), (7,)).size == 3
        assert cover_set(q3, 0, 7, 6) == tuple(range(8))


def test_c06_bound_calculators():
    with criterion(6, "bound calculators"):
        assert tw_bound(1, 0).g_value == 6
        assert tw_bound(2, 0).g_value == 12
        assert tw_bound(1, 1).g_value == 195
        assert tw_bound(1, 1).f_value == 10


def test_c07_mincut_oracle_equivalence():
    with criterion(7, "constrained mincut vs brute force", limit_s=300):
        classes = (EDGELESS, FOREST, MAX_DEGREE(1))
        for i, (G, s, t, ell, rng) in enumerate(
                _instances(300, seed=2701, n_lo=6, n_hi=14, ps=(0.15, 0.25, 0.4),
                           need_nonadjacent=False)):
            k = i % 5
            cls = classes[i % 3]
            fast = g_mincut(G, s, t, k, cls)
            slow = bf_g_mincut(G, s, t, k, cls.membership)
            assert (fast is None) == (slow is None)


def test_c08_multicut_uncut():
    with criterion(8, "multicut-uncut vs brute force"):
        for i, (G, s, t, ell, rng) in enumerate(
                _instances(150, seed=2801, n_lo=4, n_hi=10, ps=(0.2, 0.35),
                           need_nonadjacent=False)):
            cut = [tuple(rng.sample(range(G.n), 2))
                   for _ in range(rng.randint(1, 2))]
            uncut = [tuple(rng.sample(range(G.n), 2))
                     for _ in range(rng.randint(0, 2))]
            k = rng.randint(0, 3)
            cons = CutConstraints(tuple(cut), tuple(uncut))
            fast = g_multicut_uncut(G, cons, k, EDGELESS)
            slow = bf_multicut_uncut(G, cut, uncut, k, EDGELESS.membership)
            assert (fast is None) == (slow is None)


def test_c09_bipartization_family():
    with criterion(9, "oct and bipartization vs brute force"):
        for i, (G, s, t, ell, rng) in enumerate(
                _instances(200, seed=2901, n_lo=4, n_hi=12, ps=(0.2, 0.35, 0.5),
                           need_nonadjacent=False)):
            k = i % 5
            oct_fast = odd_cycle_transversal(G, k)
            assert (oct_fast is None) == (bf_odd_cycle_transversal(G, k) is None)
            if oct_fast is not None:
                assert len(oct_fast) <= k and _bipartite_after(G, oct_fast)
            sb = stable_bipartization(G, k)
            assert (sb is None) == (bf_stable_bipartization(G, k) is None)
            if sb is not None:
                assert len(sb) <= k and _independent(G, sb) and _bipartite_after(G, sb)
            ex = exact_stable_bipartization(G, k)
            assert (ex is None) == (bf_exact_stable_bipartization(G, k) is None)
            if ex is not None:
                assert len(ex) == k and _independent(G, ex) and _bipartite_after(G, ex)


def test_c10_edge_induced_vertex_cut():
    with criterion(10, "edge-induced vertex cut"):
        for i, (G, s, t, ell, rng) in enumerate(
                _instances(150, seed=3001, n_lo=4, n_hi=10, ps=(0.2, 0.35),
                           need_nonadjacent=False)):
            k = i % 4
            fast = edge_induced_vertex_cut(G, s, t, k)
            direct = bf_edge_induced_vertex_cut(G, s, t, k)
            reduced = bf_g_mincut(G, s, t, 2 * k, MATCH_DEFICIENCY(k).membership)
            assert (fast is None) == (direct is None)
            assert (direct is None) == (reduced is None)


def test_c11_exact_separator_union():
    with criterion(11, "exact separator union"):
        for i, (G, s, t, ell, rng) in enumerate(
                _instances(100, seed=3101, n_lo=5, n_hi=11, ps=(0.2, 0.35))):
            k = 1 + i % 3
            assert exact_separator_union(G, s, t, k) == bf_separator_union(G, s, t, k)


def test_c12_cli_determinism(tmp_path, capsys):
    with criterion(12, "cli byte determinism"):
        files = {}
        for name, fx in FIXTURES.items():
            p = tmp_path / f"{name.lower()}.gr"
            p.write_text(serialize_graph(fx.graph))
            files[name] = str(p)
        commands = [
            ["minsep", "--graph", files["PP"], "--s", "1", "--t", "6"],
            ["chain", "--graph", files["PP"], "--s", "1", "--t", "6"],
            ["cover", "--graph", files["Q3"], "--s", "1", "--t", "8", "--k", "6"],
            ["reduce", "--graph", files["PP"], "--s", "1", "--t", "6", "--k", "1"],
            ["decompose", "--graph", files["Q3"]],
            ["gmincut", "--graph", files["PP"], "--s", "1", "--t", "6",
             "--k", "3", "--class", "forest"],
            ["multicut", "--graph", files["PP"], "--cut", "1:6",
             "--uncut", "2:4", "--k", "2", "--class", "any"],
            ["stable-cut", "--graph", files["C4"], "--s", "1", "--t", "3", "--k", "2"],
            ["eivc", "--graph", files["C4"], "--s", "1", "--t", "3", "--k", "2"],
            ["oct", "--graph", files["D4"], "--k", "1"],
            ["stable-bip", "--graph", files["D4"], "--k", "2"],
            ["exact-stable-bip", "--graph", files["C4"], "--k", "2"],
            ["exact-c", "--graph", files["PP"], "--s", "1", "--t", "6", "--k", "2"],
            ["selfcheck", "--trials", "10", "--seed", "7",
             "--suites", "minsep,chain,cover"],
        ]
        for argv in commands:
            outputs = set()
            for _ in range(10):
                assert run_command(argv) == 0
                outputs.add(capsys.readouterr().out)
            assert len(outputs) == 1, argv
            json.loads(outputs.pop())
