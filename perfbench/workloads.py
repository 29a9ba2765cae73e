"""Instance pools of the benchmark workloads, and their seeded copies.

Every workload is a fixed pool of (graph, command) instances built from
fixed generator seeds. The run seed never changes an instance's structure:
every pass writes each graph under a fresh vertex relabelling drawn from
(seed, pass) and runs the commands in a shuffled order. Relabelling
preserves every answer, so the expected answers are stored once
(``expected.json``) and mapped through the permutation; the cost of a run
stays comparable between seeds while the program sees different input files
for every seed.

This module needs nothing outside the standard library, so inputs are written
before ``sepkit`` is imported.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Instance:
    """One CLI command on one pool graph; vertex ids are 0-based."""
    name: str
    graph: str
    command: str
    k: int
    s: Optional[int] = None
    t: Optional[int] = None
    cls: Optional[str] = None
    cut: tuple[tuple[int, int], ...] = ()
    uncut: tuple[tuple[int, int], ...] = ()

    def argv(self, path: str, label: list[int]) -> list[str]:
        """CLI arguments with every vertex relabelled and made 1-based."""
        out = [self.command, "--graph", path]
        if self.s is not None:
            out += ["--s", str(label[self.s] + 1), "--t", str(label[self.t] + 1)]
        if self.cut:
            out += ["--cut", _pairs(self.cut, label)]
        if self.uncut:
            out += ["--uncut", _pairs(self.uncut, label)]
        out += ["--k", str(self.k)]
        if self.cls is not None:
            out += ["--class", self.cls]
        return out


def _pairs(pairs, label) -> str:
    return ",".join(f"{label[a] + 1}:{label[b] + 1}" for a, b in pairs)


@dataclass(frozen=True)
class Workload:
    name: str
    graphs: dict[str, tuple[int, Edges]]
    instances: tuple[Instance, ...]


# -- graph families ---------------------------------------------------------

def _edges(pairs) -> Edges:
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs}))


def grid(rows: int, cols: int) -> tuple[int, Edges]:
    """rows x cols grid; vertex (i, j) is i * cols + j."""
    pairs = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                pairs.append((v, v + 1))
            if i + 1 < rows:
                pairs.append((v, v + cols))
    return rows * cols, _edges(pairs)


def hypercube(d: int) -> tuple[int, Edges]:
    n = 1 << d
    return n, _edges((v, v ^ (1 << b)) for v in range(n) for b in range(d))


def prism_chain(cols: int) -> tuple[int, Edges]:
    """Triangles joined column to column by a perfect matching, plus a
    terminal on each end (ids 3*cols and 3*cols+1) adjacent to its whole end
    triangle. Every minimum separator is a triangle, so no independent
    separator of small size exists."""
    pairs = []
    for j in range(cols):
        a = 3 * j
        pairs += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
        if j + 1 < cols:
            pairs += [(a + r, a + r + 3) for r in range(3)]
    s, t = 3 * cols, 3 * cols + 1
    pairs += [(s, r) for r in range(3)]
    pairs += [(t, 3 * cols - 3 + r) for r in range(3)]
    return 3 * cols + 2, _edges(pairs)


def gnp(n: int, p: float, seed: int) -> tuple[int, Edges]:
    rng = random.Random(seed)
    return n, _edges((i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p)


def near_bipartite(n: int, degree: float, odd: int, seed: int) -> tuple[int, Edges]:
    """Random bipartite graph on halves [0, n/2) and [n/2, n) with the given
    expected degree, plus ``odd`` extra edges inside one half each."""
    rng = random.Random(seed)
    half = n // 2
    p = degree / (n - half)
    pairs = {(i, j) for i in range(half) for j in range(half, n) if rng.random() < p}
    while odd:
        lo, hi = rng.choice(((0, half), (half, n)))
        a, b = sorted(rng.sample(range(lo, hi), 2))
        if (a, b) not in pairs:
            pairs.add((a, b))
            odd -= 1
    return n, _edges(pairs)


# -- the workloads ------------------------------------------------------------

def cut_ladder() -> Workload:
    """Flow-, chain- and cover-heavy separation commands with a cheap DP."""
    graphs = {f"grid3x{c}": grid(3, c) for c in (5, 6, 8, 10, 12, 15, 20)}
    graphs["grid4x4"] = grid(4, 4)
    graphs["prism6"] = prism_chain(6)
    # sparse G(n,p) with two low-degree terminals (found once, fixed here)
    gnps = {"gnp30": (30, 0.1, 30001, 14, 29), "gnp30b": (30, 0.1, 30002, 1, 29),
            "gnp40": (40, 0.075, 40000, 0, 37), "gnp50": (50, 0.06, 50001, 11, 45),
            "gnp50b": (50, 0.06, 50002, 3, 41), "gnp60": (60, 0.05, 60002, 6, 59)}
    for key, (n, p, seed, _s, _t) in gnps.items():
        graphs[key] = gnp(n, p, seed)
    graphs["gnp16"] = gnp(16, 0.25, 79)
    graphs["gnp12"] = gnp(12, 0.25, 121)
    graphs["nb100"] = near_bipartite(100, 4.0, 3, 103)

    def corners(key):
        n = graphs[key][0]
        return 0, n - 1

    inst = []
    # 3x15 and 4x4 at k=5 cost about the same, so the tail percentile falls
    # on one of two steady commands rather than on a gap between them
    for c, k in ((5, 3), (8, 3), (10, 3), (12, 2), (15, 3), (20, 3), (20, 1)):
        s, t = corners(f"grid3x{c}")
        inst.append(Instance(f"gmincut-grid3x{c}-k{k}", f"grid3x{c}", "gmincut",
                             k, s, t, "edgeless"))
    for k in (1, 3, 5):
        inst.append(Instance(f"stable-cut-grid4x4-k{k}", "grid4x4", "stable-cut",
                             k, 0, 15))
    n_prism = graphs["prism6"][0]
    for k in (3, 4):
        inst.append(Instance(f"stable-cut-prism6-k{k}", "prism6", "stable-cut",
                             k, n_prism - 2, n_prism - 1))
    for key, k in (("gnp30", 2), ("gnp30b", 3), ("gnp30b", 4), ("gnp40", 3),
                   ("gnp50", 3), ("gnp50b", 2), ("gnp60", 2)):
        _n, _p, _seed, s, t = gnps[key]
        inst.append(Instance(f"stable-cut-{key}-k{k}", key, "stable-cut", k, s, t))
    # multicut: two cut pairs across the grid, one uncut pair along a row
    for c, k in ((6, 2), (5, 3), (5, 4)):
        n = 3 * c
        inst.append(Instance(f"multicut-grid3x{c}-k{k}", f"grid3x{c}", "multicut", k,
                             cls="any", cut=((0, n - 1), (2, n - 3)), uncut=((0, c - 1),)))
    # exact-c at excess 0 on G(16, 0.25); excess 1 there (k=3) takes 3.7 s a
    # command untraced, 16,093 flows and 552 cover nodes, so excess 1-2 runs
    # on G(12, 0.25), where the oracle also checks the union
    for key, s, t, ks in (("gnp16", 8, 10, (2,)), ("gnp12", 3, 5, (4, 5))):
        for k in ks:
            inst.append(Instance(f"exact-c-{key}-k{k}", key, "exact-c", k, s, t))
    # two bipartization commands keep the problems layer's branch loop and
    # the odd-cycle search measured (their label-sensitive cost made a
    # bipartization workload of its own unsteady)
    inst.append(Instance("stable-bip-nb100-k2", "nb100", "stable-bip", 2))
    inst.append(Instance("exact-stable-bip-nb100-k1", "nb100", "exact-stable-bip", 1))
    return Workload("cut-ladder", graphs, tuple(inst))


def class_dp() -> Workload:
    """Small dense inputs where the connectivity DP dominates."""
    graphs = {"q4": hypercube(4), "q3": hypercube(3), "grid3x6": grid(3, 6),
              "gnp12a": gnp(12, 0.4, 123), "gnp12b": gnp(12, 0.4, 121)}
    inst = []
    all_classes = ("any", "forest", "bipartite", "maxdeg:1")
    # 27 instances: the median falls among the Q4 distance-2 commands and the
    # tail percentile among the Q4 distance-3/4 ones, both steady groups.
    # Q4 stays at k=4 (0.3 s): Q4 0->15 at k=5 takes 4.6 s untraced, with
    # 38,603 flows and 14,706 DP states, mostly in separation, not the DP
    plan = (("q4", 0, 15, 4, all_classes), ("q4", 0, 7, 4, all_classes),
            ("q4", 1, 14, 4, ("any", "maxdeg:1")), ("q4", 0, 3, 4, all_classes),
            ("q3", 0, 7, 5, ("any", "forest", "bipartite")),
            ("q3", 0, 7, 7, ("any", "forest", "bipartite")),
            ("gnp12a", 5, 9, 4, ("maxdeg:1",)), ("gnp12a", 5, 9, 5, ("any", "bipartite")),
            ("gnp12b", 2, 4, 6, ("any", "bipartite", "maxdeg:1")),
            ("grid3x6", 0, 17, 6, ("any",)))
    for key, s, t, k, classes in plan:
        for cls in classes:
            inst.append(Instance(f"gmincut-{key}-{s}-{t}-k{k}-{cls.replace(':', '')}", key,
                                 "gmincut", k, s, t, cls))
    return Workload("class-dp", graphs, tuple(inst))


WORKLOADS = {"cut-ladder": cut_ladder, "class-dp": class_dp}


# -- seeded copies ------------------------------------------------------------

def graph_text(n: int, edges: Edges) -> str:
    lines = [f"p {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def fingerprint(n: int, edges: Edges) -> str:
    return hashlib.sha256(graph_text(n, edges).encode()).hexdigest()[:16]


def relabelling(n: int, rng: random.Random) -> list[int]:
    """label[v] is the new id of pool vertex v."""
    label = list(range(n))
    rng.shuffle(label)
    return label


def relabel(n: int, edges: Edges, label: list[int]) -> Edges:
    return _edges((label[u], label[v]) for u, v in edges)
