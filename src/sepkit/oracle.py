"""Brute-force reference implementations, fixtures, and the cross-check harness.

Everything here answers by exhaustive search and is deliberately exponential.
The oracle deliberately builds only on the graph module, never on the fast
solver paths, so that differential tests compare two independent routes.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import namedtuple
from typing import Callable, Iterable, Optional

from .graphs import DomainError, Graph, components, two_coloring, serialize_graph

INF = math.inf
DEFAULT_CAP = 14


class OracleCapError(Exception):
    """Raised when an instance is too large for exhaustive search."""


def _check_cap(G: Graph, cap: int = DEFAULT_CAP) -> None:
    if G.n > cap:
        raise OracleCapError(f"oracle refuses n={G.n} > cap {cap}")


def _separates(G: Graph, S: Iterable[int], A: Iterable[int], B: Iterable[int]) -> bool:
    S_s = set(S)
    A_s = set(A) - S_s
    B_s = set(B) - S_s
    for comp in components(G, S_s):
        cs = set(comp)
        if cs & A_s and cs & B_s:
            return False
    return True


def _independent(G: Graph, S: Iterable[int]) -> bool:
    ss = sorted(set(S))
    return all(not G.has_edge(u, v) for u, v in itertools.combinations(ss, 2))


def _bipartite_after(G: Graph, S: Iterable[int]) -> bool:
    keep = [v for v in range(G.n) if v not in set(S)]
    idx = {v: i for i, v in enumerate(keep)}
    edges = [(idx[u], idx[v]) for u, v in G.edges() if u in idx and v in idx]
    return two_coloring(Graph(len(keep), edges)) is not None


def subsets_by_size(universe: Iterable[int], max_size: int):
    """All subsets of size 0..max_size, ordered by (size, lexicographic)."""
    uni = sorted(set(universe))
    for r in range(min(max_size, len(uni)) + 1):
        yield from itertools.combinations(uni, r)


# -- separator enumeration ---------------------------------------------------

def enumerate_minimal_separators(G: Graph, s: int, t: int, k: int) -> list[tuple[int, ...]]:
    """All inclusion-minimal s-t separators of size at most k."""
    if s == t:
        raise OracleCapError("terminals must be distinct")
    out = []
    candidates = [v for v in range(G.n) if v not in (s, t)]
    for S in subsets_by_size(candidates, k):
        if not _separates(G, S, (s,), (t,)):
            continue
        if all(not _separates(G, set(S) - {v}, (s,), (t,)) for v in S):
            out.append(S)
    return out


def bf_min_separator_size(G: Graph, A: Iterable[int], B: Iterable[int]) -> float:
    A_s, B_s = set(A), set(B)
    if A_s & B_s:
        return INF
    if any(w in B_s for a in A_s for w in G.adj[a]):
        return INF
    candidates = [v for v in range(G.n) if v not in A_s and v not in B_s]
    for S in subsets_by_size(candidates, len(candidates)):
        if _separates(G, S, A_s, B_s):
            return len(S)
    return INF


def bf_max_disjoint_paths(G: Graph, s: int, t: int) -> float:
    """Maximum number of internally vertex-disjoint s-t paths, by path packing."""
    if G.has_edge(s, t):
        return INF
    internal = [v for v in range(G.n) if v not in (s, t)]
    paths: list[frozenset[int]] = []

    def extend(v, used):
        for w in G.adj[v]:
            if w == t:
                paths.append(frozenset(used))
            elif w != s and w not in used:
                extend(w, used | {w})

    extend(s, set())
    paths = sorted(set(paths), key=lambda p: (len(p), sorted(p)))

    best = 0

    def pack(i, used, count):
        nonlocal best
        best = max(best, count)
        if count + len(paths) - i <= best:
            return
        for j in range(i, len(paths)):
            if not (paths[j] & used):
                pack(j + 1, used | paths[j], count + 1)

    pack(0, frozenset(), 0)
    return best


def bf_max_matching_size(G: Graph) -> int:
    """Maximum matching size by branching on the lowest non-isolated vertex."""
    edges = G.edges()
    if not edges:
        return 0

    def rec(alive: frozenset[int]) -> int:
        v = None
        for u in sorted(alive):
            if any(w in alive for w in G.adj[u]):
                v = u
                break
        if v is None:
            return 0
        best = rec(alive - {v})      # v stays unmatched
        for w in G.adj[v]:
            if w in alive:
                best = max(best, 1 + rec(alive - {v, w}))
        return best

    return rec(frozenset(range(G.n)))


def bf_treewidth(G: Graph) -> int:
    """Treewidth by dynamic programming over vertex subsets (Bodlaender et
    al., *On exact algorithms for treewidth*, 2006): the width of S is the
    best over its last vertex v of the width of S - v and the number of
    vertices outside S that v's component in G[S] reaches. The empty graph
    has width -1."""
    _check_cap(G, 16)
    if G.n == 0:
        return -1
    masks = [0] * G.n
    for u, v in G.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u

    def q_degree(S: int, v: int) -> int:
        region = frontier = 1 << v
        reach = 0
        while frontier:
            w = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            reach |= masks[w]
            new = masks[w] & S & ~region
            region |= new
            frontier |= new
        return (reach & ~S & ~(1 << v)).bit_count()

    width = [0] * (1 << G.n)
    for S in range(1, 1 << G.n):
        width[S] = min(max(width[S & ~(1 << v)], q_degree(S & ~(1 << v), v))
                       for v in range(G.n) if S >> v & 1)
    return width[-1]


# -- brute-force problem solvers ---------------------------------------------

def bf_g_mincut(G: Graph, s: int, t: int, k: int,
                member: Callable[[Graph], bool]) -> Optional[tuple[int, ...]]:
    _check_cap(G)
    candidates = [v for v in range(G.n) if v not in (s, t)]
    for S in subsets_by_size(candidates, k):
        if _separates(G, S, (s,), (t,)) and member(_induced(G, S)):
            return S
    return None


def bf_multicut_uncut(G: Graph, cut_pairs, uncut_pairs, k: int,
                      member: Callable[[Graph], bool], reach=()) -> Optional[tuple[int, ...]]:
    """A reach constraint (a, B) keeps a and asks a's component to hold a
    kept vertex of B; the vertices of B may be deleted."""
    _check_cap(G)
    terminals = {v for p in list(cut_pairs) + list(uncut_pairs) for v in p}
    terminals.update(a for a, _ in reach)
    candidates = [v for v in range(G.n) if v not in terminals]
    for S in subsets_by_size(candidates, k):
        if not member(_induced(G, S)):
            continue
        if all(_separates(G, S, (a,), (b,)) for a, b in cut_pairs) and \
           all(a == b or not _separates(G, S, (a,), (b,)) for a, b in uncut_pairs) and \
           all(not _separates(G, S, (a,), B) for a, B in reach):
            return S
    return None


def bf_odd_cycle_transversal(G: Graph, k: int) -> Optional[tuple[int, ...]]:
    _check_cap(G)
    for S in subsets_by_size(range(G.n), k):
        if _bipartite_after(G, S):
            return S
    return None


def bf_stable_bipartization(G: Graph, k: int) -> Optional[tuple[int, ...]]:
    _check_cap(G)
    for S in subsets_by_size(range(G.n), k):
        if _independent(G, S) and _bipartite_after(G, S):
            return S
    return None


def bf_exact_stable_bipartization(G: Graph, k: int) -> Optional[tuple[int, ...]]:
    _check_cap(G)
    for S in itertools.combinations(range(G.n), k):
        if _independent(G, S) and _bipartite_after(G, S):
            return S
    return None


def bf_edge_induced_vertex_cut(G: Graph, s: int, t: int, k: int) -> Optional[tuple]:
    """Edge sets F with |F| <= k whose endpoint set minus the terminals
    separates s from t."""
    _check_cap(G)
    edges = G.edges()
    for r in range(min(k, len(edges)) + 1):
        for F in itertools.combinations(edges, r):
            deleted = {v for e in F for v in e} - {s, t}
            if _separates(G, deleted, (s,), (t,)):
                return F
    return None


def bf_separator_union(G: Graph, s: int, t: int, k: int) -> tuple[int, ...]:
    _check_cap(G)
    out: set[int] = set()
    for S in enumerate_minimal_separators(G, s, t, k):
        out.update(S)
    return tuple(sorted(out))


def _induced(G: Graph, S) -> Graph:
    ss = sorted(set(S))
    idx = {v: i for i, v in enumerate(ss)}
    edges = [(idx[u], idx[v]) for u, v in G.edges() if u in idx and v in idx]
    return Graph(len(ss), edges)


_BF_DISPATCH = {
    "g_mincut": bf_g_mincut,
    "multicut_uncut": bf_multicut_uncut,
    "stable_st_cut": lambda G, s, t, k: bf_g_mincut(G, s, t, k, lambda H: H.m == 0),
    "odd_cycle_transversal": bf_odd_cycle_transversal,
    "stable_bipartization": bf_stable_bipartization,
    "exact_stable_bipartization": bf_exact_stable_bipartization,
    "edge_induced_vertex_cut": bf_edge_induced_vertex_cut,
    "exact_separator_union": bf_separator_union,
}


def brute_force_solve(problem: str, G: Graph, *args, cap: int = DEFAULT_CAP, **kwargs):
    """Exhaustive-search answer with the same semantics as the fast operation."""
    if problem not in _BF_DISPATCH:
        raise ValueError(f"unknown problem {problem!r}")
    _check_cap(G, cap)
    return _BF_DISPATCH[problem](G, *args, **kwargs)


# -- fixtures -----------------------------------------------------------------

class Fixture(namedtuple("Fixture", "name graph s t ell")):
    """A named graph with a terminal pair:

        name: str
        graph: Graph
        s: int
        t: int
        ell: int      # minimum s-t separator size (ground truth)
    """

    __slots__ = ()


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def hypercube(d: int) -> Graph:
    return Graph(1 << d, [(i, i | (1 << b)) for i in range(1 << d)
                          for b in range(d) if not i & (1 << b)])


def _pp_graph() -> Graph:
    # two internally disjoint s-t paths of length 3: s=0, a1=1, a2=2, b1=3, b2=4, t=5
    return Graph(6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)])


FIXTURES = {
    "P3": Fixture("P3", path_graph(3), 0, 2, 1),
    "C4": Fixture("C4", cycle_graph(4), 0, 2, 2),
    "D4": Fixture("D4", Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]), 0, 2, 2),
    "PP": Fixture("PP", _pp_graph(), 0, 5, 2),
    "Q3": Fixture("Q3", hypercube(3), 0, 7, 3),
}


# -- random instances ---------------------------------------------------------

class RandomModel(namedtuple("RandomModel", "n p seed")):
    """G(n, p) drawn from ``seed``:

        n: int
        p: float
        seed: int
    """

    __slots__ = ()


def random_graph(model: RandomModel) -> Graph:
    rng = random.Random(model.seed)
    edges = [(i, j) for i in range(model.n) for j in range(i + 1, model.n)
             if rng.random() < model.p]
    return Graph(model.n, edges)


# -- cross-check harness -------------------------------------------------------

ALL_SUITES = ("minsep", "chain", "cover", "gmincut", "multicut", "oct",
              "stablebip", "exactbip", "eivc", "exactc")


class CheckConfig:
    __slots__ = ("trials", "seed", "n_max", "k_max", "suites")

    def __init__(self, trials: int = 50, seed: int = 0, n_max: int = 9, k_max: int = 3,
                 suites: tuple[str, ...] = ALL_SUITES):
        self.trials = trials
        self.seed = seed
        self.n_max = n_max
        self.k_max = k_max
        self.suites = suites


class CheckReport:
    __slots__ = ("trials", "mismatches", "elapsed")

    def __init__(self):
        self.trials = 0
        self.mismatches: list = []
        self.elapsed: dict = {}

    def record(self, suite: str, G: Graph, params: dict, fast, slow):
        self.mismatches.append({
            "suite": suite,
            "graph": serialize_graph(G),
            "params": params,
            "fast": repr(fast),
            "oracle": repr(slow),
        })

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_jsonable(self, include_elapsed: bool = True) -> dict:
        out = {"trials": self.trials, "mismatches": self.mismatches}
        if include_elapsed:
            out["elapsed"] = dict(self.elapsed)
        return out


def _nonadjacent_pair(G: Graph, rng: random.Random) -> Optional[tuple[int, int]]:
    pairs = [(i, j) for i in range(G.n) for j in range(i + 1, G.n)
             if not G.has_edge(i, j)]
    return rng.choice(pairs) if pairs else None


# forbid:Bo (induced-P3-free: disjoint unions of cliques) is judged on the
# canonical-form path, as matchdef:1 is
GMINCUT_CLASSES = ("edgeless", "any", "forest", "bipartite", "maxdeg:1", "matchdef:1",
                   "forbid:Bo")


def cross_check(config: CheckConfig) -> CheckReport:
    """Run every selected fast/oracle pair over the fixtures plus random
    instances; per-trial seeds derive from the config seed by counter.
    An unknown suite, an empty suite list or a negative trial count raises
    DomainError, so that no run passes with nothing checked; zero trials
    give an empty report.

    An exception in a trial is recorded as a mismatch whose ``fast`` is the
    exception's repr (type and message), with the trial's params so far, and
    the run goes on."""
    from . import chains, problems, separation, solver
    from .reduction import cover_set

    if not config.suites:
        raise DomainError("no suites selected")
    for name in config.suites:
        if name not in ALL_SUITES:
            raise DomainError(f"unknown suite {name!r}; choose from {', '.join(ALL_SUITES)}")
    if config.trials < 0:
        raise DomainError(f"negative trial count {config.trials}")

    report = CheckReport()
    # the running trial's params, for a trial that raises
    current = [{}]

    def trial(**params) -> dict:
        current[0] = params
        return params

    def sample(counter: int, lo: int = 4) -> tuple[Graph, random.Random, int]:
        seed = config.seed * 1_000_003 + counter
        rng = random.Random(seed)
        n = rng.randint(lo, max(lo, config.n_max))
        p = rng.choice((0.2, 0.3, 0.45))
        return random_graph(RandomModel(n, p, seed)), rng, seed

    def run_minsep(G, rng):
        s = rng.randrange(G.n)
        t = rng.choice([v for v in range(G.n) if v != s])
        params = trial(s=s, t=t)
        fast = separation.min_vertex_separator(G, (s,), (t,)).size
        slow = bf_min_separator_size(G, (s,), (t,))
        if fast != slow:
            report.record("minsep", G, params, fast, slow)

    def run_chain(G, rng):
        pair = _nonadjacent_pair(G, rng)
        if pair is None:
            return
        s, t = pair
        params = trial(s=s, t=t)
        ch = chains.build_chain(G, s, t)
        ell = int(separation.min_vertex_separator(G, (s,), (t,)).size)
        seps = [S for S in enumerate_minimal_separators(G, s, t, ell) if len(S) == ell]
        if not chains.validate_chain(G, s, t, ch, seps):
            report.record("chain", G, params, ch, seps)

    def run_cover(G, rng):
        pair = _nonadjacent_pair(G, rng)
        if pair is None:
            return
        s, t = pair
        ell = separation.min_vertex_separator(G, (s,), (t,)).size
        k = int(ell) + rng.randint(0, 2) if ell != INF else rng.randint(1, config.k_max)
        params = trial(s=s, t=t, k=k)
        cov = set(cover_set(G, s, t, k))
        missing = [S for S in enumerate_minimal_separators(G, s, t, k)
                   if not set(S) <= cov]
        if missing or not {s, t} <= cov:
            report.record("cover", G, params, sorted(cov), missing)

    def run_gmincut(G, rng):
        s = rng.randrange(G.n)
        t = rng.choice([v for v in range(G.n) if v != s])
        k = rng.randint(0, config.k_max)
        name = rng.choice(GMINCUT_CLASSES)
        params = trial(s=s, t=t, k=k, cls=name)
        cls = solver.parse_class(name)
        fast = solver.g_mincut(G, s, t, k, cls)
        slow = bf_g_mincut(G, s, t, k, cls.membership)
        if (fast is None) != (slow is None):
            report.record("gmincut", G, params, fast, slow)

    def run_multicut(G, rng):
        # uncut ends, reach sources and reach targets may coincide with
        # cut ends
        def pairs():
            return [tuple(rng.sample(range(G.n), 2)) for _ in range(rng.randint(1, 2))]
        cut, uncut = pairs(), pairs()
        reach = [(rng.randrange(G.n), tuple(rng.sample(range(G.n), rng.randint(1, 3))))
                 for _ in range(rng.randint(0, 2))]
        k = rng.randint(0, config.k_max)
        name = rng.choice(GMINCUT_CLASSES)
        params = trial(cut=cut, uncut=uncut, reach=reach, k=k, cls=name)
        cls = solver.parse_class(name)
        cons = solver.CutConstraints(tuple(cut), tuple(uncut), tuple(reach))
        fast = solver.g_multicut_uncut(G, cons, k, cls)
        slow = bf_multicut_uncut(G, cut, uncut, k, cls.membership, reach)
        if (fast is None) != (slow is None):
            report.record("multicut", G, params, fast, slow)

    def run_oct(G, rng):
        k = rng.randint(0, config.k_max)
        params = trial(k=k)
        fast = problems.odd_cycle_transversal(G, k)
        slow = bf_odd_cycle_transversal(G, k)
        if (fast is None) != (slow is None):
            report.record("oct", G, params, fast, slow)

    def run_stablebip(G, rng):
        k = rng.randint(0, config.k_max)
        params = trial(k=k)
        fast = problems.stable_bipartization(G, k)
        slow = bf_stable_bipartization(G, k)
        if (fast is None) != (slow is None):
            report.record("stablebip", G, params, fast, slow)

    def run_exactbip(G, rng):
        k = rng.randint(0, config.k_max)
        params = trial(k=k)
        fast = problems.exact_stable_bipartization(G, k)
        slow = bf_exact_stable_bipartization(G, k)
        if (fast is None) != (slow is None):
            report.record("exactbip", G, params, fast, slow)

    def run_eivc(G, rng):
        s = rng.randrange(G.n)
        t = rng.choice([v for v in range(G.n) if v != s])
        k = rng.randint(0, min(2, config.k_max))
        params = trial(s=s, t=t, k=k)
        fast = problems.edge_induced_vertex_cut(G, s, t, k)
        slow = bf_edge_induced_vertex_cut(G, s, t, k)
        if (fast is None) != (slow is None):
            report.record("eivc", G, params, fast, slow)

    def run_exactc(G, rng):
        pair = _nonadjacent_pair(G, rng)
        if pair is None:
            return
        s, t = pair
        k = rng.randint(1, config.k_max)
        params = trial(s=s, t=t, k=k)
        fast = problems.exact_separator_union(G, s, t, k)
        slow = bf_separator_union(G, s, t, k)
        if tuple(fast) != tuple(slow):
            report.record("exactc", G, params, fast, slow)

    runners = {
        "minsep": run_minsep, "chain": run_chain, "cover": run_cover,
        "gmincut": run_gmincut, "multicut": run_multicut, "oct": run_oct,
        "stablebip": run_stablebip, "exactbip": run_exactbip,
        "eivc": run_eivc, "exactc": run_exactc,
    }
    if config.trials == 0:
        return report

    def run(name: str, G: Graph, rng: random.Random) -> None:
        current[0] = {}
        try:
            runners[name](G, rng)
        except Exception as exc:    # a crash is a mismatch, not the end
            report.record(name, G, dict(current[0]), exc, None)

    t0 = time.perf_counter()
    for fx in FIXTURES.values():
        for name in config.suites:
            run(name, fx.graph, random.Random(config.seed))
            report.trials += 1
    report.elapsed["fixtures"] = time.perf_counter() - t0

    # random trials, distributed round-robin over the selected suites
    for counter in range(config.trials):
        name = config.suites[counter % len(config.suites)]
        t0 = time.perf_counter()
        G, rng, seed = sample(counter)
        before = len(report.mismatches)
        run(name, G, rng)
        for entry in report.mismatches[before:]:
            entry["params"]["seed"] = seed   # replay: same model seed and params
        report.trials += 1
        report.elapsed[name] = report.elapsed.get(name, 0.0) + time.perf_counter() - t0
    return report
