import pytest

import sepkit.separation
from sepkit.graphs import DomainError, Graph
from sepkit.oracle import (ALL_SUITES, DEFAULT_CAP, CheckConfig, FIXTURES,
                           OracleCapError, RandomModel, brute_force_solve,
                           bf_separator_union, cross_check,
                           enumerate_minimal_separators, random_graph,
                           serialize_graph, subsets_by_size, _separates)
from sepkit.separation import SeparatorResult

P3 = FIXTURES["P3"].graph
PP = FIXTURES["PP"].graph


def test_fixture_ground_truths():
    for name, fx in FIXTURES.items():
        seps = enumerate_minimal_separators(fx.graph, fx.s, fx.t, fx.graph.n)
        assert min(len(S) for S in seps) == fx.ell, name


def test_enumeration_examples():
    assert enumerate_minimal_separators(P3, 0, 2, 1) == [(1,)]
    assert enumerate_minimal_separators(PP, 0, 5, 2) == \
        [(1, 3), (1, 4), (2, 3), (2, 4)]
    assert enumerate_minimal_separators(Graph(2, [(0, 1)]), 0, 1, 5) == []


def test_enumeration_self_consistency():
    # anything of size <= k passing separator+minimality is already listed
    for seed in range(12):
        G = random_graph(RandomModel(7, 0.35, seed))
        s, t = 0, 6
        k = 3
        listed = set(enumerate_minimal_separators(G, s, t, k))
        for S in subsets_by_size([v for v in range(G.n) if v not in (s, t)], k):
            minimal_sep = _separates(G, S, (s,), (t,)) and \
                all(not _separates(G, set(S) - {v}, (s,), (t,)) for v in S)
            assert minimal_sep == (S in listed)


def test_random_graph_determinism():
    assert random_graph(RandomModel(5, 0.0, 1)).m == 0
    assert random_graph(RandomModel(5, 1.0, 1)).m == 10
    a = random_graph(RandomModel(9, 0.4, 123))
    b = random_graph(RandomModel(9, 0.4, 123))
    assert a == b
    assert a != random_graph(RandomModel(9, 0.4, 124))


def test_brute_force_dispatcher():
    assert brute_force_solve("stable_st_cut", FIXTURES["C4"].graph, 0, 2, 2) == (1, 3)
    assert brute_force_solve("exact_stable_bipartization", Graph(3, [(0, 1), (1, 2), (0, 2)]), 2) is None
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert brute_force_solve("edge_induced_vertex_cut", p4, 0, 3, 1) is not None
    with pytest.raises(ValueError):
        brute_force_solve("nope", P3)
    with pytest.raises(OracleCapError):
        brute_force_solve("odd_cycle_transversal", Graph(DEFAULT_CAP + 1), 1)


def test_separator_union_matches_enumeration():
    assert bf_separator_union(PP, 0, 5, 2) == (1, 2, 3, 4)


def test_cross_check_clean_run():
    report = cross_check(CheckConfig(trials=10, seed=7, suites=("minsep", "cover")))
    assert report.ok and report.trials > 0
    data = report.to_jsonable()
    assert data["mismatches"] == [] and "elapsed" in data
    assert "elapsed" not in report.to_jsonable(include_elapsed=False)


def test_cross_check_fault_hook_records_mismatch(monkeypatch):
    # a wrong fast separator size on the random trial's graph alone (one too
    # large, or 0 for an infinite one): the fixtures still agree, and the
    # mismatch keeps its graph and replay seed
    flow = sepkit.separation.min_vertex_separator
    fixtures = [fx.graph for fx in FIXTURES.values()]

    def wrong(G, A, B, *args):
        r = flow(G, A, B, *args)
        return r if G in fixtures else SeparatorResult(r.size + 1 if r.is_finite else 0)

    monkeypatch.setattr(sepkit.separation, "min_vertex_separator", wrong)
    report = cross_check(CheckConfig(trials=1, seed=7, suites=("minsep",)))
    assert len(report.mismatches) == 1
    entry = report.mismatches[0]
    assert entry["suite"] == "minsep" and entry["graph"].startswith("p ")
    assert (entry["fast"], entry["oracle"]) == ("0", "inf")   # s and t are adjacent
    assert entry["params"]["seed"] == 7 * 1_000_003  # replayable
    # the fault comes from the test alone: the harness has no switch for one
    assert CheckConfig.__slots__ == ("trials", "seed", "n_max", "k_max", "suites")


def test_cross_check_zero_trials_empty_report():
    report = cross_check(CheckConfig(trials=0, seed=7))
    assert report.trials == 0 and report.ok and report.elapsed == {}


@pytest.mark.parametrize("config", [
    CheckConfig(trials=2, suites=("bogus",)),
    CheckConfig(trials=2, suites=("minsep", "Cover")),
    CheckConfig(trials=2, suites=()),
    CheckConfig(trials=0, suites=("bogus",)),
    CheckConfig(trials=-5),
], ids=["unknown", "misspelt", "empty", "unknown-zero-trials", "negative-trials"])
def test_cross_check_refuses_to_check_nothing(config):
    with pytest.raises(DomainError):
        cross_check(config)


def test_cross_check_reproducible():
    cfg = CheckConfig(trials=8, seed=5, suites=("minsep", "oct"))
    a = cross_check(cfg)
    b = cross_check(cfg)
    assert a.trials == b.trials and a.mismatches == b.mismatches


def test_all_suites_run_one_trial():
    report = cross_check(CheckConfig(trials=len(ALL_SUITES), seed=2, n_max=7, k_max=2))
    assert report.ok


def test_cross_check_records_a_crash_and_goes_on(monkeypatch):
    import sepkit.problems
    real = sepkit.problems.odd_cycle_transversal
    calls = []

    def crash_once(G, k):
        calls.append(G)
        if len(calls) == len(FIXTURES) + 1:     # the first random oct trial
            raise RuntimeError("boom")
        return real(G, k)

    monkeypatch.setattr(sepkit.problems, "odd_cycle_transversal", crash_once)
    config = CheckConfig(trials=9, seed=7, suites=("minsep", "oct", "cover"))
    report = cross_check(config)
    assert report.trials == 3 * len(FIXTURES) + 9
    assert len(calls) == len(FIXTURES) + 3
    [entry] = report.mismatches
    assert entry["suite"] == "oct" and entry["fast"] == "RuntimeError('boom')"
    seed = entry["params"]["seed"]
    assert seed == 7 * 1_000_003 + 1 and "k" in entry["params"]
    # the seed replays the graph: the sampler's model with that seed
    assert entry["graph"] == serialize_graph(calls[len(FIXTURES)])
    assert set(report.elapsed) == {"fixtures", "minsep", "oct", "cover"}


def test_cross_check_gmincut_runs_every_class(monkeypatch):
    import sepkit.solver
    from sepkit.oracle import GMINCUT_CLASSES
    assert cross_check(CheckConfig(trials=60, seed=3, suites=("gmincut",))).ok
    seen = set()

    def always_no(G, s, t, k, cls):
        seen.add(cls)
        return None

    monkeypatch.setattr(sepkit.solver, "g_mincut", always_no)
    report = cross_check(CheckConfig(trials=60, seed=3, suites=("gmincut",)))
    # a selector seen before parses to the same class object; a class's
    # name need not be its selector (forbid:Bo is named forbid)
    assert seen == {sepkit.solver.parse_class(c) for c in GMINCUT_CLASSES}
    assert report.mismatches
    for entry in report.mismatches:
        assert entry["params"]["cls"] in GMINCUT_CLASSES
