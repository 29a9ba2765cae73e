#!/usr/bin/env python3
"""Benchmark of the sepkit CLI, run from the root of a source checkout:

    python3 perfbench/run.py --workload cut-ladder --seed 1 --seconds 55 --trace 0

One process per workload. A single caller runs one CLI command at a time
in-process through ``sepkit.cli.run_command`` (a closed loop with one
client), with stdout and stderr captured, in whole passes over the workload's
instances until ``--seconds`` have passed. Times are scaled to a nominal
core speed measured around every command (see speed.py). Every answer is
checked after the timed phase. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps the public functions of each module (see spans.py) and reports the
per-layer metrics instead. Informational JSON lines (environment, run
details, layer split) come first; the last stdout line is the result.
Exit status: 0 when every answer is correct, 1 when one is not, 2 when the
benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 9
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
# commands that run one DP and report its states in stats.dp_states;
# solver.dp_states_per_s covers only these
SINGLE_DP = ("gmincut", "stable-cut", "multicut")

SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from speed import probe
reference = probe()
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import sepkit, sepkit.cli
from sepkit.graphs import parse_graph
for path in sys.argv[3:]:
    with open(path) as fh:
        parse_graph(fh.read())
print(repr(time.perf_counter() - start), repr(reference))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def require_sources() -> None:
    if not (SRC / "sepkit" / "__init__.py").is_file():
        raise BenchError(f"no sepkit sources under {SRC}")


def import_sepkit():
    require_sources()
    sys.path.insert(0, str(SRC))
    import sepkit
    import sepkit.cli
    if Path(sepkit.__file__).resolve().parent != (SRC / "sepkit").resolve():
        raise BenchError(f"imported sepkit from {sepkit.__file__}, not from {SRC}")
    return sepkit.cli.run_command


def call(run_command, argv):
    """One in-process CLI call: (exit code or None, stdout, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = run_command(argv)
        except Exception as exc:   # a crash is a failed command, not a benchmark stop
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if code not in (None, 0):
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    return code, out.getvalue(), error, seconds


def load_expected(wl: workloads.Workload) -> dict:
    try:
        table = json.loads(EXPECTED.read_text())[wl.name]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no expected answers for {wl.name}: {exc}") from None
    if set(table) != {inst.name for inst in wl.instances}:
        raise BenchError(f"{EXPECTED.name} does not match the {wl.name} pool; "
                         "regenerate it with perfbench/expect.py")
    for inst in wl.instances:
        if table[inst.name]["graph"] != workloads.fingerprint(*wl.graphs[inst.graph]):
            raise BenchError(f"pool graph {inst.graph} changed since {EXPECTED.name} "
                             "was generated")
    return table


def materialize(wl: workloads.Workload, seed: int, pass_no: int, workdir: Path) -> dict:
    """The graph files of one pass, every graph under a fresh relabelling
    drawn from (seed, pass): {graph key: (path, n, edges, label)}."""
    rng = random.Random(f"{wl.name}/{seed}/{pass_no}")
    passdir = workdir / f"pass{pass_no}"
    passdir.mkdir()
    files = {}
    for key in sorted(wl.graphs):
        n, edges = wl.graphs[key]
        label = workloads.relabelling(n, rng)
        new_edges = workloads.relabel(n, edges, label)
        path = passdir / f"{key}.gr"
        path.write_text(workloads.graph_text(n, new_edges))
        files[key] = (str(path), n, new_edges, label)
    return files


def measure_setup(paths: list[str]) -> tuple[float, float]:
    """Medians over fresh interpreters of importing sepkit and parsing every
    graph file once, timed inside the child: (seconds at reference speed,
    raw seconds)."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_PROBE, str(HERE), str(SRC),
                               *paths], capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        seconds, reference = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * speed.REFERENCE_S / reference)
    return statistics.median(scaled), statistics.median(raw)


def percentile(sorted_values: list[float], p: float) -> float:
    pos = p / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest ladder percentile
    that leaves at least ten samples beyond it; the maximum otherwise."""
    ordered = sorted(latencies)
    for p in TAIL_LADDER:
        value = percentile(ordered, p)
        beyond = sum(1 for x in ordered if x > value)
        if beyond >= 10:
            return value, p, beyond
    return ordered[-1], 100.0, 0


def commit() -> tuple[str, bool | None]:
    """(HEAD commit, whether the working tree differs from it), read from
    .git; the tree is what a run measures."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)", None
    head = (git / "HEAD").read_text().strip()
    sha = head
    if head.startswith("ref: "):
        ref = head[5:]
        if (git / ref).is_file():
            sha = (git / ref).read_text().strip()
        elif (git / "packed-refs").is_file():
            for line in (git / "packed-refs").read_text().splitlines():
                fields = line.split()
                if len(fields) == 2 and fields[1] == ref:
                    sha = fields[0]
    try:
        proc = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                              text=True, timeout=60, env={**os.environ, "GIT_OPTIONAL_LOCKS": "0"})
    except (OSError, subprocess.TimeoutExpired):
        return sha, None
    return sha, (proc.stdout != "") if proc.returncode == 0 else None


def environment() -> dict:
    sha, dirty = commit()
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"commit": sha, "dirty": dirty, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "loadavg_start": loadavg()}


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def timed_loop(run_command, wl, seed, inputs, workdir, seconds, max_commands, tracer=None):
    """Whole passes, each over fresh inputs (appended to ``inputs``) in a
    shuffled order, until the commands have run for ``seconds`` (or
    ``max_commands`` ran). Returns [(pass, instance index, code, stdout,
    error, secs, reference secs around the command)] and the seconds each
    pass took."""
    rng = random.Random(f"{wl.name}/{seed}/order")
    results = []
    pass_s = []
    while True:
        if len(inputs) <= len(results) // len(wl.instances):
            inputs.append(materialize(wl, seed, len(inputs), workdir))
        pass_no = len(inputs) - 1
        files = inputs[pass_no]
        order = list(range(len(wl.instances)))
        rng.shuffle(order)
        start = time.perf_counter()
        before = speed.probe()
        for i in order:
            if max_commands and len(results) >= max_commands:
                break
            inst = wl.instances[i]
            argv = inst.argv(files[inst.graph][0], files[inst.graph][3])
            if tracer is not None:
                tracer.command = len(results)
            outcome = call(run_command, argv)
            after = speed.probe()
            results.append((pass_no, i, *outcome, (before + after) / 2))
            before = after
        pass_s.append(time.perf_counter() - start)
        if (max_commands and len(results) >= max_commands) or sum(pass_s) >= seconds:
            break
    return results, pass_s


def check_results(wl, results, expected, inputs):
    """Failure reasons by result index, the answer counts, and the parsed
    output of every command that exited normally, by result index."""
    import checks
    from sepkit.graphs import Graph

    graphs: dict = {}
    failures = {}
    answers = {"YES": 0, "NO": 0, "other": 0}
    docs = {}
    for idx, (pass_no, i, _code, out, error, _secs, _ref) in enumerate(results):
        inst = wl.instances[i]
        if error is None:
            try:
                doc = json.loads(out)
            except ValueError:
                error, doc = "unparsable stdout", None
            else:
                _path, n, edges, label = inputs[pass_no][inst.graph]
                if (pass_no, inst.graph) not in graphs:
                    graphs[(pass_no, inst.graph)] = Graph(n, edges)
                error = checks.check(inst, doc, expected[inst.name],
                                     graphs[(pass_no, inst.graph)], label)
            if doc is not None:
                docs[idx] = doc
                answer = doc.get("answer")
                answers[answer if answer in ("YES", "NO") else "other"] += 1
        if error is not None:
            failures[idx] = f"{inst.name}: {error}"
    return failures, answers, docs


def layer_metrics(summary, docs, single_dp, passes_done, traced_rate) -> dict:
    """Per-layer metrics, each summed over the run and divided by the passes
    run, except ratios, maxima and rates. ``single_dp`` holds the ids of the
    commands that run one DP."""
    s, c = summary["self_s"], summary["calls"]
    under, found, out_sum = summary["under"], summary["under_found"], summary["outcome_sum"]

    def ratio(a, b):
        return a / b if b else 0.0

    def stat_sum(key, ids=docs):
        return sum(docs[i]["stats"][key] for i in ids
                   if i in docs and docs[i]["stats"].get(key) is not None)

    widths = [d["stats"]["width"] for d in docs.values() if d["stats"].get("width") is not None]
    by_command = summary["self_by_command"]
    single_dp_s = sum(by_command.get(("dp_constrained_cut", i), 0.0) for i in single_dp)
    cover_flows = under[("min_vertex_separator", "cover_set")]
    branch = under[("g_mincut", "stable_bipartization")]
    per_pass = {
        "cli.self_s": summary["layer_s"]["cli"], "cli.calls": c["run_command"],
        "graphs.parse_s": s["parse_graph"], "graphs.odd_cycle_s": s["shortest_odd_cycle"],
        "graphs.odd_cycle_calls": c["shortest_odd_cycle"],
        "graphs.build_s": s["Graph.__init__"], "graphs.graph_builds": c["Graph.__init__"],
        "separation.flow_s": s["min_vertex_separator"],
        "separation.flow_calls": c["min_vertex_separator"],
        "separation.containing_s": s["min_separator_containing"],
        "separation.containing_calls": c["min_separator_containing"],
        "separation.minimalize_s": s["minimalize_separator"],
        "chains.build_s": s["build_chain"], "chains.build_calls": c["build_chain"],
        "chains.sets_total": out_sum["build_chain"],
        "reduction.cover_s": s["cover_set"], "reduction.cover_nodes": c["cover_set"],
        "reduction.cover_flow_calls": cover_flows,
        "reduction.reduce_s": s["reduce_instance"],
        "reduction.gstar_n": out_sum["reduce_instance"],
        "reduction.cover_size": stat_sum("cover_size"),
        "treedecomp.decompose_s": s["decompose"], "treedecomp.make_nice_s": s["make_nice"],
        "treedecomp.nice_nodes": out_sum["make_nice"],
        "solver.dp_s": s["dp_constrained_cut"], "solver.dp_calls": c["dp_constrained_cut"],
        "solver.dp_states": stat_sum("dp_states"),
        "solver.g_mincut_calls": c["g_mincut"], "solver.verify_s": s["verify_solution"],
        "problems.self_s": summary["layer_s"]["problems"],
        "problems.branch_calls": branch,
    }
    metrics = {name: value / passes_done for name, value in per_pass.items()}
    metrics.update({
        "separation.flow_cap_stop_ratio": ratio(out_sum["min_vertex_separator"],
                                                c["min_vertex_separator"]),
        "separation.containing_hit_ratio": ratio(out_sum["min_separator_containing"],
                                                 c["min_separator_containing"]),
        "reduction.cover_recurse_ratio": ratio(under[("cover_set", "cover_set")], cover_flows),
        "treedecomp.width_max": max(widths, default=0),
        "solver.dp_states_per_s": ratio(stat_sum("dp_states", single_dp), single_dp_s),
        "problems.branch_yes_ratio": ratio(found[("g_mincut", "stable_bipartization")], branch),
        "trace.cmds_per_s": traced_rate,
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-commands", type=int, default=0,
                        help="stop after this many commands (0: no limit); for smoke tests")
    args = parser.parse_args(argv)

    require_sources()
    env = environment()
    wl = workloads.WORKLOADS[args.workload]()
    expected = load_expected(wl)
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        inputs = [materialize(wl, args.seed, 0, workdir)]
        setup_s, raw_setup_s = measure_setup([path for path, *_rest in inputs[0].values()])
        run_command = import_sepkit()
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
            import sepkit.cli
            run_command = sepkit.cli.run_command
        try:
            results, pass_s = timed_loop(run_command, wl, args.seed, inputs, workdir,
                                         args.seconds, args.max_commands, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failures, answers, docs = check_results(wl, results, expected, inputs)
        if tracer is not None:
            tracer.write(WORK / f"spans-{wl.name}.tsv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(results)
    elapsed = sum(pass_s)
    passes = attempted // len(wl.instances)
    raw = [r[5] for r in results]
    # every latency scaled to the reference speed measured around it
    latencies = [r[5] * speed.REFERENCE_S / r[6] for r in results]
    rate = attempted / sum(latencies)
    pass_scaled_s = [0.0] * len(pass_s)
    for r, secs in zip(results, latencies):
        pass_scaled_s[r[0]] += secs
    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "elapsed_s": elapsed, "passes": passes, "pass_s": pass_s,
            "pass_scaled_s": pass_scaled_s,
            "pool_size": len(wl.instances), "commands": attempted, "answers": answers,
            "failed_ratio": len(failures) / attempted,
            "speed_factor_median": statistics.median(r[6] for r in results) / speed.REFERENCE_S,
            "raw": {"cmds_per_s": attempted / elapsed, "cmd_s_p50": statistics.median(raw),
                    "cmd_s_tail": tail(raw)[0], "setup_s": raw_setup_s}}
    if tracer is None:
        tail_s, tail_p, beyond = tail(latencies)
        info.update({"tail_percentile": tail_p, "tail_samples_beyond": beyond,
                     "samples": attempted})
        values = {"cmds_per_s": rate, "cmd_s_p50": statistics.median(latencies),
                  "cmd_s_tail": tail_s, "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    else:
        import spans
        summary = spans.summarize(tracer.spans)
        passes_done = attempted / len(wl.instances)
        single_dp = {idx for idx, r in enumerate(results)
                     if wl.instances[r[1]].command in SINGLE_DP}
        values = layer_metrics(summary, docs, single_dp, passes_done, rate)
        values["failed_ratio"] = len(failures) / attempted
        total = sum(summary["layer_s"].values())
        shares = {layer: secs / total for layer, secs in summary["layer_s"].items()}
        info["layer_self_s_per_pass"] = {layer: secs / passes_done
                                         for layer, secs in summary["layer_s"].items()}
        info["layer_share"] = shares
        info["dominant_layer"] = max(shares, key=shares.get)
        info["spans"] = len(tracer.spans)
    for idx in sorted(failures)[:10]:
        print(f"FAILED {failures[idx]}", file=sys.stderr)

    env["loadavg_end"] = loadavg()
    print(json.dumps({"env": env}))
    print(json.dumps({"run": info}))
    metrics = {name: {"value": value, "unit": unit_of[name]} for name, value in values.items()}
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
