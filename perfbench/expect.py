#!/usr/bin/env python3
"""Regenerate perfbench/expected.json, the expected answer of every pool
instance, from the root of a source checkout:

    python3 perfbench/expect.py

Each instance runs once on its pool graph (identity labels) through the CLI.
Its witness must pass the same checks as in a benchmark run. Every instance
with at most 14 vertices (the oracle cap) is also solved by exhaustive search
in ``sepkit.oracle`` and must agree; larger instances keep the answer of the
commit the file was generated at. Prints the time of each command, which is
how the pools were sized.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads

ORACLE_CAP = 14


def oracle_answer(inst, n, edges):
    """(answer, union for exact-c) by exhaustive search, or None above the
    cap."""
    if n > ORACLE_CAP:
        return None
    from checks import in_class
    from sepkit import oracle
    from sepkit.graphs import Graph

    G = Graph(n, edges)
    if inst.command == "exact-c":
        return "OK", list(oracle.bf_separator_union(G, inst.s, inst.t, inst.k))
    if inst.command not in ("gmincut", "stable-cut"):
        raise ValueError(f"no oracle cross-check for {inst.command} instances")
    cls = "edgeless" if inst.command == "stable-cut" else inst.cls
    found = oracle.bf_g_mincut(G, inst.s, inst.t, inst.k, lambda H: in_class(H, cls))
    return ("NO" if found is None else "YES"), None


def expected_for(wl, run_command, workdir) -> dict:
    import checks
    from sepkit.graphs import Graph

    table = {}
    for inst in wl.instances:
        n, edges = wl.graphs[inst.graph]
        path = workdir / f"{inst.graph}.gr"
        path.write_text(workloads.graph_text(n, edges))
        identity = list(range(n))
        _code, out, error, secs = run.call(run_command, inst.argv(str(path), identity))
        if error is not None:
            raise SystemExit(f"{inst.name}: {error}")
        doc = json.loads(out)
        entry = {"graph": workloads.fingerprint(n, edges), "answer": doc["answer"],
                 "oracle": n <= ORACLE_CAP}
        if inst.command == "exact-c":
            entry["union"] = [v - 1 for v in doc["witness"]]
        bad = checks.check(inst, doc, entry, Graph(n, edges), identity)
        if bad is not None:
            raise SystemExit(f"{inst.name}: {bad}")
        ref = oracle_answer(inst, n, edges)
        if ref is not None and ref != (doc["answer"], entry.get("union")):
            raise SystemExit(f"{inst.name}: oracle says {ref}, CLI says {doc['answer']}")
        table[inst.name] = entry
        print(f"{secs:8.3f}s  {inst.name:34s} n={n:<4d} {doc['answer']:4s} "
              f"{'oracle' if ref else ''}", flush=True)
    return table


def main() -> None:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    run_command = run.import_sepkit()
    tables = {}
    run.WORK.mkdir(exist_ok=True)
    workdir = run.WORK / f"expect-{os.getpid()}"
    workdir.mkdir()
    try:
        for name in sorted(workloads.WORKLOADS):
            wl = workloads.WORKLOADS[name]()
            tables[name] = expected_for(wl, run_command, workdir)
            print(f"{name}: {len(wl.instances)} instances", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    try:
        main()
    except run.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
