#!/usr/bin/env python3
"""Time the instances of the cliff register (cliffs.json) once each, from the
root of a source checkout:

    python3 perfbench/cliffs.py [NAME ...]

The register lists instances kept out of the workloads because one command
takes longer than a run should. Each is run once, traced, in a fresh
process of its own, and its time, layer split and main counters are printed
as one JSON line, in the form the register records them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import spans
import workloads

REGISTER = run.HERE / "cliffs.json"


def measure(entry: dict, workdir) -> dict:
    n, edges = getattr(workloads, entry["family"])(*entry["args"])
    inst = workloads.Instance(entry["name"], entry["family"], entry["command"],
                              entry["k"], entry.get("s"), entry.get("t"), entry.get("class"))
    path = workdir / f"{entry['name']}.gr"
    path.write_text(workloads.graph_text(n, edges))
    tracer = spans.Tracer()
    tracer.install()
    import sepkit.cli
    try:
        _code, out, error, secs = run.call(sepkit.cli.run_command,
                                           inst.argv(str(path), list(range(n))))
    finally:
        tracer.uninstall()
    if error is not None:
        raise SystemExit(f"{entry['name']}: {error}")
    summary = spans.summarize(tracer.spans)
    total = sum(summary["layer_s"].values())
    doc = json.loads(out)
    return {"name": entry["name"], "answer": doc["answer"], "traced_s": round(secs, 2),
            "layer_share": {k: round(v / total, 3) for k, v in summary["layer_s"].items() if v},
            "flows": summary["calls"]["min_vertex_separator"],
            "cover_nodes": summary["calls"]["cover_set"],
            "dp_states": doc["stats"]["dp_states"]}


def main() -> None:
    entries = json.loads(REGISTER.read_text())["instances"]
    wanted = set(sys.argv[1:])
    run.import_sepkit()
    run.WORK.mkdir(exist_ok=True)
    workdir = run.WORK / f"cliffs-{os.getpid()}"
    workdir.mkdir()
    try:
        for entry in entries:
            if not wanted or entry["name"] in wanted:
                print(json.dumps(measure(entry, workdir)), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        main()
    except run.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
