"""Command-line interface: one command per pipeline stage plus the
cross-check harness. Machine-readable JSON goes to stdout (byte-identical for
identical inputs and seed); the human summary, including wall time, goes to
stderr."""

from __future__ import annotations

import argparse
import functools
import json
import shlex
import sys
import time
import warnings
from typing import Optional

from .chains import build_chain
from .graphs import DomainError, Graph, GraphError, ParseError, parse_graph
from .oracle import ALL_SUITES, CheckConfig, OracleCapError, cross_check
from .problems import (edge_induced_vertex_cut, exact_separator_union,
                       exact_stable_bipartization, odd_cycle_transversal,
                       stable_bipartization)
from .reduction import cover_set, reduce_instance
from .separation import is_separator, min_vertex_separator
from .solver import (CutConstraints, VerificationError, g_mincut,
                     g_multicut_uncut, parse_class)
from .treedecomp import decompose, format_td, validate_decomposition

STAT_KEYS = ("ell", "excess", "cover_size", "width", "width_bound", "dp_states")


class UsageError(Exception):
    pass


class InputError(Exception):
    """The graph file could not be read."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """Built on the first command and shared by the later ones: parsing
    leaves the parser unchanged and fills a fresh namespace each time."""
    parser = _Parser(prog="sepkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    needs_graph = ("minsep", "chain", "cover", "reduce", "decompose", "gmincut",
                   "multicut", "stable-cut", "eivc", "oct", "stable-bip",
                   "exact-stable-bip", "exact-c")
    for name in needs_graph + ("selfcheck",):
        p = sub.add_parser(name)
        if name != "selfcheck":
            p.add_argument("--graph", required=True)
        p.add_argument("--s", type=int)
        p.add_argument("--t", type=int)
        p.add_argument("--cut", default="")
        p.add_argument("--uncut", default="")
        p.add_argument("--k", type=int)
        p.add_argument("--class", dest="cls", default="edgeless")
        p.add_argument("--td-out", dest="td_out")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=50)
        p.add_argument("--suites", default=",".join(ALL_SUITES))
    return parser


def _vertex(G: Graph, v: Optional[int], flag: str) -> int:
    if v is None:
        raise UsageError(f"missing required flag {flag}")
    if not 1 <= v <= G.n:
        raise UsageError(f"{flag} must be in 1..{G.n}, got {v}")
    return v - 1


def _pairs(G: Graph, text: str, flag: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    out = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise UsageError(f"{flag} entries must look like u:v")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise UsageError(f"non-integer pair in {flag}") from None
        if not (1 <= u <= G.n and 1 <= v <= G.n):
            raise UsageError(f"{flag} vertex out of range 1..{G.n}")
        out.append((u - 1, v - 1))
    return tuple(out)


def _need_k(args) -> int:
    if args.k is None or args.k < 0:
        raise UsageError("missing or negative --k")
    return args.k


def _ids(vs) -> list[int]:
    return [v + 1 for v in vs]


def _result(command: str, answer, witness, stats: dict, notes: list[str]) -> dict:
    full_stats = {key: stats.get(key) for key in STAT_KEYS}
    return {"answer": answer, "command": command, "notes": notes,
            "stats": full_stats, "witness": witness}


def _dispatch(args) -> dict:
    cmd = args.command
    if cmd == "selfcheck":
        suites = tuple(s for s in args.suites.split(",") if s)
        report = cross_check(CheckConfig(trials=args.trials, seed=args.seed,
                                         suites=suites))
        answer = "OK" if report.ok else "MISMATCH"
        return _result(cmd, answer, report.to_jsonable(include_elapsed=False),
                       {}, ["elapsed-per-phase reported on stderr only"])

    try:
        with open(args.graph, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(exc) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.graph}: {exc}") from None
    G = parse_graph(text)
    stats: dict = {}
    notes: list[str] = []

    if cmd == "minsep":
        s, t = _vertex(G, args.s, "--s"), _vertex(G, args.t, "--t")
        r = min_vertex_separator(G, (s,), (t,))
        if r.is_finite:
            assert is_separator(G, r.witness, (s,), (t,))
            stats["ell"] = int(r.size)
            return _result(cmd, int(r.size), _ids(r.witness), stats, notes)
        return _result(cmd, "INFINITE", None, stats, notes)

    if cmd == "chain":
        s, t = _vertex(G, args.s, "--s"), _vertex(G, args.t, "--t")
        ch = build_chain(G, s, t)
        for lo, hi in zip(ch.sets, ch.sets[1:]):
            assert set(lo) < set(hi)
        assert all(len(S) == ch.ell for S in ch.boundaries)
        stats["ell"] = ch.ell
        witness = {"ell": ch.ell, "sets": [_ids(X) for X in ch.sets],
                   "boundaries": [_ids(S) for S in ch.boundaries]}
        return _result(cmd, "OK", witness, stats, notes)

    if cmd == "cover":
        s, t = _vertex(G, args.s, "--s"), _vertex(G, args.t, "--t")
        k = _need_k(args)
        r = min_vertex_separator(G, (s,), (t,))
        cov = cover_set(G, s, t, k, flow=r)
        if r.is_finite:
            stats["ell"] = int(r.size)
            stats["excess"] = k - int(r.size)
        stats["cover_size"] = len(cov)
        return _result(cmd, "OK", _ids(cov), stats, notes)

    if cmd == "reduce":
        terminals = set()
        if args.s is not None:
            terminals.add(_vertex(G, args.s, "--s"))
        if args.t is not None:
            terminals.add(_vertex(G, args.t, "--t"))
        for a, b in _pairs(G, args.cut, "--cut") + _pairs(G, args.uncut, "--uncut"):
            terminals.update((a, b))
        k = _need_k(args)
        ri = reduce_instance(G, terminals, k)
        stats["cover_size"] = len(ri.cover)
        stats["width_bound"] = ri.width_bound
        return _result(cmd, "OK", ri.to_jsonable(), stats, notes)

    if cmd == "decompose":
        td = decompose(G)
        assert validate_decomposition(G, td)
        stats["width"] = td.width
        if args.td_out:
            with open(args.td_out, "w") as fh:
                fh.write(format_td(td, G.n))
        witness = {"width": td.width, "bags": [_ids(b) for b in td.bags],
                   "tree": [[i + 1, j + 1] for i, j in td.tree]}
        return _result(cmd, "OK", witness, stats, notes)

    if cmd in ("gmincut", "stable-cut"):
        s, t = _vertex(G, args.s, "--s"), _vertex(G, args.t, "--t")
        k = _need_k(args)
        cls = parse_class("edgeless" if cmd == "stable-cut" else args.cls)
        wit = g_mincut(G, s, t, k, cls, stats_out=stats)
        if wit is None:
            return _result(cmd, "NO", None, stats, notes)
        return _result(cmd, "YES", _ids(wit.deletion_set), stats, notes)

    if cmd == "multicut":
        cut = _pairs(G, args.cut, "--cut")
        uncut = _pairs(G, args.uncut, "--uncut")
        if not cut and not uncut:
            raise UsageError("multicut needs --cut or --uncut pairs")
        k = _need_k(args)
        cls = parse_class(args.cls)
        wit = g_multicut_uncut(G, CutConstraints(cut, uncut), k, cls, stats_out=stats)
        if wit is None:
            return _result(cmd, "NO", None, stats, notes)
        return _result(cmd, "YES", _ids(wit.deletion_set), stats, notes)

    if cmd == "eivc":
        s, t = _vertex(G, args.s, "--s"), _vertex(G, args.t, "--t")
        k = _need_k(args)
        notes.append("witness edges may touch s or t; their endpoint set "
                     "minus the terminals is what separates")
        wit = edge_induced_vertex_cut(G, s, t, k, stats_out=stats)
        if wit is None:
            return _result(cmd, "NO", None, stats, notes)
        witness = {"edges": [[u + 1, v + 1] for u, v in wit.edges],
                   "deleted": _ids(wit.deleted)}
        return _result(cmd, "YES", witness, stats, notes)

    if cmd == "oct":
        k = _need_k(args)
        out = odd_cycle_transversal(G, k)
        if out is None:
            return _result(cmd, "NO", None, stats, notes)
        return _result(cmd, "YES", _ids(out), stats, notes)

    if cmd == "stable-bip":
        k = _need_k(args)
        out = stable_bipartization(G, k, stats_out=stats)
        if out is None:
            return _result(cmd, "NO", None, stats, notes)
        return _result(cmd, "YES", _ids(out), stats, notes)

    if cmd == "exact-stable-bip":
        k = _need_k(args)
        out = exact_stable_bipartization(G, k)
        if out is None:
            return _result(cmd, "NO", None, stats, notes)
        return _result(cmd, "YES", _ids(out), stats, notes)

    if cmd == "exact-c":
        s, t = _vertex(G, args.s, "--s"), _vertex(G, args.t, "--t")
        k = _need_k(args)
        out = exact_separator_union(G, s, t, k)
        return _result(cmd, "OK", _ids(out), stats, notes)

    raise UsageError(f"unknown command {cmd!r}")


def run_command(argv) -> int:
    """Run one command. Warnings the library raises along the way are
    collected and written to stderr as one ``warning: <message>`` line each,
    so neither stdout nor the exit code depends on the warning filters."""
    parser = _build_parser()
    started = time.perf_counter()
    caught: list = []
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, InputError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OracleCapError, GraphError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification error: {exc}; replay: sepkit {shlex.join(argv)}",
              file=sys.stderr)
        return 3
    finally:
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {message}", file=sys.stderr)
    ms = (time.perf_counter() - started) * 1000.0
    print(json.dumps(result, sort_keys=True))
    print(f"{result['command']}: {result['answer']} (time_ms={ms:.1f})", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
