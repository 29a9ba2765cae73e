"""Command-line interface: one command per pipeline stage plus the
cross-check harness. Machine-readable JSON goes to stdout (byte-identical for
identical inputs and seed); the human summary, including wall time, goes to
stderr."""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .chains import build_chain, validate_chain
from .graphs import DomainError, Graph, GraphError, ParseError, parse_graph
from .problems import (edge_induced_vertex_cut, exact_separator_union,
                       exact_stable_bipartization, odd_cycle_transversal,
                       stable_bipartization)
from .reduction import cover_set, reduce_instance
from .separation import is_separator, min_vertex_separator, st_flow
from .solver import (CutConstraints, VerificationError, collect, g_mincut,
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


def _budget(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


FLAGS = {
    "--graph": {"required": True},
    "--s": {"type": int, "required": True},
    "--t": {"type": int, "required": True},
    "--cut": {"default": ""},
    "--uncut": {"default": ""},
    "--k": {"type": _budget, "required": True},
    "--class": {"dest": "cls", "default": "edgeless"},
    "--td-out": {"dest": "td_out"},
    "--seed": {"type": int, "default": 0},
    "--trials": {"type": int, "default": 50},
    "--suites": {},     # every suite when left out
}

# the flags each command reads, and no others; a trailing ? makes one optional
COMMAND_FLAGS = {
    "minsep": "--graph --s --t",
    "chain": "--graph --s --t",
    "cover": "--graph --s --t --k",
    "reduce": "--graph --s? --t? --cut --uncut --k",
    "decompose": "--graph --td-out",
    "gmincut": "--graph --s --t --k --class",
    "multicut": "--graph --cut --uncut --k --class",
    "stable-cut": "--graph --s --t --k",
    "eivc": "--graph --s --t --k",
    "oct": "--graph --k",
    "stable-bip": "--graph --k",
    "exact-stable-bip": "--graph --k",
    "exact-c": "--graph --s --t --k",
    "selfcheck": "--seed --trials --suites",
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """Built on the first command and shared by the later ones: parsing
    leaves the parser unchanged and fills a fresh namespace each time."""
    parser = _Parser(prog="sepkit", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags.split():
            spec = FLAGS[flag.rstrip("?")]
            if flag.endswith("?"):
                spec = {**spec, "required": False}
            p.add_argument(flag.rstrip("?"), **spec)
    return parser


def _vertex(G: Graph, v: int, flag: str) -> int:
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
        out.append((_vertex(G, u, flag), _vertex(G, v, flag)))
    return tuple(out)


# JSON string escapes, as ``json`` writes them with ensure_ascii: \u00XX for
# the control characters and DEL, and the short form where JSON has one
_ESCAPES = {i: f"\\u{i:04x}" for i in (*range(0x20), 0x7F)}
_ESCAPES.update({ord('"'): '\\"', ord("\\"): "\\\\", ord("\b"): "\\b",
                 ord("\f"): "\\f", ord("\n"): "\\n", ord("\r"): "\\r",
                 ord("\t"): "\\t"})


def _non_ascii(c: str) -> str:
    """A character past ASCII as a \\u escape, or as a surrogate pair of
    them past the BMP."""
    code = ord(c)
    if code < 0x80:
        return c
    if code > 0xFFFF:
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return f"\\u{code:04x}"


def _string(s: str) -> str:
    # printable ASCII needs an escape only for a quote or a backslash
    if not (s.isascii() and s.isprintable()) or '"' in s or "\\" in s:
        s = s.translate(_ESCAPES)
        if not s.isascii():
            s = "".join(map(_non_ascii, s))
    return f'"{s}"'


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return float.__repr__(x)


def _key(key) -> str:
    """A dict key as ``json`` writes it: a scalar key as its JSON text in
    quotes."""
    if isinstance(key, str):
        return _string(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_dumps(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _dumps(value) -> str:
    """``json.dumps(value, sort_keys=True)``, byte for byte: the same
    separators, escapes, float spellings and key order, and the same
    ``TypeError`` for a value ``json`` cannot write."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_dumps, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_key(k)}: {_dumps(v)}"
                               for k, v in sorted(value.items())) + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _ids(vs) -> list[int]:
    return [v + 1 for v in vs]


def _result(command: str, answer, witness, stats: dict, notes: list[str]) -> dict:
    full_stats = {key: stats.get(key) for key in STAT_KEYS}
    return {"answer": answer, "command": command, "notes": notes,
            "stats": full_stats, "witness": witness}


def _decision(command: str, witness, stats: dict, notes: list[str]) -> dict:
    """YES with the witness, or NO when there is none."""
    return _result(command, "NO" if witness is None else "YES", witness, stats, notes)


def _dispatch(args) -> dict:
    cmd = args.command
    if cmd == "selfcheck":
        # the oracles are loaded for this command alone
        from .oracle import ALL_SUITES, CheckConfig, OracleCapError, cross_check
        suites = (ALL_SUITES if args.suites is None
                  else tuple(s for s in args.suites.split(",") if s))
        try:
            report = cross_check(CheckConfig(trials=args.trials, seed=args.seed,
                                             suites=suites))
        except OracleCapError as exc:
            raise UsageError(exc) from None
        print("selfcheck: seconds per phase",
              *(f"{phase}={sec:.3f}" for phase, sec in report.elapsed.items()),
              file=sys.stderr)
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
    # the 0-based --s and --t of a command that has them, None otherwise
    s, t = (None if (v := getattr(args, end, None)) is None else _vertex(G, v, f"--{end}")
            for end in ("s", "t"))
    stats: dict = {}
    notes: list[str] = []

    if cmd == "minsep":
        r = min_vertex_separator(G, (s,), (t,))
        if r.is_finite:
            if not is_separator(G, r.witness, (s,), (t,)):
                raise VerificationError("minimum separator failed re-verification")
            stats["ell"] = int(r.size)
            return _result(cmd, int(r.size), _ids(r.witness), stats, notes)
        return _result(cmd, "INFINITE", None, stats, notes)

    if cmd == "chain":
        ch = build_chain(G, s, t)
        if not validate_chain(G, s, t, ch, ()):
            raise VerificationError("separator chain failed re-verification")
        stats["ell"] = ch.ell
        witness = {"ell": ch.ell, "sets": [_ids(X) for X in ch.sets],
                   "boundaries": [_ids(S) for S in ch.boundaries]}
        return _result(cmd, "OK", witness, stats, notes)

    if cmd == "cover":
        r = st_flow(G, s, t)
        cov = cover_set(G, s, t, args.k)
        if r.is_finite:
            stats["ell"] = int(r.size)
            stats["excess"] = args.k - int(r.size)
        stats["cover_size"] = len(cov)
        return _result(cmd, "OK", _ids(cov), stats, notes)

    if cmd == "reduce":
        # --s/--t is a cut pair; a lone --s or --t and the uncut ends are kept
        # as vertices without a cover of their own
        ends = [v for v in (s, t) if v is not None]
        cut = _pairs(G, args.cut, "--cut") + ((tuple(ends),) if len(ends) == 2 else ())
        uncut = _pairs(G, args.uncut, "--uncut")
        terminals = {*ends, *(v for pair in cut + uncut for v in pair)}
        ri = reduce_instance(G, terminals, args.k, pairs=cut)
        witness = ri.to_jsonable()
        stats["cover_size"] = len(ri.cover)
        stats["width_bound"] = witness["width_bound"]
        return _result(cmd, "OK", witness, stats, notes)

    if cmd == "decompose":
        td = decompose(G)
        if not validate_decomposition(G, td):
            raise VerificationError("tree decomposition failed validation")
        stats["width"] = td.width
        if args.td_out:
            try:
                with open(args.td_out, "w") as fh:
                    fh.write(format_td(td, G.n))
            except OSError as exc:
                raise UsageError(f"cannot write --td-out: {exc}") from None
        witness = {"width": td.width, "bags": [_ids(b) for b in td.bags],
                   "tree": [[i + 1, j + 1] for i, j in td.tree]}
        return _result(cmd, "OK", witness, stats, notes)

    if cmd in ("gmincut", "stable-cut"):
        cls = parse_class("edgeless" if cmd == "stable-cut" else args.cls)
        with collect() as stats:
            wit = g_mincut(G, s, t, args.k, cls)
        return _decision(cmd, None if wit is None else _ids(wit), stats, notes)

    if cmd == "multicut":
        cut = _pairs(G, args.cut, "--cut")
        uncut = _pairs(G, args.uncut, "--uncut")
        if not cut and not uncut:
            raise UsageError("multicut needs --cut or --uncut pairs")
        cls = parse_class(args.cls)
        with collect() as stats:
            wit = g_multicut_uncut(G, CutConstraints(cut, uncut), args.k, cls)
        return _decision(cmd, None if wit is None else _ids(wit), stats, notes)

    if cmd == "eivc":
        notes.append("witness edges may touch s or t; their endpoint set "
                     "minus the terminals is what separates")
        with collect() as stats:
            wit = edge_induced_vertex_cut(G, s, t, args.k)
        witness = None if wit is None else {"edges": [[u + 1, v + 1] for u, v in wit.edges],
                                            "deleted": _ids(wit.deleted)}
        return _decision(cmd, witness, stats, notes)

    if cmd in ("oct", "exact-stable-bip"):
        solve = odd_cycle_transversal if cmd == "oct" else exact_stable_bipartization
        out = solve(G, args.k)
        return _decision(cmd, None if out is None else _ids(out), stats, notes)

    if cmd == "stable-bip":
        with collect() as stats:
            out = stable_bipartization(G, args.k)
        return _decision(cmd, None if out is None else _ids(out), stats, notes)

    if cmd == "exact-c":
        out = exact_separator_union(G, s, t, args.k)
        return _result(cmd, "OK", _ids(out), stats, notes)


def run_command(argv) -> int:
    """Run one command: its JSON line on stdout, its answer and time on
    stderr, and exit 0, or an error line on stderr and exit 1, 2, 3 or 4."""
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        result = _dispatch(args)
    except MemoryError:
        # the traceback holds the tables that ran out: report once it is gone
        result = None
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, InputError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, GraphError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        import shlex    # for this message alone
        print(f"verification error: {exc}; replay: sepkit {shlex.join(argv)}",
              file=sys.stderr)
        return 3
    if result is None:
        print("resource error: out of memory", file=sys.stderr)
        return 4
    ms = (time.perf_counter() - started) * 1000.0
    print(_dumps(result))
    print(f"{result['command']}: {result['answer']} (time_ms={ms:.1f})", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
