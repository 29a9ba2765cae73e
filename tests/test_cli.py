import ast
import json
import pathlib
import re
import shlex
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepkit.cli
import sepkit.oracle
import sepkit.problems
import sepkit.reduction
import sepkit.separation
import sepkit.solver
from sepkit.chains import SeparatorChain
from sepkit.cli import _build_parser, _dumps, run_command
from sepkit.graphs import Graph, serialize_graph
from sepkit.oracle import FIXTURES
from sepkit.treedecomp import decompose, format_td


@pytest.fixture()
def graph_files(tmp_path):
    paths = {}
    for name, fx in FIXTURES.items():
        p = tmp_path / f"{name.lower()}.gr"
        p.write_text(serialize_graph(fx.graph))
        paths[name] = str(p)
    return paths


def _run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr()
    doc = json.loads(out.out) if code == 0 else None
    return code, doc, out.err


def test_stable_cut_command(graph_files, capsys):
    code, doc, err = _run(capsys, ["stable-cut", "--graph", graph_files["C4"],
                                   "--s", "1", "--t", "3", "--k", "2"])
    assert code == 0
    assert doc["answer"] == "YES" and doc["witness"] == [2, 4]
    assert doc["stats"]["ell"] == 2
    assert "time_ms" in err


def test_cover_command_hypercube(graph_files, capsys):
    code, doc, _ = _run(capsys, ["cover", "--graph", graph_files["Q3"],
                                 "--s", "1", "--t", "8", "--k", "6"])
    assert code == 0
    assert doc["stats"]["cover_size"] == 8
    assert doc["witness"] == list(range(1, 9))


def test_selfcheck_command(capsys):
    code, doc, _ = _run(capsys, ["selfcheck", "--trials", "5", "--seed", "7",
                                 "--suites", "minsep,cover"])
    assert code == 0
    assert doc["answer"] == "OK" and doc["witness"]["mismatches"] == []
    assert "elapsed" not in doc["witness"]


def test_selfcheck_reports_phase_seconds_on_stderr(capsys):
    # the fixtures and each suite's random trials are timed, on stderr only
    assert run_command(["selfcheck", "--trials", "4", "--seed", "7",
                        "--suites", "minsep,cover"]) == 0
    out = capsys.readouterr()
    phases = out.err.splitlines()[0]
    assert re.fullmatch(r"selfcheck: seconds per phase fixtures=\S+ minsep=\S+ cover=\S+",
                        phases), phases
    assert "seconds" not in out.out


def test_out_of_memory_is_one_error_line(graph_files, capsys, monkeypatch):
    # exit 4, nothing on stdout and no traceback: one line on stderr
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(sepkit.cli, "g_mincut", exhausted)
    assert run_command(["gmincut", "--graph", graph_files["C4"],
                        "--s", "1", "--t", "3", "--k", "2", "--class", "any"]) == 4
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "resource error: out of memory\n")


def test_selfcheck_runs_every_suite_by_default(capsys):
    base = ["selfcheck", "--trials", "3", "--seed", "7"]
    assert run_command(base) == 0
    every = capsys.readouterr()
    assert run_command(base + ["--suites", ",".join(sepkit.oracle.ALL_SUITES)]) == 0
    named = capsys.readouterr()
    assert every.out == named.out and json.loads(every.out)["answer"] == "OK"


def test_selfcheck_oracle_cap_exits_1(capsys, monkeypatch):
    def refuses(config):
        raise sepkit.oracle.OracleCapError("oracle refuses n=15 > cap 14")

    monkeypatch.setattr(sepkit.oracle, "cross_check", refuses)
    assert run_command(["selfcheck", "--trials", "1"]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "usage error: oracle refuses n=15 > cap 14\n")


@pytest.mark.parametrize("flags, named", [
    (["--suites", "minsep,cover,minesp"], "'minesp'"),
    (["--suites", ","], "no suites"),
    (["--trials", "-5"], "-5"),
], ids=["misspelt", "empty", "negative-trials"])
def test_selfcheck_refuses_to_check_nothing(capsys, flags, named):
    # a misspelt suite or a negative trial count must not answer OK
    assert run_command(["selfcheck", "--trials", "2", *flags]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("usage error: ") and named in out.err


def test_minsep_infinite(graph_files, capsys, tmp_path):
    p = tmp_path / "edge.gr"
    p.write_text("p 2 1\ne 1 2\n")
    code, doc, _ = _run(capsys, ["minsep", "--graph", str(p), "--s", "1", "--t", "2"])
    assert code == 0 and doc["answer"] == "INFINITE" and doc["witness"] is None


def test_multicut_command(graph_files, capsys):
    code, doc, _ = _run(capsys, ["multicut", "--graph", graph_files["PP"],
                                 "--cut", "1:6", "--uncut", "2:4", "--k", "2",
                                 "--class", "any"])
    assert code == 0 and doc["answer"] == "YES"
    assert doc["witness"] == [3, 5]


def test_eivc_command_notes(graph_files, capsys):
    code, doc, _ = _run(capsys, ["eivc", "--graph", graph_files["C4"],
                                 "--s", "1", "--t", "3", "--k", "2"])
    assert code == 0 and doc["answer"] == "YES"
    assert doc["witness"]["deleted"] == [2, 4]
    assert any("endpoint" in note for note in doc["notes"])


def test_oct_and_bipartization_commands(graph_files, capsys):
    code, doc, _ = _run(capsys, ["oct", "--graph", graph_files["D4"], "--k", "1"])
    assert code == 0 and doc["answer"] == "YES" and len(doc["witness"]) == 1
    code, doc, _ = _run(capsys, ["stable-bip", "--graph", graph_files["D4"], "--k", "1"])
    assert code == 0 and doc["answer"] in ("YES", "NO")
    code, doc, _ = _run(capsys, ["exact-stable-bip", "--graph", graph_files["C4"], "--k", "2"])
    assert code == 0 and doc["answer"] == "YES" and len(doc["witness"]) == 2


def test_exact_c_command(graph_files, capsys):
    code, doc, _ = _run(capsys, ["exact-c", "--graph", graph_files["PP"],
                                 "--s", "1", "--t", "6", "--k", "2"])
    assert code == 0 and doc["witness"] == [2, 3, 4, 5]


def test_reduce_command(graph_files, capsys):
    code, doc, _ = _run(capsys, ["reduce", "--graph", graph_files["PP"],
                                 "--s", "1", "--t", "6", "--k", "1"])
    assert code == 0
    assert doc["witness"]["origin"] == [1, 6, "gadget", "gadget"]


def test_reduce_clamps_a_huge_budget(tmp_path, capsys):
    # no separator of a 10-vertex graph has more than 8 vertices, so k = 1000
    # prints the instance of k = 8: 9 gadgets for the one torso-added edge,
    # not 1001; only width_bound, the bound of the recursion run at the
    # given k, tells the two apart
    path = tmp_path / "g.gr"
    path.write_text(serialize_graph(Graph(10, [
        (0, 2), (0, 4), (0, 6), (1, 3), (1, 4), (2, 4), (2, 8), (2, 9),
        (3, 7), (4, 5), (4, 9), (5, 7), (5, 8), (6, 9), (7, 9)])))
    docs = []
    for k in ("1000", "8"):
        code, doc, _ = _run(capsys, ["reduce", "--graph", str(path),
                                     "--s", "2", "--t", "6", "--k", k])
        assert code == 0
        docs.append(doc["witness"])
    huge, clamped = docs
    assert huge["k"] == 8 and huge["origin"].count("gadget") == 9
    assert huge["n"] == len(huge["cover"]) + 9
    del huge["width_bound"], clamped["width_bound"]
    assert huge == clamped


def test_budget_past_a_flow_of_size_0(tmp_path, capsys):
    # P2 + P2 from 1 to 4: the flow has size 0, so every command answers at
    # k = 2000 as at k = 2, apart from the printed excess; the cover's
    # recursion, one level per unit of budget, overflowed the stack there
    path = tmp_path / "p2p2.gr"
    path.write_text(serialize_graph(Graph(4, [(0, 1), (2, 3)])))
    for argv in (["cover", "--s", "1", "--t", "4"],
                 ["gmincut", "--s", "1", "--t", "4", "--class", "any"],
                 ["stable-cut", "--s", "1", "--t", "4"],
                 ["reduce", "--s", "1", "--t", "4"],
                 ["multicut", "--cut", "1:4", "--class", "any"]):
        docs = []
        for k in ("2000", "2"):
            code, doc, err = _run(capsys, [argv[0], "--graph", str(path), *argv[1:], "--k", k])
            assert code == 0, err
            docs.append(doc)
        huge, small = docs
        if small["stats"]["excess"] is not None:
            assert (huge["stats"]["excess"], small["stats"]["excess"]) == (2000, 2)
            huge["stats"]["excess"] = 2
        assert huge == small
        assert small["witness"] in ([], [1, 4]) or small["witness"]["cover"] == [1, 4]


def test_decompose_writes_td(graph_files, capsys, tmp_path):
    out = tmp_path / "out.td"
    code, doc, _ = _run(capsys, ["decompose", "--graph", graph_files["Q3"],
                                 "--td-out", str(out)])
    assert code == 0
    td = decompose(FIXTURES["Q3"].graph)
    assert out.read_text() == format_td(td, 8)
    assert doc["stats"]["width"] == td.width


def test_unwritable_td_out_exit_1(graph_files, capsys, tmp_path):
    for target in (tmp_path / "missing" / "out.td", tmp_path):
        assert run_command(["decompose", "--graph", graph_files["Q3"],
                            "--td-out", str(target)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("usage error: cannot write --td-out: ")
        assert out.err.count("\n") == 1


def test_forbid_class_selector(graph_files, capsys):
    # forbidding the single edge as an induced subgraph equals edgeless
    code, doc, _ = _run(capsys, ["gmincut", "--graph", graph_files["C4"],
                                 "--s", "1", "--t", "3", "--k", "2",
                                 "--class", "forbid:A_"])
    assert code == 0 and doc["answer"] == "YES" and doc["witness"] == [2, 4]
    code, doc2, _ = _run(capsys, ["gmincut", "--graph", graph_files["D4"],
                                  "--s", "1", "--t", "3", "--k", "2",
                                  "--class", "forbid:A_"])
    assert code == 0 and doc2["answer"] == "NO"


def test_matchdef_class_selector(graph_files, capsys):
    # deficiency counts vertices minus matching size: one edge scores 1
    code, doc, _ = _run(capsys, ["gmincut", "--graph", graph_files["D4"],
                                 "--s", "1", "--t", "3", "--k", "2",
                                 "--class", "matchdef:1"])
    assert code == 0 and doc["answer"] == "YES" and doc["witness"] == [2, 4]
    code, doc2, _ = _run(capsys, ["gmincut", "--graph", graph_files["D4"],
                                  "--s", "1", "--t", "3", "--k", "2",
                                  "--class", "matchdef:0"])
    assert code == 0 and doc2["answer"] == "NO"


def test_usage_errors_exit_1(graph_files, capsys):
    assert run_command([]) == 1
    capsys.readouterr()
    assert run_command(["stable-cut", "--graph", graph_files["C4"],
                        "--s", "1", "--t", "99", "--k", "2"]) == 1
    capsys.readouterr()
    assert run_command(["stable-cut", "--graph", graph_files["C4"],
                        "--s", "1", "--t", "3"]) == 1
    capsys.readouterr()
    assert run_command(["multicut", "--graph", graph_files["C4"],
                        "--cut", "badpair", "--k", "1"]) == 1
    capsys.readouterr()
    assert run_command(["gmincut", "--graph", graph_files["C4"],
                        "--s", "1", "--t", "3", "--k", "1", "--class", "zzz"]) == 1
    capsys.readouterr()


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p 2 1\ne 1 1\n")
    assert run_command(["minsep", "--graph", str(bad), "--s", "1", "--t", "2"]) == 2
    capsys.readouterr()
    assert run_command(["minsep", "--graph", str(tmp_path / "none.gr"),
                        "--s", "1", "--t", "2"]) == 2
    capsys.readouterr()
    # a vertex count far past the limit is refused before anything is built
    bad.write_text("p 99999999999 0\n")
    assert run_command(["decompose", "--graph", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 1: header declares")


def test_unreadable_graph_exit_2(tmp_path, capsys):
    # a permission error takes the same path, but root reads any file, so
    # it is not exercised here
    binary = tmp_path / "latin1.gr"
    binary.write_bytes("c caf\u00e9\np 2 1\ne 1 2\n".encode("latin-1"))
    for path in (tmp_path, binary):
        assert run_command(["minsep", "--graph", str(path), "--s", "1", "--t", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("parse error: ")


def test_json_schema_stable(graph_files, capsys):
    code, doc, _ = _run(capsys, ["gmincut", "--graph", graph_files["C4"],
                                 "--s", "1", "--t", "3", "--k", "2",
                                 "--class", "edgeless"])
    assert code == 0
    assert sorted(doc) == ["answer", "command", "notes", "stats", "witness"]
    assert sorted(doc["stats"]) == ["cover_size", "dp_states", "ell", "excess",
                                    "width", "width_bound"]


_NULL_STATS = dict.fromkeys(("cover_size", "dp_states", "ell", "excess",
                             "width", "width_bound"))


def _stats(**given):
    return {**_NULL_STATS, **given}


_REDUCED_PP = {"cover": [1, 6], "edges": [[1, 3], [1, 4], [2, 3], [2, 4]], "k": 1, "n": 4,
               "origin": [1, 6, "gadget", "gadget"], "terminals": [1, 6], "width_bound": 2}
_Q3_TD = {"bags": [[1, 2, 3, 5], [2, 3, 4, 8], [2, 5, 6, 8], [2, 3, 5, 8], [3, 5, 7, 8],
                   [5, 7, 8], [7, 8], [8]],
          "tree": [[1, 4], [2, 4], [3, 4], [4, 5], [5, 6], [6, 7], [7, 8]], "width": 3}


# the full stats object and the witness of each C12 command; exact-c, oct,
# exact-stable-bip and selfcheck report no stats
@pytest.mark.parametrize("argv, want", [
    (["minsep", "PP", "--s", "1", "--t", "6"],
     (_stats(ell=2), [2, 4])),
    (["chain", "PP", "--s", "1", "--t", "6"],
     (_stats(ell=2), {"boundaries": [[2, 4], [3, 4], [3, 5]], "ell": 2,
                      "sets": [[1], [1, 2], [1, 2, 4]]})),
    (["cover", "Q3", "--s", "1", "--t", "8", "--k", "6"],
     (_stats(cover_size=8, ell=3, excess=3), [1, 2, 3, 4, 5, 6, 7, 8])),
    (["reduce", "PP", "--s", "1", "--t", "6", "--k", "1"],
     (_stats(cover_size=2, width_bound=2), _REDUCED_PP)),
    (["decompose", "Q3"],
     (_stats(width=3), _Q3_TD)),
    (["gmincut", "PP", "--s", "1", "--t", "6", "--k", "3", "--class", "forest"],
     (_stats(cover_size=6, dp_states=92, ell=2, excess=1, width=2, width_bound=9517),
      [2, 4])),
    (["multicut", "PP", "--cut", "1:6", "--uncut", "2:4", "--k", "2", "--class", "any"],
     (_stats(cover_size=6, dp_states=34, width=2, width_bound=42), [3, 5])),
    (["stable-cut", "C4", "--s", "1", "--t", "3", "--k", "2"],
     (_stats(cover_size=4, dp_states=25, ell=2, excess=0, width=2, width_bound=40),
      [2, 4])),
    (["eivc", "C4", "--s", "1", "--t", "3", "--k", "2"],
     (_stats(cover_size=4, dp_states=25, ell=2, excess=2, width=2, width_bound=2312428),
      {"deleted": [2, 4], "edges": [[1, 2], [1, 4]]})),
    (["oct", "D4", "--k", "1"],
     (_NULL_STATS, [4])),
    (["stable-bip", "D4", "--k", "2"],
     (_stats(cover_size=3, dp_states=11, ell=1, excess=1, width=1, width_bound=589),
      [4])),
    (["exact-stable-bip", "C4", "--k", "2"],
     (_NULL_STATS, [2, 4])),
    (["exact-c", "PP", "--s", "1", "--t", "6", "--k", "2"],
     (_NULL_STATS, [2, 3, 4, 5])),
    (["selfcheck", "--trials", "10", "--seed", "7", "--suites", "minsep,chain,cover"],
     (_NULL_STATS, {"mismatches": [], "trials": 25})),
])
def test_c12_command_stats_pinned(graph_files, capsys, argv, want):
    if argv[0] != "selfcheck":
        argv = [argv[0], "--graph", graph_files[argv[1]]] + argv[2:]
    code, doc, err = _run(capsys, argv)
    assert code == 0, err
    assert (doc["stats"], doc["witness"]) == want


def test_cli_json_deterministic(graph_files, capsys):
    outputs = set()
    for _ in range(3):
        code, _, _ = run_command(["gmincut", "--graph", graph_files["PP"],
                                  "--s", "1", "--t", "6", "--k", "3",
                                  "--class", "forest"]), None, None
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_parser_reused_without_leaking_values(graph_files, capsys):
    # the parser is built once per process; flags given to one command must
    # not become the defaults of the next
    code, doc, _ = _run(capsys, ["gmincut", "--graph", graph_files["D4"],
                                 "--s", "1", "--t", "3", "--k", "2",
                                 "--class", "any"])
    assert code == 0 and doc["answer"] == "YES" and doc["witness"] == [2, 4]
    code, doc, _ = _run(capsys, ["stable-cut", "--graph", graph_files["D4"],
                                 "--s", "1", "--t", "3", "--k", "2"])
    assert code == 0 and doc["answer"] == "NO"
    code, doc, _ = _run(capsys, ["gmincut", "--graph", graph_files["D4"],
                                 "--s", "1", "--t", "3", "--k", "2"])
    assert code == 0 and doc["answer"] == "NO"
    parser = _build_parser()
    assert parser is _build_parser()
    cut = ["gmincut", "--graph", graph_files["C4"], "--s", "1", "--t", "3", "--k", "2"]
    assert parser.parse_args(cut + ["--class", "any"]).cls == "any"
    assert parser.parse_args(cut).cls == "edgeless"
    parser.parse_args(["selfcheck", "--seed", "9", "--trials", "3"])
    args = parser.parse_args(["selfcheck"])
    assert (args.seed, args.trials) == (0, 50)
    parser.parse_args(["reduce", "--graph", graph_files["C4"], "--s", "1", "--t", "3",
                       "--cut", "2:4", "--k", "1"])
    args = parser.parse_args(["reduce", "--graph", graph_files["C4"], "--k", "1"])
    assert (args.s, args.t, args.cut) == (None, None, "")


# the flags each command reads, required ones first; no command takes others
ROWS = {
    "minsep": (["--graph", "--s", "--t"], []),
    "chain": (["--graph", "--s", "--t"], []),
    "cover": (["--graph", "--s", "--t", "--k"], []),
    "reduce": (["--graph", "--k"], ["--s", "--t", "--cut", "--uncut"]),
    "decompose": (["--graph"], ["--td-out"]),
    "gmincut": (["--graph", "--s", "--t", "--k"], ["--class"]),
    "multicut": (["--graph", "--k"], ["--cut", "--uncut", "--class"]),
    "stable-cut": (["--graph", "--s", "--t", "--k"], []),
    "eivc": (["--graph", "--s", "--t", "--k"], []),
    "oct": (["--graph", "--k"], []),
    "stable-bip": (["--graph", "--k"], []),
    "exact-stable-bip": (["--graph", "--k"], []),
    "exact-c": (["--graph", "--s", "--t", "--k"], []),
    "selfcheck": ([], ["--seed", "--trials", "--suites"]),
}


def _parser_rows():
    """{command: (required flags, optional flags)} as the parser has them."""
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return {name: tuple(sorted(flag for a in p._actions if a.dest != "help"
                               and a.required == required for flag in a.option_strings)
                        for required in (True, False))
            for name, p in sub.choices.items()}


def test_each_command_takes_only_its_flags():
    want = {name: tuple(sorted(flags) for flags in row) for name, row in ROWS.items()}
    assert _parser_rows() == want
    assert sum(len(req) + len(opt) for req, opt in ROWS.values()) == 49


@pytest.mark.parametrize("command", sorted(ROWS))
def test_flag_outside_its_row_is_a_usage_error(graph_files, capsys, tmp_path, command):
    # a flag the command does not read is refused, not silently ignored
    values = {"--graph": graph_files["C4"], "--s": "1", "--t": "3", "--cut": "1:3",
              "--uncut": "2:4", "--k": "2", "--class": "any",
              "--td-out": str(tmp_path / "x.td"), "--seed": "1", "--trials": "0",
              "--suites": "minsep"}
    required, optional = ROWS[command]
    given = [flag for flag in required + optional if flag != "--td-out"]
    argv = [command] + [word for flag in given for word in (flag, values[flag])]
    assert run_command(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    outside = [flag for flag in values if flag not in required + optional]
    assert outside
    for flag in outside:
        assert run_command(argv + [flag, values[flag]]) == 1, flag
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("usage error: ")
        assert out.err.count("\n") == 1 and flag in out.err
    assert not (tmp_path / "x.td").exists()


@pytest.mark.parametrize("argv, named", [
    (["stable-cut", "--graph", "none.gr", "--s", "1", "--t", "3", "--k", "2",
      "--class", "any"], "--class any"),
    (["stable-cut", "--graph", "none.gr", "--s", "1", "--t", "3", "--k", "2",
      "--td-out", "x.td"], "--td-out x.td"),
    (["oct", "--graph", "none.gr", "--k", "1", "--s", "99", "--class", "zzz"],
     "--s 99 --class zzz"),
    (["decompose", "--graph", "none.gr", "--class", "zzz", "--k", "-4", "--suites", "bogus"],
     "--class zzz --k -4 --suites bogus"),
    (["oct", "--graph", "none.gr", "--k", "-4"],
     "argument --k: must be a non-negative integer, got '-4'"),
    (["oct", "--graph", "none.gr", "--k", "x"],
     "argument --k: must be a non-negative integer, got 'x'"),
    (["oct", "--graph", "none.gr"], "--k"),
    (["minsep", "--graph", "none.gr", "--s", "1"], "--t"),
    (["selfcheck", "--t", "3"], "--t 3"),
    (["multicut", "--graph", "none.gr", "--c", "1:3", "--k", "1"], "--c 1:3"),
], ids=["stable-cut-class", "stable-cut-td-out", "oct-s-class", "decompose-k-suites",
        "negative-k", "non-integer-k", "missing-k", "missing-t", "abbreviated-trials",
        "abbreviated-cut"])
def test_bad_flags_are_refused_before_the_graph_is_read(capsys, tmp_path, monkeypatch,
                                                        argv, named):
    # none.gr does not exist: the flag error comes first, with exit 1, not 2
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("usage error: ") and named in out.err
    assert out.err.count("\n") == 1
    assert not (tmp_path / "x.td").exists()


def _readme_cli():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_examples_parse():
    block = _readme_cli().split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("sepkit ")]
    assert {shlex.split(line)[1] for line in lines} == set(ROWS)
    for line in lines:
        _build_parser().parse_args(shlex.split(line)[1:])


def test_readme_flag_table_matches_the_parser():
    rows = {}
    for line in _readme_cli().splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) == 3 and cells[0].strip().startswith("`"):
            flags = tuple(sorted(re.findall(r"--[a-z-]+", cell)) for cell in cells[1:])
            for name in re.findall(r"`([a-z-]+)`", cells[0]):
                rows[name] = flags
    assert rows == _parser_rows()


@pytest.mark.parametrize("argv", [
    ["stable-cut", "--s", "1", "--t", "3", "--k", "65"],
    ["gmincut", "--s", "1", "--t", "3", "--k", "70", "--class", "any"],
    ["multicut", "--cut", "1:3", "--k", "65", "--class", "any"],
])
def test_budget_above_class_max_check(graph_files, capsys, argv):
    # a budget above the class's max_check is clamped to the deletable
    # vertices instead of being refused
    code, doc, err = _run(capsys, argv[:1] + ["--graph", graph_files["C4"]] + argv[1:])
    assert code == 0, err
    assert doc["answer"] == "YES" and doc["witness"] == [2, 4]


def test_a_saturated_budget_prints_no_warning(graph_files, capsys):
    # the width bound saturates at k = 65 on C4, and width_bound saying so
    # is the only report, under the default filters as under -W error
    argv = ["stable-cut", "--graph", graph_files["C4"], "--s", "1", "--t", "3",
            "--k", "65"]
    code, doc, err = _run(capsys, argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # as under python -W error
        code_strict, doc_strict, err_strict = _run(capsys, argv)
    assert code == code_strict == 0
    assert doc == doc_strict and doc["answer"] == "YES"
    assert doc["stats"]["width_bound"] == 2 ** 63 - 1
    for text in (err, err_strict):
        assert "warning" not in text.lower() and ".py:" not in text
        assert text.startswith("stable-cut: YES (time_ms=")


@pytest.mark.parametrize("argv", [
    ["gmincut", "--s", "1", "--t", "3", "--class", "forbid:?"],
    ["multicut", "--cut", "1:3", "--class", "forbid:?"],
])
def test_a_class_without_the_empty_graph_answers_no(tmp_path, capsys, argv):
    # forbid:? forbids the 0-vertex graph, so its class holds no graph; both
    # commands once ended in exit 3 on a failed re-verification
    path = tmp_path / "g.gr"
    path.write_text("p 4 1\ne 1 2\n")
    for k in ("0", "1"):
        code, doc, err = _run(capsys, argv[:1] + ["--graph", str(path), "--k", k] + argv[1:])
        assert code == 0, err
        assert doc["answer"] == "NO" and doc["witness"] is None


def test_stable_cut_complete_bipartite_is_fast(tmp_path, capsys):
    # K_{2,12}: the DP's forms carry up to 12 forgotten isolated deleted
    # vertices, which the canonical form used to permute (about 16 minutes)
    p = tmp_path / "k2_12.gr"
    p.write_text("p 14 24\n" + "".join(f"e {a} {v}\n" for a in (1, 2)
                                        for v in range(3, 15)))
    start = time.perf_counter()
    code, doc, err = _run(capsys, ["stable-cut", "--graph", str(p), "--s", "1",
                                   "--t", "2", "--k", "12"])
    assert time.perf_counter() - start < 5.0
    assert code == 0, err
    assert doc["answer"] == "YES" and doc["witness"] == list(range(3, 15))


def _count_flows(monkeypatch) -> list:
    calls = []
    flow = sepkit.separation.min_vertex_separator

    def counted(*args, **kwargs):
        calls.append(1)
        return flow(*args, **kwargs)

    for module in (sepkit.separation, sepkit.cli):
        monkeypatch.setattr(module, "min_vertex_separator", counted)
    # a cover's layer subproblems are flowed on the layer's PairNetwork
    layer_flow = sepkit.separation.PairNetwork.flow

    def layer_counted(*args, **kwargs):
        calls.append(1)
        return layer_flow(*args, **kwargs)

    monkeypatch.setattr(sepkit.separation.PairNetwork, "flow", layer_counted)
    return calls


def test_cover_command_runs_one_flow(graph_files, capsys, monkeypatch):
    calls = _count_flows(monkeypatch)
    code, doc, _ = _run(capsys, ["cover", "--graph", graph_files["Q3"],
                                 "--s", "1", "--t", "8", "--k", "3"])
    assert code == 0 and doc["stats"]["cover_size"] == 8
    assert len(calls) == 1


@pytest.mark.parametrize("command, graph, flags, answer", [
    ("stable-cut", "Q3", ["--s", "1", "--t", "8", "--k", "3"], "YES"),
    ("stable-cut", "Q3", ["--s", "8", "--t", "1", "--k", "3"], "YES"),
    ("stable-cut", "C4", ["--s", "1", "--t", "3", "--k", "1"], "NO"),
    ("eivc", "PP", ["--s", "1", "--t", "6", "--k", "1"], "NO"),
])
def test_mincut_commands_run_one_flow(graph_files, capsys, monkeypatch,
                                      command, graph, flags, answer):
    calls = _count_flows(monkeypatch)
    code, doc, _ = _run(capsys, [command, "--graph", graph_files[graph]] + flags)
    assert code == 0 and doc["answer"] == answer
    assert len(calls) == 1


@pytest.mark.parametrize("selector", ["maxdeg:x", "matchdef:", "maxdeg:-1", "matchdef:-2"])
def test_bad_class_parameter_is_a_usage_error(graph_files, capsys, selector):
    code, _, err = _run(capsys, ["gmincut", "--graph", graph_files["C4"], "--s", "1",
                                 "--t", "3", "--k", "2", "--class", selector])
    assert code == 1
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, flags", [
    ("gmincut", ["--s", "1", "--t", "3", "--k", "2", "--class", "any"]),
    ("stable-cut", ["--s", "1", "--t", "3", "--k", "2"]),
    ("multicut", ["--cut", "1:3", "--k", "2"]),
    ("eivc", ["--s", "1", "--t", "3", "--k", "2"]),
])
def test_failed_reverification_exit_3(graph_files, capsys, monkeypatch, command, flags):
    monkeypatch.setattr(sepkit.solver, "verify_solution", lambda *args: False)
    argv = [command, "--graph", graph_files["C4"]] + flags
    code, _, err = _run(capsys, argv)
    assert code == 3
    assert err.startswith("verification error: ") and err.count("\n") == 1
    assert err.endswith(f"replay: sepkit {shlex.join(argv)}\n")


def test_failed_edge_witness_check_exit_3(graph_files, capsys, monkeypatch):
    monkeypatch.setattr(sepkit.problems, "is_separator", lambda *args: False)
    argv = ["eivc", "--graph", graph_files["C4"], "--s", "1", "--t", "3", "--k", "2"]
    code, _, err = _run(capsys, argv)
    assert code == 3
    assert err == (f"verification error: edge witness failed re-verification; "
                   f"replay: sepkit {shlex.join(argv)}\n")


def _crossed_chain(G, s, t):
    return SeparatorChain(2, ((0, 1), (0, 3)), ((2, 3), (1, 4)))


def _fails_in(function_name, real, failed=False):
    """``real``, except that calls made from ``function_name`` answer
    ``failed``."""
    def patched(*args):
        if sys._getframe(1).f_code.co_name == function_name:
            return failed
        return real(*args)
    return patched


@pytest.mark.parametrize("command, graph, flags, target, replacement", [
    ("minsep", "C4", ["--s", "1", "--t", "3"], "is_separator", lambda *args: False),
    ("chain", "PP", ["--s", "1", "--t", "6"], "build_chain", _crossed_chain),
    ("decompose", "Q3", [], "validate_decomposition", lambda *args: False),
])
def test_failed_cli_result_check_exit_3(graph_files, capsys, monkeypatch, command,
                                        graph, flags, target, replacement):
    monkeypatch.setattr(sepkit.cli, target, replacement)
    argv = [command, "--graph", graph_files[graph]] + flags
    code, _, err = _run(capsys, argv)
    assert code == 3
    assert err.startswith("verification error: ") and err.count("\n") == 1
    assert err.endswith(f"replay: sepkit {shlex.join(argv)}\n")


def test_failed_oct_check_exit_3(tmp_path, capsys, monkeypatch):
    # two triangles sharing vertex 1: the prefix pass holds (3,) when the
    # second triangle closes, so a compression step finds (1,) and checks it
    p = tmp_path / "bowtie.gr"
    p.write_text("p 5 6\ne 1 2\ne 2 3\ne 3 1\ne 1 4\ne 4 5\ne 5 1\n")
    argv = ["oct", "--graph", str(p), "--k", "1"]
    code, doc, _ = _run(capsys, argv)
    assert code == 0 and doc["witness"] == [1]
    monkeypatch.setattr(sepkit.problems, "two_coloring",
                        _fails_in("_compress_oct", sepkit.problems.two_coloring, None))
    code, _, err = _run(capsys, argv)
    assert code == 3
    assert err == ("verification error: odd cycle transversal failed re-verification; "
                   f"replay: sepkit {shlex.join(argv)}\n")


def test_failed_stable_bip_check_exit_3(graph_files, capsys, monkeypatch):
    # only the final check of the branch witness fails, so a wrong witness
    # cannot pass for a NO
    argv = ["stable-bip", "--graph", graph_files["D4"], "--k", "2"]
    code, doc, _ = _run(capsys, argv)
    assert code == 0 and doc["answer"] == "YES"
    monkeypatch.setattr(sepkit.problems, "two_coloring",
                        _fails_in("stable_bipartization", sepkit.problems.two_coloring, None))
    code, _, err = _run(capsys, argv)
    assert code == 3
    assert err == ("verification error: stable bipartization failed re-verification; "
                   f"replay: sepkit {shlex.join(argv)}\n")


def test_failed_exact_stable_bip_check_exit_3(tmp_path, capsys, monkeypatch):
    # C7 at k=1 takes the long-odd-cycle path, whose result is re-checked
    p = tmp_path / "c7.gr"
    p.write_text("p 7 7\n" + "".join(f"e {i + 1} {(i + 1) % 7 + 1}\n" for i in range(7)))
    argv = ["exact-stable-bip", "--graph", str(p), "--k", "1"]
    code, doc, _ = _run(capsys, argv)
    assert code == 0 and doc["answer"] == "YES"
    monkeypatch.setattr(sepkit.problems, "_is_independent",
                        _fails_in("_exact_solve", sepkit.problems._is_independent))
    code, _, err = _run(capsys, argv)
    assert code == 3
    assert err == ("verification error: stable bipartization failed re-verification; "
                   f"replay: sepkit {shlex.join(argv)}\n")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, because this one has loaded both; together they
    # took most of a one-shot command's start-up. Only what the import adds
    # counts, not what site-packages hooks loaded before it. The oracles are
    # loaded by selfcheck alone, shlex by a verification error alone, and
    # json not at all: _dumps writes the result line.
    src = str(pathlib.Path(sepkit.cli.__file__).resolve().parents[1])
    probe = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
             "import sepkit.cli; print(sorted({'dataclasses', 'inspect', 'json', 'shlex',"
             " 'sepkit.oracle'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-I", "-c", probe, src],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_cli_has_no_assert_statements():
    # a result check written as assert vanishes under python -O
    source = pathlib.Path(sepkit.cli.__file__).read_text(encoding="utf-8")
    found = [node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Assert)]
    assert found == []


# characters json escapes in its own ways, drawn often: quote, backslash, the
# short escapes, other controls, DEL, non-ASCII, a line separator and astral
_TRICKY = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u2028\uffff\U0001f600\U0010ffff')
_TEXT = st.text(st.one_of(_TRICKY, st.characters()), max_size=12)
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=2 ** 63 - 2, max_value=2 ** 80).map(lambda i: i * (-1) ** i)
            | st.floats() | _TEXT)
_JSONABLE = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(_JSONABLE)
def test_dumps_matches_json(value):
    assert _dumps(value) == json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("value", [
    {2: "int", 1.5: "float", True: "bool"}, {None: 0}, {float("nan"): 1, float("inf"): 2},
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300], 2 ** 200, -(2 ** 64),
    "\ud800 lone surrogate", {"b": {"z": [], "a": {}}, "a": ()},
])
def test_dumps_matches_json_on_other_keys_and_floats(value):
    assert _dumps(value) == json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("value", [
    {1, 2}, b"bytes", 1j, object(), [1, {"a": frozenset()}], {(1, 2): 3}, {"a": 1, 2: 3},
])
def test_dumps_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, sort_keys=True)
    with pytest.raises(TypeError) as got:
        _dumps(value)
    assert str(got.value) == str(want.value)
