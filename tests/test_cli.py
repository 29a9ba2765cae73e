import json
import shlex
import time
import warnings

import pytest

import sepkit.cli
import sepkit.problems
import sepkit.separation
import sepkit.solver
from sepkit.cli import _build_parser, run_command
from sepkit.graphs import serialize_graph
from sepkit.oracle import FIXTURES
from sepkit.treedecomp import parse_td, validate_decomposition


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


def test_decompose_writes_td(graph_files, capsys, tmp_path):
    out = tmp_path / "out.td"
    code, doc, _ = _run(capsys, ["decompose", "--graph", graph_files["Q3"],
                                 "--td-out", str(out)])
    assert code == 0
    td, n = parse_td(out.read_text())
    assert n == 8 and validate_decomposition(FIXTURES["Q3"].graph, td)
    assert doc["stats"]["width"] == td.width


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
    parser.parse_args(["selfcheck", "--seed", "9", "--trials", "3", "--class", "any"])
    args = parser.parse_args(["stable-cut", "--graph", graph_files["C4"]])
    assert (args.cls, args.seed, args.trials, args.k) == ("edgeless", 0, 50, None)


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


def test_saturation_warning_is_one_clean_line(graph_files, capsys):
    argv = ["stable-cut", "--graph", graph_files["C4"], "--s", "1", "--t", "3",
            "--k", "65"]
    code, doc, err = _run(capsys, argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # as under python -W error
        code_strict, doc_strict, err_strict = _run(capsys, argv)
    assert code == code_strict == 0
    assert doc == doc_strict and doc["answer"] == "YES"
    for text in (err, err_strict):
        assert "UserWarning" not in text and ".py:" not in text
        lines = [ln for ln in text.splitlines() if ln.startswith("warning: ")]
        assert lines == ["warning: treewidth bound saturated for ell=2, excess=63"]


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


def test_cover_command_runs_one_flow(graph_files, capsys, monkeypatch):
    calls = []
    flow = sepkit.separation.min_vertex_separator

    def counted(*args, **kwargs):
        calls.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(sepkit.separation, "min_vertex_separator", counted)
    monkeypatch.setattr(sepkit.cli, "min_vertex_separator", counted)
    code, doc, _ = _run(capsys, ["cover", "--graph", graph_files["Q3"],
                                 "--s", "1", "--t", "8", "--k", "3"])
    assert code == 0 and doc["stats"]["cover_size"] == 8
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
