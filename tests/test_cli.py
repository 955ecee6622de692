"""End-to-end command-line tests, run in-process through main()."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import ramseylab
from ramseylab import cli, patterns, structures
from ramseylab.cli import main
from ramseylab.colorings import load_file
from ramseylab.hindman import Bundle, verify_witness
from ramseylab.sat import parse_dimacs

SCHUR = "{x, y, x+y}"
DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_find_reports_least_instance(capsys):
    code, report = run_json(
        capsys, "find", "--pattern", SCHUR,
        "--generator", "parity", "--n", "8", "--colors", "2")
    assert code == 0
    assert report["schema_version"] == 1
    assert report["verdict"] == "found"
    assert report["witness"] == {"assignment": {"x": 2, "y": 2}, "color": 0}
    assert report["stats"]["time_ms"] == 0.0  # timing off by default
    assert report["query"]["pattern"] == SCHUR


def test_find_all_lists_instances(capsys):
    code, report = run_json(
        capsys, "find", "--pattern", SCHUR, "--all", "--max-witnesses", "5",
        "--generator", "constant", "--n", "6", "--colors", "2",
        "--param", "0")
    assert code == 0
    assert report["verdict"] == "found"
    assert len(report["witness"]) == 5


def test_find_none_verdict(capsys):
    code, report = run_json(
        capsys, "find", "--pattern", SCHUR,
        "--generator", "blocks", "--n", "4", "--colors", "2",
        "--param", "1,2")
    # width cycle (1, 2) lays down [0, 1, 1, 0], the sum-free coloring
    assert code == 0
    assert report["verdict"] == "none"
    assert report["witness"] is None


def test_find_requires_one_coloring_source(capsys, tmp_path):
    code, report = run_json(capsys, "find", "--pattern", SCHUR)
    assert code == 1 and report["verdict"] == "error"
    path = tmp_path / "c.txt"
    path.write_text("1 4 2\n0 1 1 0\n")
    code, report = run_json(
        capsys, "find", "--pattern", SCHUR, "--coloring-file", str(path),
        "--generator", "parity", "--n", "4", "--colors", "2")
    assert code == 1 and report["verdict"] == "error"
    assert "not both" in report["error"]


def test_find_reports_pattern_syntax_error(capsys):
    code, report = run_json(
        capsys, "find", "--pattern", "{x, y",
        "--generator", "parity", "--n", "4", "--colors", "2")
    assert code == 1
    assert report["verdict"] == "error"
    assert "offset" in report["error"]


def test_usage_errors_exit_one(capsys):
    # argparse failures are remapped from its default exit status 2,
    # which is reserved for exhausted budgets
    assert main(["find"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_avoid_writes_coloring(capsys, tmp_path):
    out = tmp_path / "avoid.txt"
    code, report = run_json(
        capsys, "avoid", "--pattern", SCHUR, "--n", "4", "--colors", "2",
        "--coloring-out", str(out))
    assert code == 0
    assert report["verdict"] == "sat"
    assert report["witness"] == {"cells": [0, 1, 1, 0]}
    assert list(load_file(out).cells) == [0, 1, 1, 0]


def test_avoid_unsat_at_threshold(capsys):
    for engine in ("backtracking", "sat", "exhaustive"):
        code, report = run_json(
            capsys, "avoid", "--pattern", SCHUR, "--n", "5", "--colors", "2",
            "--engine", engine)
        assert code == 0
        assert report["verdict"] == "unsat"
        assert report["witness"] is None


def test_avoid_budget_exhaustion_exits_two(capsys):
    code, report = run_json(
        capsys, "avoid", "--pattern", SCHUR, "--n", "13", "--colors", "3",
        "--max-nodes", "5")
    assert code == 2
    assert report["verdict"] == "unknown"


@pytest.mark.parametrize("engine, nodes", [("backtracking", 6),
                                           ("exhaustive", 6), ("sat", 14)])
def test_avoid_budget_exhaustion_reports_nodes(capsys, engine, nodes):
    code, report = run_json(
        capsys, "avoid", "--pattern", SCHUR, "--n", "13", "--colors", "3",
        "--max-nodes", "5", "--engine", engine, "--workers", "1")
    assert code == 2
    assert report["verdict"] == "unknown"
    assert report["stats"]["nodes"] == nodes


def test_avoid_past_the_leaf_budget_exits_two(capsys):
    # the value sets of this box used to be enumerated in full, past any
    # --max-nodes, until memory ran out; now leaf LEAF_BUDGET + 1 stops them
    code, report = run_json(
        capsys, "avoid", "--pattern", SCHUR, "--n", "200000", "--colors", "2",
        "--max-nodes", "10")
    assert (code, report["verdict"], report["witness"]) == (2, "unknown", None)
    assert report["stats"]["nodes"] == patterns.LEAF_BUDGET + 1
    assert report["query"]["n"] == 200000


@pytest.mark.parametrize("engine", ["backtracking", "sat", "exhaustive"])
def test_a_box_past_the_leaf_budget_exits_two_before_it_is_built(capsys,
                                                                 engine):
    # one instance, but a colour table and per-value arrays of 10^9 + 1
    # entries used to be built first, past any timeout
    code, report = run_json(
        capsys, "avoid", "--pattern", "{x+999999990}", "--n", "1000000000",
        "--colors", "2", "--engine", engine)
    assert (code, report["verdict"], report["witness"]) == (2, "unknown", None)
    assert report["stats"]["nodes"] == patterns.LEAF_BUDGET + 1


DEEP_TERMS = {
    "sum-202": ("{" + "+".join(["x"] * 202) + "}",
                "term nested deeper than 100 (at offset 202)"),
    "sum-1000": ("{" + "+".join(["x"] * 1000) + "}",
                 "term nested deeper than 100 (at offset 202)"),
    "parens-400": ("{" + "(" * 400 + "x" + ")" * 400 + "}",
                   "parentheses nested deeper than 100 (at offset 101)"),
}


@pytest.mark.parametrize("shape", sorted(DEEP_TERMS))
@pytest.mark.parametrize("argv", [
    ("find", "--generator", "parity", "--n", "8", "--colors", "2"),
    ("avoid", "--n", "5", "--colors", "2"),
    ("threshold", "--colors", "2", "--n-max", "5")],
    ids=["find", "avoid", "threshold"])
def test_a_term_nested_past_the_bound_is_an_input_error(capsys, argv, shape):
    # these ended in a traceback (too many nested parentheses in the
    # compiled scan, or RecursionError) with no report
    pattern, error = DEEP_TERMS[shape]
    code, report = run_json(capsys, *argv, "--pattern", pattern)
    assert (code, report["verdict"], report["error"]) == (1, "error", error)


def test_a_huge_palette_is_refused_by_the_clause_bound_only(capsys, tmp_path):
    # 10 * (1 + C(100000, 2)) exactly-one clauses pass LEAF_BUDGET, so sat
    # and encode answer unknown before they build one; backtracking needs
    # only as many colours as values, and answers as it does at c = 5
    argv = ("--pattern", SCHUR, "--n", "10", "--colors", "100000")
    code, report = run_json(capsys, "avoid", *argv, "--engine", "sat")
    assert (code, report["verdict"]) == (2, "unknown")
    assert report["stats"]["nodes"] == patterns.LEAF_BUDGET + 1
    cnf = tmp_path / "huge.cnf"
    code, report = run_json(capsys, "encode", *argv, "--out-cnf", str(cnf))
    assert (code, report["verdict"]) == (2, "unknown")
    assert not cnf.exists()
    code, report = run_json(capsys, "avoid", *argv)
    assert (code, report["verdict"]) == (0, "sat")
    assert report["witness"]["cells"] == [0, 1, 0, 2, 0, 1, 0, 3, 0, 1]
    assert report["stats"]["nodes"] == 18


def test_encode_past_the_leaf_budget_exits_two(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(patterns, "LEAF_BUDGET", 6)  # Schur: 10 leaves at 5
    cnf = tmp_path / "s5.cnf"
    code, report = run_json(
        capsys, "encode", "--pattern", SCHUR, "--n", "5", "--colors", "2",
        "--out-cnf", str(cnf))
    assert (code, report["verdict"], report["stats"]["nodes"]) == (
        2, "unknown", 7)
    assert not cnf.exists()


def test_threshold_past_the_leaf_budget_keeps_its_rows(capsys, monkeypatch,
                                                       tmp_path):
    monkeypatch.setattr(patterns, "LEAF_BUDGET", 6)  # Schur: 10 leaves at 5
    csv = tmp_path / "rows.csv"
    code, report = run_json(
        capsys, "threshold", "--pattern", SCHUR, "--colors", "2",
        "--n-max", "8", "--csv", str(csv))
    assert (code, report["verdict"], report["witness"]) == (2, "unknown", None)
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("1", "sat"), ("2", "sat"), ("3", "sat"), ("4", "sat"),
        ("5", "unknown")]
    assert rows[-1][2] == "7"
    assert report["stats"]["nodes"] == sum(int(r[2]) for r in rows)


@pytest.mark.parametrize("engine", ["backtracking", "exhaustive", "sat"])
@pytest.mark.parametrize("n, colors", [(3, 0), (3, -1), (-3, 2)])
def test_avoid_rejects_an_empty_box_or_palette(capsys, engine, n, colors):
    # every engine used to answer differently: unsat, an IndexError, exit 1
    code, report = run_json(
        capsys, "avoid", "--pattern", SCHUR, "--n", str(n),
        "--colors", str(colors), "--engine", engine)
    assert (code, report["verdict"], report["error"]) == (
        1, "error", "avoidance search needs N >= 1 and c >= 1")


def test_threshold_rejects_zero_colors(capsys):
    # with no colors nothing can be colored, so N* = 1 was no answer
    code, report = run_json(
        capsys, "threshold", "--pattern", SCHUR, "--colors", "0",
        "--n-max", "5")
    assert (code, report["verdict"]) == (1, "error")


@pytest.mark.parametrize("n_max", [0, -3])
def test_threshold_rejects_an_empty_scan(capsys, n_max):
    # scanning nothing used to answer "unknown" with the budget's exit 2
    code, report = run_json(
        capsys, "threshold", "--pattern", SCHUR, "--colors", "2",
        "--n-max", str(n_max))
    assert (code, report["verdict"], report["error"]) == (
        1, "error", "threshold scan needs n_max >= 1")


_FINDERS = pytest.mark.parametrize("argv", [
    ("find", "--pattern", "{x}"),
    ("fs-witness", "--k", "2"),
    ("grid-witness", "--length", "3", "--blocks", "2"),
    ("bundle14", "--k", "2"),
    ("bundle15", "--corollary"),
], ids=["find", "fs-witness", "grid-witness", "bundle14", "corollary"])


@_FINDERS
@pytest.mark.parametrize("box", [("--colors", "0"), ("--colors", "-2")],
                         ids=["colors0", "colors-2"])
def test_random_generator_rejects_an_empty_palette(capsys, argv, box):
    # a random coloring with no colors used to crash with a traceback
    code, report = run_json(
        capsys, *argv, "--generator", "random", "--n", "10", *box)
    assert (code, report["verdict"], report["error"]) == (
        1, "error", "coloring requires N >= 1 and c >= 1")


D2_ERROR = "a coloring colors [1..N], so d must be 1, got d=2"


@_FINDERS
def test_a_grid_coloring_file_is_an_input_error(capsys, tmp_path, argv):
    path = tmp_path / "grid.txt"
    path.write_text("2 2 2\n0 1 1 0\n")
    code, report = run_json(capsys, *argv, "--coloring-file", str(path))
    assert (code, report["verdict"], report["error"]) == (1, "error",
                                                           D2_ERROR)


@_FINDERS
def test_there_is_no_dimension_flag(capsys, argv):
    coloring = ["--generator", "random", "--n", "10", "--colors", "2"]
    # a bare --d is no abbreviation of --distinct either
    for flag in (["--d", "2"], ["--d"]):
        code = main([*argv, *coloring, *flag])
        out, err = capsys.readouterr()
        assert (code, out) == (1, ""), flag
        assert "unrecognized arguments: --d" in err


@pytest.mark.parametrize("argv", [
    ("find", "--pattern", SCHUR, "--generator", "parity", "--n", "8",
     "--colors", "2"),
    ("avoid", "--pattern", SCHUR, "--n", "4", "--colors", "2"),
    ("threshold", "--pattern", SCHUR, "--colors", "2", "--n-max", "6"),
    ("encode", "--pattern", SCHUR, "--n", "4", "--colors", "2",
     "--out-cnf", os.devnull),
], ids=["find", "avoid", "threshold", "encode"])
def test_pattern_commands_refuse_abbreviated_flags(capsys, argv):
    for flag in (["--d"], ["--dist"], ["--min", "2"]):
        code = main([*argv, *flag])
        out, err = capsys.readouterr()
        assert (code, out) == (1, ""), flag
        assert f"unrecognized arguments: {flag[0]}" in err
    # spelled out in full, the same flags are accepted
    main([*argv, "--distinct", "--min-value", "2"])
    query = json.loads(capsys.readouterr().out)["query"]
    assert (query["distinct"], query["min_value"]) == (True, 2)


@pytest.mark.parametrize("argv", [
    ("find", "--pattern", SCHUR, "--generator", "parity", "--n", "8", "--colors", "2", "--distinc"),
    ("avoid", "--pattern", SCHUR, "--n", "4", "--colors", "2", "--bogus", "3"),
    ("verify", "w.json", "--bogus"),
], ids=["find", "avoid", "verify"])
def test_a_bad_flag_shows_its_subcommand_usage(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: ramseylab {argv[0]} [-h]")
    bad = argv[argv.index("--distinc" if argv[0] == "find" else "--bogus"):]
    assert err.endswith(f"ramseylab {argv[0]}: error: unrecognized "
                        f"arguments: {' '.join(bad)}\n")


def test_no_help_lists_a_dimension_flag():
    parser = cli.build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    for name, sub in subparsers.items():
        assert "--d " not in sub.format_help(), name


def _random(N):
    return ("--generator", "random", "--n", str(N), "--colors", "2",
            "--seed", "0")


@pytest.mark.parametrize("argv, flag", [
    (("find", "--pattern", "{x, y, x*y, x+y}") + _random(60), "--max-nodes"),
    (("fs-witness", "--k", "3") + _random(60), "--budget"),
    (("grid-witness", "--length", "4", "--blocks", "2") + _random(60),
     "--budget"),
    (("bundle14", "--k", "2") + _random(100), "--budget"),
    (("bundle15", "--k", "2") + _random(40), "--budget"),
    (("bundle15", "--corollary") + _random(60), "--budget"),
], ids=["find", "fs-witness", "grid-witness", "bundle14", "bundle15",
        "corollary"])
def test_finder_budget_exhaustion_reports_query_and_nodes(capsys, argv, flag):
    code, base = run_json(capsys, *argv)
    assert code == 0 and base["verdict"] == "found"
    nodes = base["stats"]["nodes"]
    code, report = run_json(capsys, *argv, flag, str(nodes - 1))
    assert code == 2
    assert report == dict(base, verdict="unknown", witness=None,
                          stats=dict(base["stats"], nodes=nodes))


@pytest.mark.parametrize("command", ["bundle14", "bundle15"])
@pytest.mark.parametrize("flags", [("--k", "4"), ("--k", "4", "--budget", "0"),
                                   ("--k", "3", "--cap-a", "5")],
                         ids=["k4-default-cap", "k4-budget0", "k3-cap5"])
def test_bundle_cap_below_the_floor_answers_none(capsys, command, flags):
    """A k-generator FS set has at least k(k+1)/2 values, more than |A| may
    have here, so no walk under the cap could answer (one A of 10 values
    is a bundle on one color): the cap is refused and the least size
    named."""
    code, report = run_json(capsys, command, *flags, "--generator",
                            "constant", "--n", "60", "--colors", "1",
                            "--param", "0")
    k, cap = int(flags[1]), {"bundle14": 7, "bundle15": 9}[command]
    if "--cap-a" in flags:
        cap = int(flags[flags.index("--cap-a") + 1])
    least = k * (k + 1) // 2
    assert (code, report["verdict"], report["error"]) == (
        1, "error", f"cap_a {cap} is below {least}, the least |A| that "
        f"holds a {k}-generator FS set")


BUNDLE15_N40 = ("bundle15", "--k", "2") + _random(40)
GRID_N60 = ("grid-witness", "--length", "4", "--blocks", "2") + _random(60)


@pytest.mark.parametrize("argv, verdict", [
    (BUNDLE15_N40 + ("--budget", "16184"), "found"),
    (BUNDLE15_N40 + ("--budget", "16000"), "unknown"),
    (GRID_N60 + ("--budget", "635"), "found"),
], ids=["bundle15-found", "bundle15-unknown", "grid-found"])
def test_reports_do_not_depend_on_workers(capsys, argv, verdict):
    outs = [run(capsys, *argv, "--workers", w) for w in ("1", "2", "8")]
    assert outs[0] == outs[1] == outs[2]
    code, out = outs[0]
    assert code == (2 if verdict == "unknown" else 0)
    assert json.loads(out)["verdict"] == verdict


FIND_ALL_N3000 = ("find", "--pattern", "{x, y, 4*x+4*y}", "--generator",
                  "random", "--n", "3000", "--colors", "4", "--seed", "1",
                  "--all", "--max-witnesses", "3")


def test_find_all_budget_exhaustion_reports_query_and_nodes(capsys):
    code, base = run_json(capsys, *FIND_ALL_N3000)
    assert code == 0 and base["verdict"] == "found"
    assert [w["assignment"]["y"] for w in base["witness"]] == [1, 37, 52]
    # the third hit is leaf 52 (x=1, y=52); a budget of 5 stops at leaf 6
    assert run_json(capsys, *FIND_ALL_N3000, "--max-nodes", "52") == (0, base)
    code, report = run_json(capsys, *FIND_ALL_N3000, "--max-nodes", "5")
    assert code == 2
    assert report == dict(base, verdict="unknown", witness=None,
                          stats=dict(base["stats"], nodes=6))


def test_find_all_reports_leaves_visited(capsys):
    # the third hit is leaf 52, so the report counts 52 leaves, not 3 hits
    code, report = run_json(capsys, *FIND_ALL_N3000)
    assert (code, len(report["witness"]), report["stats"]["nodes"]) == (0, 3, 52)
    assert run_json(capsys, *FIND_ALL_N3000, "--max-nodes", "52") == (0, report)
    code, report = run_json(capsys, *FIND_ALL_N3000, "--max-nodes", "51")
    assert (code, report["verdict"], report["stats"]["nodes"]) == (2, "unknown", 52)


@pytest.mark.parametrize("engine", ["backtracking", "sat"])
def test_variable_free_pattern_past_min_value_is_unsat(capsys, engine):
    pattern = ("--pattern", "{3}", "--min-value", "5")
    code, report = run_json(capsys, "avoid", *pattern, "--n", "4",
                            "--colors", "2", "--engine", engine)
    assert (code, report["verdict"], report["witness"]) == (0, "unsat", None)
    code, report = run_json(capsys, "threshold", *pattern, "--n-max", "6",
                            "--colors", "2", "--engine", engine)
    assert (code, report["verdict"]) == (0, "found")
    assert report["witness"] == {"threshold": 3, "certificate": [0, 0]}
    code, report = run_json(capsys, "find", *pattern, "--generator",
                            "random", "--n", "4", "--colors", "2")
    assert (code, report["verdict"]) == (0, "found")


@pytest.mark.parametrize("pattern, code, verdict", [
    ("{x, y, 9223372036854775807*x*2}", 1, "error"),
    # x=1 already ends the scan; x=2 (10^19) is never evaluated
    ("{x, 5000000000000000000*x}", 0, "none"),
])
def test_find_overflow_only_where_the_scan_evaluates(capsys, pattern, code,
                                                     verdict):
    got, report = run_json(capsys, "find", "--pattern", pattern,
                           "--generator", "random", "--n", "10",
                           "--colors", "2")
    assert (got, report["verdict"]) == (code, verdict)
    if verdict == "error":
        assert report["error"] == \
            "term value 18446744073709551614 exceeds 64-bit cap"


def _limit_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_find_on_lazy_coloring_answers_without_per_value_work():
    # 10^8 values are past the cell budget, so the coloring stays lazy and
    # the scan must stop at x=1 without touching the other values
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(ramseylab.__file__))))
    proc = subprocess.run(
        [sys.executable, "-m", "ramseylab.cli", "find", "--pattern", "{x}",
         "--generator", "random", "--n", "100000000", "--colors", "2"],
        capture_output=True, text=True, timeout=30, env=env,
        preexec_fn=_limit_memory)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert (report["verdict"], report["stats"]["nodes"]) == ("found", 1)


PARSER_SEQUENCE = [
    BUNDLE15_N40 + ("--cap-b", "2"),  # usage error: unknown flag
    ("find", "--pattern", SCHUR, "--generator", "parity", "--n", "8",
     "--colors", "2"),
    ("--help",),
    BUNDLE15_N40 + ("--budget", "16000"),  # budget runs out
    ("avoid", "--pattern", SCHUR, "--n", "4"),  # usage error: no --colors
]


def test_cached_parser_answers_like_a_fresh_process(capsys, monkeypatch):
    """main() builds its parser once per process; each of these queries,
    run one after another (twice over) in this process, gives the exit
    code and stdout bytes of a fresh ``python -m ramseylab.cli``."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at this width
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(ramseylab.__file__))))
    fresh = []
    for argv in PARSER_SEQUENCE:
        proc = subprocess.run([sys.executable, "-m", "ramseylab.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env=env)
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in fresh] == [1, 0, 0, 2, 1]
    assert "usage: ramseylab" in fresh[2][1]
    for _ in range(2):
        assert [run(capsys, *argv) for argv in PARSER_SEQUENCE] == fresh
    assert cli._parser() is cli._parser()


def test_threshold_with_csv(capsys, tmp_path):
    csv = tmp_path / "rows.csv"
    code, report = run_json(
        capsys, "threshold", "--pattern", SCHUR, "--colors", "2",
        "--n-max", "8", "--csv", str(csv))
    assert code == 0
    assert report["verdict"] == "found"
    assert report["witness"]["threshold"] == 5
    assert report["witness"]["certificate"] == [0, 1, 1, 0]
    lines = csv.read_text().splitlines()
    assert lines[0] == "N,verdict,nodes,time_ms"
    assert [l.split(",")[1] for l in lines[1:]] == [
        "sat", "sat", "sat", "sat", "unsat"]


def test_encode_then_solve_round_trip(capsys, tmp_path):
    cnf = tmp_path / "s4.cnf"
    code, report = run_json(
        capsys, "encode", "--pattern", SCHUR, "--n", "4", "--colors", "2",
        "--out-cnf", str(cnf))
    assert code == 0
    assert report["verdict"] == "encoded"
    assert report["witness"]["vars"] == 8
    assert report["witness"]["clauses"] == 16
    formula = parse_dimacs(cnf.read_text())
    assert formula.var_count == 8

    model = tmp_path / "model.txt"
    code, report = run_json(
        capsys, "solve", str(cnf), "--n", "4", "--colors", "2",
        "--model-out", str(model))
    assert code == 0
    assert report["verdict"] == "sat"
    assert report["witness"]["cells"] == [0, 1, 1, 0]
    assert model.read_text().startswith("s SATISFIABLE")


@pytest.mark.parametrize("flags", [("--n", "4"), ("--colors", "2")],
                         ids=["n-only", "colors-only"])
def test_solve_decodes_only_with_both_n_and_colors(capsys, tmp_path, flags):
    # either flag alone used to skip the decoding silently
    cnf = tmp_path / "s4.cnf"
    run_json(capsys, "encode", "--pattern", SCHUR, "--n", "4",
             "--colors", "2", "--out-cnf", str(cnf))
    code, report = run_json(capsys, "solve", str(cnf), *flags)
    assert (code, report["verdict"], report["error"]) == (
        1, "error", "decoding the model needs both --n and --colors")


def test_solve_unknown_exits_two(capsys, tmp_path):
    cnf = tmp_path / "s5.cnf"
    run_json(capsys, "encode", "--pattern", SCHUR, "--n", "5",
             "--colors", "2", "--out-cnf", str(cnf))
    code, report = run_json(
        capsys, "solve", str(cnf), "--max-conflicts", "0")
    assert code == 2
    assert report["verdict"] == "unknown"


def test_fs_witness_then_verify(capsys, tmp_path):
    record_path = tmp_path / "w.json"
    code, report = run_json(
        capsys, "fs-witness", "--k", "2",
        "--generator", "parity", "--n", "8", "--colors", "2",
        "--witness-out", str(record_path))
    assert code == 0
    assert report["verdict"] == "found"
    assert report["witness"] == {"generators": [2, 2], "color": 0}

    code, report = run_json(capsys, "verify", str(record_path))
    assert code == 0
    assert report["verdict"] == "valid"
    assert report["query"]["kind"] == "fs"

    # the same record against a hostile coloring must fail
    bad = tmp_path / "bad.txt"
    bad.write_text("1 8 2\n0 1 0 1 0 1 0 1\n")
    code, report = run_json(
        capsys, "verify", str(record_path), "--coloring-file", str(bad))
    assert code == 0
    assert report["verdict"] == "invalid"


PARITY_REF = {"kind": "generator", "generator": "parity", "d": 1, "N": 8,
              "c": 2}


@pytest.mark.parametrize("data, ref, error", [
    ({"generators": [2, 2]}, {"kind": "generator", "generator": "parity",
                              "N": 8},
     "coloring spec needs field 'c' of type int"),
    ({"generators": [2, 2]}, "parity", "coloring spec must be an object"),
    ({"generators": "ab"}, PARITY_REF,
     "witness field 'generators' must be a list of integers"),
    ({"generators": [2, 2]}, dict(PARITY_REF, d=2), D2_ERROR),
], ids=["ref-lacks-fields", "ref-not-object", "generators-string", "ref-d2"])
def test_verify_malformed_record_is_an_input_error(capsys, tmp_path, data,
                                                  ref, error):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "fs",
                                "data": data, "coloring_ref": ref,
                                "validated": True}))
    code, report = run_json(capsys, "verify", str(path))
    assert (code, report["verdict"], report["error"]) == (1, "error", error)


def _verify_record(capsys, tmp_path, kind, data, ref):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": kind,
                                "data": data, "coloring_ref": ref,
                                "validated": False}))
    return run_json(capsys, "verify", str(path))


MUL8 = {"kind": "multiplication-capped", "n": 8}


@pytest.mark.parametrize("op, error", [
    (dict(MUL8, n="8"), "witness field 'n' must be an integer"),
    (dict(MUL8, n=True), "witness field 'n' must be an integer"),
    (dict(MUL8, n=8.9), "witness field 'n' must be an integer"),
    ({"kind": "table", "n": 2, "rows": [["1", "2"], ["2", "1"]]},
     "witness field 'rows' must be a list of integers"),
    ({"kind": "table", "n": 2, "rows": 5},
     "witness field 'rows' must be a list of rows"),
], ids=["n-string", "n-bool", "n-float", "row-strings", "rows-int"])
def test_verify_reads_the_operation_strictly(capsys, tmp_path, op, error):
    # n = 8.9 used to pass as n = 8, and n = true as n = 1
    data = {"op": op, "sequence": [2, 2], "cuts": [0, 1, 2]}
    code, report = _verify_record(capsys, tmp_path, "composed", data,
                                  PARITY_REF)
    assert (code, report["verdict"], report["error"]) == (1, "error", error)
    data["op"] = MUL8
    code, report = _verify_record(capsys, tmp_path, "composed", data,
                                  PARITY_REF)
    assert (code, report["verdict"], report["witness"]) == (
        0, "valid", {"detail": "composed values monochromatic in color 0"})


@pytest.mark.parametrize("top, k", [(90, 5), (2400, 2)])
def test_verify_decides_a_set_without_sums(capsys, tmp_path, top, k):
    # no two odd numbers sum into a set of odd numbers, which the FS probe
    # sees at once below 90; below 2400 it tries all 719,400 pairs, as the
    # scan did within its million, and answers as the scan did
    data = {"lam": 1, "a_set": list(range(1, top, 2)), "b_set": [1],
            "k": k, "color": 0}
    ref = {"kind": "generator", "generator": "constant", "d": 1,
           "N": top + 10, "c": 1, "param": [0]}
    code, report = _verify_record(capsys, tmp_path, "bundle14", data, ref)
    assert (code, report["verdict"], report["witness"]) == (
        0, "invalid", {"detail": f"A has no {k}-generator finite-sums set"})


def test_verify_reads_a_missing_d_as_one(capsys, tmp_path):
    ref = {key: v for key, v in PARITY_REF.items() if key != "d"}
    code, report = _verify_record(capsys, tmp_path, "fs",
                                  {"generators": [2, 2]}, ref)
    assert (code, report["verdict"]) == (0, "valid")
    code, report = _verify_record(capsys, tmp_path, "fs",
                                  {"generators": [2, 2]},
                                  dict(ref, d="1"))
    assert (code, report["error"]) == (
        1, "coloring spec needs field 'd' of type int")


def test_verify_out_of_budget_keeps_its_query(capsys, tmp_path):
    # every prefix of [1..104] summing to at most 104 keeps its closure
    # inside A, so the FS probe runs past its budget
    data = {"lam": 1, "a_set": [*range(1, 105), 10 ** 6], "b_set": [1],
            "k": 14, "color": 0}
    ref = {"kind": "generator", "generator": "constant", "d": 1,
           "N": 10 ** 6 + 1, "c": 1, "param": [0]}
    code, report = _verify_record(capsys, tmp_path, "bundle14", data, ref)
    assert code == 2
    assert report == {
        "schema_version": 1,
        "query": {"command": "verify", "witness": str(tmp_path / "w.json"),
                  "kind": "bundle14"},
        "verdict": "unknown", "witness": None,
        "stats": {"engine": "verify", "nodes": 1_074_214, "time_ms": 0.0}}


def test_grid_witness(capsys):
    code, report = run_json(
        capsys, "grid-witness", "--length", "3", "--blocks", "2",
        "--generator", "parity", "--n", "8", "--colors", "2")
    assert code == 0
    assert report["witness"] == {"sequence": [2, 2, 2], "d": 2, "color": 0}


ONE_COLOR = ("--generator", "constant", "--n", "100", "--colors", "1",
             "--param", "0")


@pytest.mark.parametrize("argv, width", [
    (("--length", "2000", "--blocks", "1", "--generator", "parity",
      "--n", "100", "--colors", "2", "--budget", "10"), 2000),
    (("--length", "60", "--blocks", "5") + ONE_COLOR, 56),
], ids=["length-2000", "length-60-blocks-5"])
def test_grid_block_past_the_family_cap_is_an_input_error(capsys, argv,
                                                          width):
    code, report = run_json(capsys, "grid-witness", *argv)
    assert (code, report["verdict"]) == (1, "error")
    assert report["error"] == (f"grid block length {width}: family size "
                               f"{width} outside [1, 30]")


def test_grid_witness_with_15_blocks_then_verify(capsys, tmp_path):
    # C(31, 16) cut tuples, but 360 distinct blocks for the re-check
    record_path = tmp_path / "grid.json"
    code, report = run_json(capsys, "grid-witness", "--length", "30",
                            "--blocks", "15", *ONE_COLOR,
                            "--witness-out", str(record_path))
    assert (code, report["verdict"], report["stats"]["nodes"]) == \
        (0, "found", 29)
    assert report["witness"] == {"sequence": [1] * 30, "d": 15, "color": 0}
    code, report = run_json(capsys, "verify", str(record_path))
    assert (code, report["verdict"]) == (0, "valid")


PARITY8 = ("--generator", "parity", "--n", "8", "--colors", "2")


def _refused(capsys, *argv):
    """The error of a report whose finder hit its re-check refused."""
    code, report = run_json(capsys, *argv)
    assert (code, report["verdict"], report["witness"]) == (1, "error", None)
    return report["error"]


def test_grid_and_find_hits_are_rechecked(capsys, monkeypatch):
    """A finder hit that its checker refuses is never printed: the report
    has verdict error and the exit code is 1."""
    monkeypatch.setattr(cli, "find_grid_witness_detailed",
                        lambda *a, **k: (((2, 3, 2), 0), 1))
    assert _refused(capsys, "grid-witness", "--length", "3", "--blocks", "2",
                    *PARITY8) == ("finder hit failed its re-check: blocks "
                                  "are not monochromatic")
    bad = ({"x": 1, "y": 2}, 1)  # x + y = 3 is odd, x = 1 too, y = 2 is not
    monkeypatch.setattr(cli, "find_instance_detailed", lambda *a, **k: (bad, 1))
    monkeypatch.setattr(cli, "find_all_instances_detailed",
                        lambda *a, **k: ([bad], 1))
    for extra in ([], ["--all"]):
        assert _refused(capsys, "find", "--pattern", SCHUR, *PARITY8,
                        *extra) == ("finder hit failed its re-check: "
                                    "instance values differ in color")


def test_fs_and_bundle_hits_are_rechecked(capsys, monkeypatch):
    monkeypatch.setattr(cli, "find_fs_witness_detailed",
                        lambda *a, **k: ((1, 2), 1))
    assert _refused(capsys, "fs-witness", "--k", "2", *PARITY8) == (
        "finder hit failed its re-check: closure is not monochromatic")
    bundle = Bundle(shifted=False, lam=2, a_set=(1, 2), b_set=(1,), k=2,
                    color=0)
    monkeypatch.setattr(cli, "find_scaled_bundle_detailed",
                        lambda *a, **k: (bundle, 1))
    # lam * A and lam * B are even, but A * B holds 1
    assert _refused(capsys, "bundle14", *PARITY8) == (
        "finder hit failed its re-check: derived value 1 is not color 0")
    monkeypatch.setattr(cli, "find_scaled_quad_detailed",
                        lambda *a, **k: (({"a": 2, "x": 1, "y": 1}, 0), 1))
    assert _refused(capsys, "bundle14", "--corollary", *PARITY8) == (
        "finder hit failed its re-check: instance values differ in color")


def test_a_refused_hit_saves_no_record(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "find_fs_witness_detailed",
                        lambda *a, **k: ((1, 2), 1))
    monkeypatch.setattr(cli, "find_grid_witness_detailed",
                        lambda *a, **k: (((2, 3, 2), 0), 1))
    monkeypatch.setattr(cli, "find_scaled_bundle_detailed",
                        lambda *a, **k: (Bundle(shifted=False, lam=2,
                                                a_set=(1, 2), b_set=(1,),
                                                k=2, color=0), 1))
    path = tmp_path / "w.json"
    for argv in (("fs-witness", "--k", "2"),
                 ("grid-witness", "--length", "3", "--blocks", "2"),
                 ("bundle14",)):
        _refused(capsys, *argv, *PARITY8, "--witness-out", str(path))
        assert not path.exists()


WITNESS_ARGV = {
    "fs": ("fs-witness", "--k", "3", "--n", "100"),
    "grid": ("grid-witness", "--length", "3", "--blocks", "2", "--n", "60"),
    "bundle14": ("bundle14", "--k", "2", "--n", "40"),
    "bundle15": ("bundle15", "--k", "2", "--n", "40"),
}


@pytest.mark.parametrize("kind", sorted(WITNESS_ARGV))
def test_finders_recheck_the_record_they_save(capsys, monkeypatch, tmp_path,
                                              kind):
    """The record --witness-out saves is the one verify_witness accepted,
    byte for byte the golden record of the query once that drops the
    ``validated`` field older records carry."""
    argv = (*WITNESS_ARGV[kind], "--generator", "random", "--colors", "2",
            "--seed", "0", "--witness-out", str(tmp_path / "w.json"))
    checked = []

    def verify(record, coloring=None):
        checked.append(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return verify_witness(record, coloring=coloring)

    monkeypatch.setattr(cli, "verify_witness", verify)
    code, report = run_json(capsys, *argv)
    assert (code, report["verdict"]) == (0, "found")
    saved = (tmp_path / "w.json").read_text()
    assert checked == [saved]
    golden = json.loads((DATA / f"witness_{kind}.json").read_text())
    assert golden.pop("validated") is True
    assert saved == json.dumps(golden, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("kind", sorted(WITNESS_ARGV))
def test_records_with_a_validated_field_still_verify(capsys, kind):
    """Older records carry ``"validated": true``; nothing reads it."""
    path = DATA / f"witness_{kind}.json"
    assert "validated" in json.loads(path.read_text())
    code, report = run_json(capsys, "verify", str(path))
    assert (code, report["verdict"]) == (0, "valid")


def test_fs_witness_takes_at_most_30_generators(capsys):
    argv = ("--generator", "constant", "--n", "3000", "--colors", "1",
            "--param", "0")
    code, report = run_json(capsys, "fs-witness", "--k", "30", *argv)
    assert (code, report["verdict"]) == (0, "found")
    assert report["witness"] == {"generators": [1] * 30, "color": 0}
    code, report = run_json(capsys, "fs-witness", "--k", "31", *argv)
    assert (code, report["verdict"], report["error"]) == (
        1, "error", "family size 31 outside [1, 30]")


@pytest.mark.parametrize("colors, engine", [(2, "backtracking"),
                                            (1, "exhaustive"), (2, "sat")])
def test_avoid_answers_on_a_box_past_the_recursion_limit(capsys, colors,
                                                         engine):
    # no instance of {x + 10^6} lies in [1..2000], so every coloring avoids
    code, report = run_json(capsys, "avoid", "--pattern", "{x+1000000}",
                            "--n", "2000", "--colors", str(colors),
                            "--engine", engine)
    assert (code, report["verdict"]) == (0, "sat")
    assert report["witness"] == {"cells": [0] * 2000}


@pytest.mark.parametrize("record", [
    {"schema_version": 2, "kind": "fs", "data": {}},
    {"schema_version": 1, "kind": "mystery", "data": {}},
    {"schema_version": 1, "kind": "fs", "data": []},
], ids=["schema-version-2", "unknown-kind", "data-not-object"])
def test_verify_refuses_a_malformed_record(capsys, tmp_path, record):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(dict(record, coloring_ref=PARITY_REF)))
    code, report = run_json(capsys, "verify", str(path))
    assert (code, report["verdict"], report["query"]) == (
        1, "error", {"command": "verify"})


def test_rechecks_run_under_optimize():
    """The re-checks are not asserts, so ``python -O`` keeps them."""
    script = (
        "import sys\n"
        "from ramseylab import cli\n"
        "assert False, 'asserts are on'\n"
        "cli.find_grid_witness_detailed = lambda *a, **k: (((2, 3, 2), 0), 1)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(ramseylab.__file__))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "grid-witness", "--length", "3",
         "--blocks", "2", *PARITY8],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["verdict"], report["witness"]) == ("error", None)


def test_composed_witness_check(capsys):
    code, report = run_json(
        capsys, "composed-witness", "--sequence", "2,2", "--cuts", "0,1,2",
        "--generator", "parity", "--n", "8", "--colors", "2")
    assert code == 0
    assert report["verdict"] == "valid"
    assert report["witness"] == {"color": 0}
    assert report["query"]["op"] == {"kind": "multiplication-capped", "n": 8}
    # the walk's units: a unit per one-value block, and one fold
    assert report["stats"]["nodes"] == 3


def test_composed_witness_profile(capsys):
    code, report = run_json(
        capsys, "composed-witness", "--sequence", "2,2",
        "--profile-depth", "2",
        "--generator", "parity", "--n", "8", "--colors", "2")
    assert code == 0
    assert report["verdict"] == "profiled"
    assert [row["ok"] for row in report["witness"]["profile"]] == [True, True]
    # blocks (2) twice and (2, 2) at min(3, 4) units, then 3 + 1 folds
    assert report["stats"]["nodes"] == 10


def test_composed_profile_past_30_entries_is_refused(capsys):
    # depth 1 holds the whole sequence as one block, past the 30-entry rule
    # of every closure: refused before the walk, not after its short blocks
    code, report = run_json(
        capsys, "composed-witness", "--sequence", ",".join(["1"] * 31),
        "--profile-depth", "1", "--op", "addition-capped",
        "--generator", "constant", "--n", "1000", "--colors", "1",
        "--param", "0")
    assert (code, report["verdict"]) == (1, "error")
    assert report["error"] == (
        "profile block length 31 (depth 1 holds the whole sequence): "
        "family size 31 outside [1, 30]")


def test_composed_witness_depth_set(capsys):
    code, report = run_json(
        capsys, "composed-witness", "--sequence", "1,2,2,2",
        "--depth-set-m0", "1",
        "--generator", "parity", "--n", "8", "--colors", "2")
    assert code == 0
    assert report["verdict"] == "valid"
    # the head (1) and the blocks (2), (2, 2), (2, 2, 2) at 1, 1, 3 and 6
    # units, then 1 + 2 + 3 folds
    assert report["stats"]["nodes"] == 17


COMPOSED = ("composed-witness", "--sequence", "2,2", *PARITY8)


def test_composed_witness_needs_a_mode(capsys):
    code = main(list(COMPOSED))
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.endswith("ramseylab composed-witness: error: one of the "
                        "arguments --cuts --profile-depth --depth-set-m0 is "
                        "required\n")


@pytest.mark.parametrize("modes, error", [
    (("--cuts", "0,1,2", "--profile-depth", "2"),
     "argument --profile-depth: not allowed with argument --cuts"),
    (("--cuts", "0,1,2", "--depth-set-m0", "1"),
     "argument --depth-set-m0: not allowed with argument --cuts"),
    (("--profile-depth", "2", "--depth-set-m0", "1"),
     "argument --depth-set-m0: not allowed with argument --profile-depth"),
], ids=["cuts-profile", "cuts-depth-set", "profile-depth-set"])
def test_composed_witness_takes_one_mode_only(capsys, modes, error):
    # two modes used to run one of them silently, with exit 0
    code = main([*COMPOSED, *modes])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.endswith(f"ramseylab composed-witness: error: {error}\n")


def test_composed_witness_op_domain_is_the_coloring_box(capsys):
    # a builtin operation acts on [1..N]; no flag sets another domain
    code = main([*COMPOSED, "--cuts", "0,1,2", "--op-n", "5"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.endswith("ramseylab composed-witness: error: unrecognized "
                        "arguments: --op-n 5\n")


def test_composed_witness_explicit_table(capsys, tmp_path):
    op = tmp_path / "op.txt"
    op.write_text("8\n" + "\n".join(
        " ".join(str(min(i * j, 8)) for j in range(1, 9))
        for i in range(1, 9)) + "\n")
    code, report = run_json(
        capsys, "composed-witness", "--sequence", "2,2", "--cuts", "0,1,2",
        "--op-table", str(op),
        "--generator", "parity", "--n", "8", "--colors", "2")
    assert code == 0
    assert report["verdict"] == "valid"


def test_bundle_commands(capsys, tmp_path):
    record_path = tmp_path / "b14.json"
    code, report = run_json(
        capsys, "bundle14", "--k", "2",
        "--generator", "parity", "--n", "20", "--colors", "2",
        "--witness-out", str(record_path))
    assert code == 0
    assert report["witness"] == {"lam": 1, "a_set": [2, 4, 6], "b_set": [2],
                                 "k": 2, "color": 0}
    code, report = run_json(capsys, "verify", str(record_path))
    assert code == 0 and report["verdict"] == "valid"

    code, report = run_json(
        capsys, "bundle15", "--k", "2",
        "--generator", "parity", "--n", "20", "--colors", "2")
    assert code == 0
    assert report["witness"] == {"lam": 2, "a_set": [2, 4, 6, 8],
                                 "b_set": [2], "k": 2, "color": 0}
    assert report["query"] == {"command": "bundle15", "mode": "bundle",
                               "k": 2, "cap_a": None,
                               "coloring": report["query"]["coloring"]}


@pytest.mark.parametrize("name, detail", [
    ("bundle14", "scaled bundle verified"),
    ("bundle15", "shifted bundle verified"),
])
def test_bundle_witness_round_trip(capsys, tmp_path, name, detail):
    path = tmp_path / "w.json"
    code, found = run_json(capsys, name, "--k", "2", *_random(40),
                           "--witness-out", str(path))
    assert (code, found["verdict"]) == (0, "found")
    record = json.loads(path.read_text())
    assert (record["kind"], record["data"]) == (name, found["witness"])
    code, report = run_json(capsys, "verify", str(path))
    assert (code, report["verdict"], report["witness"]) == (
        0, "valid", {"detail": detail})
    assert report["query"] == {"command": "verify", "witness": str(path),
                               "kind": name}


CONSTANT30 = {"kind": "generator", "generator": "constant", "d": 1, "N": 30,
              "c": 1, "param": [0]}
PARITY30 = {"kind": "generator", "generator": "parity", "d": 1, "N": 30,
            "c": 2}


# Hand-made invalid bundle records and the detail verify gives: a wrong
# color, then A lacking each structure in turn (FS, AP, then for bundle15
# GP and FP) while carrying the ones checked before it and lacking the
# next one, so each row also pins the order.  FS({1, 3, 10}) is the A
# that lacks AP, GP and FP.
FS_1_3_10 = [1, 3, 4, 10, 11, 13, 14]


@pytest.mark.parametrize("kind, a_set, k, color, ref, detail", [
    ("bundle14", [2, 4, 6], 2, 1, PARITY30, "derived value 2 is not color 1"),
    ("bundle14", [2, 4, 8], 3, 0, CONSTANT30,
     "A has no 3-generator finite-sums set"),
    ("bundle14", FS_1_3_10, 3, 0, CONSTANT30,
     "A has no 3-term arithmetic progression"),
    ("bundle15", [2, 4, 6, 8], 2, 1, PARITY30,
     "derived value 4 is not color 1"),
    ("bundle15", [2, 4, 8], 3, 0, CONSTANT30,
     "A has no 3-generator finite-sums set"),
    ("bundle15", FS_1_3_10, 3, 0, CONSTANT30,
     "A has no 3-term arithmetic progression"),
    ("bundle15", [2, 3, 5], 2, 0, CONSTANT30,
     "A has no 2-term geometric progression"),
    ("bundle15", [3, 6, 9], 2, 0, CONSTANT30,
     "A has no 2-generator finite-products set"),
], ids=["14-color", "14-fs", "14-ap", "15-color", "15-fs", "15-ap", "15-gp",
        "15-fp"])
def test_verify_names_what_a_bundle_lacks(capsys, tmp_path, kind, a_set, k,
                                          color, ref, detail):
    lam = 2 if kind == "bundle15" else 1
    data = {"lam": lam, "a_set": a_set, "b_set": [2], "k": k, "color": color}
    code, report = _verify_record(capsys, tmp_path, kind, data, ref)
    assert (code, report["verdict"], report["witness"]) == (
        0, "invalid", {"detail": detail})


def test_bundle_corollary_mode(capsys):
    code, report = run_json(
        capsys, "bundle14", "--corollary",
        "--generator", "constant", "--n", "6", "--colors", "2",
        "--param", "0")
    assert code == 0
    assert report["verdict"] == "found"
    assert report["witness"]["assignment"] == {"a": 1, "x": 1, "y": 1}


@pytest.mark.parametrize("shape", ["bundle14", "bundle15"])
def test_corollary_saves_no_witness_record(capsys, tmp_path, shape):
    # no witness kind holds a quadruple, so --witness-out is refused
    # rather than ignored
    path = tmp_path / "q.json"
    code, report = run_json(capsys, shape, "--corollary", "--generator",
                            "random", "--n", "100", "--colors", "2",
                            "--witness-out", str(path))
    assert (code, report["verdict"], report["error"]) == (
        1, "error", "--corollary saves no witness record: drop --witness-out")
    assert not path.exists()


THIRTY_ONES = ",".join(["1"] * 30)
POWERS_30 = ",".join(str(2 ** i) for i in range(30))


@pytest.mark.parametrize("sequence, mode", [
    (THIRTY_ONES, ("--profile-depth", "15")),
    (THIRTY_ONES, ("--depth-set-m0", "4")),
    (POWERS_30, ("--cuts", "0,30")),
], ids=["ones-profile-15", "ones-depth-set-4", "powers-one-block"])
def test_composed_walk_past_its_budget_is_unknown(capsys, sequence, mode):
    # the profile ran for hours, the depth-indexed check for seconds, and
    # the one block of powers built 2^30 sums before the first fold
    code, report = run_json(capsys, "composed-witness", "--sequence",
                            sequence, "--op", "addition-capped",
                            "--generator", "constant", "--n", "1000",
                            "--colors", "1", "--param", "0", *mode)
    assert (code, report["verdict"], report["witness"]) == (2, "unknown", None)
    assert report["stats"]["nodes"] == structures.PROBE_BUDGET + 1
    assert report["query"]["sequence"] == [int(v) for v in sequence.split(",")]


CONSTANT100 = dict(CONSTANT30, N=100)


@pytest.mark.parametrize("kind, data, detail", [
    ("fs", {"generators": [2 ** i for i in range(30)], "k": 30},
     f"out of box: closure value {2 ** 30 - 1} outside [1..100]"),
    ("fs", {"generators": [1, 2], "k": 5}, "k 5 != 2 generators"),
    ("bundle14", {"lam": 1, "a_set": [1, 2, 3], "b_set": [], "k": 2,
                  "color": 0}, "B is not a nonempty set of positive integers"),
], ids=["fs-powers", "fs-k", "bundle14-empty-b"])
def test_verify_refuses_what_is_no_witness(capsys, tmp_path, kind, data,
                                           detail):
    code, report = _verify_record(capsys, tmp_path, kind, data, CONSTANT100)
    assert (code, report["verdict"], report["witness"]) == (
        0, "invalid", {"detail": detail})


def test_semigroup_report(capsys, tmp_path):
    path = tmp_path / "z3.txt"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    code, report = run_json(
        capsys, "semigroup", "--table", str(path),
        "--central-subset", "0,1", "--translate-by", "2")
    assert code == 0
    assert report["verdict"] == "analyzed"
    w = report["witness"]
    assert w["idempotents"] == [0]
    assert w["minimal_left_ideals"] == [[0, 1, 2]]
    assert w["central"] is True
    assert w["translate"] == [1, 2]


def test_semigroup_translate_needs_subset(capsys, tmp_path):
    path = tmp_path / "z3.txt"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    code, report = run_json(
        capsys, "semigroup", "--table", str(path), "--translate-by", "1")
    assert code == 1
    assert "--central-subset" in report["error"]


def test_out_file_matches_stdout(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout = run(
        capsys, "find", "--pattern", SCHUR,
        "--generator", "parity", "--n", "8", "--colors", "2",
        "--out", str(out))
    assert code == 0
    assert out.read_text() == stdout


def test_timing_flag_populates_time(capsys):
    code, report = run_json(
        capsys, "find", "--pattern", SCHUR, "--timing",
        "--generator", "parity", "--n", "8", "--colors", "2")
    assert code == 0
    assert report["stats"]["time_ms"] > 0.0


def test_suite_single_criterion(capsys):
    code, out = run(capsys, "suite", "--ids", "1")
    assert code == 0
    assert out.splitlines()[0].startswith("criterion 1 [")
    assert "PASS" in out.splitlines()[0]
    assert out.splitlines()[-1] == "1/1 criteria passed"


def _fs_record(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "fs",
                                "data": {"generators": [2, 2]},
                                "coloring_ref": PARITY_REF}))
    return str(path)


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# one command line per subcommand that prints a report, and its exit code:
# an answer of each, an error report and two budget reports, one from a
# verdict and one from a finder's budget error
REPORTS = {
    "find": (lambda d: ("find", "--pattern", SCHUR, *PARITY8), 0),
    "avoid": (lambda d: ("avoid", "--pattern", SCHUR, "--n", "4",
                         "--colors", "2"), 0),
    "threshold": (lambda d: ("threshold", "--pattern", SCHUR, "--colors",
                             "2", "--n-max", "6"), 0),
    "encode": (lambda d: ("encode", "--pattern", SCHUR, "--n", "4",
                          "--colors", "2", "--out-cnf", str(d / "s.cnf")), 0),
    "solve": (lambda d: ("solve", _file(d, "s.cnf", "p cnf 1 1\n1 0\n")), 0),
    "fs-witness": (lambda d: ("fs-witness", "--k", "2", *PARITY8), 0),
    "grid-witness": (lambda d: ("grid-witness", "--length", "3", "--blocks",
                                "2", *PARITY8), 0),
    "composed-witness": (lambda d: (*COMPOSED, "--cuts", "0,1,2"), 0),
    "bundle14": (lambda d: ("bundle14", "--k", "2", *_random(40)), 0),
    "bundle15": (lambda d: ("bundle15", "--corollary", *_random(60)), 0),
    "verify": (lambda d: ("verify", _fs_record(d)), 0),
    "semigroup": (lambda d: ("semigroup", "--table",
                             _file(d, "z3.txt", "3\n0 1 2\n1 2 0\n2 0 1\n")),
                  0),
    "error": (lambda d: ("avoid", "--pattern", SCHUR, "--n", "5",
                         "--colors", "0"), 1),
    "unknown": (lambda d: ("avoid", "--pattern", SCHUR, "--n", "13",
                           "--colors", "3", "--max-nodes", "5"), 2),
    "budget": (lambda d: ("fs-witness", "--k", "3", *_random(60),
                          "--budget", "1"), 2),
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_every_report_takes_one_path(capsys, tmp_path, name):
    """time_ms is 0.0 unless --timing is given, and then > 0; --out gets
    the bytes of stdout; the flags change nothing else."""
    argv, code = REPORTS[name]
    argv = argv(tmp_path)
    out = tmp_path / "report.json"
    got, plain = run(capsys, *argv)
    assert got == code
    assert json.loads(plain)["stats"]["time_ms"] == 0.0
    assert run(capsys, *argv, "--out", str(out)) == (code, plain)
    assert out.read_text() == plain
    got, timed = run(capsys, *argv, "--timing", "--out", str(out))
    assert out.read_text() == timed
    report = json.loads(timed)
    assert (got, report["stats"].pop("time_ms") > 0.0) == (code, True)
    expected = json.loads(plain)
    del expected["stats"]["time_ms"]
    assert report == expected
