import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ltlfsat
from ltlfsat import bench as benchmod
from ltlfsat.bench import BenchSpec
from ltlfsat.cli import (
    EXIT_ABORT,
    EXIT_OK,
    EXIT_SAT,
    EXIT_UNSAT,
    EXIT_USAGE,
    _build_parser,
    main,
)
from ltlfsat.errors import Limits, WitnessError


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_overview_formula_raw_tnf(tmp_path, capsys):
    path = _write(tmp_path, "ex1.ltlf", "(! Tail & a) U b\n")
    code = main(["check", "--raw-tnf", "-f", path])
    out = capsys.readouterr().out
    assert code == EXIT_SAT
    assert "verdict: sat" in out
    assert "witness:" in out
    assert "stats:" in out


def test_check_unsat_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "unsat.ltlf", "p & ! p\n")
    code = main(["check", "-f", path])
    out = capsys.readouterr().out
    assert code == EXIT_UNSAT
    assert "verdict: unsat" in out
    assert "invariant_level:" in out


def test_check_inline_formula(capsys):
    code = main(["check", "--formula", "a U b"])
    assert code == EXIT_SAT


def test_check_witness_feeds_verify(tmp_path, capsys):
    formula = _write(tmp_path, "f.ltlf", "(a U b) & X c\n")
    trace = str(tmp_path / "trace.txt")
    code = main(["check", "-f", formula, "--out", trace])
    assert code == EXIT_SAT
    capsys.readouterr()
    code = main(["verify", "-f", formula, "-t", trace])
    assert code == EXIT_OK


def test_check_witness_feeds_verify_raw_tnf(tmp_path, capsys):
    formula = _write(tmp_path, "raw.ltlf", "((! Tail) U a) & ((! Tail) U b)\n")
    trace = str(tmp_path / "trace.txt")
    assert main(["check", "--raw-tnf", "-f", formula, "--out", trace]) == EXIT_SAT
    capsys.readouterr()
    assert main(["verify", "--raw-tnf", "-f", formula, "-t", trace]) == EXIT_OK


def test_witness_of_one_empty_position_feeds_verify(tmp_path, capsys):
    # the witness of "! a" is one position with no atom: a single blank line
    trace = str(tmp_path / "trace.txt")
    assert main(["check", "--formula", "! a", "--out", trace]) == EXIT_SAT
    capsys.readouterr()
    assert main(["verify", "--formula", "! a", "-t", trace]) == EXIT_OK


@pytest.mark.parametrize("command", [
    ["check", "--raw-tnf"],
    ["check", "--raw-tnf", "--oracle", "naive"],
    ["oracle", "--raw-tnf"],
], ids=["check", "check-naive", "oracle"])
def test_raw_tnf_with_an_unguarded_next_is_an_input_error(command, capsys):
    # with no `! Tail` guard, the next obligation of "X a" does not stop the
    # trace from ending at once, and the one-position witness refutes it
    code = main([*command, "--formula", "X a"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "error: witness does not satisfy the formula" in err
    assert "Traceback" not in err


def test_verify_rejects_bad_trace(tmp_path, capsys):
    formula = _write(tmp_path, "f.ltlf", "G a\n")
    trace = _write(tmp_path, "t.txt", "a\n\n")
    code = main(["verify", "-f", formula, "-t", trace])
    assert code == EXIT_USAGE


def test_verify_rejects_the_reserved_atom_without_raw_tnf(tmp_path, capsys):
    trace = _write(tmp_path, "t.trace", "Tail\n")
    code = main(["verify", "--formula", "Tail", "-t", trace])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "error: the atom 'Tail' is reserved" in captured.err
    assert "satisfies" not in captured.out
    assert main(["check", "--formula", "Tail"]) == EXIT_USAGE
    assert capsys.readouterr().err == captured.err


def test_verify_raw_tnf_evaluates_the_formula_as_given(tmp_path, capsys):
    trace = _write(tmp_path, "t.trace", "Tail\n")
    assert main(["verify", "--raw-tnf", "--formula", "Tail", "-t", trace]) == EXIT_OK
    assert "trace satisfies the formula" in capsys.readouterr().out
    assert main(["verify", "--raw-tnf", "--formula", "! Tail", "-t", trace]) == EXIT_USAGE


def test_check_naive_and_brute_oracles(capsys):
    assert main(["check", "--oracle", "naive", "--formula", "a U b"]) == EXIT_SAT
    capsys.readouterr()
    assert main(["check", "--oracle", "brute", "--formula", "p & ! p"]) == EXIT_ABORT


def test_bounded_brute_miss_aborts_instead_of_unsat(capsys):
    code = main([
        "check", "--oracle", "brute", "--brute-bound", "3", "--formula", "X X X X a",
    ])
    captured = capsys.readouterr()
    assert code == EXIT_ABORT
    assert "unsat" not in captured.out
    assert "aborted" in captured.err


def test_bench_bounded_brute_does_not_disagree_with_cdlsc(capsys):
    code = main([
        "bench", "--family", "random", "--count", "30", "--seed", "1",
        "--oracle", "brute", "--brute-bound", "2", "--cross-check", "cdlsc",
    ])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "DISAGREEMENT" not in captured.err
    assert "abort:trace_bound" in captured.out


def test_brute_over_atom_limit_aborts(capsys):
    code = main([
        "bench", "--family", "conjunction", "--count", "3", "--k-min", "8",
        "--k-max", "12", "--oracle", "brute",
    ])
    rows = capsys.readouterr().out.splitlines()[1:4]
    assert code == EXIT_OK
    assert [row.split(",")[2] for row in rows] == ["abort:atom_limit"] * 3
    code = main(["check", "--oracle", "brute", "--formula", "a & b & c & d & e"])
    assert code == EXIT_ABORT
    assert "at most 4 atoms" in capsys.readouterr().err


def test_oracle_reports_skipped_brute(capsys):
    code = main(["oracle", "--formula", "F a & F b & F c & F d & F e"])
    out = capsys.readouterr().out
    assert code == EXIT_SAT
    assert "brute: skipped (5 atoms > 4)" in out


def test_oracle_reports_a_capped_brute_bound_as_inconclusive(capsys):
    # the shortest witness has 13 positions, past brute force's capped bound
    code = main(["oracle", "--formula", "X X X X X X X X X X X X a & b"])
    captured = capsys.readouterr()
    assert code == EXIT_SAT
    assert "brute: inconclusive (no witness up to length 9)" in captured.out
    assert "DISAGREEMENT" not in captured.err


def test_check_stats_line_counts_pushes(capsys):
    assert main(["check", "--formula", "p & ! p"]) == EXIT_UNSAT
    assert "pushes=0 reused=0" in capsys.readouterr().out
    text = "F p1 & F p2 & G !(p1 & p2) & !(X true)"
    assert main(["check", "--formula", text]) == EXIT_UNSAT
    assert re.search(r"pushes=[1-9]\d* reused=[1-9]", capsys.readouterr().out)


@pytest.mark.parametrize("engine, text, code", [
    pytest.param("cdlsc", "p & ! p", EXIT_UNSAT, id="cdlsc"),
    # above the truth-table cap, so naive needs a solver
    pytest.param("naive", "F a & F b & F c & F d & F e & F f & F g", EXIT_SAT, id="naive"),
])
def test_check_stats_line_reports_live_clauses(engine, text, code, capsys):
    assert main(["check", "--oracle", engine, "--formula", text]) == code
    out = capsys.readouterr().out
    live = int(out.split("live_clauses=")[1].split()[0])
    assert live > 0
    assert "table_states=0" in out


def test_check_stats_line_reports_table_states(capsys):
    assert main(["check", "--oracle", "naive", "--formula", "p & ! p"]) == EXIT_UNSAT
    out = capsys.readouterr().out
    assert "table_states=1" in out
    assert "sat_calls=0" in out
    assert "live_clauses=0" in out


def test_check_stats_line_reports_table_queries(capsys):
    # a short chain's step and push queries are decided by truth table, and
    # its final-position queries by the solver
    assert main(["check", "--formula", "X X a"]) == EXIT_SAT
    assert "sat_calls=8 table_queries=5 " in capsys.readouterr().out
    # sat at the initial state: one final-position query and no step query
    text = "F a & F b & F c & F d & F e & F f & F g"
    assert main(["check", "--formula", text]) == EXIT_SAT
    assert "sat_calls=1 table_queries=0 " in capsys.readouterr().out


def test_oracle_subcommand_agreement(capsys):
    code = main(["oracle", "--formula", "(a U b) & F c"])
    out = capsys.readouterr().out
    assert code == EXIT_SAT
    assert "cdlsc: sat" in out
    assert "naive: sat" in out
    assert "brute: sat" in out


def test_reserved_atom_is_an_input_error(capsys):
    code = main(["check", "--formula", "(! Tail) U a"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "Tail" in err


def test_parse_error_reports_position(capsys):
    code = main(["check", "--formula", "a &"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "error:" in err


_DEPTH = 100_000


@pytest.mark.parametrize("text, flags, code", [
    (" & ".join(f"G (a{i} -> F b{i})" for i in range(10_000)), [], EXIT_SAT),
    ("(" * _DEPTH + "a" + ")" * _DEPTH, [], EXIT_SAT),
    ("a & ! a & " + "X " * _DEPTH + "b", [], EXIT_UNSAT),
    ("a | " + "X " * _DEPTH + "b", [], EXIT_SAT),
    ("X " * _DEPTH + "a", ["--max-frames", "2"], EXIT_ABORT),
], ids=["flat-conjunction", "nested-parentheses", "deep-next-unsat", "deep-next-sat",
        "deep-next-frame-limit"])
def test_deep_and_wide_input_is_decided(tmp_path, text, flags, code):
    # in a process of its own, so that the interpreter's recursion limit is
    # its default
    path = _write(tmp_path, "deep.ltlf", text + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ltlfsat.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "ltlfsat.cli", "check", "-f", path, *flags],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == EXIT_SAT:
        assert "verdict: sat" in done.stdout


def test_raw_tnf_brute_force_keeps_tail_at_the_last_position(capsys):
    # a raw-TNF model carries Tail at its last position, so `G ! Tail` has
    # none; brute force finds no witness within its bound
    code = main(["check", "--raw-tnf", "--oracle", "brute", "--formula", "G ! Tail"])
    assert code == EXIT_ABORT
    assert "no witness up to trace length" in capsys.readouterr().err
    code = main(["oracle", "--raw-tnf", "--formula", "G ! Tail"])
    out = capsys.readouterr().out
    assert code == EXIT_UNSAT
    assert "brute: unsat" in out
    code = main(["check", "--raw-tnf", "--oracle", "brute", "--formula", "(! Tail) U (a & Tail)"])
    assert code == EXIT_SAT
    assert "Tail,a" in capsys.readouterr().out


def test_resource_abort_exit_code(capsys):
    code = main([
        "check", "--raw-tnf", "--max-frames", "0",
        "--formula", "((! Tail) U a) & (Tail R ! a) & ((! Tail) U b)",
    ])
    assert code == EXIT_ABORT
    assert "aborted" in capsys.readouterr().err


def test_gen_writes_corpus(tmp_path, capsys):
    out = str(tmp_path / "corpus")
    code = main([
        "gen", "--family", "random", "--count", "5", "--seed", "3", "--out", out,
    ])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
    assert len(manifest["formulas"]) == 5


@pytest.mark.parametrize("command, message", [
    (["gen", "--family", "random", "--length-min", "5", "--length-max", "3"],
     "length_min must not exceed length_max"),
    (["bench", "--family", "conjunction", "--k-min", "6", "--k-max", "3"],
     "k_min must not exceed k_max"),
    (["gen", "--family", "conjunction", "--alphabet-size", "0"],
     "alphabet_size must be positive"),
], ids=["length-range", "k-range", "alphabet-size"])
def test_empty_generator_ranges_name_the_field(tmp_path, command, message, capsys):
    out = tmp_path / "corpus"
    args = [*command, "--count", "3"] + (["--out", str(out)] if command[0] == "gen" else [])
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["gen", "--family", "random", "--count", "-2"],
    ["bench", "--family", "random", "--count", "-3"],
], ids=["gen", "bench"])
def test_negative_count_is_an_input_error(tmp_path, command, capsys):
    out = tmp_path / "corpus"
    args = command + (["--out", str(out)] if command[0] == "gen" else [])
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr().err == "error: count must not be negative\n"
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (["check", "--timeout", "nan"], "timeout must be a nonnegative number, got nan"),
    (["check", "--timeout", "-1"], "timeout must be a nonnegative number, got -1.0"),
    (["check", "--oracle", "brute", "--brute-bound", "0"],
     "brute_bound must be at least 1, got 0"),
    (["bench", "--family", "random", "--state-limit", "0"],
     "state_limit must be at least 1, got 0"),
], ids=["nan-timeout", "negative-timeout", "brute-bound", "state-limit"])
def test_malformed_limits_are_input_errors(command, message, capsys):
    args = command + (["--formula", "a U b"] if command[0] == "check" else [])
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gen_draws_formulas_longer_than_the_recursion_limit(tmp_path, capsys):
    out = tmp_path / "corpus"
    code = main([
        "gen", "--family", "random", "--count", "1", "--length-min", "3000",
        "--length-max", "3000", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert len((out / "random-0000.ltlf").read_text()) > 3000


def test_bench_writes_csv_and_cross_checks(tmp_path, capsys):
    out = str(tmp_path / "report.csv")
    code = main([
        "bench", "--family", "pattern", "--pattern", "chain-response",
        "--count", "4", "--oracle", "cdlsc", "--cross-check", "naive",
        "--out", out,
    ])
    assert code == EXIT_OK
    text = (tmp_path / "report.csv").read_text()
    assert text.splitlines()[0] == ("id,family,verdict,states_expanded,sat_calls,elapsed_ms,"
                                    "verified,frames,invariant_level")
    assert "chain-response-001,pattern,sat" in text
    assert "verdicts agree" in capsys.readouterr().out


def test_dump_ts_writes_graph(tmp_path, capsys):
    out = str(tmp_path / "ts.dot")
    code = main(["dump-ts", "--formula", "a U b", "--out", out])
    assert code == EXIT_OK
    text = (tmp_path / "ts.dot").read_text()
    assert text.startswith("digraph")
    assert "doublecircle" in text


def test_dump_cnf_queries(tmp_path, capsys):
    dump = tmp_path / "cnf"
    code = main([
        "check", "--formula", "a U b", "--dump-cnf", str(dump),
    ])
    assert code == EXIT_SAT
    assert list(dump.glob("query*.cnf"))


def _defaulted(cls, args):
    """Fields of cls that the parsed subcommand has a flag for, with the
    flag's default and the field's."""
    return {f.name: (getattr(args, f.name), f.default)
            for f in dataclasses.fields(cls) if hasattr(args, f.name)}


def test_parser_defaults_are_the_limits_and_spec_defaults():
    parser = _build_parser()
    check = parser.parse_args(["check", "--formula", "a"])
    bench = parser.parse_args(["bench", "--family", "random"])
    gen = parser.parse_args(["gen", "--family", "random", "--out", "corpus"])
    assert set(_defaulted(Limits, check)) == {"timeout", "max_frames", "brute_bound"}
    assert set(_defaulted(Limits, bench)) == {"timeout", "max_frames", "state_limit",
                                              "brute_bound"}
    for args in (check, bench):
        for flag, field in _defaulted(Limits, args).values():
            assert flag == field
    for args in (bench, gen):
        spec = _defaulted(BenchSpec, args)
        assert len(spec) == len(dataclasses.fields(BenchSpec))
        for flag, field in spec.values():
            assert field is dataclasses.MISSING or flag == field


def test_bench_reports_a_failed_witness_check(monkeypatch, capsys):
    # `solve` verifies every witness; a failed check is a row, not a crash
    solve = benchmod.solve
    calls = []

    def failing_second(f, engine, **kwargs):
        calls.append(f)
        if len(calls) == 2:
            raise WitnessError("witness does not satisfy the formula")
        return solve(f, engine, **kwargs)

    monkeypatch.setattr(benchmod, "solve", failing_second)
    code = main(["bench", "--family", "pattern", "--count", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "UNVERIFIED witnesses: ['response-002']" in captured.err
    rows = [line.split(",") for line in captured.out.splitlines()[1:4]]
    assert [(r[0], r[2], r[6]) for r in rows] == [
        ("response-001", "sat", "true"), ("response-002", "sat", "false"),
        ("response-003", "sat", "true")]
