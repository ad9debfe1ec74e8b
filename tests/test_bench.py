import json

import pytest

from ltlfsat.bench import (
    BenchSpec,
    PATTERN_NAMES,
    compare_reports,
    gen_conjunction,
    gen_pattern,
    gen_random,
    instances,
    render_csv,
    run_suite,
    write_corpus,
)
from ltlfsat.cdlsc import check
from ltlfsat.errors import Limits
from ltlfsat.formula import (
    FALSE,
    TRUE,
    Atom,
    FalseConst,
    Next,
    Not,
    Release,
    TrueConst,
    Until,
    atoms,
    conjuncts,
    parse,
    render,
)


def surface_length(f):
    """Drawn-node count of a generated formula.

    Globally/eventually were drawn as single operators, so their constant
    left sides do not count; generated formulas never contain free-standing
    constants.
    """
    count = 0
    stack = [f]
    while stack:
        g = stack.pop()
        count += 1
        kind = type(g)
        if kind is TrueConst or kind is FalseConst:
            raise ValueError("free-standing constant in a generated formula")
        if kind is Not or kind is Next:
            stack.append(g.operand)
        elif (kind is Release and g.left is FALSE) or (kind is Until and g.left is TRUE):
            stack.append(g.right)
        elif kind is not Atom:
            stack += (g.left, g.right)
    return count


def test_gen_random_is_deterministic():
    f1 = gen_random(3, 10, 0.5, 42)
    f2 = gen_random(3, 10, 0.5, 42)
    assert f1 is f2
    assert render(f1) == render(f2)


def test_gen_random_respects_length():
    for seed in range(50):
        length = 1 + seed % 14
        f = gen_random(3, length, 0.5, seed)
        assert surface_length(f) == length


def test_gen_random_respects_alphabet():
    f = gen_random(2, 12, 0.7, 3)
    assert atoms(f) <= {"p0", "p1"}


def test_gen_random_validates_arguments():
    with pytest.raises(ValueError):
        gen_random(0, 5, 0.5, 1)
    with pytest.raises(ValueError):
        gen_random(2, 5, 1.5, 1)


def test_pattern_families_are_satisfiable():
    for name in PATTERN_NAMES:
        for n in (1, 2, 5):
            verdict = check(gen_pattern(name, n))
            assert verdict.sat, (name, n)


def test_chain_response_contains_n_copies():
    f = gen_pattern("chain-response", 3)
    assert len(conjuncts(f)) == 3


def test_unknown_pattern_rejected():
    with pytest.raises(ValueError, match="unknown pattern"):
        gen_pattern("no-such-family", 1)


def test_gen_conjunction_deterministic():
    f1 = gen_conjunction(1, 5, 2)
    f2 = gen_conjunction(1, 5, 2)
    assert f1 is f2


def test_gen_conjunction_size():
    f = gen_conjunction(1, 6, 9)
    assert len(conjuncts(f)) >= 6


def test_conjunction_verdicts_vary():
    """Across seeds the practical-conjunction family produces both verdicts;
    the witnessing seeds are fixed."""
    verdicts = set()
    for seed in range(20):
        f = gen_conjunction(seed, 6, seed + 100)
        verdicts.add(check(f, limits=Limits(timeout=20)).sat)
        if len(verdicts) == 2:
            break
    assert verdicts == {True, False}


def test_instances_are_reproducible():
    spec = BenchSpec(family="random", count=5, seed=7)
    a = [(i, render(f)) for i, f in instances(spec)]
    b = [(i, render(f)) for i, f in instances(spec)]
    assert a == b


def test_run_suite_rows_and_totals():
    spec = BenchSpec(family="pattern", pattern="response", count=6, seed=0)
    report = run_suite(spec, solver="cdlsc")
    assert len(report.rows) == 6
    assert all(r.verdict == "sat" for r in report.rows)
    assert all(r.verified for r in report.rows)
    totals = report.totals()
    assert totals["instances"] == 6
    assert totals["sat"] == 6
    assert totals["elapsed_ms"] == pytest.approx(sum(r.elapsed_ms for r in report.rows))
    assert totals["sat_calls"] == sum(r.sat_calls for r in report.rows)


def test_run_suite_cross_check_agrees():
    spec = BenchSpec(family="random", count=25, seed=11, length_min=5, length_max=10)
    fast = run_suite(spec, solver="cdlsc")
    slow = run_suite(spec, solver="naive")
    assert [r.verdict for r in fast.rows] == [r.verdict for r in slow.rows]
    assert compare_reports(fast, slow) == []


def test_aborts_are_rows_not_verdicts():
    spec = BenchSpec(family="random", count=12, seed=11, length_min=5, length_max=10)
    report = run_suite(spec, solver="naive", limits=Limits(state_limit=1))
    kinds = {r.verdict for r in report.rows}
    assert all(v == "sat" or v == "unsat" or v.startswith("abort:") for v in kinds)
    aborted = [r for r in report.rows if r.verdict.startswith("abort:")]
    assert aborted, "expected at least one instance to trip the state limit"
    assert not any(r.verified for r in aborted)


def test_aborted_cdlsc_rows_report_where_the_run_stopped():
    spec = BenchSpec(family="random", count=12, seed=11)
    report = run_suite(spec, solver="cdlsc", limits=Limits(max_frames=0))
    aborted = [r for r in report.rows if r.verdict == "abort:max_frames"]
    assert aborted, "expected an instance whose initial state is not final"
    # the initial state was expanded by one final-position query
    assert all(r.states_expanded > 0 and r.sat_calls > 0 for r in aborted)


def test_brute_abort_rows_report_zero_counts():
    spec = BenchSpec(family="random", count=12, seed=11)
    report = run_suite(spec, solver="brute", limits=Limits(brute_bound=1))
    aborted = [r for r in report.rows if r.verdict == "abort:trace_bound"]
    assert aborted, "expected an instance with no one-position witness"
    assert all(r.states_expanded == 0 and r.sat_calls == 0 for r in aborted)


def test_csv_shape():
    spec = BenchSpec(family="pattern", pattern="precedence", count=3, seed=0)
    report = run_suite(spec)
    text = render_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == ("id,family,verdict,states_expanded,sat_calls,elapsed_ms,verified,"
                        "frames,invariant_level")
    assert len(lines) == 4
    assert lines[1].startswith("precedence-001,pattern,sat,")
    # a decided row carries its run's frames, an unsat row its invariant
    # level; the rest are left empty
    spec = BenchSpec(family="conjunction", count=8, seed=3, alphabet_size=4)
    for limits in (Limits(), Limits(max_frames=1)):
        report = run_suite(spec, limits=limits)
        lines = render_csv(report).strip().split("\n")[1:]
        for (instance_id, f), row, line in zip(instances(spec), report.rows, lines):
            fields = line.split(",")
            assert fields[0] == instance_id
            if row.verdict.startswith("abort"):
                assert (row.frames, row.invariant_level) == (None, None)
                assert fields[-2:] == ["", ""]
                continue
            verdict = check(f, limits=limits)
            assert (row.frames, row.invariant_level) == (verdict.stats.frames,
                                                         verdict.invariant_level)
            level = "" if verdict.sat else str(verdict.invariant_level)
            assert fields[-2:] == [str(verdict.stats.frames), level]
        kinds = {r.verdict for r in report.rows}
        assert {"sat", "unsat"} <= kinds
        assert ("abort:max_frames" in kinds) == (limits.max_frames is not None)


def test_write_corpus(tmp_path):
    spec = BenchSpec(family="random", count=4, seed=9)
    manifest = write_corpus(spec, str(tmp_path))
    assert len(manifest["formulas"]) == 4
    loaded = json.loads((tmp_path / "manifest.json").read_text())
    assert loaded["seed"] == 9
    for entry in loaded["formulas"]:
        text = (tmp_path / entry["file"]).read_text()
        parse(text)

    # byte-identical regeneration under the same spec and seed
    again = tmp_path / "again"
    write_corpus(spec, str(again))
    for entry in loaded["formulas"]:
        assert (tmp_path / entry["file"]).read_text() == (again / entry["file"]).read_text()
