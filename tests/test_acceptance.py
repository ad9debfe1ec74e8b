"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The suites are seeded and
deterministic; the heavyweight runs are shared through module-scoped
fixtures.
"""

import statistics
import time
from collections import deque

import pytest

from ltlfsat import cdlsc
from ltlfsat.bench import BenchSpec, PATTERN_NAMES, gen_pattern, gen_random, instances
from ltlfsat.errors import Limits, ResourceAbort, StateLimitExceeded
from ltlfsat.formula import TAIL, FiniteTrace, atoms, parse, to_nnf, to_tnf
from ltlfsat.abstraction import xnf
from ltlfsat.semantics import _eval_block, brute_force_sat, evaluate
from ltlfsat.transition import brute_bound, build_full_system, naive_check

# ---------------------------------------------------------------------------
# shared knobs (all seeds fixed)

ORACLE_SPEC = BenchSpec(
    family="random", count=500, seed=20250810,
    vars=3, length_min=5, length_max=12, temporal_prob=0.5,
)
CONJUNCTION_SPEC = BenchSpec(
    family="conjunction", count=40, seed=21, k_min=3, k_max=6, alphabet_size=4,
)
EFFICIENCY_SPEC = BenchSpec(
    family="conjunction", count=100, seed=404, k_min=8, k_max=12, alphabet_size=4,
)


def _report(number, description, ok):
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


# ---------------------------------------------------------------------------
# shared suite runs


@pytest.fixture(scope="module")
def oracle_rows():
    rows = []
    start = time.monotonic()
    for instance_id, f in instances(ORACLE_SPEC):
        verdict = cdlsc.check(f)
        translated = to_tnf(to_nnf(f))
        naive = naive_check(translated)
        full = build_full_system(translated, exhaustive=True)
        bound = brute_bound(f, full)
        witness = brute_force_sat(f, bound)
        rows.append(
            {
                "id": instance_id,
                "formula": f,
                "cdlsc": verdict.sat,
                "naive": naive.sat,
                "brute": witness is not None,
                "bound": bound,
                "witnesses": [
                    (w, f)
                    for w in (verdict.witness, naive.witness, witness)
                    if w is not None
                ],
            }
        )
    elapsed = time.monotonic() - start
    return {"rows": rows, "elapsed": elapsed}


@pytest.fixture(scope="module")
def conjunction_rows():
    rows = []
    for instance_id, f in instances(CONJUNCTION_SPEC):
        verdict = cdlsc.check(f, limits=Limits(timeout=60))
        rows.append({"id": instance_id, "formula": f, "verdict": verdict})
    return rows


@pytest.fixture(scope="module")
def efficiency_rows():
    rows = []
    for instance_id, f in instances(EFFICIENCY_SPEC):
        t0 = time.monotonic()
        verdict = cdlsc.check(f, limits=Limits(timeout=60))
        cd_elapsed = time.monotonic() - t0
        t0 = time.monotonic()
        try:
            naive = naive_check(to_tnf(to_nnf(f)), limits=Limits(state_limit=300))
            nv_states = naive.states_expanded
            nv_verdict = "sat" if naive.sat else "unsat"
            nv_witness = naive.witness
        except ResourceAbort as abort:
            nv_states = abort.states_expanded
            nv_verdict = f"abort:{abort.kind}"
            nv_witness = None
        nv_elapsed = time.monotonic() - t0
        rows.append(
            {
                "id": instance_id,
                "formula": f,
                "verdict": verdict,
                "cd_states": verdict.stats.states_expanded,
                "cd_elapsed": cd_elapsed,
                "nv_states": nv_states,
                "nv_verdict": nv_verdict,
                "nv_witness": nv_witness,
                "nv_elapsed": nv_elapsed,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# 1. oracle equivalence


def test_criterion_1_oracle_equivalence(oracle_rows):
    rows = oracle_rows["rows"]
    disagreements = [
        r["id"] for r in rows if not (r["cdlsc"] == r["naive"] == r["brute"])
    ]
    ok = len(rows) >= 500 and not disagreements and oracle_rows["elapsed"] < 600
    _report(
        1,
        f"oracle equivalence on {len(rows)} random formulas, "
        f"{len(disagreements)} disagreements, {oracle_rows['elapsed']:.0f}s",
        ok,
    )


# ---------------------------------------------------------------------------
# 2. witness soundness


def test_criterion_2_witness_soundness(oracle_rows, conjunction_rows, efficiency_rows):
    checked = 0
    failures = []
    for row in oracle_rows["rows"]:
        for witness, f in row["witnesses"]:
            checked += 1
            if not evaluate(witness, f):
                failures.append(row["id"])
    for row in conjunction_rows + efficiency_rows:
        verdict = row["verdict"]
        if verdict.sat:
            checked += 1
            if not evaluate(verdict.witness, row["formula"]):
                failures.append(row["id"])
    for row in efficiency_rows:
        if row["nv_witness"] is not None:
            checked += 1
            if not evaluate(row["nv_witness"], row["formula"]):
                failures.append(row["id"])
    ok = checked > 400 and not failures
    _report(2, f"{checked} satisfying witnesses verified, {len(failures)} failures", ok)


# ---------------------------------------------------------------------------
# 3. worked examples


def test_criterion_3_worked_examples():
    ex_a = cdlsc.check(parse("(! Tail & a) U b"), raw_tnf=True)
    ok_a = ex_a.sat and len(ex_a.witness) == 1 and "b" in ex_a.witness[0]

    five = parse(
        "((! Tail) U a) & ((! Tail) U ! a) & ((! Tail) U b) & ((! Tail) U ! b)"
        " & ((! Tail) U c)"
    )
    ex_b = cdlsc.check(five, raw_tnf=True)
    ok_b = ex_b.sat and len(ex_b.witness) == 2 and ex_b.stats.states_expanded <= 5

    unsat = parse("((! Tail) U a) & (Tail R ! a) & ((! Tail) U b)")
    ex_c = cdlsc.check(unsat, raw_tnf=True)
    ok_c = (
        not ex_c.sat
        and ex_c.stats.states_expanded == 1
        and ex_c.invariant_level == 0
    )
    _report(
        3,
        "worked examples: "
        f"(a) length-1 witness with b [{ok_a}], "
        f"(b) length-2 witness, {ex_b.stats.states_expanded} states [{ok_b}], "
        f"(c) unsat, 1 state, frames 0/1 [{ok_c}]",
        ok_a and ok_b and ok_c,
    )


# ---------------------------------------------------------------------------
# 4. qualitative pattern results


def test_criterion_4_pattern_results(conjunction_rows):
    pattern_failures = []
    for name in PATTERN_NAMES:
        for n in range(1, 21):
            verdict = cdlsc.check(gen_pattern(name, n))
            if not verdict.sat:
                pattern_failures.append((name, n))
    sat_rows = [r for r in conjunction_rows if r["verdict"].sat]
    unsat_rows = [r for r in conjunction_rows if not r["verdict"].sat]

    # cross-check every instance the exhaustive oracle can finish in budget
    disagreements = []
    checked = {"sat": 0, "unsat": 0}
    for row in conjunction_rows:
        try:
            naive = naive_check(
                to_tnf(to_nnf(row["formula"])), limits=Limits(state_limit=2000, timeout=10)
            )
        except ResourceAbort:
            continue
        if naive.sat != row["verdict"].sat:
            disagreements.append(row["id"])
        checked["sat" if naive.sat else "unsat"] += 1
    ok = (
        not pattern_failures
        and sat_rows
        and unsat_rows
        and not disagreements
        and checked["sat"] >= 1
        and checked["unsat"] >= 1
    )
    _report(
        4,
        f"7 pattern families x n=1..20 all sat ({len(pattern_failures)} failures); "
        f"conjunctions: {len(sat_rows)} sat / {len(unsat_rows)} unsat, "
        f"{checked['sat']}+{checked['unsat']} cross-checked, "
        f"{len(disagreements)} disagreements",
        ok,
    )


# ---------------------------------------------------------------------------
# 5. normal-form properties


def _bulk_equivalent(f, g, max_len):
    names = sorted(atoms(f) | atoms(g))
    width = 1 << len(names)
    for length in range(1, max_len + 1):
        total = width ** length
        start = 0
        while start < total:
            count = min(total - start, 1 << 16)
            left = _eval_block(f, names, length, start, count)
            right = _eval_block(g, names, length, start, count)
            if left != right:
                return False
            start += count
    return True


def test_criterion_5_normal_form_properties(oracle_rows):
    # satisfiability preservation of the tail-marked rewrite, via brute force
    equisat_failures = []
    for seed in range(200):
        f = to_nnf(gen_random(2, 4 + seed % 7, 0.5, seed + 50_000))
        translated = to_tnf(f)
        full = build_full_system(translated, exhaustive=True)
        bound = brute_bound(translated, full)
        original_sat = brute_force_sat(f, bound) is not None
        translated_sat = brute_force_sat(translated, bound) is not None
        if original_sat != translated_sat:
            equisat_failures.append(seed)

    # one-step expansion preserves truth on every bounded trace
    xnf_failures = []
    for seed in range(200):
        f = to_tnf(to_nnf(gen_random(2, 4 + seed % 7, 0.5, seed + 60_000)))
        if not _bulk_equivalent(f, xnf(f), 4):
            xnf_failures.append(seed)

    # marking the last position with Tail mirrors the original semantics
    correspondence_failures = []
    for seed in range(200):
        f = to_nnf(gen_random(2, 4 + seed % 6, 0.5, seed + 70_000))
        translated = to_tnf(f)
        names = sorted(atoms(f))
        width = 1 << len(names)
        from itertools import product

        for length in range(1, 4):
            for codes in product(range(width), repeat=length):
                positions = [
                    frozenset(n for j, n in enumerate(names) if code & (1 << j))
                    for code in codes
                ]
                plain = FiniteTrace.make(positions, alphabet=set(names) | {TAIL})
                marked = FiniteTrace(
                    plain.positions[:-1] + (plain.positions[-1] | {TAIL},),
                    plain.alphabet,
                )
                if evaluate(plain, f) != evaluate(marked, translated):
                    correspondence_failures.append(seed)
                    break
            else:
                continue
            break
    ok = not equisat_failures and not xnf_failures and not correspondence_failures
    _report(
        5,
        "normal forms: equisatisfiability "
        f"({len(equisat_failures)} violations), one-step expansion equivalence "
        f"({len(xnf_failures)} violations), tail-marking correspondence "
        f"({len(correspondence_failures)} violations), 200 formulas each",
        ok,
    )


# ---------------------------------------------------------------------------
# 6. conflict-sequence invariants


def _frame_covers(frame, state):
    return any(core <= state for core in frame)


def _conflict_sequence_violations(frames, ts):
    violations = []
    s0 = ts.states[0]
    succs = {}
    for src, _, dst in ts.edges:
        succs.setdefault(src, set()).add(dst)
    if not all(_frame_covers(frame, s0) for frame in frames):
        violations.append("initial state missing from some frame")
    for i, state in enumerate(ts.states):
        if _frame_covers(frames[0], state) and ts.final[i].sat:
            violations.append(f"final state covered by frame 0: {i}")
    for level in range(len(frames) - 1):
        for i, state in enumerate(ts.states):
            if _frame_covers(frames[level + 1], state):
                for j in succs.get(i, ()):
                    if not _frame_covers(frames[level], ts.states[j]):
                        violations.append(f"successor escape at level {level + 1}")
    for i in range(len(frames)):
        for idx, state in enumerate(ts.states):
            if all(_frame_covers(frames[j], state) for j in range(i + 1)):
                dist = {idx: 0}
                queue = deque([idx])
                while queue:
                    u = queue.popleft()
                    if ts.final[u].sat:
                        violations.append(f"final state within {i} steps of a covered state")
                        queue.clear()
                        break
                    for w in succs.get(u, ()):
                        if w not in dist and dist[u] + 1 <= i:
                            dist[w] = dist[u] + 1
                            queue.append(w)
    return violations


def test_criterion_6_conflict_sequence_invariants():
    """100 instrumented runs that actually go through model-free iterations;
    every post-iteration frame snapshot is checked against the exhaustive
    system."""
    instrumented = 0
    iterations_checked = 0
    violations = []
    seed = 0
    while instrumented < 100 and seed < 3000:
        f = gen_random(2, 6 + seed % 5, 0.75, seed + 90_000)
        seed += 1
        snapshots = []
        cdlsc.check(f, iteration_hook=lambda level, frames: snapshots.append(frames))
        if not snapshots:
            continue
        instrumented += 1
        ts = build_full_system(to_tnf(to_nnf(f)), exhaustive=True)
        for frames in snapshots:
            iterations_checked += 1
            violations.extend(_conflict_sequence_violations(frames, ts))
    ok = instrumented >= 100 and not violations
    _report(
        6,
        f"{instrumented} instrumented runs, {iterations_checked} model-free"
        f" iterations checked, {len(violations)} frame-invariant violations",
        ok,
    )


# ---------------------------------------------------------------------------
# 7. conflict-driven efficiency


def test_criterion_7_efficiency(efficiency_rows):
    assert all(r["verdict"] is not None for r in efficiency_rows)
    cd_states = [r["cd_states"] for r in efficiency_rows]
    nv_states = [r["nv_states"] for r in efficiency_rows]
    cd_total = sum(r["cd_elapsed"] for r in efficiency_rows)
    nv_total = sum(r["nv_elapsed"] for r in efficiency_rows)
    cd_median = statistics.median(cd_states)
    nv_median = statistics.median(nv_states)
    ok = len(efficiency_rows) >= 100 and cd_median < nv_median and cd_total <= nv_total
    _report(
        7,
        f"median states {cd_median} vs {nv_median} (exhaustive, floor at abort);"
        f" wall {cd_total:.1f}s vs {nv_total:.1f}s over {len(efficiency_rows)}"
        " conjunction instances with k >= 8",
        ok,
    )


# ---------------------------------------------------------------------------
# 8. termination and exit discipline


def test_criterion_8_termination_discipline(oracle_rows, conjunction_rows, efficiency_rows):
    # every suite run above terminated with a definite outcome
    outcomes = (
        [r["cdlsc"] for r in oracle_rows["rows"]]
        + [r["verdict"].sat for r in conjunction_rows]
        + [r["verdict"].sat for r in efficiency_rows]
    )
    all_terminated = all(isinstance(o, bool) for o in outcomes)

    # resource aborts raise and never yield verdicts
    unsat = parse("((! Tail) U a) & (Tail R ! a) & ((! Tail) U b)")
    aborted_cleanly = 0
    try:
        cdlsc.check(unsat, raw_tnf=True, limits=Limits(max_frames=0))
    except ResourceAbort:
        aborted_cleanly += 1
    try:
        cdlsc.check(unsat, raw_tnf=True, limits=Limits(max_sat_calls=1))
    except ResourceAbort:
        aborted_cleanly += 1
    try:
        naive_check(unsat, limits=Limits(state_limit=1))
    except StateLimitExceeded:
        aborted_cleanly += 1
    # aborted bench runs carry no verdict
    from ltlfsat.bench import run_suite

    report = run_suite(
        BenchSpec(family="random", count=12, seed=11, length_min=5, length_max=10),
        solver="naive",
        limits=Limits(state_limit=1),
    )
    aborted_rows = [r for r in report.rows if r.verdict.startswith("abort:")]
    no_verdict_after_abort = all(
        r.verdict in ("sat", "unsat") or r.verdict.startswith("abort:")
        for r in report.rows
    )
    ok = (
        all_terminated
        and aborted_cleanly == 3
        and aborted_rows
        and no_verdict_after_abort
    )
    _report(
        8,
        f"{len(outcomes)} suite runs terminated; {aborted_cleanly}/3 limit kinds"
        " abort by raising; aborted rows carry no verdict",
        ok,
    )
