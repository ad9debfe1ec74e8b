import dataclasses
import inspect
import json
import os
import signal
import subprocess
import sys
import time
from collections import deque
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from ltlfsat.bench import gen_conjunction, gen_random
import ltlfsat.cdlsc as cdlsc
from ltlfsat.cdlsc import (
    ConflictSequence,
    WitnessError,
    _frames_imply,
    check,
    inv_found,
    normalise,
    reconstruct_witness,
    solve,
)
from ltlfsat.errors import (
    FrameLimitExceeded,
    Limits,
    SatCallLimitExceeded,
    StateLimitExceeded,
    TimeoutExceeded,
    TraceBoundExceeded,
)
from ltlfsat.abstraction import Assignment, Encoder, propositional_atoms, xnf
from ltlfsat.formula import (
    TAIL,
    Atom,
    FiniteTrace,
    Next,
    Not,
    Release,
    Until,
    by_uid,
    closure,
    is_tnf,
    parse,
    render,
    to_nnf,
    to_tnf,
)
from ltlfsat.satengine import SatSolver
from ltlfsat.semantics import evaluate
from ltlfsat.transition import (
    NaiveResult,
    build_full_system,
    naive_check,
    state_of,
    table_query,
    truth_table,
)
from test_formula import is_nnf
from test_transition import _holds

a, b, tail = Atom("a"), Atom("b"), Atom(TAIL)

OVERVIEW = parse("(! Tail & a) U b")
FIVE = parse(
    "((! Tail) U a) & ((! Tail) U ! a) & ((! Tail) U b) & ((! Tail) U ! b)"
    " & ((! Tail) U c)"
)
UNSAT3 = parse("((! Tail) U a) & (Tail R ! a) & ((! Tail) U b)")
# satisfiable; its queries are partly table-decided and partly solved
_DUMPED = "X X X X a & G (a -> X !a) & F (b & X b)"


def test_overview_is_sat_with_length_one_witness():
    verdict = check(OVERVIEW, raw_tnf=True)
    assert verdict.sat
    assert len(verdict.witness) == 1
    assert "b" in verdict.witness[0]


def test_five_conjunct_sat_with_length_two_witness():
    verdict = check(FIVE, raw_tnf=True)
    assert verdict.sat
    assert len(verdict.witness) == 2
    assert verdict.stats.states_expanded <= 5
    assert evaluate(verdict.witness, FIVE)


def test_unsat_example_detected_at_frames_zero_one():
    verdict = check(UNSAT3, raw_tnf=True)
    assert not verdict.sat
    assert verdict.invariant_level == 0 == inv_found(verdict.frames)
    assert verdict.stats.states_expanded == 1
    frames = verdict.frames
    assert len(frames) >= 2
    assert set(frames[0]) <= set(frames[1]) or set(frames[1]) <= set(frames[0])


def test_translated_inputs_reject_tail():
    from ltlfsat.formula import ReservedAtomError

    with pytest.raises(ReservedAtomError):
        check(parse("(! Tail) U a"))


def test_raw_tnf_requires_tnf_shape():
    with pytest.raises(ValueError, match="raw TNF"):
        check(parse("N a"), raw_tnf=True)


def test_propositional_contradiction_unsat():
    verdict = check(parse("p & ! p"))
    assert not verdict.sat
    assert verdict.invariant_level == inv_found(verdict.frames)


def test_witness_never_mentions_tail_after_translation():
    for seed in range(30):
        f = gen_random(3, 9, 0.5, seed)
        verdict = check(f)
        if verdict.sat:
            assert all(TAIL not in pos for pos in verdict.witness.positions)
            assert evaluate(verdict.witness, f)


def test_inv_found_examples():
    pair = frozenset({Until(Not(tail), a), Release(tail, Not(a))})
    assert inv_found([[pair], [pair]]) == 0
    p_core = frozenset({Atom("p")})
    q_core = frozenset({Atom("q")})
    assert inv_found([[p_core], [q_core]]) is None


def test_inv_found_matches_truth_table():
    import itertools
    import random

    rng = random.Random(7)
    atoms_pool = [Atom(f"m{i}") for i in range(6)]
    for _ in range(120):
        nframes = rng.randrange(2, 5)
        frames = []
        for _ in range(nframes):
            cores = []
            for _ in range(rng.randrange(1, 4)):
                size = rng.randrange(1, 4)
                cores.append(frozenset(rng.sample(atoms_pool, size)))
            frames.append(cores)
        got = inv_found(frames)

        def implied(i):
            names = sorted(
                {g for frame in frames for core in frame for g in core},
                key=lambda g: g.uid,
            )
            for bits in itertools.product([False, True], repeat=len(names)):
                val = dict(zip(names, bits))

                def frame_holds(frame):
                    return any(all(val[g] for g in core) for core in frame)

                if all(frame_holds(frames[j]) for j in range(i + 1)) and not frame_holds(
                    frames[i + 1]
                ):
                    return False
            return True

        expected = next((i for i in range(nframes - 1) if implied(i)), None)
        assert got == expected, frames


_MEMBERS = [Atom(f"m{i}") for i in range(5)]
_CORES = st.frozensets(st.sampled_from(_MEMBERS), min_size=1, max_size=3)
_STEPS = st.lists(
    st.one_of(st.none(), st.tuples(st.integers(0, 4), _CORES)), min_size=1, max_size=40
)


@settings(max_examples=150, deadline=None)
@given(_STEPS)
def test_syntactic_fixpoint_implies_inv_found(steps):
    """Random grow-only frames, queried at random points: whenever the
    syntactic test finds a level, the frames up to it force the next one and
    the exact reference finds a level no greater."""
    sequence = ConflictSequence(Encoder())
    for step in steps + [None]:
        if step is None:
            level = _closed_level(sequence)
            if level is not None:
                frames = sequence.frames
                assert _frames_imply(frames[: level + 1], frames[level + 1]), frames
                found = inv_found(frames)
                assert found is not None and found <= level, frames
        else:
            sequence.add_core(*step)


def _closed_level(sequence):
    """The fixpoint level as `_Run._push` finds it once every level's pushes
    are done: the first i with frames 0..i nonempty at which `close(i)`
    leaves no open core. Like `_push`, it closes every level."""
    level, nonempty = None, True
    for i in range(len(sequence) - 1):
        nonempty = nonempty and bool(sequence.frames[i])
        if sequence.close(i) and nonempty and level is None:
            level = i
    return level


def _linear_fixpoint_level(frames):
    for i in range(len(frames) - 1):
        if not frames[i]:
            return None
        if all(_covered(frames[i + 1], core) for core in frames[i]):
            return i
    return None


_SUBSETS = [frozenset(m for k, m in enumerate(_MEMBERS) if bits >> k & 1)
            for bits in range(1 << len(_MEMBERS))]


@settings(max_examples=150, deadline=None)
@given(_STEPS)
def test_subsumption_index_answers_as_a_frame_scan(steps):
    """Random grow-only frames, queried at random points: the indexed
    `subsumed` and the fixpoint found over the open cores give the answers
    of a linear scan, and the open cores left are those of each frame that
    the next does not cover, in insertion order."""
    sequence = ConflictSequence(Encoder())
    for step in steps + [None]:
        if step is not None:
            sequence.add_core(*step)
            continue
        frames = sequence.frames
        assert _closed_level(sequence) == _linear_fixpoint_level(frames)
        for i in range(len(frames) - 1):
            assert list(sequence.open[i]) == [
                core for core in frames[i] if not _covered(frames[i + 1], core)], i
        for j, frame in enumerate(frames):
            for members in _SUBSETS:
                assert sequence.subsumed(j, members) == _covered(frame, members), (j, members)


@settings(max_examples=100, deadline=None)
@given(_STEPS)
def test_cores_inside_a_set_are_those_a_frame_scan_finds(steps):
    sequence = ConflictSequence(Encoder())
    for step in steps:
        if step is not None:
            sequence.add_core(*step)
    for j, frame in enumerate(sequence.frames):
        for members in _SUBSETS:
            inside = list(sequence.inside(j, members))
            assert len(inside) == len(set(inside))
            assert set(inside) == {core for core in frame if core <= members}, (j, members)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 5000),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    core_picks=st.lists(st.lists(st.integers(0, 10**6), min_size=1, max_size=3), max_size=6),
    level=st.integers(0, 1),
)
def test_table_queries_agree_with_the_frame_solver(seed, picks, core_picks, level):
    """Random small states of a random formula's closure, queried under a
    frame of random cores drawn mostly from the state's next bodies: the
    table's answer agrees with the frame's own solver, a sat assignment's
    projection is sat there, and an unsat core is a deletion-minimal unsat
    subset of the state there. A plain scan of the drawn cores, with no
    filed index, gives the same answer."""
    pool = sorted(closure(to_tnf(to_nnf(gen_random(2, 8, 0.5, seed)))), key=by_uid)
    state = frozenset(pool[p % len(pool)] for p in picks)
    table = truth_table(state)
    assume(table is not None)
    bodies = list(table[4])
    nexts = [Next(body) for body in bodies]
    drawn = bodies * 3 + pool
    cores = [frozenset(drawn[p % len(drawn)] for p in core) for core in core_picks]
    sequence = ConflictSequence(Encoder())
    sequence.ensure(1)
    for core in cores:
        sequence.add_core(level, core)
    encoder, act = sequence.context(level)
    out = table_query(state, partial(sequence.inside, level))
    assert table_query(state, lambda bodies: [c for c in cores if c <= bodies]) == out
    solved = encoder.query(state, acts=(act,))
    assert out.sat == solved.sat
    if out.sat:
        assignment = out.assignment
        assert {name for name, _ in assignment.literals} == {
            name for name, _ in solved.assignment.literals}
        assert assignment.next_bodies <= set(bodies)
        fixed = [encoder.atom_var(Atom(name)) * (1 if value else -1)
                 for name, value in assignment.literals]
        fixed += [encoder.atom_var(n) * (1 if n.operand in assignment.next_bodies else -1)
                  for n in nexts]
        assert encoder.query(state, acts=(act, *fixed)).sat
    else:
        core = out.core
        assert core and core <= state
        assert not encoder.query(core, acts=(act,)).sat
        for psi in core:
            assert encoder.query(core - {psi}, acts=(act,)).sat, psi


def _pushed_cores(f):
    """Decide f, recording every core that core pushing adds to a frame,
    with the source frame as it stood at the push."""
    pushed = []
    push, add_core = cdlsc._Run._push, ConflictSequence.add_core

    def recording_push(run, frame_level):
        def add(j, core):
            pushed.append((tuple(run.sequence.frames[j - 1]), core))
            add_core(run.sequence, j, core)

        run.sequence.add_core = add
        try:
            return push(run, frame_level)
        finally:
            del run.sequence.add_core

    with mock.patch.object(cdlsc._Run, "_push", recording_push):
        check(f)
    return pushed


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3), st.integers(6, 12), st.integers(0, 10**6))
def test_pushed_cores_block_every_successor(nvars, length, seed):
    """In the exhaustive system, no final state contains a pushed core, and
    every successor of a state containing one contains a core of the frame
    it was pushed from."""
    f = gen_random(nvars, length, 0.9, seed)
    pushed = _pushed_cores(f)
    if not pushed:
        return
    ts = build_full_system(to_tnf(to_nnf(f)), exhaustive=True)
    succs = {}
    for src, _, dst in ts.edges:
        succs.setdefault(src, set()).add(dst)
    for source, core in pushed:
        for i, state in enumerate(ts.states):
            if core <= state:
                assert not ts.final[i].sat, (f, core)
                for j in succs.get(i, ()):
                    assert _covered(source, ts.states[j]), (f, core)


def _pushed_levels(f):
    """Decide f, recording each level `_Run._push` returns with the frames
    after that push."""
    returned = []
    push = cdlsc._Run._push

    def recording_push(run, frame_level):
        level = push(run, frame_level)
        returned.append((level, [tuple(frame) for frame in run.sequence.frames]))
        return level

    with mock.patch.object(cdlsc._Run, "_push", recording_push):
        verdict = check(f)
    return verdict, returned


def _assert_pushes_find_the_fixpoint(f):
    verdict, returned = _pushed_levels(f)
    for level, frames in returned:
        assert level == _linear_fixpoint_level(frames), f
        if level is not None:
            assert _frames_imply(frames[: level + 1], frames[level + 1]), f
            found = inv_found(frames)
            assert found is not None and found <= level, f
    if returned:
        assert verdict.invariant_level == returned[-1][0], f


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3), st.integers(6, 12), st.integers(0, 10**6))
def test_push_pass_returns_the_syntactic_fixpoint(nvars, length, seed):
    """The level each push pass returns is the first level whose cores the
    next frame all subsume, read off the frames after that pass."""
    _assert_pushes_find_the_fixpoint(gen_random(nvars, length, 0.9, seed))


def test_reconstruct_witness_length_one():
    final = Assignment(frozenset({(TAIL, True), ("b", True), ("a", False)}), frozenset())
    trace = reconstruct_witness([], final, parse("a U b"))
    assert trace.positions == (frozenset({"b"}),)


def test_reconstruct_witness_truncates_at_tail():
    final = Assignment(frozenset({(TAIL, True), ("b", True)}), frozenset())
    mid = Assignment(frozenset({(TAIL, True), ("a", True), ("b", False)}), frozenset())
    trace = reconstruct_witness([mid], final, parse("a"))
    assert trace.positions == (frozenset({"a"}),)


def test_reconstruct_witness_flags_bad_traces():
    final = Assignment(frozenset({(TAIL, True), ("b", False), ("a", False)}), frozenset())
    with pytest.raises(WitnessError):
        reconstruct_witness([], final, parse("b"))


def test_naive_engine_flags_bad_witnesses(monkeypatch):
    empty = FiniteTrace.make([set()], alphabet={"a"})
    bad = NaiveResult(True, empty, empty, 1, 1, 0)
    monkeypatch.setattr(cdlsc, "naive_check", lambda *args, **kwargs: bad)
    with pytest.raises(WitnessError):
        solve(parse("a"), "naive")


def test_frame_limit_aborts_without_verdict():
    with pytest.raises(FrameLimitExceeded):
        check(UNSAT3, raw_tnf=True, limits=Limits(max_frames=0))


def test_default_frame_limit_is_computed_once_past_the_initial_state_bound():
    run = cdlsc._Run(parse("a U b & G ! c"), raw_tnf=False, limits=Limits(),
                     dump_dir=None, iteration_hook=None)
    floor = 1 << len(run.s0)
    run.sequence.ensure(floor - 1)
    assert not run._over_frame_limit()
    assert run.max_frames is None
    run.sequence.ensure(floor)
    assert not run._over_frame_limit()
    assert run.max_frames == 1 << len(closure(run.tnf))


def test_sat_call_limit_aborts_without_verdict():
    with pytest.raises(SatCallLimitExceeded):
        check(FIVE, raw_tnf=True, limits=Limits(max_sat_calls=1))


def test_timeout_aborts_without_verdict():
    with pytest.raises(TimeoutExceeded):
        check(FIVE, raw_tnf=True, limits=Limits(timeout=0.0))


def test_timeout_covers_the_fixpoint_test():
    # the fixpoint is reached on the first iteration, right after the hook
    with pytest.raises(TimeoutExceeded):
        check(parse("p & ! p"), limits=Limits(timeout=0.05),
              iteration_hook=lambda level, frames: time.sleep(0.1))


@pytest.mark.parametrize("engine, limits, abort", [
    ("cdlsc", Limits(timeout=0.0), TimeoutExceeded),
    ("cdlsc", Limits(max_frames=0), FrameLimitExceeded),
    ("cdlsc", Limits(max_sat_calls=1), SatCallLimitExceeded),
    ("naive", Limits(timeout=0.0), TimeoutExceeded),
    ("naive", Limits(state_limit=1), StateLimitExceeded),
    ("brute", Limits(timeout=0.0), TimeoutExceeded),
    ("brute", Limits(brute_bound=1), TraceBoundExceeded),
    ("cdlsc", Limits(max_sat_calls=0), SatCallLimitExceeded),
])
def test_each_limit_reaches_its_engine_through_solve(engine, limits, abort):
    # the shortest witness has two positions, so no engine decides at once
    f = parse("X a")
    assert solve(f, engine).sat
    with pytest.raises(abort):
        solve(f, engine, limits=limits)


def _counted_check(f, limits):
    """check(f) under limits, the queries `_Run._query` answered, and the
    solver queries among them, rechecks excluded."""
    queries = []
    solved = []
    query = cdlsc._Run._query
    solve = Encoder.query

    def counting_query(run, *args, **kwargs):
        out = query(run, *args, **kwargs)
        queries.append(out)
        return out

    def counting_solve(encoder, state, **kwargs):
        solved.append(kwargs.get("_recheck", False))
        return solve(encoder, state, **kwargs)

    with mock.patch.object(cdlsc._Run, "_query", counting_query), \
            mock.patch.object(Encoder, "query", counting_solve):
        try:
            out = check(f, limits=limits)
        except SatCallLimitExceeded as abort:
            out = abort
    return out, len(queries), solved.count(False)


def test_sat_call_limit_is_exact():
    # limit 0 stops even the initial state's final-position query
    abort, made, solved = _counted_check(parse("a"), Limits(max_sat_calls=0))
    assert isinstance(abort, SatCallLimitExceeded) and made == abort.sat_calls == solved == 0
    # small states are decided by table and large ones, at every step level,
    # by a solver; both kinds count toward the limit
    f = parse("F a & F b & F c & F d & F e & G !(a & b) & G (c -> !d) & G (e -> X !e)"
              " & X X X X X a")
    verdict, total, solved = _counted_check(f, Limits())
    stats = verdict.stats
    assert stats.sat_calls == total > 7
    assert 0 < stats.table_queries < total
    assert solved == total - stats.table_queries > 1
    for k in range(total):
        abort, made, _ = _counted_check(f, Limits(max_sat_calls=k))
        assert isinstance(abort, SatCallLimitExceeded), k
        assert made == abort.sat_calls == k
    # a run that needs exactly its limit still reaches its verdict
    verdict, made, _ = _counted_check(f, Limits(max_sat_calls=total))
    assert verdict.sat and verdict.stats.sat_calls == made == total


@pytest.mark.parametrize("engine", [check, naive_check, build_full_system])
def test_engines_take_limits_only_as_one_object(engine):
    params = inspect.signature(engine).parameters
    assert "limits" in params
    assert not {f.name for f in dataclasses.fields(Limits)} & set(params)


@pytest.mark.parametrize("field, malformed, least", [
    ("timeout", float("nan"), 0.0),
    ("timeout", -1.0, 0.0),
    ("max_frames", -1, 0),
    ("max_sat_calls", -1, 0),
    ("state_limit", 0, 1),
    ("brute_bound", 0, 1),
    # only timeout, max_frames and max_sat_calls may be None
    ("state_limit", None, 1),
    ("brute_bound", None, 1),
])
def test_malformed_limits_are_rejected_when_made(field, malformed, least):
    with pytest.raises(ValueError, match=field):
        Limits(**{field: malformed})
    assert getattr(Limits(**{field: least}), field) == least


def _eventualities(n):
    names = [f"p{i}" for i in range(1, n + 1)]
    pairs = [f"!({p} & {q})" for i, p in enumerate(names) for q in names[i + 1:]]
    return parse(" & ".join([f"F {p}" for p in names] + ["G (" + " & ".join(pairs) + ")",
                             "!(" + "X " * (n - 1) + "true)"]))


def test_pushes_are_counted():
    assert check(parse("a U b")).stats.pushes == 0
    verdict = check(_eventualities(4))
    assert not verdict.sat
    assert verdict.stats.pushes > 0
    assert verdict.invariant_level == inv_found(verdict.frames)


@pytest.mark.parametrize("f", [
    gen_random(3, 14, 0.5, 489),
    gen_random(3, 12, 0.5, 607),
    gen_random(3, 14, 0.5, 729),
    gen_conjunction(237, 10, 1237, alphabet_size=4),
], ids=["random-489", "random-607", "random-729", "conjunction-237"])
def test_the_push_pass_stops_at_the_fixpoint(f):
    """The pass that finds the fixpoint returns it at once: it makes no push
    query above that level. On these formulas, pushing on would query
    frames above it."""
    passes = []
    push, step = cdlsc._Run._push, cdlsc._Run._step

    def recording_push(run, frame_level):
        passes.append([])
        return push(run, frame_level)

    def recording_step(run, state, level, **kwargs):
        if kwargs.get("push"):
            passes[-1].append(level)
        return step(run, state, level, **kwargs)

    with mock.patch.object(cdlsc._Run, "_push", recording_push), \
            mock.patch.object(cdlsc._Run, "_step", recording_step):
        verdict = check(f)
    assert not verdict.sat
    assert verdict.invariant_level == inv_found(verdict.frames)
    assert passes[-1] and max(passes[-1]) <= verdict.invariant_level


@pytest.mark.parametrize("n", [10, 20, 40])
def test_chain_pushes_reach_a_solver_at_most_once_per_frame(n):
    """On `X^n a` every push fails. A failed push waits for a core that
    covers its stored successor, so the run solves at most n of them."""
    verdict = check(parse("X " * n + "a"))
    assert verdict.sat and verdict.stats.frames == n
    assert verdict.stats.pushes <= n
    assert verdict.stats.reused > 0


def test_reused_queries_do_not_count_towards_the_sat_call_limit():
    f = parse("X " * 10 + "a")
    stats = check(f).stats
    assert stats.reused > stats.sat_calls
    again = check(f, limits=Limits(max_sat_calls=stats.sat_calls)).stats
    assert (again.sat_calls, again.reused) == (stats.sat_calls, stats.reused)


def _checked_reuse(f):
    """Decide f, checking every step answer taken from a stored successor:
    the frame's solver finds the same query sat, every member's expanded
    form holds under the stored assignment, and no core of the frame lies
    inside its successor. Returns the verdict and the number of reuses."""
    reused = []
    lookup = cdlsc._Run._reused

    def checked(run, state, level):
        last = lookup(run, state, level)
        if last is not None:
            reused.append(state)
            encoder, act = run.sequence.context(level)
            assert encoder.query(state, acts=(act,)).sat, (f, state, level)
            values = dict(last.literals)
            assert all(_holds(xnf(psi), values, last.next_bodies) for psi in state), (f, state)
            assert not _covered(run.sequence.frames[level], last.next_bodies), (f, state, level)
        return last

    with mock.patch.object(cdlsc._Run, "_reused", checked):
        verdict = check(f)
    return verdict, len(reused)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3), st.integers(6, 12), st.integers(0, 10**6))
def test_reused_step_answers_are_models_of_the_query(nvars, length, seed):
    f = gen_random(nvars, length, 0.9, seed)
    verdict, _ = _checked_reuse(f)
    assert verdict.sat == naive_check(to_tnf(to_nnf(f))).sat, f


def test_agreement_with_naive_on_random_sample():
    for seed in range(60):
        f = gen_random(3, 10, 0.5, seed + 1000)
        verdict = check(f)
        naive = naive_check(to_tnf(to_nnf(f)))
        assert verdict.sat == naive.sat, seed
        if not verdict.sat:
            assert verdict.invariant_level == inv_found(verdict.frames), seed


def test_cdlsc_witnesses_are_shortest():
    """A run tries every step budget below the one it succeeds at, so its
    witness is as short as the naive engine's, which breadth-first
    discovery makes shortest."""
    longer = 0
    for seed in range(300):
        f = gen_random(3, 5 + seed % 10, 0.5, seed + 3000)
        verdict = check(f)
        naive = naive_check(to_tnf(to_nnf(f)))
        assert verdict.sat == naive.sat, seed
        if verdict.sat:
            assert len(verdict.witness) == len(naive.witness), seed
            longer += len(verdict.witness) > 1
    assert longer >= 30, longer


def test_runs_reach_the_exact_fixpoint_on_conjunctions_and_random_formulas():
    """The cores a run finds depend on the models its encoding yields, and
    cores that keep the next frame from subsuming a frame stall the
    syntactic fixpoint until a frame limit aborts the run. Over seeded
    pattern conjunctions (4 and 6 atoms, k 3-12) and random formulas, no
    run aborts at 60 frames and every unsat run stops at the level of the
    exact test."""
    formulas = [gen_conjunction(seed // 4, 3 + seed % 10, seed, alphabet_size=4 + 2 * (seed % 2))
                for seed in range(300)]
    formulas += [gen_random(3, 5 + seed % 10, 0.5, seed) for seed in range(300)]
    unsat = 0
    for f in formulas:
        verdict = check(f, limits=Limits(max_frames=60))
        if not verdict.sat:
            unsat += 1
            assert verdict.invariant_level == inv_found(verdict.frames), render(f)
    assert unsat >= 100, unsat


def _covered(frame, state):
    return any(core <= state for core in frame)


def _check_conflict_sequence(frames, ts):
    """Definitional frame properties, verified against the exhaustive system."""
    s0 = ts.states[0]
    succs = {}
    for src, _, dst in ts.edges:
        succs.setdefault(src, set()).add(dst)
    # 1: the initial state is in every frame
    for frame in frames:
        assert _covered(frame, s0)
    # 2: every covered system state in frame 0 is non-final
    for i, state in enumerate(ts.states):
        if _covered(frames[0], state):
            assert not ts.final[i].sat
    # 3: one-transition successors of frame i+1 states lie in frame i
    for level in range(len(frames) - 1):
        for i, state in enumerate(ts.states):
            if _covered(frames[level + 1], state):
                for j in succs.get(i, ()):
                    assert _covered(frames[level], ts.states[j])
    # covered-by-prefix states cannot reach a final state within i steps
    for i in range(len(frames)):
        for idx, state in enumerate(ts.states):
            if all(_covered(frames[j], state) for j in range(i + 1)):
                dist = {idx: 0}
                queue = deque([idx])
                while queue:
                    u = queue.popleft()
                    if dist[u] > i:
                        continue
                    assert not ts.final[u].sat, (i, idx)
                    for w in succs.get(u, ()):
                        if w not in dist:
                            dist[w] = dist[u] + 1
                            if dist[w] <= i:
                                queue.append(w)


def test_conflict_sequence_invariants_small_sample():
    checked = 0
    for seed in range(25):
        f = gen_random(2, 8, 0.6, seed + 77)
        tnf = to_tnf(to_nnf(f))
        snapshots = []
        verdict = check(f, iteration_hook=lambda level, frames: snapshots.append(frames))
        if not verdict.sat:
            assert verdict.invariant_level == inv_found(verdict.frames), seed
        if not snapshots:
            continue
        ts = build_full_system(tnf, exhaustive=True)
        for frames in snapshots:
            _check_conflict_sequence(frames, ts)
        checked += 1
    assert checked >= 3


def test_frames_only_ever_grow():
    snapshots = []
    check(FIVE, raw_tnf=True, iteration_hook=lambda level, frames: snapshots.append(frames))
    check(UNSAT3, raw_tnf=True, iteration_hook=lambda level, frames: snapshots.append(frames))
    for seed in range(20):
        f = gen_random(2, 8, 0.7, seed + 500)
        local = []
        verdict = check(f, iteration_hook=lambda level, frames: local.append(frames))
        if not verdict.sat:
            assert verdict.invariant_level == inv_found(verdict.frames), seed
        for earlier, later in zip(local, local[1:]):
            assert len(earlier) <= len(later)
            for i, frame in enumerate(earlier):
                assert set(frame) <= set(later[i])


def test_success_spine_escapes_the_frames():
    """Every sat verdict has a spine, from the initial state on. Its states,
    outermost first, are not covered by the frames mirrored from the far
    end."""
    found = 0
    for seed in range(60):
        f = gen_random(2, 9, 0.6, seed + 31)
        verdict = check(f)
        if not verdict.sat:
            continue
        spine = verdict.spine
        assert spine[0] == state_of(normalise(f)), seed
        assert len(spine) == len(verdict.witness), seed
        frames = verdict.frames
        n = len(spine) - 1
        for i, state in enumerate(spine):
            level = n - i
            if level < len(frames):
                assert not _covered(frames[level], state), seed
        found += 1
    assert found >= 2


def test_frame_solvers_block_cores_added_before_they_exist():
    run_encoder = Encoder()
    sequence = ConflictSequence(run_encoder)
    state = frozenset({Next(a)})  # its only successor holds a
    with mock.patch.object(cdlsc, "Encoder", wraps=Encoder) as made:
        sequence.add_core(1, frozenset({a}))
        assert made.call_count == 0
        encoder, act = sequence.context(1)
        assert made.call_count == 1
        assert sequence.context(1) == (encoder, act)
    assert encoder is not run_encoder and encoder.solver is not run_encoder.solver
    assert not encoder.query(state, acts=(act,)).sat
    # frame 0 lives in the run's encoder, which holds none of frame 1's cores
    assert sequence.context(0)[0] is run_encoder
    assert run_encoder.query(state, acts=(sequence.context(0)[1],)).sat
    # a core added once the frame's solver exists is blocked at once
    other = frozenset({Next(b)})
    assert encoder.query(other, acts=(act,)).sat
    sequence.add_core(1, frozenset({b}))
    assert not encoder.query(other, acts=(act,)).sat
    # each encoder counts its own queries, rechecks excluded
    assert (run_encoder.sat_calls, encoder.sat_calls) == (1, 3)


def test_frame_zero_shares_the_run_encoder():
    # six eventualities give states past TABLE_ATOMS at frames 1 and up, so
    # those frames get solvers of their own
    run = cdlsc._Run(_eventualities(6), raw_tnf=False, limits=Limits(),
                     dump_dir=None, iteration_hook=None)
    created = []

    def recording_encoder():
        created.append(Encoder())
        return created[-1]

    # the run's own encoder exists already, so only frame encoders are made here
    with mock.patch.object(cdlsc, "Encoder", recording_encoder):
        verdict = run.check()
    assert not verdict.sat and len(created) >= 2
    assert run.sequence.context(0)[0] is run.encoder
    assert [run.sequence.context(i)[0] for i in range(1, len(created) + 1)] == created
    solvers = [e.solver for e in [run.encoder, *created]]
    assert len({id(s) for s in solvers}) == len(solvers)
    assert verdict.stats.live_clauses == sum(len(s.clauses) for s in solvers)
    solved = verdict.stats.sat_calls - verdict.stats.table_queries
    assert verdict.stats.table_queries > 0
    assert solved == sum(e.sat_calls for e in [run.encoder, *created])


def test_clause_dumps_number_every_query_of_the_run(tmp_path):
    # each query that reaches a solver is dumped under its count; the
    # table-decided ones leave gaps in the numbers
    solved, dumped = [], []
    query, solve = cdlsc._Run._query, Encoder.query

    def recording_query(run, *args, **kwargs):
        tabled = run.stats.table_queries
        out = query(run, *args, **kwargs)
        if run.stats.table_queries == tabled:
            solved.append(run.stats.sat_calls)
        return out

    def recording_solve(encoder, state, **kwargs):
        if not kwargs.get("_recheck", False):
            dumped.append(os.path.basename(kwargs["dump"]))
        else:
            assert kwargs.get("dump") is None
        return solve(encoder, state, **kwargs)

    with mock.patch.object(cdlsc._Run, "_query", recording_query), \
            mock.patch.object(Encoder, "query", recording_solve):
        verdict = check(parse(_DUMPED), dump_dir=tmp_path)
    stats = verdict.stats
    assert verdict.sat and stats.frames > 2 and stats.reused > 0
    assert 0 < stats.table_queries < stats.sat_calls
    assert len(solved) == stats.sat_calls - stats.table_queries
    names = [f"query{i:05d}.cnf" for i in solved]
    assert sorted(p.name for p in tmp_path.iterdir()) == names == dumped


def _spoiling_first_core(spoils):
    """A `SatSolver.solve` whose first unsat answer on a solver that
    `spoils` accepts has one member selector dropped from its failed set,
    chosen so that the rest is satisfiable: a wrong core. An encoder puts
    the member selectors first and one context literal last."""
    solve = SatSolver.solve
    spoiled = []

    def spoiling(solver, assumptions=()):
        res = solve(solver, assumptions)
        if res.sat or spoiled or not spoils(solver):
            return res
        for lit in assumptions[:-1]:
            if lit in res.failed and solve(solver, [a for a in assumptions if a != lit]).sat:
                spoiled.append(lit)
                return dataclasses.replace(res, failed=res.failed - {lit})
        return res

    return spoiling


def test_the_recheck_catches_a_wrong_final_position_core():
    # the first unsat answer of the run is the final-position query at s0
    with mock.patch.object(SatSolver, "solve", _spoiling_first_core(lambda solver: True)):
        with pytest.raises(AssertionError, match="re-queried alone"):
            check(parse("a & !a & b"))


def test_the_recheck_catches_a_wrong_frame_solver_core():
    # six eventualities give states past TABLE_ATOMS at frames 1 and up, and
    # only those reach a frame's own solver
    run = cdlsc._Run(_eventualities(6), raw_tnf=False, limits=Limits(),
                     dump_dir=None, iteration_hook=None)
    spoiling = _spoiling_first_core(lambda solver: solver is not run.encoder.solver)
    with mock.patch.object(SatSolver, "solve", spoiling):
        with pytest.raises(AssertionError, match="re-queried alone"):
            run.check()


def test_the_naive_engine_makes_no_recheck():
    # only a cdlsc run keeps cores, so only it rechecks them
    rechecks = []
    query = Encoder.query

    def counting_query(encoder, state, **kwargs):
        rechecks.append(kwargs.get("_recheck", False))
        return query(encoder, state, **kwargs)

    f = to_tnf(to_nnf(parse("F a & F b & F c & F d & F e & F f & F g & G ! g")))
    with mock.patch.object(Encoder, "query", counting_query):
        result = naive_check(f)
    assert not result.sat
    assert (result.states_expanded, result.sat_calls, result.live_clauses,
            result.table_states) == (64, 270, 69, 57)
    assert rechecks.count(False) > 0 and rechecks.count(True) == 0


def _distinct_eventualities(names):
    pairs = [f"!({p} & {q})" for i, p in enumerate(names) for q in names[i + 1:]]
    return " & ".join([f"F {p}" for p in names] + ["G (" + " & ".join(pairs) + ")",
                                                     "!(" + "X " * (len(names) - 1) + "true)"])


# seed 1 of the benchmark's deep workload: text, verdict, frames, invariant level
_DEEP_SEED_1 = {
    "chain-10": ("X " * 10 + "a17", True, 10, None),
    "chain-20": ("X " * 20 + "a72", True, 20, None),
    "chain-30": ("X " * 30 + "a97", True, 30, None),
    "chain-40": ("X " * 40 + "a8", True, 40, None),
    "eventualities-4": (_distinct_eventualities(["e32", "e15", "e63", "e97"]), False, 5, 3),
    "eventualities-5": (_distinct_eventualities(["e57", "e60", "e83", "e48", "e26"]),
                        False, 6, 4),
    "eventualities-6": (_distinct_eventualities(["e12", "e62", "e3", "e49", "e55", "e77"]),
                        False, 7, 5),
    "eventualities-7": (_distinct_eventualities(["e97", "e98", "e0", "e89", "e57", "e34",
                                                 "e92"]), False, 8, 6),
}


def _untimed(verdict):
    return dataclasses.replace(verdict, stats=dataclasses.replace(verdict.stats, elapsed=0.0))


@pytest.mark.parametrize("name", ["partly-tabled", "eventualities-4", "eventualities-5"])
def test_a_dumped_run_equals_the_undumped_one(name, tmp_path):
    f = parse(_DUMPED if name == "partly-tabled" else _DEEP_SEED_1[name][0])
    # a run's path depends on the nodes interned before it (members and
    # cores are ordered by uid), so both runs follow one that interned them
    check(f)
    plain = check(f)
    dumped = check(f, dump_dir=tmp_path)
    assert plain.stats.table_queries > 0
    # verdict, witness, frames, spine and every counter but the time
    assert _untimed(dumped) == _untimed(plain)
    stats = dumped.stats
    assert len(list(tmp_path.iterdir())) == stats.sat_calls - stats.table_queries


@pytest.mark.parametrize("name", list(_DEEP_SEED_1))
def test_deep_instances_keep_their_verdicts_and_frames(name):
    text, sat, frames, level = _DEEP_SEED_1[name]
    verdict = check(parse(text))
    assert (verdict.sat, verdict.stats.frames, verdict.invariant_level) == (sat, frames, level)
    if not sat:
        assert inv_found(verdict.frames) <= level


# one process decides the texts in turn and prints, per text, its verdict,
# invariant level, every counter but the time, and a digest of its frames
_FRESH_RUN = '''
import dataclasses, hashlib, json, sys
from ltlfsat.cdlsc import check
from ltlfsat.formula import parse, render

out = {}
for name, text in json.loads(sys.stdin.read()).items():
    verdict = check(parse(text))
    stats = dataclasses.asdict(verdict.stats)
    del stats["elapsed"]
    frames = [[sorted(map(render, core)) for core in frame] for frame in verdict.frames]
    digest = hashlib.sha256(json.dumps(frames).encode()).hexdigest()[:16]
    out[name] = [verdict.sat, verdict.invariant_level, *stats.values(), digest]
print(json.dumps(out))
'''

# what _FRESH_RUN prints for the texts of _DEEP_SEED_1: verdict, invariant
# level, states_expanded, sat_calls, frames, pushes, reused, table_queries,
# live_clauses, table_states, frames digest
_DEEP_SEED_1_PATHS = {
    "chain-10": (True, None, 11, 76, 10, 10, 89, 65, 26, 0, "d9df4b70fad5c24f"),
    "chain-20": (True, None, 21, 251, 20, 20, 379, 230, 46, 0, "ea5973cdc618e790"),
    "chain-30": (True, None, 31, 526, 30, 30, 869, 495, 66, 0, "4ed0bc2b2e39171a"),
    "chain-40": (True, None, 41, 901, 40, 40, 1559, 860, 86, 0, "1b8188aa5662ef01"),
    "eventualities-4": (False, 3, 12, 82, 5, 41, 26, 75, 34, 0, "6606b7e0a9fc20e8"),
    "eventualities-5": (False, 4, 27, 209, 6, 111, 68, 198, 43, 0, "3354765de75983dd"),
    "eventualities-6": (False, 5, 58, 487, 7, 275, 164, 401, 572, 0, "338dc2d22b9e1261"),
    "eventualities-7": (False, 6, 121, 1111, 8, 646, 355, 659, 1078, 0, "ac2c7d46004f0fbb"),
}


def test_deep_instances_keep_their_paths_in_a_fresh_process():
    """A run's path depends on the nodes interned before it, so the texts
    are decided in a process of their own, in the order of `_DEEP_SEED_1`.
    The counters and frames it reports are the same under any hash seed."""
    texts = {name: spec[0] for name, spec in _DEEP_SEED_1.items()}
    env = dict(os.environ, PYTHONPATH=str(Path(cdlsc.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _FRESH_RUN], input=json.dumps(texts),
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    paths = {name: tuple(row) for name, row in json.loads(done.stdout).items()}
    assert paths == _DEEP_SEED_1_PATHS


@pytest.mark.parametrize("name", list(_DEEP_SEED_1))
def test_push_pass_returns_the_syntactic_fixpoint_on_deep_instances(name):
    _assert_pushes_find_the_fixpoint(parse(_DEEP_SEED_1[name][0]))


def test_push_pass_walks_only_the_open_cores():
    """On a long satisfiable chain no push succeeds, so testing every core
    of every frame in each iteration makes a number of subsumption tests
    cubic in n (183,279 at n = 80); walking the open cores keeps it
    quadratic (22,275 at n = 80)."""
    calls = 0
    subsumed = ConflictSequence.subsumed

    def counting(sequence, j, members):
        nonlocal calls
        calls += 1
        return subsumed(sequence, j, members)

    with mock.patch.object(ConflictSequence, "subsumed", counting):
        verdict = check(parse("X " * 80 + "a"))
    assert verdict.sat and verdict.stats.frames == 80
    assert calls < 40_000, calls


@pytest.mark.parametrize("name", ["chain-10", "eventualities-4", "eventualities-5"])
def test_reused_step_answers_on_deep_instances_are_models(name):
    text, sat, frames, level = _DEEP_SEED_1[name]
    verdict, reused = _checked_reuse(parse(text))
    assert (verdict.sat, verdict.stats.frames, verdict.invariant_level) == (sat, frames, level)
    assert reused > 0 and verdict.stats.reused == reused


class _Hang(Exception):
    pass


def _hang(signum, frame):
    raise _Hang("no answer within the alarm")


def test_long_equivalence_chains_are_walked_once_per_node():
    """`a0 <-> a1 <-> ... <-> a59` repeats each right operand twice, once
    negated, so its tree has about 2^60 nodes while its DAG is linear. Every
    walk of the pipeline must visit each node once; a tree walk hangs here
    and the alarm turns that into a failure."""
    names = [f"a{i}" for i in range(60)]
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(30)
    try:
        f = parse(" <-> ".join(names))
        nnf = to_nnf(f)
        assert is_nnf(nnf)
        assert propositional_atoms(nnf) == frozenset(Atom(n) for n in names)
        tnf = to_tnf(nnf)
        assert is_tnf(tnf)
        assert check(f).sat
        assert check(tnf, raw_tnf=True).sat
        assert naive_check(tnf).sat
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
