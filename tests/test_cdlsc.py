import time
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from ltlfsat.bench import gen_random
import ltlfsat.cdlsc as cdlsc
from ltlfsat.cdlsc import (
    ConflictSequence,
    WitnessError,
    check,
    inv_found,
    reconstruct_witness,
    solve,
)
from ltlfsat.errors import FrameLimitExceeded, SatCallLimitExceeded, TimeoutExceeded
from ltlfsat.abstraction import Assignment, Encoder
from ltlfsat.formula import (
    TAIL,
    Atom,
    FiniteTrace,
    Not,
    Release,
    Until,
    parse,
    to_nnf,
    to_tnf,
)
from ltlfsat.semantics import evaluate
from ltlfsat.transition import NaiveResult, build_full_system, naive_check

a, b, tail = Atom("a"), Atom("b"), Atom(TAIL)

OVERVIEW = parse("(! Tail & a) U b")
FIVE = parse(
    "((! Tail) U a) & ((! Tail) U ! a) & ((! Tail) U b) & ((! Tail) U ! b)"
    " & ((! Tail) U c)"
)
UNSAT3 = parse("((! Tail) U a) & (Tail R ! a) & ((! Tail) U b)")


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
def test_incremental_fixpoint_matches_inv_found(steps):
    """Random grow-only frames, queried at random points: the persistent
    fixpoint test answers exactly as the from-scratch reference."""
    sequence = ConflictSequence(Encoder())
    for step in steps + [None]:
        if step is None:
            assert sequence.fixpoint_level() == inv_found(sequence.frames), sequence.frames
        else:
            sequence.add_core(*step)


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
        check(UNSAT3, raw_tnf=True, max_frames=0)


def test_sat_call_limit_aborts_without_verdict():
    with pytest.raises(SatCallLimitExceeded):
        check(FIVE, raw_tnf=True, max_sat_calls=1)


def test_timeout_aborts_without_verdict():
    with pytest.raises(TimeoutExceeded):
        check(FIVE, raw_tnf=True, timeout=0.0)


def test_timeout_covers_the_fixpoint_test():
    # the fixpoint is reached on the first iteration, right after the hook
    with pytest.raises(TimeoutExceeded):
        check(parse("p & ! p"), timeout=0.05,
              iteration_hook=lambda level, frames: time.sleep(0.1))


def _eventualities(n):
    names = [f"p{i}" for i in range(1, n + 1)]
    pairs = [f"!({p} & {q})" for i, p in enumerate(names) for q in names[i + 1:]]
    return parse(" & ".join([f"F {p}" for p in names] + ["G (" + " & ".join(pairs) + ")",
                             "!(" + "X " * (n - 1) + "true)"]))


def test_fixpoint_solves_are_counted():
    assert check(parse("a U b")).stats.fixpoint_solves == 0
    verdict = check(_eventualities(4))
    assert not verdict.sat
    assert verdict.stats.fixpoint_solves > 0
    assert verdict.invariant_level == inv_found(verdict.frames)


def test_agreement_with_naive_on_random_sample():
    for seed in range(60):
        f = gen_random(3, 10, 0.5, seed + 1000)
        verdict = check(f)
        naive = naive_check(to_tnf(to_nnf(f)))
        assert verdict.sat == naive.sat, seed
        if not verdict.sat:
            assert verdict.invariant_level == inv_found(verdict.frames), seed


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
    """On success the recursion spine states, outermost first, are not
    covered by the frames mirrored from the far end."""
    found = 0
    for seed in range(60):
        f = gen_random(2, 9, 0.6, seed + 31)
        verdict = check(f)
        if not verdict.sat or verdict.spine is None:
            continue
        spine = verdict.spine
        frames = verdict.frames
        n = len(spine) - 1
        for i, state in enumerate(spine):
            level = n - i
            if level < len(frames):
                assert not _covered(frames[level], state), seed
        found += 1
    assert found >= 2
