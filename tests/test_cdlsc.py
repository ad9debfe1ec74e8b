import signal
import time
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ltlfsat.bench import gen_random
import ltlfsat.cdlsc as cdlsc
from ltlfsat.cdlsc import (
    ConflictSequence,
    WitnessError,
    _frames_imply,
    check,
    inv_found,
    reconstruct_witness,
    solve,
)
from ltlfsat.errors import FrameLimitExceeded, SatCallLimitExceeded, TimeoutExceeded
from ltlfsat.abstraction import Assignment, Encoder, propositional_atoms
from ltlfsat.formula import (
    TAIL,
    Atom,
    FiniteTrace,
    Next,
    Not,
    Release,
    Until,
    closure,
    is_nnf,
    is_tnf,
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
def test_syntactic_fixpoint_implies_inv_found(steps):
    """Random grow-only frames, queried at random points: whenever the
    syntactic test finds a level, the frames up to it force the next one and
    the exact reference finds a level no greater."""
    sequence = ConflictSequence(Encoder())
    for step in steps + [None]:
        if step is None:
            level = sequence.fixpoint_level()
            if level is not None:
                frames = sequence.frames
                assert _frames_imply(frames[: level + 1], frames[level + 1]), frames
                found = inv_found(frames)
                assert found is not None and found <= level, frames
        else:
            sequence.add_core(*step)


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
            push(run, frame_level)
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


def test_default_frame_limit_is_computed_once_past_the_initial_state_bound():
    run = cdlsc._Run(parse("a U b & G ! c"), raw_tnf=False, max_frames=None,
                     max_sat_calls=None, timeout=None, dump_dir=None, iteration_hook=None)
    floor = 1 << len(run.s0)
    run.sequence.ensure(floor - 1)
    assert not run._over_frame_limit()
    assert run.max_frames is None
    run.sequence.ensure(floor)
    assert not run._over_frame_limit()
    assert run.max_frames == 1 << len(closure(run.tnf))


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


def test_pushes_are_counted():
    assert check(parse("a U b")).stats.pushes == 0
    verdict = check(_eventualities(4))
    assert not verdict.sat
    assert verdict.stats.pushes > 0
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


def test_frame_solvers_block_cores_added_before_they_exist():
    run_encoder = Encoder()
    sequence = ConflictSequence(run_encoder)
    state = frozenset({Next(a)})  # its only successor holds a
    with mock.patch.object(Encoder, "sibling", autospec=True,
                           side_effect=Encoder.sibling) as sibling:
        sequence.add_core(1, frozenset({a}))
        assert sibling.call_count == 0
        encoder, act = sequence.context(1)
        assert sibling.call_count == 1
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
    # siblings count queries, rechecks excluded, together
    assert run_encoder.sat_calls == encoder.sat_calls == 4


def test_frame_zero_shares_the_run_encoder():
    run = cdlsc._Run(_eventualities(4), raw_tnf=False, max_frames=None,
                     max_sat_calls=None, timeout=None, dump_dir=None, iteration_hook=None)
    created = []
    sibling = Encoder.sibling

    def recording_sibling(encoder):
        created.append(sibling(encoder))
        return created[-1]

    with mock.patch.object(Encoder, "sibling", recording_sibling):
        verdict = run.check()
    assert not verdict.sat and len(created) >= 2
    assert run.sequence.context(0)[0] is run.encoder
    assert [run.sequence.context(i)[0] for i in range(1, len(created) + 1)] == created
    solvers = [e.solver for e in [run.encoder, *created]]
    assert len({id(s) for s in solvers}) == len(solvers)
    assert verdict.stats.live_clauses == sum(len(s.clauses) for s in solvers)
    assert verdict.stats.sat_calls == run.encoder.sat_calls


def test_clause_dumps_number_every_query_of_the_run(tmp_path):
    queries = []
    query = Encoder.query

    def counting_query(encoder, state, **kwargs):
        queries.append(kwargs.get("_recheck", False))
        return query(encoder, state, **kwargs)

    with mock.patch.object(Encoder, "query", counting_query):
        verdict = check(parse("X X X X a & G (a -> X !a) & F (b & X b)"), dump_dir=tmp_path)
    assert verdict.sat and verdict.stats.frames > 2
    assert verdict.stats.sat_calls == queries.count(False)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"query{i:05d}.cnf" for i in range(1, verdict.stats.sat_calls + 1)]


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


@pytest.mark.parametrize("name", list(_DEEP_SEED_1))
def test_deep_instances_keep_their_verdicts_and_frames(name):
    text, sat, frames, level = _DEEP_SEED_1[name]
    verdict = check(parse(text))
    assert (verdict.sat, verdict.stats.frames, verdict.invariant_level) == (sat, frames, level)
    if not sat:
        assert inv_found(verdict.frames) <= level


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
