import os
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import ltlfsat
from ltlfsat.abstraction import (
    Assignment,
    Encoder,
    QueryOutcome,
    expanded_atoms,
    recipe,
    union_atoms,
    xnf,
)
from ltlfsat.bench import gen_random
from ltlfsat.errors import Limits, StateLimitExceeded, TimeoutExceeded
from ltlfsat.formula import (
    FALSE,
    TAIL,
    TRUE,
    And,
    Atom,
    FalseConst,
    Next,
    Not,
    Or,
    Release,
    TrueConst,
    Until,
    WeakNext,
    atoms,
    by_uid,
    closure,
    parse,
    to_nnf,
    to_tnf,
)
from ltlfsat.semantics import brute_force_sat, evaluate
from ltlfsat.transition import (
    TABLE_ATOMS,
    TRUE_STATE,
    bfs_depth,
    brute_bound,
    build_full_system,
    export_dot,
    naive_check,
    state_of,
    successor_state,
    _label,
    _table,
    successors,
)
from test_abstraction import enumerate_assignments, literal_value

a, b, c = Atom("a"), Atom("b"), Atom("c")
tail = Atom(TAIL)

OVERVIEW = Until(And(Not(tail), a), b)
FIVE = parse(
    "((! Tail) U a) & ((! Tail) U ! a) & ((! Tail) U b) & ((! Tail) U ! b)"
    " & ((! Tail) U c)"
)
UNSAT3 = parse("((! Tail) U a) & (Tail R ! a) & ((! Tail) U b)")
# 128 states, every one of them small enough for the truth table
ANCHOR = to_tnf(to_nnf(parse(
    "(false) R ((true) U ((((p0) & (X (! (p0)))) R (X (p2))) U (p1)))"
)))


def _edge_distances(ts):
    """Breadth-first distance of every state reachable over ts.edges."""
    dist = {0: 0}
    queue = deque([0])
    adj = {}
    for src, _, dst in ts.edges:
        adj.setdefault(src, set()).add(dst)
    while queue:
        i = queue.popleft()
        for j in adj.get(i, ()):
            if j not in dist:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


def test_initial_state_splits_conjuncts():
    assert state_of(FIVE) == frozenset(
        {
            Until(Not(tail), a),
            Until(Not(tail), Not(a)),
            Until(Not(tail), b),
            Until(Not(tail), Not(b)),
            Until(Not(tail), c),
        }
    )


def test_overview_initial_state_is_final():
    out = Encoder().query(state_of(OVERVIEW), final=True)
    assert out.sat


def test_five_conjunct_initial_state_not_final_with_pair_core():
    initial = state_of(FIVE)
    out = Encoder().query(initial, final=True)
    assert not out.sat
    assert out.core <= initial
    assert len(out.core) >= 2


def test_pure_propositional_state_is_final():
    out = Encoder().query(frozenset({Atom("p")}), final=True)
    assert out.sat
    assert literal_value(out.assignment, TAIL) is True
    assert literal_value(out.assignment, "p") is True


def test_overview_self_loop_edge_exists():
    """The self-loop with label {a, !b, !Tail} is admitted by the transition
    relation; edge labels picked by the engine are representatives, so the
    check enumerates assignments rather than asserting which one comes
    first."""
    edges = {
        (lab.literals, successor_state(lab.next_bodies))
        for lab in enumerate_assignments(OVERVIEW)
    }
    wanted = frozenset({("a", True), ("b", False), (TAIL, False)})
    assert (wanted, state_of(OVERVIEW)) in edges


def test_empty_obligation_successor_is_true_state():
    encoder = Encoder()
    targets = {target for _, target in successors(encoder, frozenset({Atom("p")}))}
    assert TRUE_STATE in targets
    out = encoder.query(TRUE_STATE, final=True)
    assert out.sat


def test_five_conjunct_full_system_has_at_most_32_states():
    ts = build_full_system(FIVE, exhaustive=True)
    assert ts.state_count <= 32
    assert any(out.sat for out in ts.final.values())


def test_single_atom_system_stops_at_initial():
    f = to_tnf(to_nnf(Atom("p")))
    ts = build_full_system(f)
    assert ts.state_count == 1
    assert ts.final[0].sat


def test_state_set_is_solver_order_insensitive():
    """The exhaustive build, which decides these states by truth table,
    agrees with a closure computed on a solver path: full-assignment
    enumeration (different blocking clauses from `successors`), and final
    tests that assume Tail as a member instead of the final context."""
    seeded = [to_tnf(to_nnf(gen_random(2, 9, 0.6, seed))) for seed in (3, 11, 27)]
    for f in seeded + [ANCHOR]:
        ts = build_full_system(f, exhaustive=True)
        encoder = Encoder()
        reached = {state_of(f)}
        queue = deque(reached)
        while queue:
            state = queue.popleft()
            for assignment in enumerate_assignments(state, encoder=encoder):
                target = successor_state(assignment.next_bodies)
                if target not in reached:
                    reached.add(target)
                    queue.append(target)
        assert set(ts.states) == reached
        final = {state for state in reached
                 if list(enumerate_assignments(state | {tail}, encoder=encoder))}
        assert {ts.states[i] for i, out in ts.final.items() if out.sat} == final


def test_state_limit_is_an_error_not_a_verdict():
    with pytest.raises(StateLimitExceeded) as abort:
        build_full_system(FIVE, exhaustive=True, limits=Limits(state_limit=3))
    assert abort.value.states_expanded == 3


def test_timeout_reports_progress():
    with pytest.raises(TimeoutExceeded) as abort:
        build_full_system(FIVE, exhaustive=True, limits=Limits(timeout=0.0))
    assert abort.value.states_expanded >= 1


def test_exhaustive_build_releases_spent_enumerations():
    """Each finished successor enumeration retires its blocking clauses, so
    one encoder enumerating every state's successors stays small; keeping
    them all leaves 4641 clauses on this 128-state system. The build itself
    decides these states by truth table, so the SAT path is driven here."""
    ts = build_full_system(ANCHOR, exhaustive=True)
    assert ts.state_count == 128
    assert ts.table_states == 128 and ts.sat_calls == 0 and ts.live_clauses == 0
    encoder = Encoder()
    for state in ts.states:
        for _ in successors(encoder, state):
            pass
    assert encoder.sat_calls > ts.state_count
    assert len(encoder.solver.clauses) < 1000


def _holds(g, values, bodies):
    """Truth of an expanded formula under a label read as a valuation:
    literal atoms from `values`, next-atoms true iff their body is in
    `bodies`."""
    if isinstance(g, TrueConst):
        return True
    if isinstance(g, FalseConst):
        return False
    if isinstance(g, Atom):
        return values[g.name]
    if isinstance(g, Next):
        return g.operand in bodies
    if isinstance(g, Not):
        return not _holds(g.operand, values, bodies)
    if isinstance(g, And):
        return _holds(g.left, values, bodies) and _holds(g.right, values, bodies)
    return _holds(g.left, values, bodies) or _holds(g.right, values, bodies)


def _assert_table_matches_sat(state, encoder):
    table = table_step(state)
    assert table is not None
    final, steps = table
    expanded = [xnf(psi) for psi in state]
    projections = [label.next_bodies for label, _ in steps]
    assert len(projections) == len(set(projections))
    for label, target in steps:
        assert target == successor_state(label.next_bodies)
        values = dict(label.literals)
        assert all(_holds(g, values, label.next_bodies) for g in expanded)
    enumerated = list(successors(encoder, state))
    assert set(projections) == {label.next_bodies for label, _ in enumerated}
    assert {target for _, target in steps} == {target for _, target in enumerated}
    assert final.sat == encoder.query(state, final=True).sat
    if final.sat:
        values = dict(final.assignment.literals)
        assert values[TAIL] is True
        assert all(_holds(g, values, final.assignment.next_bodies) for g in expanded)


def test_table_matches_sat_enumeration_on_anchor():
    ts = build_full_system(ANCHOR, exhaustive=True)
    encoder = Encoder()
    for state in ts.states:
        _assert_table_matches_sat(state, encoder)


def _temporal_formulas(max_leaves):
    leaf = st.one_of(st.just(TRUE), st.just(FALSE), st.builds(Atom, st.sampled_from("abc")))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(Next, sub),
            st.builds(WeakNext, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Until, sub, sub),
            st.builds(Release, sub, sub),
        ),
        max_leaves=max_leaves,
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(_temporal_formulas(8), min_size=1, max_size=3))
def test_table_matches_sat_enumeration_on_drawn_states(parts):
    state = frozenset().union(*(state_of(to_tnf(to_nnf(g))) for g in parts))
    assume(table_step(state) is not None)
    _assert_table_matches_sat(state, Encoder())


def relevant_atoms(state):
    """How many relevant atoms a state's table has: its literal atoms,
    next-atoms and Tail."""
    lits, nexts = union_atoms([recipe(psi) for psi in state])
    return len(lits | nexts | {tail})


def wide_pool(seed):
    """The closure of a random formula, in uid order, wide enough to draw
    states near TABLE_ATOMS from."""
    return sorted(closure(to_tnf(to_nnf(gen_random(3, 40, 0.5, seed)))), key=by_uid)


def wide_state(pool, picks):
    """A state with TABLE_ATOMS - 1 or TABLE_ATOMS relevant atoms: members
    of `pool` are added in `picks` order until the state has at least
    TABLE_ATOMS - 1. None when that overshoots the cap or the picks run out
    first."""
    state = frozenset()
    for p in picks:
        state |= {pool[p % len(pool)]}
        k = relevant_atoms(state)
        if k >= TABLE_ATOMS - 1:
            return state if k <= TABLE_ATOMS else None
    return None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.integers(0, 10**6), min_size=24, max_size=24))
def test_table_matches_sat_enumeration_on_wide_states(seed, picks):
    state = wide_state(wide_pool(seed), picks)
    # enumerating thousands of successors on a solver takes seconds
    assume(state is not None and len(_table(state)[1]) <= 256)
    _assert_table_matches_sat(state, Encoder())


def test_table_splits_successors_in_bounded_memory():
    """2,187 successors over 16 relevant atoms. Split level by level, the
    groups of rows held 26.5 MB at the last next-atom; split depth-first,
    at most one waiting part per next-atom is held."""
    f = to_tnf(to_nnf(parse(" & ".join(f"(X p{i} | X q{i})" for i in range(1, 8)))))
    state = state_of(f)
    assert relevant_atoms(state) == 16
    _table(state)  # the recipes and columns are cached once per process
    tracemalloc.start()
    try:
        _, steps, _ = _table(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    # one successor per choice of p_i or q_i or both, each under its first row
    rows = [row for row, _ in steps]
    assert rows == sorted(rows) and len({target for _, target in steps}) == 3 ** 7


def test_bfs_depth_matches_edge_distances():
    systems = [build_full_system(ANCHOR, exhaustive=True)]
    for seed in (0, 5, 9):
        systems.append(build_full_system(to_tnf(to_nnf(gen_random(2, 8, 0.5, seed))),
                                         exhaustive=True))
    for ts in systems:
        dist = _edge_distances(ts)
        assert ts.depth == [dist[i] for i in range(ts.state_count)]
        assert bfs_depth(ts) == max(dist.values())


def test_naive_check_unsat_example():
    result = naive_check(UNSAT3)
    assert not result.sat


def test_naive_check_contradiction():
    f = to_tnf(to_nnf(parse("p & ! p")))
    result = naive_check(f)
    assert not result.sat


def test_naive_witness_satisfies_original():
    for seed in range(40):
        original = gen_random(3, 8, 0.5, seed)
        result = naive_check(to_tnf(to_nnf(original)))
        if result.sat:
            assert evaluate(result.witness, original)


def test_naive_agrees_with_brute_force():
    agreements = 0
    for seed in range(60):
        original = gen_random(2, 7, 0.5, seed)
        tnf = to_tnf(to_nnf(original))
        result = naive_check(tnf)
        full = build_full_system(tnf, exhaustive=True)
        witness = brute_force_sat(original, brute_bound(original, full))
        assert result.sat == (witness is not None), seed
        if witness is not None:
            # breadth-first discovery makes the naive witness shortest
            assert len(result.witness) == len(witness), seed
        agreements += 1
    assert agreements == 60


def test_every_state_reachable_from_initial():
    for seed in (0, 5, 9):
        f = to_tnf(to_nnf(gen_random(2, 8, 0.5, seed)))
        ts = build_full_system(f, exhaustive=True)
        assert set(_edge_distances(ts)) == set(range(ts.state_count))


def test_final_agrees_with_length_one_trace_enumeration():
    from itertools import chain, combinations

    for seed in (1, 4, 13):
        f = to_tnf(to_nnf(gen_random(2, 7, 0.5, seed)))
        ts = build_full_system(f, exhaustive=True)
        names = sorted(atoms(f) - {TAIL})
        for i, state in enumerate(ts.states):
            state_formula = None
            for member in state:
                state_formula = member if state_formula is None else And(state_formula, member)
            has_len1 = False
            for rset in chain.from_iterable(
                combinations(names, k) for k in range(len(names) + 1)
            ):
                from ltlfsat.formula import FiniteTrace

                trace = FiniteTrace.make(
                    [set(rset) | {TAIL}], alphabet=set(names) | {TAIL}
                )
                if evaluate(trace, state_formula):
                    has_len1 = True
                    break
            assert ts.final[i].sat == has_len1, (seed, i)


def test_export_dot_contains_states_and_edges():
    ts = build_full_system(OVERVIEW, exhaustive=True)
    text = export_dot(ts)
    assert text.startswith("digraph")
    assert "doublecircle" in text
    assert "->" in text


def table_step(state):
    """`_table` with every row decoded: (final outcome, [(label, target),
    ...]), a sat final outcome as a `QueryOutcome`, or None when the state
    has more than TABLE_ATOMS relevant atoms."""
    table = _table(state)
    if table is None:
        return None
    final, steps, bits = table
    if final.sat:
        final = QueryOutcome(final.assignment, None)
    return final, [(_label(row, bits), target) for row, target in steps]


def preds(ts):
    """Discovery edge of every state of ts but the initial one, as (source,
    label), decoded."""
    return {j: (i, ts.label(i, label)) for j, (i, label) in ts.parents.items()}


def _reference_table(state):
    """Per-row reference for `table_step`: scan the rows in ascending order,
    keeping the first satisfying row of each next-atom projection and the
    first satisfying row with Tail set. Columns are the relevant atoms in
    uid order, the atom at position j being bit j of the row index."""
    expanded = [xnf(psi) for psi in sorted(state, key=lambda g: g.uid)]
    lits, nexts = set(), set()
    for g in expanded:
        got = expanded_atoms(g)
        lits |= got[0]
        nexts |= got[1]
    columns = sorted(lits | nexts | {tail}, key=lambda g: g.uid)
    final, steps, seen = None, [], set()
    for row in range(1 << len(columns)):
        value = {g: bool(row >> j & 1) for j, g in enumerate(columns)}
        names = {g.name: value[g] for g in lits | {tail}}
        bodies = frozenset(n.operand for n in nexts if value[n])
        if not all(_holds(g, names, bodies) for g in expanded):
            continue
        literals = frozenset((g.name, value[g]) for g in lits)
        if final is None and value[tail]:
            final = Assignment(literals | {(TAIL, True)}, bodies)
        if bodies not in seen:
            seen.add(bodies)
            steps.append((Assignment(literals, bodies), successor_state(bodies)))
    return final, steps


def _assert_table_matches_reference(state, reference):
    table = table_step(state)
    assert table is not None
    final, steps = table
    ref_final, ref_steps = reference
    assert final.assignment == ref_final
    if ref_final is None:
        assert final.core == state
    assert [target for _, target in steps] == [target for _, target in ref_steps]
    for (label, _), (ref, _) in zip(steps, ref_steps):
        assert type(label) is Assignment
        assert label.literals == ref.literals and label.next_bodies == ref.next_bodies


@pytest.fixture(scope="module")
def anchor_reference():
    """ANCHOR's exhaustive system and the reference table of each state."""
    ts = build_full_system(ANCHOR, exhaustive=True)
    return ts, [_reference_table(state) for state in ts.states]


def test_table_matches_row_reference_on_anchor(anchor_reference):
    ts, reference = anchor_reference
    for state, ref in zip(ts.states, reference):
        _assert_table_matches_reference(state, ref)


@settings(max_examples=100, deadline=None)
@given(st.lists(_temporal_formulas(8), min_size=1, max_size=3))
def test_table_matches_row_reference_on_drawn_states(parts):
    state = frozenset().union(*(state_of(to_tnf(to_nnf(g))) for g in parts))
    assume(table_step(state) is not None)
    _assert_table_matches_reference(state, _reference_table(state))


def test_system_labels_are_reference_assignments(anchor_reference):
    """Edge labels of table-decided states are kept as rows and decoded when
    `edges` or `label` is read; each reader gets the reference's label."""
    ts, reference = anchor_reference
    assert ts.table_states == ts.state_count
    steps = {i: ref[1] for i, ref in enumerate(reference)}
    out = {}
    for i, label, j in ts.edges:
        out.setdefault(i, []).append((label, ts.states[j]))
    assert out == steps
    for i, got in out.items():
        for (label, _), (ref, _) in zip(got, steps[i]):
            assert type(label) is Assignment and hash(label) == hash(ref)
    discovered = preds(ts)
    assert set(discovered) == set(range(1, ts.state_count))
    for j, (i, label) in discovered.items():
        ref = next(ref for ref, target in steps[i] if target == ts.states[j])
        assert type(label) is Assignment and label == ref and hash(label) == hash(ref)


# `ltlfsat dump-ts --formula "a U (b & X ! a)"` as printed before edge labels
# were decoded on read. Which row labels an edge follows the uid order of the
# atoms, so the command runs in a fresh interpreter.
DUMP_TS_GOLDEN = """\
digraph transition_system {
  rankdir=LR;
  s0 [shape=circle label="s0: ((a) & (! (Tail))) U ((b) & ((X (! (a))) & (! (Tail)))), (true) U (Tail)"];
  s1 [shape=doublecircle label="s1: ! (a), (true) U (Tail)"];
  s2 [shape=circle label="s2: ! (a), ((a) & (! (Tail))) U ((b) & ((X (! (a))) & (! (Tail)))), (true) U (Tail)"];
  s3 [shape=doublecircle label="s3: true"];
  s4 [shape=doublecircle label="s4: (true) U (Tail)"];
  s0 -> s1 [label="!Tail !a b"];
  s0 -> s0 [label="!Tail a !b"];
  s0 -> s2 [label="!Tail a !b"];
  s1 -> s3 [label="Tail !a"];
  s1 -> s4 [label="!Tail !a"];
  s2 -> s1 [label="!Tail !a b"];
  s2 -> s2 [label="!Tail !a b"];
  s3 -> s3 [label=""];
  s4 -> s3 [label="Tail"];
  s4 -> s4 [label="!Tail"];
}
"""


def test_export_dot_matches_golden():
    src = str(Path(ltlfsat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "ltlfsat.cli", "dump-ts", "--formula", "a U (b & X ! a)"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    assert out.stdout == DUMP_TS_GOLDEN
