from collections import deque

import pytest

from ltlfsat.bench import gen_random
from ltlfsat.errors import StateLimitExceeded, TimeoutExceeded
from ltlfsat.formula import (
    TAIL,
    TRUE,
    And,
    Atom,
    Not,
    Until,
    atoms,
    parse,
    to_nnf,
    to_tnf,
)
from ltlfsat.semantics import brute_force_sat, evaluate
from ltlfsat.transition import (
    TRUE_STATE,
    TransitionExplorer,
    build_full_system,
    export_dot,
    naive_check,
    state_of,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")
tail = Atom(TAIL)

OVERVIEW = Until(And(Not(tail), a), b)
FIVE = parse(
    "((! Tail) U a) & ((! Tail) U ! a) & ((! Tail) U b) & ((! Tail) U ! b)"
    " & ((! Tail) U c)"
)
UNSAT3 = parse("((! Tail) U a) & (Tail R ! a) & ((! Tail) U b)")


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
    exp = TransitionExplorer(OVERVIEW)
    out = exp.is_final(exp.initial)
    assert out.sat


def test_five_conjunct_initial_state_not_final_with_pair_core():
    exp = TransitionExplorer(FIVE)
    out = exp.is_final(exp.initial)
    assert not out.sat
    assert out.core <= exp.initial
    assert len(out.core) >= 2


def test_pure_propositional_state_is_final():
    exp = TransitionExplorer(And(Atom("p"), Until(TRUE, tail)))
    out = exp.is_final(frozenset({Atom("p")}))
    assert out.sat
    assert out.assignment.value(TAIL) is True
    assert out.assignment.value("p") is True


def test_overview_self_loop_edge_exists():
    """The self-loop with label {a, !b, !Tail} is admitted by the transition
    relation; edge labels picked by the engine are representatives, so the
    check enumerates assignments rather than asserting which one comes
    first."""
    from ltlfsat.abstraction import enumerate_assignments
    from ltlfsat.transition import successor_state

    edges = {
        (lab.literals, successor_state(lab.next_bodies))
        for lab in enumerate_assignments(OVERVIEW)
    }
    wanted = frozenset({("a", True), ("b", False), (TAIL, False)})
    assert (wanted, state_of(OVERVIEW)) in edges


def test_empty_obligation_successor_is_true_state():
    f = And(Atom("p"), Until(TRUE, tail))
    exp = TransitionExplorer(f)
    targets = {edge.target for edge in exp.successors(frozenset({Atom("p")}))}
    assert TRUE_STATE in targets
    out = exp.is_final(TRUE_STATE)
    assert out.sat


def test_five_conjunct_full_system_has_at_most_32_states():
    ts = build_full_system(FIVE, exhaustive=True)
    assert ts.state_count <= 32
    assert ts.exhaustive
    assert ts.final_indices()


def test_single_atom_system_stops_at_initial():
    f = to_tnf(to_nnf(Atom("p")))
    ts = build_full_system(f)
    assert ts.state_count == 1
    assert ts.final[0].sat


def test_state_set_is_solver_order_insensitive():
    for seed in (3, 11, 27):
        f = to_tnf(to_nnf(gen_random(2, 9, 0.6, seed)))
        low = build_full_system(f, exhaustive=True, phase_hint=False)
        high = build_full_system(f, exhaustive=True, phase_hint=True)
        assert set(low.states) == set(high.states)
        assert set(map(frozenset, [low.states[i] for i in low.final_indices()])) == set(
            map(frozenset, [high.states[i] for i in high.final_indices()])
        )


def test_state_limit_is_an_error_not_a_verdict():
    with pytest.raises(StateLimitExceeded) as abort:
        build_full_system(FIVE, state_limit=3, exhaustive=True)
    assert abort.value.states_expanded == 3


def test_timeout_reports_progress():
    with pytest.raises(TimeoutExceeded) as abort:
        build_full_system(FIVE, exhaustive=True, timeout=0.0)
    assert abort.value.states_expanded >= 1


def test_exhaustive_build_releases_spent_enumerations():
    """Each finished successor enumeration retires its blocking clauses, so
    the explorer's clause database stays small; keeping them all leaves
    4645 clauses on this 128-state system."""
    f = to_tnf(to_nnf(parse(
        "(false) R ((true) U ((((p0) & (X (! (p0)))) R (X (p2))) U (p1)))"
    )))
    ts = build_full_system(f, exhaustive=True)
    assert ts.state_count == 128
    assert ts.live_clauses < 1000


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
        bound = full.state_count + 1
        if (1 << (2 * bound)) > 1 << 22:
            bound = 8
        witness = brute_force_sat(original, bound)
        assert result.sat == (witness is not None), seed
        agreements += 1
    assert agreements == 60


def test_every_state_reachable_from_initial():
    for seed in (0, 5, 9):
        f = to_tnf(to_nnf(gen_random(2, 8, 0.5, seed)))
        ts = build_full_system(f, exhaustive=True)
        reached = {0}
        queue = deque([0])
        adj = {}
        for src, _, dst in ts.edges:
            adj.setdefault(src, set()).add(dst)
        while queue:
            i = queue.popleft()
            for j in adj.get(i, ()):
                if j not in reached:
                    reached.add(j)
                    queue.append(j)
        assert reached == set(range(ts.state_count))


def test_final_agrees_with_length_one_trace_enumeration():
    from itertools import chain, combinations

    for seed in (1, 4, 13):
        f = to_tnf(to_nnf(gen_random(2, 7, 0.5, seed)))
        ts = build_full_system(f, exhaustive=True)
        names = sorted(atoms(f) - {TAIL})
        exp = TransitionExplorer(f)
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
