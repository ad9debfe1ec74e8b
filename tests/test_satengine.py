import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import ltlfsat.satengine as satengine
from ltlfsat.satengine import SatSolver


def _fresh(n):
    s = SatSolver()
    return s, [s.new_var() for _ in range(n)]


def _value(s, lit):
    """True, False, or None while the literal is unassigned."""
    if lit == 0 or abs(lit) > s.nvars:
        raise ValueError(f"unknown literal {lit}")
    return s.vals[lit]


def test_single_positive_unit():
    s, (x,) = _fresh(1)
    s.add_clause([x])
    r = s.solve()
    assert r.sat and r.model[x] is True


def test_contradiction_is_unsat():
    s, (x,) = _fresh(1)
    s.add_clause([x])
    s.add_clause([-x])
    r = s.solve()
    assert not r.sat
    assert r.failed == frozenset()


def test_failed_assumptions_are_a_subset():
    s, (x, y) = _fresh(2)
    s.add_clause([x, y])
    r = s.solve([-x, -y])
    assert not r.sat
    assert r.failed <= {-x, -y}
    assert r.failed


def test_clauses_persist_across_solves():
    s, (x, y) = _fresh(2)
    s.add_clause([x, y])
    assert s.solve([-x]).model[y] is True
    s.add_clause([-y])
    r = s.solve([-x])
    assert not r.sat


def test_duplicate_clauses_are_harmless():
    s, (x, y) = _fresh(2)
    for _ in range(3):
        s.add_clause([x, y])
        s.add_clause([x, y, y])
    assert s.solve([-x]).model[y] is True


def test_verdict_is_stable_across_repeat_solves():
    s, (x, y, z) = _fresh(3)
    s.add_clause([x, y, z])
    s.add_clause([-x, -y])
    first = s.solve([z])
    second = s.solve([z])
    assert first.sat and second.sat


def test_failed_assumptions_unsat_as_units():
    """The failed set, asserted as unit clauses, contradicts the database."""
    rng = random.Random(5)
    for _ in range(40):
        nvars = rng.randrange(3, 9)
        s, vs = _fresh(nvars)
        clauses = []
        for _ in range(rng.randrange(2, 14)):
            clause = [
                v if rng.randrange(2) else -v
                for v in rng.sample(vs, rng.randrange(1, min(4, nvars) + 1))
            ]
            clauses.append(clause)
            s.add_clause(clause)
        assumptions = [v if rng.randrange(2) else -v for v in rng.sample(vs, nvars // 2 + 1)]
        r = s.solve(assumptions)
        if r.sat:
            continue
        assert r.failed <= set(assumptions)
        again = SatSolver()
        for _ in vs:
            again.new_var()
        for clause in clauses:
            again.add_clause(clause)
        for lit in r.failed:
            again.add_clause([lit])
        assert not again.solve().sat


def _truth_table_sat(nvars, clauses, assumptions=()):
    for bits in itertools.product([False, True], repeat=nvars):
        def val(lit):
            v = bits[abs(lit) - 1]
            return v if lit > 0 else not v

        if all(val(a) for a in assumptions) and all(
            any(val(l) for l in clause) for clause in clauses
        ):
            return True
    return False


def test_verdicts_match_truth_tables():
    rng = random.Random(99)
    for round_ in range(80):
        nvars = rng.randrange(1, 13)
        s, vs = _fresh(nvars)
        clauses = []
        for _ in range(rng.randrange(1, 2 * nvars + 2)):
            width = rng.randrange(1, min(4, nvars) + 1)
            clause = [v if rng.randrange(2) else -v for v in rng.sample(vs, width)]
            clauses.append(clause)
            s.add_clause(clause)
        assumptions = [
            v if rng.randrange(2) else -v for v in rng.sample(vs, rng.randrange(0, nvars + 1))
        ]
        expected = _truth_table_sat(nvars, clauses, assumptions)
        got = s.solve(assumptions)
        assert got.sat == expected, (clauses, assumptions)
        if got.sat:
            def val(lit):
                v = got.model[abs(lit)]
                return v if lit > 0 else not v

            assert all(val(a) for a in assumptions)
            assert all(any(val(l) for l in clause) for clause in clauses)


def _random_clauses(rng, vs, count):
    return [[v if rng.randrange(2) else -v for v in rng.sample(vs, rng.randrange(1, 4))]
            for _ in range(count)]


def test_value_array_grows_between_solves():
    """Variables added after a solve, past the value array's capacity, keep
    the root facts already on the trail and give truth-table verdicts."""
    rng = random.Random(17)
    for _ in range(20):
        s, vs = _fresh(rng.randrange(3, 7))
        clauses = [[vs[0]], [-vs[0], -vs[1]]] + _random_clauses(rng, vs, rng.randrange(0, 4))
        for clause in clauses:
            s.add_clause(clause)
        if not s.solve().sat:
            continue
        assert s.trail, "the root facts stay on the trail between solves"
        root = {lit: True for lit in s.trail}
        root.update({-lit: False for lit in s.trail})
        size = len(s.vals)
        while len(s.vals) == size:
            vs.append(s.new_var())
        vs.extend(s.new_var() for _ in range(rng.randrange(0, 3)))
        for v in vs:
            for lit in (v, -v):
                assert _value(s, lit) is root.get(lit)
        new = _random_clauses(rng, vs, rng.randrange(1, 2 * len(vs)))
        for clause in new:
            s.add_clause(clause)
        clauses += new
        for _ in range(3):
            assumptions = [v if rng.randrange(2) else -v
                           for v in rng.sample(vs, rng.randrange(0, 4))]
            got = s.solve(assumptions)
            assert got.sat == _truth_table_sat(len(vs), clauses, assumptions)
            if got.sat:
                assert all(got.model[abs(a)] is (a > 0) for a in assumptions)
                assert all(any(got.model[abs(l)] is (l > 0) for l in c) for c in clauses)


def test_unknown_literals_are_rejected():
    s, (x,) = _fresh(1)
    for bad in (0, 2, -2):
        with pytest.raises(ValueError, match="unknown literal"):
            s.add_clause([x, bad])
        with pytest.raises(ValueError, match="unknown literal"):
            s.solve([bad])
        with pytest.raises(ValueError, match="unknown literal"):
            _value(s, bad)


def test_model_is_total():
    s, vs = _fresh(5)
    s.add_clause([vs[0]])
    r = s.solve()
    assert set(r.model) == set(vs)


def test_assumption_pair_conflict():
    s, (x,) = _fresh(1)
    r = s.solve([x, -x])
    assert not r.sat
    assert r.failed == {x, -x}


def test_free_variables_default_to_false():
    s = SatSolver()
    x = s.new_var()
    y = s.new_var()
    s.add_clause([x, y])
    r = s.solve()
    # x is decided false by phase, which forces y
    assert r.model[x] is False and r.model[y] is True


def _reference(nvars, clauses):
    """A fresh solver holding exactly the given clauses."""
    ref, _ = _fresh(nvars)
    for clause in clauses:
        ref.add_clause(clause)
    return ref


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_release_matches_a_solver_without_the_released_groups(data):
    """Clause groups under their own activations, released at random points,
    keep one solver equivalent to a fresh one holding only the live groups."""
    nvars = data.draw(st.integers(2, 6), label="nvars")
    s, vs = _fresh(nvars)
    lit = st.sampled_from(vs).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(lit, min_size=1, max_size=3)
    base = data.draw(st.lists(clause, max_size=3), label="base")
    for c in base:
        s.add_clause(c)
    groups = {}  # live activation -> its clauses, activation included
    released = []
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        step = data.draw(st.sampled_from(["group", "release", "solve"]), label="step")
        if step == "group":
            act = s.new_var()
            groups[act] = [[-act] + c for c in
                           data.draw(st.lists(clause, min_size=1, max_size=6), label="group")]
            for c in groups[act]:
                s.add_clause(c)
        elif step == "release" and groups:
            act = data.draw(st.sampled_from(sorted(groups)), label="released")
            del groups[act]
            released.append(act)
            s.release(act)
        acts = [a for a in sorted(groups) if data.draw(st.booleans(), label="assume")]
        assumptions = acts + data.draw(st.lists(lit, max_size=3, unique_by=abs), label="lits")
        live = base + [c for cs in groups.values() for c in cs]
        got = s.solve(assumptions)
        ref = _reference(s.nvars, live)
        assert got.sat == ref.solve(assumptions).sat
        if got.sat:
            def val(l):
                v = got.model[abs(l)]
                return v if l > 0 else not v

            assert all(val(a) for a in assumptions)
            assert all(any(val(l) for l in c) for c in live)
        else:
            assert got.failed <= set(assumptions)
            ref = _reference(s.nvars, live + [[l] for l in got.failed])
            assert not ref.solve().sat
        if s.root_unsat:
            continue  # a contradictory database is never searched again
        gone = {-act for act in released}
        assert all(gone.isdisjoint(c) for c in s.clauses)
        assert all(gone.isdisjoint(c) for ws in s.watches.values() for c in ws)


class _CheckedHeap(SatSolver):
    """Asserts at every decision that the VSIDS heap picks the unassigned
    variable of highest activity, lowest index first, and stays bounded."""

    def __init__(self):
        super().__init__()
        self.rescales = 0

    def _pick_branch(self):
        assert len(self._heap) <= 2 * self.nvars + 1
        free = [v for v in range(1, self.nvars + 1) if self.vals[v] is None]
        expected = min(free, key=lambda v: (-self.activity[v], v), default=None)
        got = super()._pick_branch()
        assert got == expected
        return got

    def _bump(self, var):
        inc = self.var_inc
        super()._bump(var)
        self.rescales += self.var_inc < inc


# a low threshold makes activity rescales happen within small instances
_LOW_RESCALE = mock.patch.object(satengine, "_RESCALE_AT", 1.5)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decisions_follow_activity_across_rescales(data):
    nvars = data.draw(st.integers(3, 12), label="nvars")
    s = _CheckedHeap()
    vs = [s.new_var() for _ in range(nvars)]
    lit = st.sampled_from(vs).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = data.draw(st.lists(st.lists(lit, min_size=2, max_size=3, unique_by=abs),
                                 min_size=nvars, max_size=5 * nvars), label="clauses")
    for clause in clauses:
        s.add_clause(clause)
    with _LOW_RESCALE:
        for _ in range(data.draw(st.integers(1, 4), label="solves")):
            assumptions = data.draw(st.lists(lit, max_size=3, unique_by=abs), label="assume")
            got = s.solve(assumptions)
            assert got.sat == _truth_table_sat(nvars, clauses, assumptions)
            assert len(s._heap) <= 2 * s.nvars + 1


def test_rescales_keep_the_heap_consistent():
    """Pigeonhole 5 into 4 needs enough conflicts to rescale activities
    several times under a low threshold; every decision is still the most
    active free variable."""
    s = _CheckedHeap()
    holes = 4
    x = [[s.new_var() for _ in range(holes)] for _ in range(holes + 1)]
    for row in x:
        s.add_clause(row)
    for h in range(holes):
        for i, j in itertools.combinations(range(holes + 1), 2):
            s.add_clause([-x[i][h], -x[j][h]])
    with _LOW_RESCALE:
        assert not s.solve().sat
    assert s.rescales > 1


@pytest.mark.parametrize("is_and", [True, False])
@pytest.mark.parametrize("root", [(), (1,), (-1,), (2,), (-2,), (3,), (1, -1)])
@pytest.mark.parametrize("operands", [(1, 2), (-1, 2), (1, -2), (1, 1), (1, -1), (3, 1)])
def test_definitions_equal_their_three_clauses(is_and, root, operands):
    """`add_definition` leaves the solver as three `add_clause` calls do,
    on its direct path (fresh operands) and on every fallback: an operand
    or the defined variable fixed at the root, shared operand variables,
    the defined variable among the operands, and a root conflict."""
    left, right = operands
    solvers = []
    for direct in (True, False):
        s, _ = _fresh(4)
        for lit in root:
            s.add_clause([lit])
        d = 3
        if direct:
            s.add_definition(d, left, right, is_and)
        elif is_and:
            for c in ([-d, left], [-d, right], [d, -left, -right]):
                s.add_clause(c)
        else:
            for c in ([-d, left, right], [d, -left], [d, -right]):
                s.add_clause(c)
        solvers.append(s)
    got, want = solvers
    assert got.clauses == want.clauses
    assert got._attached == want._attached
    assert got.trail == want.trail
    assert got.root_unsat == want.root_unsat
    assert got.solve().sat == want.solve().sat


def test_definitions_reject_unknown_literals():
    s, _ = _fresh(2)
    with pytest.raises(ValueError):
        s.add_definition(2, 1, 3, True)
    with pytest.raises(ValueError):
        s.add_definition(3, 1, 2, False)
