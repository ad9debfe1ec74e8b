import itertools
import random

from hypothesis import given, settings, strategies as st

from ltlfsat.satengine import SatSolver


def _fresh(n):
    s = SatSolver()
    return s, [s.new_var() for _ in range(n)]


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
