import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ltlfsat.abstraction import (
    Assignment,
    Encoder,
    enumerate_assignments,
    expanded_atoms,
    propositional_atoms,
    xnf,
)
from ltlfsat.bench import gen_random
from ltlfsat.formula import (
    FALSE,
    TAIL,
    TRUE,
    And,
    FalseConst,
    Atom,
    FiniteTrace,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakNext,
    TrueConst,
    atoms,
    closure,
    conjuncts,
    parse,
    to_nnf,
    to_tnf,
)
from ltlfsat.satengine import SatSolver
from ltlfsat.semantics import evaluate

a, b, c, d, p = Atom("a"), Atom("b"), Atom("c"), Atom("d"), Atom("p")
tail = Atom(TAIL)


def test_propositional_atoms_of_mixed_formula():
    f = And(
        And(a, Until(And(Not(tail), a), b)),
        Not(And(Not(tail), Next(Or(a, b)))),
    )
    assert propositional_atoms(f) == frozenset(
        {a, tail, Until(And(Not(tail), a), b), Next(Or(a, b))}
    )


def test_propositional_atoms_trivia():
    assert propositional_atoms(p) == frozenset({p})
    assert propositional_atoms(Not(Not(Next(p)))) == frozenset({Next(p)})
    assert propositional_atoms(TRUE) == frozenset()


def test_xnf_until_expansion():
    f = Until(And(Not(tail), a), b)
    assert xnf(f) is Or(b, And(And(Not(tail), a), Next(f)))


def test_xnf_keeps_next_bodies():
    f = Next(p)
    assert xnf(f) is f


def test_xnf_release_expansion():
    f = Release(Or(tail, c), d)
    assert xnf(f) is And(d, Or(Or(tail, c), Next(f)))


def test_xnf_rejects_weak_next():
    with pytest.raises(ValueError, match="weak-next"):
        xnf(WeakNext(p))


def test_xnf_has_no_until_release_atoms():
    for seed in range(30):
        f = to_tnf(to_nnf(gen_random(2, 8, 0.6, seed)))
        for member in conjuncts(f):
            pa = propositional_atoms(xnf(member))
            assert not any(isinstance(g, (Until, Release)) for g in pa)
            assert expanded_atoms(xnf(member)) == (
                frozenset(g for g in pa if isinstance(g, Atom)),
                frozenset(g for g in pa if isinstance(g, Next)),
            )
    with pytest.raises(ValueError, match="unexpanded"):
        expanded_atoms(Or(a, Until(a, b)))


def _all_traces(names, max_len):
    alphabet = frozenset(names)
    for length in range(1, max_len + 1):
        for codes in itertools.product(range(1 << len(names)), repeat=length):
            yield FiniteTrace(
                tuple(
                    frozenset(n for j, n in enumerate(names) if code & (1 << j))
                    for code in codes
                ),
                alphabet,
            )


def test_xnf_preserves_semantics():
    for seed in range(200):
        f = to_tnf(to_nnf(gen_random(2, 7, 0.5, seed)))
        g = xnf(f)
        for trace in _all_traces(sorted(atoms(f)), 3):
            assert evaluate(trace, f) == evaluate(trace, g)


def test_final_query_on_overview_state():
    enc = Encoder()
    state = frozenset({Until(And(Not(tail), a), b)})
    out = enc.query(state, final=True)
    assert out.sat
    assert out.assignment.value(TAIL) is True
    assert out.assignment.value("b") is True


def test_final_query_unsat_core_is_both_members():
    enc = Encoder()
    left = Until(Not(tail), a)
    right = Release(tail, Not(a))
    out = enc.query(frozenset({left, right}), final=True)
    assert not out.sat
    assert out.core == frozenset({left, right})


def test_step_query_single_unit():
    enc = Encoder()
    out = enc.query(frozenset({p}))
    assert out.sat
    assert out.assignment.value("p") is True
    assert out.assignment.next_bodies == frozenset()


def test_step_query_avoids_blocked_core():
    enc = Encoder()
    five = parse(
        "((! Tail) U a) & ((! Tail) U ! a) & ((! Tail) U b) & ((! Tail) U ! b)"
        " & ((! Tail) U c)"
    )
    u1 = frozenset({Until(Not(tail), a), Until(Not(tail), Not(a))})
    act = enc.new_activation()
    enc.block_core(act, u1)
    out = enc.query(frozenset(conjuncts(five)), acts=(act,))
    assert out.sat
    assert not u1 <= out.assignment.next_bodies


def test_step_query_core_when_everything_blocked():
    enc = Encoder()
    pair = frozenset({Until(Not(tail), a), Release(tail, Not(a))})
    act = enc.new_activation()
    enc.block_core(act, pair)
    out = enc.query(pair | {Until(Not(tail), b)}, acts=(act,))
    assert not out.sat
    assert out.core == pair
    again = enc.query(out.core, acts=(act,))
    assert not again.sat


def test_decode_splits_label_and_successor():
    enc = Encoder()
    f = Until(And(Not(tail), a), b)
    act = enc.new_activation()
    # force the step assignment away from the immediate-satisfaction branch
    enc.solver.add_clause([-act, -enc.atom_var(b)])
    out = enc.query(frozenset({f}), acts=(act,))
    assert out.sat
    assert out.assignment.value("a") is True
    assert out.assignment.value("b") is False
    assert out.assignment.value(TAIL) is False
    assert out.assignment.next_bodies == frozenset({f})


def test_decode_empty_state():
    enc = Encoder()
    out = enc.query(frozenset({TRUE}))
    assert out.sat
    assert out.assignment == Assignment(frozenset(), frozenset())


def test_cores_are_subsets_and_unsat_alone():
    # the re-query assertion is active by default; exercise it on a state
    # with an irrelevant extra member
    enc = Encoder()
    left = Until(Not(tail), a)
    right = Release(tail, Not(a))
    extra = Until(Not(tail), b)
    state = frozenset({left, right, extra})
    out = enc.query(state, final=True)
    assert not out.sat
    assert out.core <= state
    again = enc.query(out.core, final=True)
    assert not again.sat


def test_final_models_carry_tail_and_no_next_atoms():
    for seed in range(40):
        f = to_tnf(to_nnf(gen_random(2, 8, 0.5, seed)))
        enc = Encoder()
        out = enc.query(frozenset(conjuncts(f)), final=True)
        if not out.sat:
            continue
        assert out.assignment.value(TAIL) is True
        assert out.assignment.next_bodies == frozenset()


def test_assignment_enumeration_covers_trace_semantics():
    """Every enumerated assignment over-approximates only satisfying traces,
    and every satisfying trace is covered by some enumerated assignment."""
    checked_formulas = 0
    for seed in range(60):
        f = to_tnf(to_nnf(gen_random(2, 6, 0.5, seed)))
        enc = Encoder()
        assignments = list(enumerate_assignments(f, encoder=enc))
        lit_atoms, next_atoms = enc.relevant_atoms(frozenset(conjuncts(f)))
        names = sorted(atoms(f))
        trace_pool = list(_all_traces(names, 3))

        def models(trace, assignment):
            for name, value in assignment.literals:
                if (name in trace.positions[0]) != value:
                    return False
            for n in next_atoms:
                holds = len(trace) > 1 and evaluate(
                    FiniteTrace(trace.positions[1:], trace.alphabet), n.operand
                )
                if (n.operand in assignment.next_bodies) != holds:
                    return False
            return True

        for trace in trace_pool:
            sat_by_semantics = evaluate(trace, f)
            covered = any(models(trace, assignment) for assignment in assignments)
            if sat_by_semantics:
                assert covered, (seed, trace.positions)
        for assignment in assignments:
            for trace in trace_pool:
                if models(trace, assignment):
                    assert evaluate(trace, f), (seed, trace.positions)
        checked_formulas += 1
    assert checked_formulas == 60


def test_enumeration_is_duplicate_free():
    f = to_tnf(to_nnf(parse("a U b")))
    seen = set()
    for assignment in enumerate_assignments(f):
        key = (assignment.literals, assignment.next_bodies)
        assert key not in seen
        seen.add(key)
    assert seen


def test_cnf_dump_writes_standard_clause_files(tmp_path):
    enc = Encoder(dump_dir=str(tmp_path))
    enc.query(frozenset({Until(And(Not(tail), a), b)}), final=True)
    enc.query(frozenset({p}))
    files = sorted(tmp_path.glob("query*.cnf"))
    assert len(files) == 2
    text = files[0].read_text()
    header = [l for l in text.splitlines() if l.startswith("p cnf ")]
    assert len(header) == 1
    nvars, nclauses = map(int, header[0].split()[2:])
    assert nvars >= 1 and nclauses >= 1
    body = [l for l in text.splitlines() if not l.startswith(("c", "p"))]
    assert len(body) == nclauses
    assert all(l.endswith(" 0") for l in body)


class _RecursiveEncoder:
    """Reference for `Encoder.member`: the recursive Tseitin encoding it
    replaces, one call per node, operands first, each clause through
    `add_clause`."""

    def __init__(self):
        self.solver = SatSolver()
        self.atom_vars = {}
        self.def_vars = {}
        self.members = {}
        self.true = self.solver.new_var()
        self.solver.add_clause([self.true])
        tail_var = self.atom_var(tail)
        final = self.solver.new_var()
        self.solver.add_clause([-final, tail_var])

    def atom_var(self, pa):
        v = self.atom_vars.get(pa)
        if v is None:
            v = self.solver.new_var()
            self.atom_vars[pa] = v
        return v

    def lit(self, g):
        if isinstance(g, TrueConst):
            return self.true
        if isinstance(g, FalseConst):
            return -self.true
        if isinstance(g, (Atom, Next)):
            return self.atom_var(g)
        if isinstance(g, Not):
            return -self.atom_var(g.operand)
        d = self.def_vars.get(g)
        if d is None:
            left = self.lit(g.left)
            right = self.lit(g.right)
            d = self.solver.new_var()
            self.def_vars[g] = d
            if isinstance(g, And):
                self.solver.add_clause([-d, left])
                self.solver.add_clause([-d, right])
                self.solver.add_clause([d, -left, -right])
            else:
                self.solver.add_clause([-d, left, right])
                self.solver.add_clause([d, -left])
                self.solver.add_clause([d, -right])
        return d

    def member(self, psi):
        entry = self.members.get(psi)
        if entry is None:
            expanded = xnf(psi)
            lit = self.lit(expanded)
            p = self.solver.new_var()
            self.solver.add_clause([-p, lit])
            entry = (p, *expanded_atoms(expanded))
            self.members[psi] = entry
        return entry


def _replay(steps):
    """Feed the same steps to an encoder and to the reference, comparing
    the clause databases, variable counts and member entries after each.

    A step is a member to encode, or a pair (atom, value) that fixes the
    atom at the root first.
    """
    enc, ref = Encoder(), _RecursiveEncoder()
    for step in steps:
        if isinstance(step, tuple):
            atom, value = step
            for e in (enc, ref):
                v = e.atom_var(atom)
                e.solver.add_clause([v if value else -v])
        else:
            assert enc.member(step) == ref.member(step)
        assert enc.solver.nvars == ref.solver.nvars
        assert enc.solver.clauses == ref.solver.clauses
        assert enc.solver._attached == ref.solver._attached
        assert enc.solver.trail == ref.solver.trail
        assert enc.solver.root_unsat == ref.solver.root_unsat


_EXTRA_MEMBERS = (
    And(TRUE, a),
    Or(FALSE, Next(b)),
    Or(TRUE, Not(b)),
    And(a, a),
    And(a, Not(a)),
    Or(Not(b), b),
    parse("G (a -> F b)"),
    parse("(a & b) U (a & ! b)"),
)


def test_member_matches_the_recursive_encoding_on_fixed_cases():
    shared = Until(And(Not(tail), And(a, b)), Or(a, c))
    _replay([
        And(TRUE, a),
        Or(FALSE, Next(b)),
        And(a, a),
        And(a, Not(a)),
        shared,
        Release(Or(tail, And(a, b)), Or(a, c)),  # shares And(a, b) and Or(a, c)
        (c, True),
        And(c, d),  # an operand fixed true at the root
        (d, False),
        Or(d, Next(shared)),  # an operand fixed false at the root
        (c, False),  # root conflict: every later clause goes through add_clause
        Or(And(c, b), And(d, a)),
    ])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 5000),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([None, True, False])),
                   max_size=12),
)
def test_member_matches_the_recursive_encoding(seed, picks):
    f = to_tnf(to_nnf(gen_random(2, 8, 0.5, seed)))
    pool = sorted(closure(f) | set(_EXTRA_MEMBERS), key=lambda g: g.uid)
    pool_atoms = sorted((g for g in pool if isinstance(g, Atom)), key=lambda g: g.uid)
    steps = []
    for k, fix in picks:
        if fix is not None:
            steps.append((pool_atoms[k % len(pool_atoms)], fix))
        steps.append(pool[k % len(pool)])
    _replay(steps)
