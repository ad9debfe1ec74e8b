import pytest
from hypothesis import given, settings, strategies as st

from ltlfsat.errors import TimeoutExceeded
from ltlfsat.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    FalseConst,
    FiniteTrace,
    Next,
    Not,
    Or,
    Release,
    TrueConst,
    Until,
    WeakNext,
    parse,
)
from ltlfsat.semantics import (
    _decode_positions,
    _eval_block,
    brute_force_sat,
    column_masks,
    evaluate,
)

a, b, p = Atom("a"), Atom("b"), Atom("p")


def _trace(*positions, alphabet=("a", "b")):
    return FiniteTrace.make(positions, alphabet=frozenset(alphabet))


def test_until_satisfied_immediately():
    assert evaluate(_trace({"b"}), Until(a, b))


def test_strong_next_needs_a_successor():
    assert not evaluate(_trace({"a"}), Next(TRUE))
    assert evaluate(_trace({"a"}, set()), Next(TRUE))


def test_weak_next_holds_at_last_position():
    assert evaluate(_trace({"a"}), WeakNext(FALSE))
    assert not evaluate(_trace({"a"}, set()), WeakNext(FALSE))


def test_release_clause():
    f = Release(a, b)
    assert evaluate(_trace({"b"}, {"b"}), f)
    assert evaluate(_trace({"a", "b"}, set()), f)
    assert not evaluate(_trace({"b"}, set()), f)


def test_suffix_recursion_of_next():
    f = Until(a, b)
    long = _trace({"a"}, {"a"}, {"b"})
    assert evaluate(long, Next(f)) == evaluate(_trace({"a"}, {"b"}), f)


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        FiniteTrace((), frozenset())


def test_undeclared_atom_rejected():
    with pytest.raises(ValueError, match="alphabet"):
        evaluate(_trace({"a"}, alphabet=("a",)), b)


_names = st.sampled_from(["a", "b"])


def _formulas():
    leaf = st.one_of(st.just(TRUE), st.just(FALSE), st.builds(Atom, _names))
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
        max_leaves=10,
    )


@settings(max_examples=200, deadline=None)
@given(_formulas(), st.lists(st.sets(_names), min_size=1, max_size=4))
def test_negation_duality(f, positions):
    trace = FiniteTrace.make(positions, alphabet=frozenset(["a", "b"]))
    assert evaluate(trace, Not(f)) == (not evaluate(trace, f))


def test_brute_force_contradiction():
    f = And(p, Not(p))
    assert brute_force_sat(f, 6) is None


def test_brute_force_next_true_needs_length_two():
    witness = brute_force_sat(Next(TRUE), 4)
    assert witness is not None
    assert len(witness) == 2


def test_brute_force_witness_is_shortest_and_deterministic():
    f = parse("a & X b")
    w1 = brute_force_sat(f, 5)
    w2 = brute_force_sat(f, 5)
    assert w1 == w2
    assert len(w1) == 2
    assert evaluate(w1, f)


def test_brute_force_lexicographic_first_witness():
    # F b is already satisfied by the lexicographically first length-1 trace
    # with b true and a false
    f = parse("F b")
    w = brute_force_sat(f, 3)
    assert w.positions == (frozenset({"b"}),)


@pytest.mark.parametrize("text, positions", [
    ("a & X b", [{"a"}, {"b"}]),
    ("F (a & b) & ! b", [set(), {"a", "b"}]),
    ("b R ! a", [set()]),
    ("a & X X ! a & X X X (a U b)", [{"a"}, set(), set(), {"b"}]),
    # index 16**4 + 15 lies in the second 2**16-index block of length 5
    ("a & X X X X (a & b & c & d)", [{"a"}, set(), set(), set(), {"a", "b", "c", "d"}]),
])
def test_brute_force_returns_shortest_lexicographically_first_witness(text, positions):
    f = parse(text)
    w = brute_force_sat(f, 6)
    assert w.positions == tuple(frozenset(p) for p in positions)


def test_brute_force_rejects_large_alphabets():
    f = parse("a & b & c & d & e")
    with pytest.raises(ValueError, match="atoms"):
        brute_force_sat(f, 3)


def test_brute_force_no_atoms():
    w = brute_force_sat(Next(Next(TRUE)), 5)
    assert len(w) == 3
    assert w.positions == (frozenset(), frozenset(), frozenset())


def test_brute_force_timeout_aborts():
    f = parse("! (F (a & X a & X X (a U b)))  & F (b R a)")
    with pytest.raises(TimeoutExceeded):
        brute_force_sat(f, 12, timeout=0.0)


@settings(max_examples=120, deadline=None)
@given(_formulas())
def test_brute_force_agrees_with_direct_enumeration(f):
    from itertools import product

    names = ["a", "b"]
    alphabet = frozenset(names)
    found = None
    for length in range(1, 4):
        if found:
            break
        for codes in product(range(4), repeat=length):
            trace = FiniteTrace(
                tuple(
                    frozenset(n for j, n in enumerate(names) if code & (1 << j))
                    for code in codes
                ),
                alphabet,
            )
            if evaluate(trace, f):
                found = trace
                break
    got = brute_force_sat(f, 3)
    if found is None:
        assert got is None
    else:
        assert got is not None
        assert evaluate(got, f)
        assert len(got) == len(found)


def test_column_masks_equal_their_closed_form():
    # column j repeats 2**j clear bits then 2**j set bits: one period times
    # the repunit of the period's width
    for k in range(17):
        full = (1 << (1 << k)) - 1
        closed = []
        for j in range(k):
            run = 1 << j
            closed.append((((1 << run) - 1) << run) * (full // ((1 << 2 * run) - 1)))
        assert column_masks(k) == tuple(closed), k
    # and bit r of column j is bit j of r
    columns = column_masks(5)
    assert all((columns[j] >> r & 1) == (r >> j & 1) for j in range(5) for r in range(32))


@settings(max_examples=80, deadline=None)
@given(_formulas())
def test_eval_block_matches_evaluate_bit_by_bit(f):
    # blocks smaller than the index space, most at start > 0, so index bits
    # above the block come from `start`
    names = ["a", "b"]
    alphabet = frozenset(names)
    for length, count in ((1, 1), (1, 2), (2, 4), (3, 8), (3, 16)):
        for start in range(0, 4 ** length, count):
            block = _eval_block(f, names, length, start, count)
            assert block >> count == 0
            for r in range(count):
                trace = FiniteTrace(_decode_positions(names, length, start + r), alphabet)
                assert (block >> r & 1) == evaluate(trace, f), (length, start, r)


def _evaluate_reference(trace, f):
    """Truth of the trace against f by the semantic clauses, as a plain
    recursion over (position, node) pairs."""
    n = len(trace)

    def ev(i, g):
        if isinstance(g, TrueConst):
            return True
        if isinstance(g, FalseConst):
            return False
        if isinstance(g, Atom):
            return g.name in trace.positions[i]
        if isinstance(g, Not):
            return not ev(i, g.operand)
        if isinstance(g, And):
            return ev(i, g.left) and ev(i, g.right)
        if isinstance(g, Or):
            return ev(i, g.left) or ev(i, g.right)
        if isinstance(g, Next):
            return i + 1 < n and ev(i + 1, g.operand)
        if isinstance(g, WeakNext):
            return i + 1 >= n or ev(i + 1, g.operand)
        if isinstance(g, Until):
            for k in range(i, n):
                if ev(k, g.right):
                    return True
                if not ev(k, g.left):
                    return False
            return False
        for k in range(i, n):  # Release
            if not ev(k, g.right):
                return False
            if ev(k, g.left):
                return True
        return True

    return ev(0, f)


@settings(max_examples=300, deadline=None)
@given(_formulas(), st.lists(st.sets(_names), min_size=1, max_size=9))
def test_evaluate_matches_the_recursive_clauses(f, positions):
    # _formulas draws every node kind, the constants and negations above
    # any node among them; traces of up to 9 positions take the until
    # doubling through four rounds
    trace = FiniteTrace.make(positions, alphabet=frozenset(["a", "b"]))
    assert evaluate(trace, f) == _evaluate_reference(trace, f)
    assert evaluate(trace, Not(f)) != _evaluate_reference(trace, f)


@settings(max_examples=60, deadline=None)
@given(_formulas(), st.integers(1, 5), st.data())
def test_eval_block_matches_the_recursive_clauses(f, length, data):
    names = ["a", "b"]
    alphabet = frozenset(names)
    count = 1 << data.draw(st.integers(0, min(2 * length, 6)))
    start = count * data.draw(st.integers(0, (4 ** length) // count - 1))
    block = _eval_block(f, names, length, start, count)
    for r in range(count):
        trace = FiniteTrace(_decode_positions(names, length, start + r), alphabet)
        assert (block >> r & 1) == _evaluate_reference(trace, f), (start, r)
