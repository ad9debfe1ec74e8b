import sys

import pytest
from hypothesis import given, settings, strategies as st

import ltlfsat.formula as formula
from ltlfsat.formula import (
    FALSE,
    TAIL,
    TRUE,
    And,
    Atom,
    FalseConst,
    FiniteTrace,
    Next,
    Not,
    Or,
    ParseError,
    Release,
    ReservedAtomError,
    TrueConst,
    Until,
    WeakNext,
    atoms,
    closure,
    conjuncts,
    is_nnf,
    is_tnf,
    parse,
    render,
    to_nnf,
    to_tnf,
)
from ltlfsat.semantics import evaluate


def test_parse_overview_formula():
    f = parse("(! Tail & a) U b")
    assert f is Until(And(Not(Atom("Tail")), Atom("a")), Atom("b"))


def test_parse_keywords():
    assert parse("true") is TRUE
    assert parse("false") is FALSE


def test_parse_globally_is_sugar():
    assert parse("G p") is Release(FALSE, Atom("p"))
    assert parse("F p") is Until(TRUE, Atom("p"))


def test_parse_implication_desugars():
    f = parse("a -> b")
    assert f is Or(Not(Atom("a")), Atom("b"))


def test_parse_equivalence_desugars():
    f = parse("a <-> b")
    a, b = Atom("a"), Atom("b")
    assert f is And(Or(Not(a), b), Or(Not(b), a))


def test_parse_precedence_until_binds_tighter_than_and():
    # ascending precedence: | then & then U then R
    f = parse("a & b U c")
    assert f is And(Atom("a"), Until(Atom("b"), Atom("c")))
    g = parse("a | b & c")
    assert g is Or(Atom("a"), And(Atom("b"), Atom("c")))


def test_parse_until_right_associative():
    f = parse("a U b U c")
    assert f is Until(Atom("a"), Until(Atom("b"), Atom("c")))


def test_parse_release_binds_tighter_than_until():
    f = parse("a U b R c")
    assert f is Until(Atom("a"), Release(Atom("b"), Atom("c")))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("a &\n& b")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="empty input"):
        parse("   ")
    with pytest.raises(ParseError, match="unknown operator"):
        parse("a < b")
    with pytest.raises(ParseError, match="trailing"):
        parse("a b")
    with pytest.raises(ParseError):
        parse("(a")


def test_parse_creates_nodes_in_reading_order():
    # fresh atom names, so that no earlier test has interned these nodes
    f = parse("order_p1 -> order_p2")
    p1, p2 = Atom("order_p1"), Atom("order_p2")
    assert p1.uid < Not(p1).uid < p2.uid < f.uid
    g = parse("order_q1 & order_q2 & order_q3")
    q1, q2, q3 = Atom("order_q1"), Atom("order_q2"), Atom("order_q3")
    inner = And(q2, q3)
    assert g is And(q1, inner)
    assert q1.uid < q2.uid < q3.uid < inner.uid < g.uid


def test_parse_equivalence_chain_is_right_associative():
    f = parse("iff_x1 <-> iff_x2 <-> iff_x3")
    x1, x2, x3 = Atom("iff_x1"), Atom("iff_x2"), Atom("iff_x3")
    inner = And(Or(Not(x2), x3), Or(Not(x3), x2))
    assert f is And(Or(Not(x1), inner), Or(Not(inner), x1))
    # each equivalence is built once its right operand is complete
    assert x3.uid < Not(x2).uid < inner.uid < Not(x1).uid < f.uid


@pytest.mark.parametrize("text, message, line, column", [
    ("a)", "unexpected trailing input ')'", 1, 2),
    ("(a b)", "expected ')' but found 'b'", 1, 4),
    ("a & ", "expected a formula but found 'end of input'", 1, 5),
    ("()", "expected a formula but found ')'", 1, 2),
    ("a |\n  (b &\n c", "expected ')' but found 'end of input'", 3, 3),
    ("a\n\t& 1b", "unknown operator '1'", 2, 4),
])
def test_parse_error_messages_and_positions(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_deep_parentheses_without_recursion():
    assert parse("(" * 300 + "a" + ")" * 300) is Atom("a")
    depth = sys.getrecursionlimit() + 1
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("(" * depth + "a" + ")" * depth)


def test_and_or_are_canonically_ordered():
    a, b = Atom("a"), Atom("b")
    assert And(a, b) is And(b, a)
    assert Or(a, b) is Or(b, a)
    assert Until(a, b) is not Until(b, a)


def test_render_examples():
    assert render(Until(Atom("a"), Atom("b"))) == "(a) U (b)"
    assert render(Not(Atom("p"))) == "! (p)"
    assert render(WeakNext(Atom("p"))) == "N (p)"


_names = st.sampled_from(["a", "b", "Tail", "p_1"])


def _formulas(depth, names=_names):
    leaf = st.one_of(st.just(TRUE), st.just(FALSE), st.builds(Atom, names))
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
        max_leaves=depth,
    )


@settings(max_examples=1000, deadline=None)
@given(_formulas(25))
def test_render_parse_round_trip(f):
    assert parse(render(f)) is f


@settings(max_examples=300, deadline=None)
@given(_formulas(12))
def test_to_nnf_shape(f):
    g = to_nnf(f)
    assert is_nnf(g)


def test_to_nnf_examples():
    a, b, p = Atom("a"), Atom("b"), Atom("p")
    assert to_nnf(Not(Until(a, b))) is Release(Not(a), Not(b))
    assert to_nnf(Not(Next(a))) is WeakNext(Not(a))
    assert to_nnf(Not(Not(p))) is p


def _all_traces(names, max_len):
    from itertools import product

    alphabet = frozenset(names)
    for length in range(1, max_len + 1):
        for codes in product(range(1 << len(names)), repeat=length):
            yield FiniteTrace(
                tuple(
                    frozenset(n for j, n in enumerate(names) if code & (1 << j))
                    for code in codes
                ),
                alphabet,
            )


@settings(max_examples=150, deadline=None)
@given(_formulas(10))
def test_to_nnf_preserves_semantics(f):
    g = to_nnf(f)
    for trace in _all_traces(["a", "b", "Tail", "p_1"], 3):
        assert evaluate(trace, f) == evaluate(trace, g)


def test_to_tnf_examples():
    a, b = Atom("a"), Atom("b")
    tail = Atom(TAIL)
    f_tail = Until(TRUE, tail)
    assert to_tnf(Next(a)) is And(And(Not(tail), Next(a)), f_tail)
    assert to_tnf(WeakNext(a)) is And(Or(tail, Next(a)), f_tail)
    assert to_tnf(Until(a, b)) is And(Until(And(Not(tail), a), b), f_tail)
    assert to_tnf(Release(a, b)) is And(Release(Or(tail, a), b), f_tail)
    assert to_tnf(And(a, b)) is And(And(a, b), f_tail)


def test_to_tnf_rejects_reserved_atom():
    with pytest.raises(ReservedAtomError):
        to_tnf(Atom(TAIL))


def test_to_tnf_rejects_non_nnf():
    with pytest.raises(ValueError):
        to_tnf(Not(Next(Atom("a"))))


@settings(max_examples=200, deadline=None)
@given(_formulas(10))
def test_to_tnf_output_shape(f):
    g = to_nnf(f)
    if TAIL in atoms(g):
        return
    t = to_tnf(g)
    assert is_tnf(t)
    assert Until(TRUE, Atom(TAIL)) in closure(t)


@settings(max_examples=150, deadline=None)
@given(_formulas(8, names=st.sampled_from(["a", "b"])))
def test_tnf_trace_correspondence(f):
    """A trace satisfies f exactly when its Tail-marked twin satisfies the
    tail normal form."""
    g = to_nnf(f)
    t = to_tnf(g)
    for trace in _all_traces(["a", "b"], 3):
        marked = FiniteTrace(
            trace.positions[:-1] + (trace.positions[-1] | {TAIL},),
            trace.alphabet | {TAIL},
        )
        assert evaluate(trace, g) == evaluate(marked, t)


def _nodes_made():
    """The next uid and the number of interned nodes; reading the uid
    counter's repr does not advance it."""
    return repr(formula._UID), len(formula._INTERN)


def _nnf_reference(g, positive=True):
    """Negation normal form by plain recursion, with no memo."""
    if isinstance(g, Not):
        return _nnf_reference(g.operand, not positive)
    if isinstance(g, (TrueConst, FalseConst)):
        return g if positive else (FALSE if g is TRUE else TRUE)
    if isinstance(g, Atom):
        return g if positive else Not(g)
    dual = {And: Or, Or: And, Next: WeakNext, WeakNext: Next, Until: Release, Release: Until}
    kind = type(g) if positive else dual[type(g)]
    if isinstance(g, (Next, WeakNext)):
        return kind(_nnf_reference(g.operand, positive))
    return kind(_nnf_reference(g.left, positive), _nnf_reference(g.right, positive))


def _tnf_reference(g):
    """The tail-marked body of an NNF formula by plain recursion."""
    tail = Atom(TAIL)
    if isinstance(g, (TrueConst, FalseConst, Atom, Not)):
        return g
    if isinstance(g, Next):
        return And(Not(tail), Next(_tnf_reference(g.operand)))
    if isinstance(g, WeakNext):
        return Or(tail, Next(_tnf_reference(g.operand)))
    left, right = _tnf_reference(g.left), _tnf_reference(g.right)
    if isinstance(g, Until):
        return Until(And(Not(tail), left), right)
    if isinstance(g, Release):
        return Release(Or(tail, left), right)
    return type(g)(left, right)


@settings(max_examples=200, deadline=None)
@given(_formulas(10, names=st.sampled_from(["a", "b", "c"])))
def test_cached_normal_forms_equal_a_fresh_computation(f):
    g = to_nnf(f)
    assert g is _nnf_reference(f)
    assert to_nnf(Not(f)) is _nnf_reference(f, positive=False)
    assert to_tnf(g) is And(_tnf_reference(g), Until(TRUE, Atom(TAIL)))


def test_repeated_and_overlapping_normalisation_creates_no_nodes():
    f = parse("!(a U (X b & !c)) & G (a -> F ! X b) & (c R ! (b | X a))")
    parts = conjuncts(f)
    negated = [Not(part) for part in parts]
    nnf = to_nnf(f)
    tnf = to_tnf(nnf)
    negated_nnf = [to_nnf(g) for g in negated]
    before = _nodes_made()
    assert to_nnf(f) is nnf
    assert to_tnf(nnf) is tnf
    assert to_nnf(parts[0]) in closure(nnf)
    assert [to_nnf(g) for g in negated] == negated_nnf
    for part in parts:
        to_nnf(part)
    assert _nodes_made() == before
    # an overlapping to_tnf makes at most its own top node: the conjunction
    # with the Tail obligation
    body = tnf.left if tnf.right is Until(TRUE, Atom(TAIL)) else tnf.right
    part = to_tnf(to_nnf(parts[-1]))
    assert part.left in closure(body) or part.right in closure(body)
    after = _nodes_made()
    assert after[1] - before[1] <= 1
    assert to_tnf(to_nnf(parts[-1])) is part
    assert _nodes_made() == after


def test_tail_beside_a_translated_part_is_still_rejected():
    g = to_nnf(parse("a U X b"))
    to_tnf(g)
    for beside in (Atom(TAIL), Not(Atom(TAIL)), Next(Until(g, Atom(TAIL)))):
        f = And(g, beside)
        before = _nodes_made()
        with pytest.raises(ReservedAtomError):
            to_tnf(f)
        assert _nodes_made() == before


def test_nnf_error_wins_over_the_tail_error():
    g = to_nnf(parse("a U X b"))
    to_tnf(g)
    for f in (
        And(Atom(TAIL), Not(Next(Atom("a")))),
        And(Not(Until(Atom("a"), Atom("b"))), Atom(TAIL)),
        And(And(g, Atom(TAIL)), Not(Next(g))),
        Until(Not(Next(g)), Next(Atom(TAIL))),
        Release(Atom(TAIL), Not(Release(g, Atom("a")))),
    ):
        before = _nodes_made()
        with pytest.raises(ValueError, match="NNF") as caught:
            to_tnf(f)
        assert not isinstance(caught.value, ReservedAtomError)
        assert _nodes_made() == before


def test_rejected_input_creates_no_node():
    f = Not(Next(Atom("only_in_this_rejected_input")))
    before = _nodes_made()
    with pytest.raises(ValueError):
        to_tnf(f)
    assert _nodes_made() == before


def test_closure_examples():
    a, b = Atom("a"), Atom("b")
    f = Until(a, b)
    assert closure(f) == frozenset({f, a, b})
    assert closure(a) == frozenset({a})
    tail_closure = closure(to_tnf(Until(a, b)))
    assert Until(TRUE, Atom(TAIL)) in tail_closure
    assert Atom(TAIL) in tail_closure


def test_conjuncts_split_nested():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    f = And(And(a, b), c)
    assert set(conjuncts(f)) == {a, b, c}
    assert conjuncts(a) == (a,)


def test_trace_text_round_trip():
    trace = FiniteTrace.make([{"a", "b"}, set(), {"b"}])
    text = trace.to_text()
    assert text == "a,b\n\nb\n"
    back = FiniteTrace.from_text(text, trace.alphabet)
    assert back.positions == trace.positions


def test_trace_rejects_empty():
    with pytest.raises(ValueError):
        FiniteTrace.make([])
    with pytest.raises(ValueError):
        FiniteTrace.from_text("")


def test_trace_rejects_undeclared_atoms():
    with pytest.raises(ValueError):
        FiniteTrace.make([{"a"}], alphabet=frozenset({"b"}))
