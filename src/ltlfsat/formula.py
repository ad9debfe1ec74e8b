"""Formula ASTs for linear temporal logic over finite traces.

Nodes are interned: structurally equal formulas are the same Python object,
so equality and hashing are O(1) and sets of formulas deduplicate
structurally. And/Or order their two children canonically so that `a & b`
and `b & a` build the same node. `Tail` is a reserved atom marking the last
position of a trace; user formulas may not mention it unless they are fed
through the raw-TNF entry points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

TAIL = "Tail"

_KEYWORDS = frozenset({"true", "false", "X", "N", "U", "R", "G", "F"})

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


def is_nnf(f):
    """True when negation occurs only directly above atoms."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Not):
            if not isinstance(g.operand, Atom):
                return False
        elif isinstance(g, _BINARY):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, (Next, WeakNext)):
            stack.append(g.operand)
    return True


def is_tnf(f):
    """True when f is in negation normal form and free of weak-next."""
    if not is_nnf(f):
        return False
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, WeakNext):
            return False
        if isinstance(g, _BINARY):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, (Not, Next)):
            stack.append(g.operand)
    return True


def atoms(f):
    """Set of atom names occurring in f."""
    out = set()
    stack = [f]
    seen = set()
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
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


def to_nnf(f):
    """Equivalent formula with negation pushed down to the atoms."""
    pos_memo = {}
    neg_memo = {}

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


def to_tnf(f):
    """Rewrite an NNF formula into its weak-next-free tail-marked form.

    The result conjoins a fresh obligation that the Tail atom eventually
    holds; Tail marks the last position of a satisfying trace.
    Satisfiability is preserved.
    """
    if not is_nnf(f):
        raise ValueError("to_tnf expects an NNF formula; apply to_nnf first")
    if TAIL in atoms(f):
        raise ReservedAtomError(
            f"the atom {TAIL!r} is reserved; use the raw-TNF entry point for"
            " formulas that mention it"
        )
    tail = Atom(TAIL)
    not_tail = Not(tail)
    memo = {}

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


_UNARY_TOKENS = {"!", "X", "N", "G", "F"}


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "ident"
            tokens.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch in "()!&|":
            kind = {"(": "lpar", ")": "rpar"}.get(ch, ch)
            tokens.append((kind, ch, line, col))
            i += 1
            col += 1
            continue
        if text.startswith("<->", i):
            tokens.append(("iff", "<->", line, col))
            i += 3
            col += 3
            continue
        if text.startswith("->", i):
            tokens.append(("imp", "->", line, col))
            i += 2
            col += 2
            continue
        raise ParseError(f"unknown operator {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def parse(text):
    """Parse a formula; globally/eventually and implications are desugared.

    Input nested beyond the interpreter's recursion limit, including long
    flat chains of a right-associative operator, is a ParseError.
    """
    tokens = _tokenize(text)
    if tokens[0][0] == "eof":
        raise ParseError("empty input", tokens[0][2], tokens[0][3])
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def p_iff():
        lhs = p_imp()
        if peek()[0] == "iff":
            take()
            rhs = p_iff()
            return And(Or(Not(lhs), rhs), Or(Not(rhs), lhs))
        return lhs

    def p_imp():
        lhs = p_or()
        if peek()[0] == "imp":
            take()
            return Or(Not(lhs), p_imp())
        return lhs

    def p_or():
        lhs = p_and()
        if peek()[0] == "|":
            take()
            return Or(lhs, p_or())
        return lhs

    def p_and():
        lhs = p_until()
        if peek()[0] == "&":
            take()
            return And(lhs, p_and())
        return lhs

    def p_until():
        lhs = p_release()
        if peek()[0] == "U":
            take()
            return Until(lhs, p_until())
        return lhs

    def p_release():
        lhs = p_unary()
        if peek()[0] == "R":
            take()
            return Release(lhs, p_release())
        return lhs

    def p_unary():
        kind = peek()[0]
        if kind in _UNARY_TOKENS:
            take()
            arg = p_unary()
            if kind == "!":
                return Not(arg)
            if kind == "X":
                return Next(arg)
            if kind == "N":
                return WeakNext(arg)
            if kind == "G":
                return Release(FALSE, arg)
            return Until(TRUE, arg)
        return p_primary()

    def p_primary():
        kind, word, ln, cl = peek()
        if kind == "true":
            take()
            return TRUE
        if kind == "false":
            take()
            return FALSE
        if kind == "ident":
            take()
            return Atom(word)
        if kind == "lpar":
            take()
            inner = p_iff()
            k, w, ln2, cl2 = peek()
            if k != "rpar":
                raise ParseError(f"expected ')' but found {w or 'end of input'!r}", ln2, cl2)
            take()
            return inner
        raise ParseError(f"expected a formula but found {word or 'end of input'!r}", ln, cl)

    try:
        f = p_iff()
    except RecursionError:
        _, _, ln, cl = peek()
        raise ParseError("formula nested too deeply to parse", ln, cl) from None
    kind, word, ln, cl = peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {word!r}", ln, cl)
    return f
