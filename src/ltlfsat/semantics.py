"""Finite-trace satisfaction and satisfiability by bounded trace enumeration.

`evaluate` is the semantic ground truth for the whole package; every
satisfying trace produced anywhere is checked against it.
`brute_force_sat` enumerates traces in increasing length and lexicographic
valuation order, so its witnesses are deterministic and shortest.
"""

from __future__ import annotations

from functools import cache

from .errors import Deadline
from .formula import (
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
    atoms,
)

MAX_BRUTE_ATOMS = 4
_CHUNK = 1 << 16
# bounds the enumeration space: at most 2**62 trace indices per length
_MAX_INDEX_BITS = 62


# k is at most log2(_CHUNK) = 16 here and TABLE_ATOMS in transition, so the
# cache holds a few hundred kilobytes at most
@cache
def column_masks(k):
    """Columns of a k-bit truth table as ints of 2**k bits: bit r of the
    j-th int is bit j of row r, so each column alternates runs of 2**j clear
    and 2**j set bits."""
    full = (1 << (1 << k)) - 1
    masks = []
    for j in range(k):
        run = 1 << j
        period = ((1 << run) - 1) << run
        masks.append(period * (full // ((1 << 2 * run) - 1)))
    return tuple(masks)


def evaluate(trace, f):
    """Truth of the trace against f, by the defining semantic clauses.

    Weak-next and release are evaluated through their duals: weak-next holds
    at the last position, release demands its right side until the left has
    held.
    """
    missing = atoms(f) - trace.alphabet
    if missing:
        raise ValueError(f"atoms not declared in the trace alphabet: {sorted(missing)}")
    n = len(trace)
    memo = {}

    def ev(i, g):
        key = (i, g)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(g, TrueConst):
            out = True
        elif isinstance(g, FalseConst):
            out = False
        elif isinstance(g, Atom):
            out = g.name in trace.positions[i]
        elif isinstance(g, Not):
            out = not ev(i, g.operand)
        elif isinstance(g, And):
            out = ev(i, g.left) and ev(i, g.right)
        elif isinstance(g, Or):
            out = ev(i, g.left) or ev(i, g.right)
        elif isinstance(g, Next):
            out = i + 1 < n and ev(i + 1, g.operand)
        elif isinstance(g, WeakNext):
            out = i + 1 >= n or ev(i + 1, g.operand)
        elif isinstance(g, Until):
            out = False
            for k in range(i, n):
                if ev(k, g.right):
                    out = True
                    break
                if not ev(k, g.left):
                    break
        elif isinstance(g, Release):
            out = True
            for k in range(i, n):
                if not ev(k, g.right):
                    out = False
                    break
                if ev(k, g.left):
                    break
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[key] = out
        return out

    return ev(0, f)


def _decode_positions(names, length, index):
    m = len(names)
    width = 1 << m
    out = []
    for i in range(length):
        code = (index >> ((length - 1 - i) * m)) & (width - 1)
        out.append(frozenset(names[j] for j in range(m) if code & (1 << j)))
    return tuple(out)


def _eval_block(f, names, length, start, count):
    """Truth values of f over the trace indices start .. start + count - 1,
    as one int whose bit r is the value at index start + r.

    `count` is a power of two and `start` a multiple of it. Index bit b
    below log2(count) runs through the rows as `column_masks` column b;
    any higher bit is bit b of `start` throughout the block.
    """
    m = len(names)
    full = (1 << count) - 1
    low = count.bit_length() - 1
    columns = column_masks(low)
    memo = {}  # by (position, node)

    def ev(i, g):
        key = (i, g)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(g, TrueConst):
            out = full
        elif isinstance(g, FalseConst):
            out = 0
        elif isinstance(g, Atom):
            b = (length - 1 - i) * m + names.index(g.name)
            if b < low:
                out = columns[b]
            else:
                out = full if start >> b & 1 else 0
        elif isinstance(g, Not):
            out = ev(i, g.operand) ^ full
        elif isinstance(g, And):
            out = ev(i, g.left) & ev(i, g.right)
        elif isinstance(g, Or):
            out = ev(i, g.left) | ev(i, g.right)
        elif isinstance(g, Next):
            out = ev(i + 1, g.operand) if i + 1 < length else 0
        elif isinstance(g, WeakNext):
            out = ev(i + 1, g.operand) if i + 1 < length else full
        elif isinstance(g, Until):
            out = 0
            holds = full
            for k in range(i, length):
                out |= holds & ev(k, g.right)
                holds &= ev(k, g.left)
                if not holds:
                    break
        elif isinstance(g, Release):
            out = full
            released = 0
            for k in range(i, length):
                out &= released | ev(k, g.right)
                released |= ev(k, g.left)
                if released == full:
                    break
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[key] = out
        return out

    return ev(0, f)


def brute_force_sat(f, max_len, *, timeout=None):
    """Shortest satisfying trace of f with length <= max_len, else None.

    None means unsatisfiable up to the bound, not unsatisfiable outright.
    Enumeration cost is 2**(atoms * length), so the alphabet is capped at
    four atoms.
    """
    names = sorted(atoms(f))
    if len(names) > MAX_BRUTE_ATOMS:
        raise ValueError(
            f"brute-force enumeration supports at most {MAX_BRUTE_ATOMS} atoms,"
            f" got {len(names)}"
        )
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    alphabet = frozenset(names)
    m = len(names)
    deadline = Deadline(timeout)
    for length in range(1, max_len + 1):
        if m * length > _MAX_INDEX_BITS:
            raise ValueError(
                f"enumeration space 2**{m * length} too large to index"
            )
        total = (1 << m) ** length
        start = 0
        while start < total:
            deadline.check()
            count = min(_CHUNK, total - start)
            sat = _eval_block(f, names, length, start, count)
            if sat:
                first = (sat & -sat).bit_length() - 1
                trace = FiniteTrace(
                    _decode_positions(names, length, start + first), alphabet
                )
                assert evaluate(trace, f), "enumerated witness failed re-evaluation"
                return trace
            start += count
    return None
