"""Finite-trace satisfaction and satisfiability by bounded trace enumeration.

`evaluate` is the semantic ground truth for the whole package; every
satisfying trace produced anywhere is checked against it.
`brute_force_sat` enumerates traces in increasing length and lexicographic
valuation order, so its witnesses are deterministic and shortest.
"""

from __future__ import annotations

from functools import cache

from .errors import Deadline, WitnessError
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
    by_uid,
    subformulas,
)

MAX_BRUTE_ATOMS = 4
_CHUNK = 1 << 16
# bounds the enumeration space: at most 2**62 trace indices per length
_MAX_INDEX_BITS = 62


# k is at most log2(_CHUNK) = 16 here and TABLE_ATOMS = 16 in transition, so
# the cache holds k * 2**k bits per k, about 256 KB over every k up to 16
@cache
def column_masks(k):
    """Columns of a k-bit truth table as ints of 2**k bits: bit r of the
    j-th int is bit j of row r, so each column alternates runs of 2**j clear
    and 2**j set bits.

    Each round doubles the rows: every column so far repeats over the new
    rows, and the new top column is clear on the old rows and set on the
    new ones. A round costs shifts and ors linear in the table's size, with
    no division of 2**k-bit ints."""
    masks = []
    rows = 1
    for _ in range(k):
        masks = [m | m << rows for m in masks]
        masks.append(((1 << rows) - 1) << rows)
        rows <<= 1
    return tuple(masks)


def evaluate(trace, f):
    """Truth of the trace against f, by the defining semantic clauses.

    Every node is evaluated at every position at once (see `_truth`).
    Weak-next holds at the last position; release, which demands its right
    side until the left has held, is evaluated through its until dual.
    """
    nodes = subformulas(f)
    missing = {g.name for g in nodes if type(g) is Atom} - trace.alphabet
    if missing:
        raise ValueError(f"atoms not declared in the trace alphabet: {sorted(missing)}")
    bits = dict.fromkeys(trace.alphabet, 0)
    for i, position in enumerate(trace.positions):
        for name in position:
            bits[name] |= 1 << i
    return bool(_truth(nodes, len(trace), 1, bits) & 1)


def _truth(nodes, length, width, atom_bits):
    """The truth of the first of `nodes` (a `subformulas` list) over a
    trace of `length` positions, `width` bits per position.

    Bits i * width up to (i + 1) * width of a value hold a node's truth at
    position i; `atom_bits` maps each atom name to its value. The pass
    visits the nodes in uid order, so every node after its operands, and
    keeps one value per node: no recursion.
    """
    full = (1 << length * width) - 1
    last = full ^ (full >> width)  # the bits of the last position
    value = {}
    for g in sorted(nodes, key=by_uid):
        kind = type(g)
        if kind is Atom:
            out = atom_bits[g.name]
        elif kind is And:
            out = value[g.left] & value[g.right]
        elif kind is Or:
            out = value[g.left] | value[g.right]
        elif kind is Not:
            out = value[g.operand] ^ full
        elif kind is Next:
            out = value[g.operand] >> width
        elif kind is WeakNext:
            out = value[g.operand] >> width | last
        elif kind is Until:
            out = _until(value[g.left], value[g.right], length, width)
        elif kind is Release:
            out = _until(value[g.left] ^ full, value[g.right] ^ full, length, width) ^ full
        elif kind is TrueConst:
            out = full
        elif kind is FalseConst:
            out = 0
        else:
            raise TypeError(f"not a formula: {g!r}")
        value[g] = out
    return value[nodes[0]]


def _until(left, right, length, width):
    """The truth of `left U right` from its operands', laid out as in
    `_truth`. A round that shifts by s positions extends every window in
    which the until is decided from s to 2s positions, so a trace of n
    positions takes about log2(n) rounds: `out` holds where right holds in
    the window with left at every position before it, and `through` where
    left holds in all of the window.
    """
    out, through = right, left
    shift = width
    while shift < length * width:
        out |= through & (out >> shift)
        through &= through >> shift
        shift <<= 1
    return out


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
    block = (1 << count) - 1
    low = count.bit_length() - 1
    columns = column_masks(low)
    bits = {}
    for j, name in enumerate(names):
        out = 0
        for i in range(length):
            b = (length - 1 - i) * m + j
            if b < low:
                out |= columns[b] << i * count
            elif start >> b & 1:
                out |= block << i * count
        bits[name] = out
    return _truth(subformulas(f), length, count, bits) & block


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
                if not evaluate(trace, f):
                    raise WitnessError("enumerated witness failed re-evaluation")
                return trace
            start += count
    return None
