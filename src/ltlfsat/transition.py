"""Obligation transition systems: successors, final-position tests, and the
exhaustive breadth-first checker used as the complete desk-scale oracle.

A state is a set of formulas read as a conjunction. Successor states are the
next-atom bodies of the assignments that satisfy the members' expanded
(`xnf`) forms; a state with no pending next obligations steps to the
distinguished empty-obligation state {true}, which is final by construction.

A state with at most TABLE_ATOMS relevant atoms (literal atoms, next-atoms
and Tail) is decided from `truth_table`, one truth table over every
valuation of those atoms, with no solver: each atom's column is an int with
one bit per row, and the members' expanded forms are evaluated bitwise over
it in the node orders their cached encoding recipes keep
(`abstraction.recipe`): every node of the expanded form, where
`Encoder.member` defines only the nodes below its skeleton's leaves. Two
readers decode its rows. `_table` gives the naive engine a small state's
final test and successors. `table_query` decides a small state's step query
under the blocking cores that lie inside its next bodies; cdlsc passes the
cores of a frame. A larger state goes to the system's `Encoder`, created
when the first such state is met: `successors(encoder, state)` enumerates
its distinct successors, and `encoder.query(state, final=True)` tests
whether it can end the trace.

A system keeps the edges out of a table-decided state, and its final
assignment, as rows, and decodes a row into its `Assignment` only when that
is read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .abstraction import Assignment, Encoder, QueryOutcome, recipe, union_atoms
from .errors import Deadline, Limits, ResourceAbort, StateLimitExceeded
from .formula import (
    FALSE,
    TAIL,
    TRUE,
    And,
    Atom,
    FiniteTrace,
    Next,
    Or,
    atoms,
    by_uid,
    conjuncts,
    is_tnf,
    render,
)
from .semantics import column_masks

# A table has 2**k rows for k relevant atoms, so each bitwise operation on its
# columns and each group of rows split off by a next-atom costs 2**k bits:
# time and memory double with every atom, while SAT enumeration grows with
# the successors found. The oracle suites' states have at most 11 relevant
# atoms; the conjunction suites' initial states have 21 to 35. The same cap
# decides which cdlsc step and push queries are answered by table.
TABLE_ATOMS = 14

TRUE_STATE = frozenset({TRUE})


def state_of(f):
    """Initial state of a formula: its top-level conjuncts."""
    return frozenset(conjuncts(f))


def successor_state(bodies):
    return frozenset(bodies) if bodies else TRUE_STATE


def successors(encoder, state):
    """All successors of a state, one (label, target) pair per distinct
    next-atom projection (two projections may name the same target).

    Each label's projection is blocked under an activation literal before
    the next solve; the blocking clauses are released once the state is
    exhausted. A generator abandoned early keeps them, which only matters
    if the encoder is used further.
    """
    _, next_atoms = encoder.relevant_atoms(state)
    act = encoder.new_activation()
    while True:
        out = encoder.query(state, acts=(act,))
        if not out.sat:
            encoder.solver.release(act)
            return
        label = out.assignment
        yield label, successor_state(label.next_bodies)
        encoder.block_assignment(act, label, next_atoms)


def truth_table(state):
    """The truth table of a small state, or None when it has more than
    TABLE_ATOMS relevant atoms.

    Rows run over every valuation of the state's relevant atoms, Tail
    included; the atom at position j in uid order is bit j of the row index.
    Each atom's column is one int with a bit per row, so each member's
    expanded form is evaluated for all rows at once with `&`, `|` and `^`, in
    the order of its `recipe` steps.

    Returns (members, masks, full, tail, nexts, bits): the members in uid
    order, each one's row mask, the mask of every row, Tail's column, each
    next-atom's column keyed by its body in uid order, and the (literal
    bits, next bits) with which `_label` decodes a row into an `Assignment`
    over the same atoms as a step `Encoder.query`'s.
    """
    members = sorted(state, key=by_uid)
    recipes = [recipe(psi) for psi in members]
    lits, nexts = union_atoms(recipes)
    columns = sorted(lits | nexts | {Atom(TAIL)}, key=by_uid)
    if len(columns) > TABLE_ATOMS:
        return None
    full = (1 << (1 << len(columns))) - 1
    column = dict(zip(columns, column_masks(len(columns))))
    # the value of every node evaluated so far, seeded with the columns and
    # the constants
    value = {**column, TRUE: full, FALSE: 0}
    masks = []
    for steps, *_ in recipes:
        for g in steps:
            if g in value:
                continue
            kind = type(g)
            if kind is And:
                value[g] = value[g.left] & value[g.right]
            elif kind is Or:
                value[g] = value[g.left] | value[g.right]
            else:  # a negated atom
                value[g] = value[g.operand] ^ full
        masks.append(value[steps[-1]])
    next_columns = {a.operand: mask for a, mask in column.items() if type(a) is Next}
    bit = {a: 1 << j for j, a in enumerate(columns)}
    bits = ([(a.name, bit[a]) for a in lits], [(n.operand, bit[n]) for n in nexts])
    return members, masks, full, column[Atom(TAIL)], next_columns, bits


def _table(state):
    """Final test and successors of a small state from its truth table.

    The successors are the distinct next-atom projections of the satisfying
    rows, in the order of their first rows, each labelled by that first row;
    the final outcome, if sat, is a `_FinalRow` holding the first satisfying
    row with Tail true.

    Returns (final outcome, [(row, target), ...], bits), where bits is what
    `_label` needs to decode a row, or None when `truth_table` gives none.
    An unsat final outcome carries the whole state as its core.
    """
    table = truth_table(state)
    if table is None:
        return None
    _, masks, sat, tail, nexts, bits = table
    for mask in masks:
        sat &= mask
    tail_rows = sat & tail
    if tail_rows:
        final = _FinalRow(_lowest(tail_rows), bits)
    else:
        final = QueryOutcome(None, frozenset(state))
    # one group of satisfying rows per distinct next-atom projection
    groups = [sat] if sat else []
    for mask in nexts.values():
        split = []
        for rows in groups:
            on = rows & mask
            if on:
                split.append(on)
            if on != rows:
                split.append(rows ^ on)
        groups = split
    steps = []
    for row in sorted(map(_lowest, groups)):
        bodies = frozenset(body for body, b in bits[1] if row & b)
        steps.append((row, successor_state(bodies)))
    return final, steps, bits


def table_query(state, inside):
    """Step query of a small state, decided by its truth table with no
    solver; None when the state has more than TABLE_ATOMS relevant atoms.

    `inside(bodies)` yields the blocking cores that lie inside the state's
    next bodies, and they act as a row filter: such a core blocks the rows
    where all of its next-atoms hold, while a core with a member outside
    the bodies blocks nothing, since a solver may set that next-atom false.
    The query is sat when some row satisfies every member and is not
    blocked, and the lowest such row is its assignment. An unsat answer's
    core drops members in uid order while the rest still leave no such row.
    Each test is exact, so the core is deletion-minimal and needs no
    recheck: a column that only dropped members constrain is free, and
    clearing a next-atom never adds a block.
    """
    table = truth_table(state)
    if table is None:
        return None
    members, masks, full, _, nexts, bits = table
    free = full
    for core in inside(nexts.keys()):
        blocked = full
        for psi in core:
            blocked &= nexts[psi]
        free &= ~blocked
    rows = free
    for mask in masks:
        rows &= mask
    if rows:
        return QueryOutcome(_label(_lowest(rows), bits), None)
    # rest[j]: the free rows that every member from j on satisfies
    rest = [free]
    for mask in reversed(masks):
        rest.append(rest[-1] & mask)
    rest.reverse()
    core = []
    kept = full
    for j, psi in enumerate(members):
        if kept & rest[j + 1]:
            core.append(psi)
            kept &= masks[j]
    return QueryOutcome(None, frozenset(core))


def _lowest(rows):
    """Index of the lowest set bit: the first row of a set of rows."""
    return (rows & -rows).bit_length() - 1


class _FinalRow:
    """The sat final outcome of a table-decided state, kept as its first row
    with Tail true; `assignment` decodes the row when read."""

    __slots__ = ("row", "bits")
    sat = True
    core = None

    def __init__(self, row, bits):
        self.row, self.bits = row, bits

    @property
    def assignment(self):
        label = _label(self.row, self.bits)
        return Assignment(label.literals | {(TAIL, True)}, label.next_bodies)


def _label(row, bits):
    """The `Assignment` of a truth-table row: literals and next-atom bodies
    read from the row's bits."""
    literal_bits, next_bits = bits
    return Assignment(
        frozenset((name, bool(row & b)) for name, b in literal_bits),
        frozenset(body for body, b in next_bits if row & b),
    )


@dataclass
class TransitionSystem:
    """A state graph. A table-decided state keeps the rows of its outgoing
    edges, with the bits to decode them in `row_bits`; `edges` and `label`
    decode them into `Assignment`s when read. Its final outcome, if
    sat, likewise decodes its assignment when read."""

    states: list
    steps: list  # (source, label or table row, target) per edge
    final: dict
    depth: list  # breadth-first discovery depth of each state
    sat_calls: int = 0
    parents: dict = field(default_factory=dict)  # state: (source, label or row)
    live_clauses: int = 0  # the encoder's clause database size at the end
    row_bits: dict = field(default_factory=dict)  # table-decided state: bits of its rows

    @property
    def state_count(self):
        return len(self.states)

    @property
    def table_states(self):
        """States decided by `_table`."""
        return len(self.row_bits)

    def label(self, source, label):
        """The `Assignment` of an edge out of `source` as kept in `steps`."""
        bits = self.row_bits.get(source)
        return label if bits is None else _label(label, bits)

    @property
    def edges(self):
        """(source, label, target) per edge, decoded on each read."""
        return [(i, self.label(i, label), j) for i, label, j in self.steps]



def _explore(f, limits, stop_on_final):
    if not is_tnf(f):
        raise ValueError("transition systems are built over TNF formulas")
    deadline = Deadline(limits.timeout)
    state_limit = limits.state_limit
    encoder = None
    initial = state_of(f)
    states = [initial]
    index = {initial: 0}
    depth = [0]
    edges = []
    final = {}
    parents = {}
    tabled = {}  # successors of table-decided states not yet expanded
    row_bits = {}

    def decide(j):
        """Final test of a fresh state; a table also gives its successors."""
        nonlocal encoder
        table = _table(states[j])
        if table is not None:
            final[j], tabled[j], row_bits[j] = table
            return
        if encoder is None:
            encoder = Encoder()
        final[j] = encoder.query(states[j], final=True)

    def system():
        sat_calls = live = 0
        if encoder is not None:
            sat_calls, live = encoder.sat_calls, len(encoder.solver.clauses)
        return TransitionSystem(states, edges, final, depth, sat_calls, parents, live,
                                row_bits)

    decide(0)
    found = 0 if final[0].sat else None
    if found is not None and stop_on_final:
        return system(), found
    queue = deque([0])
    try:
        while queue:
            i = queue.popleft()
            steps = tabled.pop(i, None)
            for label, target in successors(encoder, states[i]) if steps is None else steps:
                deadline.check()
                j = index.get(target)
                fresh = j is None
                if fresh:
                    if len(states) >= state_limit:
                        raise StateLimitExceeded(state_limit)
                    j = len(states)
                    states.append(target)
                    index[target] = j
                    depth.append(depth[i] + 1)
                    parents[j] = (i, label)
                    decide(j)
                    queue.append(j)
                edges.append((i, label, j))
                if fresh and final[j].sat and found is None:
                    found = j
                    if stop_on_final:
                        return system(), found
    except ResourceAbort as abort:
        abort.states_expanded = len(states)
        abort.sat_calls = 0 if encoder is None else encoder.sat_calls
        raise
    return system(), found


def build_full_system(f, *, exhaustive=False, limits=Limits()):
    """Breadth-first closure of the initial state under successor generation.

    Stops early once a final state is discovered unless exhaustive mode is
    requested. Of `limits` it reads `state_limit` and `timeout`; exceeding
    either raises a `ResourceAbort`, never a verdict, that carries the
    `states_expanded` and `sat_calls` so far.
    """
    ts, _ = _explore(f, limits, not exhaustive)
    return ts


def assemble_trace(labels, final_assignment, alphabet):
    """Trace from edge labels plus the final-position assignment.

    Positions are the positive atoms of each assignment; the trace is cut at
    the first position carrying the Tail marker, which the final assignment
    always supplies.
    """
    positions = [a.true_atoms() for a in labels]
    positions.append(final_assignment.true_atoms())
    cut = next(i for i, p in enumerate(positions) if TAIL in p)
    return FiniteTrace(tuple(positions[: cut + 1]), frozenset(alphabet) | {TAIL})


@dataclass(frozen=True)
class NaiveResult:
    sat: bool
    witness: FiniteTrace | None
    witness_with_tail: FiniteTrace | None
    states_expanded: int
    sat_calls: int
    live_clauses: int
    table_states: int = 0


def naive_check(f, *, limits=Limits()):
    """Complete satisfiability check by exhaustive state construction.

    Satisfiable iff some reachable state is final; the witness is assembled
    from the discovery path's labels plus the final-position assignment,
    with the Tail marker stripped. Of `limits` it reads `state_limit` and
    `timeout`, as `build_full_system` does.
    """
    ts, found = _explore(f, limits, True)
    if found is None:
        return NaiveResult(False, None, None, ts.state_count, ts.sat_calls,
                           ts.live_clauses, ts.table_states)
    labels = []
    i = found
    while i != 0:
        parent, label = ts.parents[i]
        labels.append(ts.label(parent, label))
        i = parent
    labels.reverse()
    with_tail = assemble_trace(labels, ts.final[found].assignment, atoms(f))
    return NaiveResult(
        True,
        with_tail.without_atom(TAIL),
        with_tail,
        ts.state_count,
        ts.sat_calls,
        ts.live_clauses,
        ts.table_states,
    )


def bfs_depth(ts):
    """Largest breadth-first distance from the initial state."""
    return max(ts.depth)


# enumerating more traces than this is out of desk-scale budget; the
# fallback bound below is capped, so it may fall short of a witness
BRUTE_WORK_CAP = 1 << 24
BRUTE_FALLBACK_MIN = 8
BRUTE_FALLBACK_MAX = 9


def brute_bound(f, ts):
    """Witness-length bound for brute force: the state count plus one when
    the enumeration fits the work cap, else the system's reachability depth
    plus two, kept between BRUTE_FALLBACK_MIN and BRUTE_FALLBACK_MAX.

    A shortest witness has at most `bfs_depth(ts) + 1` positions, so a bound
    below that is not complete: past the cap, a miss is not unsat."""
    bound = ts.state_count + 1
    width = 1 << len(atoms(f))
    if width ** bound <= BRUTE_WORK_CAP:
        return bound
    depth_bound = max(bfs_depth(ts) + 2, BRUTE_FALLBACK_MIN)
    return min(depth_bound, BRUTE_FALLBACK_MAX)


def export_dot(ts):
    """Graph text for inspection: one node per state, one edge per label."""

    def esc(s):
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph transition_system {", "  rankdir=LR;"]
    for i, state in enumerate(ts.states):
        members = ", ".join(sorted(render(g) for g in state))
        shape = "doublecircle" if ts.final[i].sat else "circle"
        lines.append(f'  s{i} [shape={shape} label="s{i}: {esc(members)}"];')
    for src, label, dst in ts.edges:
        lits = " ".join(
            name if value else f"!{name}"
            for name, value in sorted(label.literals)
        )
        lines.append(f'  s{src} -> s{dst} [label="{esc(lits)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
