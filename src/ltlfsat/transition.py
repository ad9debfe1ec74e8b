"""Obligation transition systems: successors, final-position tests, and the
exhaustive breadth-first checker used as the complete desk-scale oracle.

A state is a set of formulas read as a conjunction. Successor states are the
next-atom bodies of solver assignments; a state with no pending next
obligations steps to the distinguished empty-obligation state {true}, which
is final by construction.

Both questions go to one `Encoder` per system: `successors(encoder, state)`
enumerates a state's distinct successors, and `encoder.query(state,
final=True)` tests whether the state can end the trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .abstraction import Encoder
from .errors import Deadline, StateLimitExceeded, TimeoutExceeded
from .formula import TAIL, FiniteTrace, TRUE, atoms, conjuncts, is_tnf, render

DEFAULT_STATE_LIMIT = 1 << 20

TRUE_STATE = frozenset({TRUE})


def state_of(f):
    """Initial state of a formula: its top-level conjuncts."""
    return frozenset(conjuncts(f))


def successor_state(bodies):
    return frozenset(bodies) if bodies else TRUE_STATE


def successors(encoder, state):
    """All successors of a state, one (label, target) pair per distinct
    target.

    The enumeration's blocking clauses are released once it is exhausted; a
    generator abandoned early keeps them, which only matters if the encoder
    is used further.
    """
    act = encoder.new_activation()
    _, next_atoms = encoder.relevant_atoms(state)
    while True:
        out = encoder.query(state, acts=(act,))
        if not out.sat:
            encoder.solver.release(act)
            return
        yield out.assignment, successor_state(out.assignment.next_bodies)
        encoder.block_next_projection(act, next_atoms, out.assignment.next_bodies)


@dataclass
class TransitionSystem:
    states: list
    edges: list
    final: dict
    sat_calls: int = 0
    preds: dict = field(default_factory=dict)
    live_clauses: int = 0  # the encoder's clause database size at the end

    @property
    def state_count(self):
        return len(self.states)


def _explore(f, *, state_limit, stop_on_final, timeout):
    if not is_tnf(f):
        raise ValueError("transition systems are built over TNF formulas")
    deadline = Deadline(timeout)
    encoder = Encoder()
    initial = state_of(f)
    states = [initial]
    index = {initial: 0}
    edges = []
    final = {0: encoder.query(initial, final=True)}
    preds = {}

    def system():
        return TransitionSystem(states, edges, final, encoder.sat_calls, preds,
                                len(encoder.solver.clauses))

    found = 0 if final[0].sat else None
    if found is not None and stop_on_final:
        return system(), found
    queue = deque([0])
    try:
        while queue:
            i = queue.popleft()
            for label, target in successors(encoder, states[i]):
                deadline.check()
                j = index.get(target)
                fresh = j is None
                if fresh:
                    if len(states) >= state_limit:
                        raise StateLimitExceeded(state_limit)
                    j = len(states)
                    states.append(target)
                    index[target] = j
                    preds[j] = (i, label)
                    final[j] = encoder.query(target, final=True)
                    queue.append(j)
                edges.append((i, label, j))
                if fresh and final[j].sat and found is None:
                    found = j
                    if stop_on_final:
                        return system(), found
    except (TimeoutExceeded, StateLimitExceeded) as abort:
        abort.states_expanded = len(states)
        raise
    return system(), found


def build_full_system(f, *, state_limit=DEFAULT_STATE_LIMIT, exhaustive=False,
                      timeout=None):
    """Breadth-first closure of the initial state under successor generation.

    Stops early once a final state is discovered unless exhaustive mode is
    requested; exceeding the state limit is an error, never a verdict.
    """
    ts, _ = _explore(
        f,
        state_limit=state_limit,
        stop_on_final=not exhaustive,
        timeout=timeout,
    )
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


def naive_check(f, *, state_limit=DEFAULT_STATE_LIMIT, timeout=None):
    """Complete satisfiability check by exhaustive state construction.

    Satisfiable iff some reachable state is final; the witness is assembled
    from the discovery path's labels plus the final-position assignment,
    with the Tail marker stripped.
    """
    ts, found = _explore(
        f,
        state_limit=state_limit,
        stop_on_final=True,
        timeout=timeout,
    )
    if found is None:
        return NaiveResult(False, None, None, ts.state_count, ts.sat_calls,
                           ts.live_clauses)
    labels = []
    i = found
    while i != 0:
        parent, label = ts.preds[i]
        labels.append(label)
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
    )


def bfs_depth(ts):
    """Largest breadth-first distance from the initial state."""
    dist = {0: 0}
    queue = deque([0])
    adj = {}
    for src, _, dst in ts.edges:
        adj.setdefault(src, set()).add(dst)
    while queue:
        i = queue.popleft()
        for j in adj.get(i, ()):
            if j not in dist:
                dist[j] = dist[i] + 1
                queue.append(j)
    return max(dist.values())


# enumerating more traces than this is out of desk-scale budget; the
# fallback bound below stays complete for witness search
BRUTE_WORK_CAP = 1 << 24
BRUTE_FALLBACK_MIN = 8
BRUTE_FALLBACK_MAX = 9


def brute_bound(f, ts):
    """Complete witness-length bound: the state count plus one when the
    enumeration fits the work cap, else a shortest-path bound (no witness is
    longer than the system's reachability depth plus its final position)."""
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
