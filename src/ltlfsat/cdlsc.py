"""Conflict-driven satisfiability search over the obligation transition
system.

The checker grows a sequence of frames, one per step budget. Frame i holds
member cores certifying that any state containing them cannot end a trace
within i steps. The final-position query is thus the step below frame 0: a
search from frame k steps down to level -1, where a state gets the
final-position query, and its core, like every step core, joins the frame
one level up. Successor search avoids the current frame; when it runs out
of candidates, the step query's core seeds the next frame. After each
failed iteration, cores are pushed forward as in IC3's propagation phase: a
core of frame i whose successors all stay in frame i also joins frame i+1.
Unsatisfiability is detected syntactically, once every core of some frame
is subsumed by a core of the next. The push pass finds that level over the
cores the next frame does not yet subsume, as PDR propagates only those.

A step query whose answer is already known is not solved again. A run
keeps, for each state, the assignment of its last sat step query. A
blocking clause only forbids successors that contain its whole core, so
that assignment still answers the state under any frame none of whose cores
lies inside its successor (see `_Run._step`). Pushes reuse it the same way,
which makes a failed push wait for a core that covers its successor, as in
triggered clause pushing (Suda, 2013).

A step or push query of a state with at most `TABLE_ATOMS` (16) relevant
atoms, the size up to which a table query beats a solver query, is decided
by the state's truth table (`transition.table_query`), with the cores of
frame i inside the state's next bodies as a row filter; its cores are
exact, so they are not rechecked. Every larger query blocks successors
in a solver of its own frame, as in Bradley's IC3, so a query propagates
through the cores of its frame only. Frame 0 shares the run's solver with
the final-position queries at level -1, whose member encodings it would
otherwise repeat; final-position queries always go to that solver.

`ConflictSequence` holds the frames, their open cores, the index that
files each core under its lowest-uid member, and the frames' solvers;
`inv_found` is the exact propositional test the syntactic fixpoint implies.
Every query of a run, step, push or final-position, goes through
`_Run._query`. It checks the deadline and `Limits.max_sat_calls` before the
query is decided, counts it in `Stats.sat_calls` (push queries also in
`Stats.pushes`, table-decided ones also in `Stats.table_queries`), and
rechecks every solver core the run keeps. A query's path depends on its
state and frame alone: a dump directory only records the queries that
reach a solver, each in the `--dump-cnf` file its count numbers.
`Stats.reused` counts the step queries answered from a stored assignment,
which are not queries.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial

from .abstraction import Encoder, QueryOutcome
from .errors import (
    AtomLimitExceeded,
    Deadline,
    FrameLimitExceeded,
    Limits,
    ResourceAbort,
    SatCallLimitExceeded,
    TraceBoundExceeded,
    WitnessError,
)
from .formula import (
    TAIL,
    And,
    FiniteTrace,
    atoms,
    by_uid,
    closure,
    is_tnf,
    parse,
    to_nnf,
    to_tnf,
)
from .satengine import SatSolver
from .semantics import MAX_BRUTE_ATOMS, brute_force_sat, evaluate
from .transition import assemble_trace, naive_check, state_of, successor_state, table_query

ENGINES = ("cdlsc", "naive", "brute")


@dataclass
class Stats:
    states_expanded: int = 0
    sat_calls: int = 0
    frames: int = 0
    elapsed: float = 0.0
    pushes: int = 0  # core-pushing queries made, also counted in sat_calls
    reused: int = 0  # step queries answered from a stored successor, not counted in sat_calls
    table_queries: int = 0  # queries decided by truth table, also counted in sat_calls
    live_clauses: int = 0  # clauses held by all of the run's solvers at the end
    table_states: int = 0  # states the naive engine decided by truth table


@dataclass
class Verdict:
    """Outcome of a decided run.

    `frames` are the conflict-driven checker's frames when the verdict was
    reached; `spine` is the state path of a witness found by its successor
    search, from the initial state on, one state per witness position.
    Every sat verdict of that checker carries a spine; both stay empty for
    the other engines.
    """

    sat: bool
    witness: FiniteTrace | None
    invariant_level: int | None
    stats: Stats
    frames: tuple = ()
    spine: tuple | None = None


class ConflictSequence:
    """Frames of member cores, each blocking successors in the search.

    Each frame is an insertion-ordered set (dict keys) of cores. A small
    state at level i is queried by `transition.table_query`, which reads
    the cores of frame i that `inside` yields as they stand. A larger one
    is queried in frame i's encoder, where frame i's cores block successors
    under one activation literal, so a new core takes effect on the very
    next query. Frame 0 lives in the run's encoder, which also answers the
    final-position queries. Every other frame gets a fresh encoder of its
    own when it first has a solver query, so no query visits the blocking
    clauses of another frame; it blocks the cores the frame holds by then.

    The fixpoint is detected syntactically, as in IC3: level i is a fixpoint
    when frames 0..i are nonempty and every core of frame i is subsumed by a
    core of frame i+1. Then every state in frame i is in frame i+1, so the
    frames up to i propositionally force frame i+1 and `inv_found`, the
    exact test, holds at some level no greater than i. Core pushing
    (`_Run._push`) makes frame i+1 catch up with frame i and finds the
    fixpoint over `open`, the cores not yet seen subsumed: frames only grow,
    so a subsumed core stays subsumed.

    Each core of a frame is also filed under its lowest-uid member. A core
    inside a set has that member in the set, so `inside`, which `subsumed`
    and the table queries use, looks only at the cores filed under the
    set's members and never scans the frame.
    """

    def __init__(self, encoder):
        self._encoder = encoder
        self.frames = []
        self.open = []  # per frame: its cores not yet seen subsumed by the next
        self._filed = []  # per frame: lowest-uid member -> the cores filed under it
        self._contexts = []  # per frame: (encoder, activation) once queried

    def __len__(self):
        return len(self.frames)

    def ensure(self, i):
        while len(self.frames) <= i:
            self.frames.append({})
            self.open.append({})
            self._filed.append({})
            self._contexts.append(None)

    def context(self, i):
        """Encoder and activation literal that query a state under frame i."""
        self.ensure(i)
        context = self._contexts[i]
        if context is None:
            encoder = self._encoder if i == 0 else Encoder()
            act = encoder.new_activation()
            for core in self.frames[i]:
                encoder.block_core(act, core)
            context = self._contexts[i] = (encoder, act)
        return context

    def add_core(self, j, core):
        """Add a core to frame j unless it holds it already, and block it in
        frame j's encoder."""
        if not core:
            raise AssertionError("frames only hold nonempty cores")
        self.ensure(j)
        frame = self.frames[j]
        if core not in frame:
            frame[core] = self.open[j][core] = None
            self._filed[j].setdefault(min(core, key=by_uid), []).append(core)
            context = self._contexts[j]
            if context is not None:
                context[0].block_core(context[1], core)

    def live_clauses(self):
        """Clauses held by the run's solver and by every frame's own."""
        own = [c[0] for c in self._contexts[1:] if c is not None]
        return sum(len(e.solver.clauses) for e in [self._encoder, *own])

    def inside(self, j, members):
        """The cores of frame j that are subsets of members, each once."""
        filed = self._filed[j]
        for psi in members:
            cores = filed.get(psi)
            if cores is not None:
                for core in cores:
                    if core <= members:
                        yield core

    def subsumed(self, j, members):
        """Whether some core of frame j is a subset of members."""
        return any(self.inside(j, members))

    def close(self, i):
        """Drop frame i's open cores that frame i+1 subsumes; True if none is left."""
        cores = self.open[i]
        for core in [core for core in cores if self.subsumed(i + 1, core)]:
            del cores[core]
        return not cores

    def snapshot(self):
        return tuple(tuple(frame) for frame in self.frames)


def inv_found(frames):
    """Smallest level i such that membership in frames 0..i propositionally
    forces membership in frame i+1, or None.

    Frames are sequences of cores; a state is in a frame when it contains
    some core. Validity of the forcing is decided exactly, by
    unsatisfiability of the accumulated frames conjoined with the negated
    next frame over member variables.
    """
    for i in range(len(frames) - 1):
        if _frames_imply(frames[: i + 1], frames[i + 1]):
            return i
    return None


def _frames_imply(antecedent, consequent):
    if not consequent or any(not frame for frame in antecedent):
        return False
    solver = SatSolver()
    member_vars = {}

    def var(psi):
        if psi not in member_vars:
            member_vars[psi] = solver.new_var()
        return member_vars[psi]

    for frame in antecedent:
        selectors = []
        for core in frame:
            d = solver.new_var()
            for psi in core:
                solver.add_clause([-d, var(psi)])
            selectors.append(d)
        solver.add_clause(selectors)
    for core in consequent:
        solver.add_clause([-var(psi) for psi in core])
    return not solver.solve().sat


def reconstruct_witness(labels, final_assignment, original, *, keep_tail=False):
    """Trace from the search spine's labels and the final assignment.

    The trace is cut at the first Tail-marked position; Tail is stripped
    unless the caller works on a raw TNF formula. The result is verified
    against the original formula; see `_verified` for what a failure means.
    """
    trace = assemble_trace(labels, final_assignment, atoms(original))
    if not keep_tail:
        trace = trace.without_atom(TAIL)
    return _verified(trace, original, keep_tail)


def _verified(trace, f, raw_tnf):
    """The witness trace, once checked against f's semantics.

    A failure on raw TNF input is an input error (a ValueError): its
    next-step obligations need not be guarded by Tail. On normalised input
    it is an internal bug (a `WitnessError`).
    """
    if not evaluate(trace, f):
        raise (ValueError if raw_tnf else WitnessError)(
            f"witness does not satisfy the formula: {f!r}; for raw TNF input"
            " this usually means next-step obligations were not guarded by"
            " the Tail marker"
        )
    return trace


def normalise(f, raw_tnf=False):
    """The tail-marked form the engines run on.

    With raw_tnf the input is taken as already tail-marked and only its
    shape is checked.
    """
    if raw_tnf:
        if not is_tnf(f):
            raise ValueError("raw TNF input must be NNF and weak-next-free")
        return f
    return to_tnf(to_nnf(f))


def brute_target(f, raw_tnf=False):
    """The formula brute force decides for f: with raw_tnf, f and that Tail
    holds at the last position only, as in the other engines' models."""
    return And(f, parse(f"G ({TAIL} <-> ! X true)")) if raw_tnf else f


class _Run:
    def __init__(self, original, *, raw_tnf, limits, dump_dir, iteration_hook):
        self.original = original
        self.raw = raw_tnf
        self.tnf = normalise(original, raw_tnf)
        self.encoder = Encoder()
        self.s0 = state_of(self.tnf)
        self.limits = limits
        # None: 2**|closure(tnf)|, computed by _over_frame_limit when needed
        self.max_frames = limits.max_frames
        self.deadline = Deadline(limits.timeout)
        self.dump_dir = dump_dir
        if dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
        self.iteration_hook = iteration_hook
        self.seen = {self.s0}
        self.sequence = ConflictSequence(self.encoder)
        self.stats = Stats()  # the counters; the rest is filled in by `_stats`
        self._last = {}  # state -> assignment of its last sat step query

    def _query(self, state, level, *, push=False):
        """Make one query of the run: a step query under frame level, or at
        level -1, the step below frame 0, the final-position query, which
        always goes to the run's solver.

        Checks the limits before the query is decided and counts it. A step
        query of a state with at most TABLE_ATOMS relevant atoms is decided
        by `transition.table_query`, under the frame's cores that
        `ConflictSequence.inside` yields; its cores are exact. Every other
        query goes to a solver; with a dump directory it is first written
        to the clause file that its count numbers. A solver core that is not
        the whole state is rechecked right after the query, alone in the
        same context, since the run keeps it in a frame.
        """
        self.deadline.check()
        stats = self.stats
        limit = self.limits.max_sat_calls
        if limit is not None and stats.sat_calls >= limit:
            raise SatCallLimitExceeded(limit)
        stats.sat_calls += 1
        stats.pushes += push
        final = level < 0
        if final:
            encoder, acts = self.encoder, ()
        else:
            out = table_query(state, partial(self.sequence.inside, level))
            if out is not None:
                stats.table_queries += 1
                return out
            encoder, act = self.sequence.context(level)
            acts = (act,)
        dump = None
        if self.dump_dir is not None:
            dump = os.path.join(self.dump_dir, f"query{stats.sat_calls:05d}.cnf")
        out = encoder.query(state, final=final, acts=acts, dump=dump)
        # an empty core is legitimate: the context alone is contradictory
        if not out.sat and out.core != state:
            if encoder.query(out.core, final=final, acts=acts, _recheck=True).sat:
                raise AssertionError("unsat core is satisfiable when re-queried alone")
        return out

    def _over_frame_limit(self):
        frames = len(self.sequence)
        if self.max_frames is None:
            # the members of s0 are distinct subformulas, so 2**|s0| bounds
            # the default limit from below
            if frames <= 1 << len(self.s0):
                return False
            self.max_frames = 1 << len(closure(self.tnf))
        return frames > self.max_frames

    def check(self):
        start = time.monotonic()
        frame_level = -1
        while (found := self._try_satisfy(frame_level)) is None:
            if frame_level >= 0:
                level = self._push(frame_level)
                if self.iteration_hook is not None:
                    self.iteration_hook(frame_level, self.sequence.snapshot())
                self.deadline.check()
                if level is not None:
                    return Verdict(False, None, level, self._stats(start), self.sequence.snapshot())
            frame_level += 1
            if self._over_frame_limit():
                raise FrameLimitExceeded(self.max_frames)
        return self._sat_verdict(*found, start)

    def _try_satisfy(self, frame_level):
        """Depth-first successor search honouring the frames, from s0 at
        frame_level down to level -1, where a state gets the final-position
        query.

        The stack holds (state, level, label) entries, label the step
        assignment that reached the state. An unsat answer's core joins
        frame level + 1 and pops its state. Returns (edge labels, final
        assignment, spine) on success; on failure every explored state has
        contributed a core one frame up.
        """
        stack = [(self.s0, frame_level, None)]
        while stack:
            state, level, _ = stack[-1]
            out = self._query(state, level) if level < 0 else self._step(state, level)
            if out.sat and level < 0:
                spine, _, labels = zip(*stack)
                return labels[1:], out.assignment, spine
            if not out.sat:
                self.sequence.add_core(level + 1, out.core)
                stack.pop()
                continue
            succ = successor_state(out.assignment.next_bodies)
            self.seen.add(succ)
            stack.append((succ, level - 1, out.assignment))
        return None

    def _step(self, state, level, *, push=False):
        """Step query of state under frame level's blocking clauses.

        The state's last sat step answer is returned again, without a query,
        while no core of the frame lies inside its successor (`_reused`).
        Otherwise `_query` answers, by table or by the frame's solver, and a
        sat answer is stored.
        """
        last = self._reused(state, level)
        if last is not None:
            self.stats.reused += 1
            return QueryOutcome(last, None)
        out = self._query(state, level, push=push)
        if out.sat:
            self._last[state] = out.assignment
        return out

    def _reused(self, state, level):
        """The state's last sat step assignment if it still answers the
        state under frame level, else None.

        It does when no core of the frame is a subset of its next bodies t.
        A model of the frame's solver then extends it: the state's literal
        atoms as it assigns them, next-atoms outside t false, other atoms
        arbitrary, selectors of the state's members true and of the others
        false, activation literals other than the frame's false, and
        definition variables recomputed from their operands. A definition's
        clauses hold by construction. A member's clauses are guarded by its
        selector (see `Encoder.member`): an unassumed member's hold through
        its false selector, and an assumed member's through its leaves,
        whose recomputed values depend on the member's atoms only. Those
        atoms have their values in the model or truth-table row the
        assignment came from, which satisfied every member's expansion, so
        each clause keeps a true leaf. A blocking clause fails only when its
        whole core lies inside t, and learned clauses follow from the
        original ones. For the same reasons the assignment's row survives
        the row filter of the frame's cores in `transition.table_query`.
        """
        last = self._last.get(state)
        if last is None or self.sequence.subsumed(level, last.next_bodies):
            return None
        return last

    def _push(self, frame_level):
        """Push cores forward, as IC3's propagation phase does; return the
        fixpoint level or None.

        For each level i up to frame_level in turn, an open core of frame i
        that frame i+1 does not subsume is queried as a state under frame
        i's blocking clauses; if no successor escapes, the query's core, a
        subset of the pushed one, joins frame i+1. Level i is the fixpoint
        when frames 0..i are nonempty and `close(i)` leaves no open core;
        the pass returns at the first one and pushes no later level. A
        failed push stays open, and reaches a solver again, counted in
        `pushes`, only once a core of frame i covers its stored successor
        (see `_step`).
        """
        sequence = self.sequence
        nonempty = True
        for i in range(frame_level + 1):
            for core in sequence.open[i]:
                if not sequence.subsumed(i + 1, core):
                    out = self._step(core, i, push=True)
                    if not out.sat:
                        sequence.add_core(i + 1, out.core)
            nonempty = nonempty and bool(sequence.frames[i])
            if sequence.close(i) and nonempty:
                return i
        return None

    def _stats(self, start):
        stats = self.stats
        stats.states_expanded = len(self.seen)
        stats.frames = len(self.sequence)
        stats.elapsed = time.monotonic() - start
        stats.live_clauses = self.sequence.live_clauses()
        return stats

    def _sat_verdict(self, labels, final_assignment, spine, start):
        witness = reconstruct_witness(labels, final_assignment, self.original, keep_tail=self.raw)
        return Verdict(True, witness, None, self._stats(start), self.sequence.snapshot(), spine)


def check(f, *, raw_tnf=False, limits=Limits(), dump_dir=None, iteration_hook=None):
    """Decide satisfiability of f with the conflict-driven checker.

    Unless raw_tnf is set, f is normalized internally and witnesses are
    reported over its own atoms; with raw_tnf the input is taken as already
    tail-marked and witnesses keep the Tail atom. Of `limits` it reads
    `timeout`, `max_frames` and `max_sat_calls`; a limit raises a
    `ResourceAbort` instead of returning a verdict, and the abort carries
    the run's `states_expanded` and `sat_calls` so far.
    """
    run = _Run(f, raw_tnf=raw_tnf, limits=limits, dump_dir=dump_dir,
               iteration_hook=iteration_hook)
    try:
        return run.check()
    except ResourceAbort as abort:
        abort.states_expanded, abort.sat_calls = len(run.seen), run.stats.sat_calls
        raise


def solve(f, engine, *, raw_tnf=False, limits=Limits(), dump_dir=None):
    """Decide f with one engine ("cdlsc", "naive" or "brute") under limits.

    Each engine reads the limits it has. "brute" enumerates traces up to
    limits.brute_bound only, so when it finds no witness it raises
    TraceBoundExceeded: a bounded miss is an abort, never "unsat". On more
    than MAX_BRUTE_ATOMS atoms it raises AtomLimitExceeded without
    enumerating. A clause dump directory applies to "cdlsc" only.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose one of {ENGINES}")
    if engine == "cdlsc":
        return check(f, raw_tnf=raw_tnf, limits=limits, dump_dir=dump_dir)
    if dump_dir is not None:
        raise ValueError("clause dumps are written by the cdlsc engine only")
    if engine == "naive":
        tnf = normalise(f, raw_tnf)
        start = time.monotonic()
        result = naive_check(tnf, limits=limits)
        witness = result.witness_with_tail if raw_tnf else result.witness
        if result.sat:
            _verified(witness, f, raw_tnf)
        stats = Stats(result.states_expanded, result.sat_calls, 0, time.monotonic() - start,
                      live_clauses=result.live_clauses, table_states=result.table_states)
        return Verdict(result.sat, witness, None, stats)
    target = brute_target(f, raw_tnf)
    count = len(atoms(target))
    if count > MAX_BRUTE_ATOMS:
        raise AtomLimitExceeded(count, MAX_BRUTE_ATOMS)
    start = time.monotonic()
    witness = brute_force_sat(target, limits.brute_bound, timeout=limits.timeout)
    if witness is None:
        raise TraceBoundExceeded(limits.brute_bound)
    return Verdict(True, witness, None, Stats(elapsed=time.monotonic() - start))
