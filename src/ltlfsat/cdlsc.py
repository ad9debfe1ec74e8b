"""Conflict-driven satisfiability search over the obligation transition
system.

The checker grows a sequence of frames, one per step budget. Frame i holds
member cores certifying that any state containing them cannot end a trace
within i steps. Successor search avoids the current frame; when it runs out
of candidates, the step query's core seeds the next frame. Unsatisfiability
is detected when the accumulated frames propositionally force the next one,
so no state escapes them.

`ConflictSequence` holds the frames and runs that fixpoint test
incrementally, on one persistent solver per run; `inv_found` is the
from-scratch reference it agrees with. `Stats` counts the fixpoint test's
solves separately from the successor search's SAT calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .abstraction import Encoder
from .errors import (
    AtomLimitExceeded,
    Deadline,
    FrameLimitExceeded,
    Limits,
    SatCallLimitExceeded,
    TraceBoundExceeded,
)
from .formula import TAIL, FiniteTrace, atoms, closure, is_tnf, to_nnf, to_tnf
from .satengine import SatSolver
from .semantics import MAX_BRUTE_ATOMS, brute_force_sat, evaluate
from .transition import assemble_trace, naive_check, state_of, successor_state

ENGINES = ("cdlsc", "naive", "brute")


@dataclass
class Stats:
    states_expanded: int = 0
    sat_calls: int = 0
    frames: int = 0
    elapsed: float = 0.0
    fixpoint_solves: int = 0
    live_clauses: int = 0  # search solver's clause database size at the end


@dataclass
class Verdict:
    """Outcome of a decided run.

    `frames` are the conflict-driven checker's frames when the verdict was
    reached; `spine` is the state path of a witness found by its successor
    search. Both stay empty for the other engines.
    """

    sat: bool
    witness: FiniteTrace | None
    invariant_level: int | None
    stats: Stats
    frames: tuple = ()
    spine: tuple | None = None


class WitnessError(AssertionError):
    """A produced witness failed semantic verification; internal bug."""


class ConflictSequence:
    """Frames of member cores plus the run's incremental fixpoint test.

    Each frame is an insertion-ordered dict from its cores to their
    fixpoint selectors. In the search encoder a frame's cores block
    successors under the frame's activation literal, so a new core takes
    effect on the very next query.

    The fixpoint test (`fixpoint_level`, the incremental `inv_found`) runs
    on a solver of its own, with a variable per member formula and a
    selector per distinct core, selector -> member for each member of the
    core. Frame j contributes:

    - "no core of frame j holds": a clause per core under the fixed
      activation `_neg[j]`; these only accumulate;
    - "some core of frame j holds": one clause over the selectors of all its
      cores under the activation `_pos[j]`. When the frame gains a core the
      old activation is retired by a root unit and the clause is re-added
      under a fresh one.

    Level i is tested under the assumptions `_pos[0..i]` and `_neg[i+1]`. A
    new core in frames 0..i weakens the antecedent and one in frame i+1
    strengthens the consequent, so a refuted level stays refuted until frame
    i+1 gains a core. An empty antecedent frame rules out every level from
    it on and an empty consequent skips its level, exactly as in
    `inv_found`.
    """

    def __init__(self, encoder):
        self._encoder = encoder
        self.frames = []
        self._acts = []       # per frame: search-side activation
        self._solver = SatSolver()
        self._members = {}
        self._selectors = {}
        self._pos = []        # per frame: current "some core holds" activation
        self._neg = []        # per frame up to the last given a core: "no core holds" activation
        self._refuted = []    # per level: consequent size when last refuted, or -1
        self.fixpoint_solves = 0

    def __len__(self):
        return len(self.frames)

    def ensure(self, i):
        while len(self.frames) <= i:
            self.frames.append({})
            self._acts.append(self._encoder.new_activation())
            self._pos.append(None)
            self._refuted.append(-1)

    def act(self, i):
        self.ensure(i)
        return self._acts[i]

    def _member(self, psi):
        v = self._members.get(psi)
        if v is None:
            v = self._members[psi] = self._solver.new_var()
        return v

    def add_core(self, j, core):
        """Add a core to frame j unless it holds it already: block it in the
        search and add its fixpoint clauses."""
        assert core, "frames only hold nonempty cores"
        self.ensure(j)
        frame = self.frames[j]
        if core in frame:
            return
        self._encoder.block_core(self._acts[j], core)
        solver = self._solver
        while len(self._neg) <= j:
            self._neg.append(solver.new_var())
        members = [self._member(psi) for psi in sorted(core, key=lambda g: g.uid)]
        d = self._selectors.get(core)
        if d is None:
            d = self._selectors[core] = solver.new_var()
            for m in members:
                solver.add_clause([-d, m])
        solver.add_clause([-self._neg[j]] + [-m for m in members])
        frame[core] = d
        if self._pos[j] is not None:
            solver.add_clause([-self._pos[j]])
        self._pos[j] = solver.new_var()
        solver.add_clause([-self._pos[j]] + list(frame.values()))

    def fixpoint_level(self, before_solve=None):
        """Smallest level at which the frames are a fixpoint, or None; the
        same answer as `inv_found(self.frames)`.

        `before_solve` is called before each solver call, so a deadline can
        interrupt the test.
        """
        assumptions = []
        for i in range(len(self.frames) - 1):
            if self._pos[i] is None:
                return None
            assumptions.append(self._pos[i])
            size = len(self.frames[i + 1])
            if size == 0 or self._refuted[i] == size:
                continue
            if before_solve is not None:
                before_solve()
            self.fixpoint_solves += 1
            if self._solver.solve(assumptions + [self._neg[i + 1]]).sat:
                self._refuted[i] = size
            else:
                return i
        return None

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
        v = member_vars.get(psi)
        if v is None:
            v = solver.new_var()
            member_vars[psi] = v
        return v

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
    against the original formula; failure indicates an internal bug.
    """
    trace = assemble_trace(labels, final_assignment, atoms(original))
    if not keep_tail:
        trace = trace.without_atom(TAIL)
    return _verified(trace, original)


def _verified(trace, f):
    """The witness trace, once checked against f's semantics."""
    if not evaluate(trace, f):
        raise WitnessError(
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


class _Run:
    def __init__(self, original, *, raw_tnf, max_frames, max_sat_calls, timeout,
                 dump_dir, iteration_hook):
        self.original = original
        self.raw = raw_tnf
        self.tnf = normalise(original, raw_tnf)
        self.encoder = Encoder(dump_dir=dump_dir)
        self.s0 = state_of(self.tnf)
        if max_frames is None:
            max_frames = 1 << len(closure(self.tnf))
        self.max_frames = max_frames
        self.max_sat_calls = max_sat_calls
        self.deadline = Deadline(timeout)
        self.iteration_hook = iteration_hook
        self.seen = {self.s0}
        self.sequence = ConflictSequence(self.encoder)
        self.spine = None

    def _tick(self):
        self.deadline.check()
        if self.max_sat_calls is not None and self.encoder.sat_calls >= self.max_sat_calls:
            raise SatCallLimitExceeded(self.max_sat_calls)

    def _note(self, state):
        self.seen.add(state)

    def check(self):
        start = time.monotonic()
        out = self.encoder.query(self.s0, final=True)
        if out.sat:
            return self._sat_verdict([], out.assignment, start)
        self.sequence.add_core(0, out.core)
        frame_level = 0
        while True:
            if len(self.sequence) > self.max_frames:
                raise FrameLimitExceeded(self.max_frames)
            found = self._try_satisfy(frame_level)
            if found is not None:
                labels, final_assignment = found
                return self._sat_verdict(labels, final_assignment, start)
            if self.iteration_hook is not None:
                self.iteration_hook(frame_level, self.sequence.snapshot())
            level = self.sequence.fixpoint_level(self._tick)
            if level is not None:
                return self._unsat_verdict(level, start)
            frame_level += 1
            self.sequence.ensure(frame_level)

    def _try_satisfy(self, frame_level):
        """Depth-first successor search honouring the frames.

        Returns (edge labels, final assignment) on success; on failure every
        explored state has contributed a core one frame up.
        """
        stack = [(self.s0, frame_level)]
        labels = []
        spine = [self.s0]
        while stack:
            state, level = stack[-1]
            self._tick()
            out = self.encoder.query(state, acts=(self.sequence.act(level),))
            if not out.sat:
                self.sequence.add_core(level + 1, out.core)
                stack.pop()
                if labels:
                    labels.pop()
                    spine.pop()
                continue
            succ = successor_state(out.assignment.next_bodies)
            self._note(succ)
            if level == 0:
                fout = self.encoder.query(succ, final=True)
                if fout.sat:
                    self.spine = tuple(spine + [succ])
                    return labels + [out.assignment], fout.assignment
                self.sequence.add_core(0, fout.core)
                continue
            labels.append(out.assignment)
            spine.append(succ)
            stack.append((succ, level - 1))
        return None

    def _stats(self, start):
        return Stats(
            states_expanded=len(self.seen),
            sat_calls=self.encoder.sat_calls,
            frames=len(self.sequence),
            elapsed=time.monotonic() - start,
            fixpoint_solves=self.sequence.fixpoint_solves,
            live_clauses=len(self.encoder.solver.clauses),
        )

    def _sat_verdict(self, labels, final_assignment, start):
        target = self.tnf if self.raw else self.original
        witness = reconstruct_witness(
            labels, final_assignment, target, keep_tail=self.raw
        )
        return Verdict(True, witness, None, self._stats(start),
                       self.sequence.snapshot(), self.spine)

    def _unsat_verdict(self, level, start):
        return Verdict(False, None, level, self._stats(start), self.sequence.snapshot())


def check(f, *, raw_tnf=False, max_frames=None, max_sat_calls=None, timeout=None,
          dump_dir=None, iteration_hook=None):
    """Decide satisfiability of f with the conflict-driven checker.

    Unless raw_tnf is set, f is normalized internally and witnesses are
    reported over its own atoms; with raw_tnf the input is taken as already
    tail-marked and witnesses keep the Tail atom. Resource limits raise
    instead of returning a verdict.
    """
    run = _Run(
        f,
        raw_tnf=raw_tnf,
        max_frames=max_frames,
        max_sat_calls=max_sat_calls,
        timeout=timeout,
        dump_dir=dump_dir,
        iteration_hook=iteration_hook,
    )
    return run.check()


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
        return check(f, raw_tnf=raw_tnf, max_frames=limits.max_frames,
                     timeout=limits.timeout, dump_dir=dump_dir)
    if dump_dir is not None:
        raise ValueError("clause dumps are written by the cdlsc engine only")
    if engine == "naive":
        tnf = normalise(f, raw_tnf)
        start = time.monotonic()
        result = naive_check(tnf, state_limit=limits.state_limit, timeout=limits.timeout)
        witness = result.witness_with_tail if raw_tnf else result.witness
        if result.sat:
            _verified(witness, f)
        stats = Stats(result.states_expanded, result.sat_calls, 0, time.monotonic() - start,
                      live_clauses=result.live_clauses)
        return Verdict(result.sat, witness, None, stats)
    count = len(atoms(f))
    if count > MAX_BRUTE_ATOMS:
        raise AtomLimitExceeded(count, MAX_BRUTE_ATOMS)
    start = time.monotonic()
    witness = brute_force_sat(f, limits.brute_bound, timeout=limits.timeout)
    if witness is None:
        raise TraceBoundExceeded(limits.brute_bound)
    return Verdict(True, witness, None, Stats(elapsed=time.monotonic() - start))
