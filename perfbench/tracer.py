"""Per-layer spans recorded from outside the package.

The tracer wraps public functions of ``formula``, ``abstraction``,
``satengine``, ``transition``, ``cdlsc`` and ``semantics``, patching each
name in the module that looks it up at call time, and restores the
originals on exit. A span is ``(name, start, end, parent, instance, info)``:
``parent`` is the index of the enclosing span or -1, ``instance`` the corpus
position being decided, and ``info`` a small outcome record (for example
whether a solve was satisfiable). Spans stay in memory until the pass ends.

A layer's self time is its span's duration minus the durations of its
direct children; spans nest strictly because the program is
single-threaded, so the self times of one instance add up to the time its
top-level spans cover.

Clause and conflict counts are read from solver state around each solve
instead of wrapping ``SatSolver.add_clause``, which is called too often to
wrap cheaply.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import ltlfsat.abstraction as abstraction
import ltlfsat.cdlsc as cdlsc
import ltlfsat.formula as formula
import ltlfsat.satengine as satengine
import ltlfsat.semantics as semantics
import ltlfsat.transition as transition

# CPU time, like the untraced times it is compared with (see worker.py)
_clock = time.process_time

# Every per-layer metric of a traced pass, in report order, with its unit.
PER_LAYER = {
    "formula.parse_s": "s",
    "formula.normalise_s": "s",
    "abstraction.query_calls": "count",
    "abstraction.query_self_s": "s",
    "abstraction.member_s": "s",
    "abstraction.recheck_calls": "count",
    "abstraction.recheck_ratio": "ratio",
    "satengine.solve_calls": "count",
    "satengine.solve_s": "s",
    "satengine.solve_sat_ratio": "ratio",
    "satengine.conflicts": "count",
    "satengine.clauses_max": "count",
    "satengine.solvers_created": "count",
    "transition.naive_s": "s",
    "transition.build_full_s": "s",
    "transition.states": "count",
    "transition.sat_calls": "count",
    "cdlsc.check_s": "s",
    "cdlsc.search_self_s": "s",
    "cdlsc.inv_found_calls": "count",
    "cdlsc.inv_found_s": "s",
    "cdlsc.sat_calls": "count",
    "cdlsc.states_expanded": "count",
    "cdlsc.frames": "count",
    "cdlsc.witness_s": "s",
    "semantics.brute_s": "s",
    "semantics.evaluate_calls": "count",
    "semantics.evaluate_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.instance = -1
        self.solvers_created = 0
        self._stack = []

    def _wrap(self, name, fn, info=None, before=None):
        """Replacement for fn that records one span per call.

        ``name`` may be a function of the call's keyword arguments.
        ``info(result, args, state)`` summarises the outcome, where ``state``
        is what ``before(args)`` returned just before the call.
        """
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            state = None if before is None else before(args)
            result = None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                spans[index] = (name(kwargs) if callable(name) else name, start, end, parent,
                                self.instance,
                                None if info is None or result is None
                                else info(result, args, state))

        traced.__wrapped__ = fn
        return traced

    def _wrap_init(self, fn):
        def init(solver, *args, **kwargs):
            self.solvers_created += 1
            fn(solver, *args, **kwargs)

        init.__wrapped__ = fn
        return init

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        def query_name(kwargs):
            return "abstraction.recheck" if kwargs.get("_recheck") else "abstraction.query"

        def solve_info(res, args, conflicts):
            solver = args[0]
            return res.sat, solver.total_conflicts - conflicts, len(solver.clauses)

        def check_info(verdict, args, state):
            return verdict.stats.sat_calls, verdict.stats.states_expanded, verdict.stats.frames

        def naive_info(res, args, state):
            return res.states_expanded, res.sat_calls

        def full_info(ts, args, state):
            return ts.state_count, ts.sat_calls

        out = []
        for module in (formula, cdlsc):
            out.append((module, "to_nnf", self._wrap("formula.to_nnf", formula.to_nnf)))
            out.append((module, "to_tnf", self._wrap("formula.to_tnf", formula.to_tnf)))
        for module in (cdlsc, semantics):
            out.append((module, "evaluate", self._wrap("semantics.evaluate", semantics.evaluate)))
        out += [
            (formula, "parse", self._wrap("formula.parse", formula.parse)),
            (abstraction.Encoder, "query", self._wrap(query_name, abstraction.Encoder.query,
                                                      lambda res, args, state: res.sat)),
            (abstraction.Encoder, "member",
             self._wrap("abstraction.member", abstraction.Encoder.member)),
            (satengine.SatSolver, "solve",
             self._wrap("satengine.solve", satengine.SatSolver.solve, solve_info,
                        lambda args: args[0].total_conflicts)),
            (satengine.SatSolver, "__init__", self._wrap_init(satengine.SatSolver.__init__)),
            (cdlsc, "check", self._wrap("cdlsc.check", cdlsc.check, check_info)),
            (cdlsc, "inv_found", self._wrap("cdlsc.inv_found", cdlsc.inv_found)),
            (cdlsc, "reconstruct_witness",
             self._wrap("cdlsc.reconstruct_witness", cdlsc.reconstruct_witness)),
            (transition, "naive_check", self._wrap("transition.naive_check",
                                                   transition.naive_check, naive_info)),
            (transition, "build_full_system", self._wrap("transition.build_full_system",
                                                         transition.build_full_system, full_info)),
            (semantics, "brute_force_sat",
             self._wrap("semantics.brute_force_sat", semantics.brute_force_sat)),
        ]
        return out

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def self_times(spans):
    """Self time of every span, in span order."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, solvers_created):
    """Per-layer totals of one traced pass, keyed by metric name."""
    own = self_times(spans)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    m = defaultdict(int)
    unsat_queries = 0
    solve_sat = 0
    clauses_max = 0
    for (name, start, end, _, _, info), own_s in zip(spans, own):
        self_s[name] += own_s
        total_s[name] += end - start
        calls[name] += 1
        if info is None:
            continue
        if name == "abstraction.query":
            unsat_queries += not info
        elif name == "satengine.solve":
            sat, conflicts, clauses = info
            solve_sat += bool(sat)
            m["satengine.conflicts"] += conflicts
            clauses_max = max(clauses_max, clauses)
        elif name == "cdlsc.check":
            m["cdlsc.sat_calls"] += info[0]
            m["cdlsc.states_expanded"] += info[1]
            m["cdlsc.frames"] += info[2]
        elif name in ("transition.naive_check", "transition.build_full_system"):
            m["transition.states"] += info[0]
            m["transition.sat_calls"] += info[1]
    m.update({
        "formula.parse_s": self_s["formula.parse"],
        "formula.normalise_s": self_s["formula.to_nnf"] + self_s["formula.to_tnf"],
        "abstraction.query_calls": calls["abstraction.query"],
        "abstraction.query_self_s": self_s["abstraction.query"] + self_s["abstraction.recheck"],
        "abstraction.member_s": self_s["abstraction.member"],
        "abstraction.recheck_calls": calls["abstraction.recheck"],
        "abstraction.recheck_ratio": calls["abstraction.recheck"] / max(unsat_queries, 1),
        "satengine.solve_calls": calls["satengine.solve"],
        "satengine.solve_s": self_s["satengine.solve"],
        "satengine.solve_sat_ratio": solve_sat / max(calls["satengine.solve"], 1),
        "satengine.clauses_max": clauses_max,
        "satengine.solvers_created": solvers_created,
        "transition.naive_s": total_s["transition.naive_check"],
        "transition.build_full_s": total_s["transition.build_full_system"],
        "cdlsc.check_s": total_s["cdlsc.check"],
        "cdlsc.search_self_s": self_s["cdlsc.check"],
        "cdlsc.inv_found_calls": calls["cdlsc.inv_found"],
        "cdlsc.inv_found_s": total_s["cdlsc.inv_found"],
        "cdlsc.witness_s": total_s["cdlsc.reconstruct_witness"],
        "semantics.brute_s": total_s["semantics.brute_force_sat"],
        "semantics.evaluate_calls": calls["semantics.evaluate"],
        "semantics.evaluate_s": total_s["semantics.evaluate"],
    })
    split = {name: self_s[name] for name in sorted(self_s)}
    return {name: m[name] for name in PER_LAYER}, split
