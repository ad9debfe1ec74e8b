"""Incremental CDCL engine: clause learning, assumptions, failed-assumption
extraction.

This is the only module that touches propositional solving. Clauses persist
across solve calls; retractable contexts are built on top by callers using
activation literals plus assumptions. A context that is no longer needed is
retired with `release(act)`: its activation becomes false at the root and the
next solve drops every clause that root facts satisfy, the context's own and
learned ones alike, so spent contexts stop costing propagation time. The
failed-assumption set returned on unsatisfiable queries is itself
unsatisfiable together with the clause database when asserted as units.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

_VAR_DECAY = 1.0 / 0.95
_RESCALE_AT = 1e100
_INITIAL_CAPACITY = 8  # variables the value array holds before it first doubles


@dataclass(frozen=True)
class SolveResult:
    sat: bool
    model: dict | None
    failed: frozenset | None


class SatSolver:
    def __init__(self):
        self.nvars = 0
        # value of every literal, indexed by the literal itself: vals[v] at
        # the front, vals[-v] at the back by Python's negative indexing
        self.vals = [None] * (2 * _INITIAL_CAPACITY)
        self.level = [0]
        self.reason = [None]
        self.phase = [False]  # saved phases; a fresh variable is tried false first
        self.activity = [0.0]
        self.watches = {}
        self.clauses = []
        self._attached = []  # every watched clause, learned ones included
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.root_unsat = False
        self.var_inc = 1.0
        self.total_conflicts = 0
        self._heap = []  # (-activity, var) entries, stale ones included
        # per variable: whether the heap holds an entry at its current activity
        self._heaped = [False]
        self._simplify_pending = False
        self._simplified = 0  # root trail length at the last simplification

    # ------------------------------------------------------------------
    # variables and clauses

    def new_var(self):
        self.nvars += 1
        capacity = len(self.vals) // 2
        if self.nvars >= capacity:
            # doubling in the middle keeps each negative literal at -v
            self.vals[capacity:capacity] = [None] * (2 * capacity)
        self.level.append(0)
        self.reason.append(None)
        self.phase.append(False)
        self.activity.append(0.0)
        self._heaped.append(True)
        heapq.heappush(self._heap, (0.0, self.nvars))
        return self.nvars

    def add_clause(self, lits):
        """Add a clause over existing variables; duplicates are harmless.

        Tautologies and clauses a root fact already satisfies are not kept.
        """
        if self.trail_lim:
            raise AssertionError("clauses may only be added between solves")
        lits = dict.fromkeys(lits)
        vals = self.vals
        nvars = self.nvars
        satisfied = False
        falsified = False
        for lit in lits:
            if abs(lit) > nvars or lit == 0:
                raise ValueError(f"unknown literal {lit}")
            v = vals[lit]
            if v is None:
                if -lit in lits:
                    satisfied = True
            elif v:
                satisfied = True
            else:
                falsified = True
        if satisfied:
            return
        simp = list(lits)
        self.clauses.append(tuple(simp))
        if self.root_unsat:
            return
        if falsified:
            simp = [l for l in simp if vals[l] is not False]
        if not simp:
            self.root_unsat = True
            return
        if len(simp) == 1:
            if not self._enqueue(simp[0], None):
                self.root_unsat = True
            return
        self._attach(simp)

    def add_definition(self, d, left, right, is_and):
        """Define a fresh variable d as the conjunction (or the disjunction)
        of two literals over older variables, by the three Tseitin clauses,
        as three `add_clause` calls would.

        Between solves, with the three variables distinct and unassigned,
        no clause is a tautology, satisfied or shortened, so the clauses
        are attached directly; in every other case they go through
        `add_clause`. Encoding state members attaches most clauses here:
        on the cdlsc-mix benchmark (2-core VM, 10 alternating pairs), three
        `add_clause` calls instead read latency p50 1.76 ms against 1.41.
        """
        vals = self.vals
        x = abs(left)
        y = abs(right)
        if (self.trail_lim or self.root_unsat or not 0 < x < d or not 0 < y < d
                or x == y or d > self.nvars or vals[d] is not None
                or vals[left] is not None or vals[right] is not None):
            if is_and:
                self.add_clause([-d, left])
                self.add_clause([-d, right])
                self.add_clause([d, -left, -right])
            else:
                self.add_clause([-d, left, right])
                self.add_clause([d, -left])
                self.add_clause([d, -right])
            return
        if is_and:
            first = [-d, left]
            second = [-d, right]
            third = [d, -left, -right]
        else:
            first = [-d, left, right]
            second = [d, -left]
            third = [d, -right]
        self.clauses += (tuple(first), tuple(second), tuple(third))
        self._attached += (first, second, third)
        watches = self.watches
        for c in (first, second, third):
            watches.setdefault(c[0], []).append(c)
            watches.setdefault(c[1], []).append(c)

    def release(self, act):
        """Retire an activation literal for good: assert -act at the root.

        Clauses the root facts satisfy, the context's blocking clauses among
        them, are dropped at the start of the next solve. `act` must not be
        assumed again.
        """
        self.add_clause([-act])
        self._simplify_pending = True

    def _simplify(self):
        """Drop every clause holding a root fact found since the last
        simplification, from the watch lists and from `clauses`; called at
        the root with propagation complete."""
        self._simplify_pending = False
        root = set(self.trail[self._simplified:])
        self._simplified = len(self.trail)
        self.clauses = [c for c in self.clauses if root.isdisjoint(c)]
        kept = []
        touched = set()
        for c in self._attached:
            if root.isdisjoint(c):
                kept.append(c)
            else:
                touched.update(c[:2])
        self._attached = kept
        # a watched clause sits in the lists of its first two literals
        for lit in touched:
            ws = [c for c in self.watches[lit] if root.isdisjoint(c)]
            if ws:
                self.watches[lit] = ws
            else:
                del self.watches[lit]

    def _attach(self, clause):
        self.watches.setdefault(clause[0], []).append(clause)
        self.watches.setdefault(clause[1], []).append(clause)
        self._attached.append(clause)

    # ------------------------------------------------------------------
    # trail

    def decision_level(self):
        return len(self.trail_lim)

    def _enqueue(self, lit, reason):
        vals = self.vals
        v = vals[lit]
        if v is not None:
            return v
        vals[lit] = True
        vals[-lit] = False
        var = abs(lit)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _cancel_until(self, lvl):
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        trail = self.trail
        vals = self.vals
        phase = self.phase
        reason = self.reason
        activity = self.activity
        heap = self._heap
        heaped = self._heaped
        for i in range(len(trail) - 1, bound - 1, -1):
            lit = trail[i]
            var = abs(lit)
            phase[var] = lit > 0
            vals[lit] = vals[-lit] = None
            reason[var] = None
            if not heaped[var]:
                heaped[var] = True
                heapq.heappush(heap, (-activity[var], var))
        del trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)
        if len(heap) > 2 * self.nvars:
            self._rebuild_heap()

    def _rebuild_heap(self):
        """One entry per unassigned variable, at its current activity."""
        vals = self.vals
        activity = self.activity
        heap = [(-activity[v], v) for v in range(1, self.nvars + 1) if vals[v] is None]
        heapq.heapify(heap)
        self._heap = heap
        self._heaped = [vals[v] is None for v in range(self.nvars + 1)]

    # ------------------------------------------------------------------
    # propagation and conflict analysis

    def _propagate(self):
        trail = self.trail
        watches = self.watches
        vals = self.vals
        level = self.level
        reason = self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            falsified = -p
            ws = watches.get(falsified)
            if not ws:
                continue
            new_ws = []
            rest = iter(ws)
            for c in rest:
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                v0 = vals[first]
                if v0 is True:
                    new_ws.append(c)
                    continue
                for k in range(2, len(c)):
                    if vals[c[k]] is not False:
                        c[1], c[k] = c[k], c[1]
                        watches.setdefault(c[1], []).append(c)
                        break
                else:
                    new_ws.append(c)
                    if v0 is False:
                        new_ws.extend(rest)
                        watches[falsified] = new_ws
                        self.qhead = qhead
                        return c
                    vals[first] = True
                    vals[-first] = False
                    var = abs(first)
                    level[var] = lvl
                    reason[var] = c
                    trail.append(first)
            watches[falsified] = new_ws
        self.qhead = qhead
        return None

    def _bump(self, var):
        act = self.activity[var] + self.var_inc
        self.activity[var] = act
        if act > _RESCALE_AT:
            scale = 1.0 / _RESCALE_AT
            for v in range(1, self.nvars + 1):
                self.activity[v] *= scale
            self.var_inc *= scale
            self._rebuild_heap()
        elif self.vals[var] is None:
            heapq.heappush(self._heap, (-act, var))
        else:
            self._heaped[var] = False  # its entry, if any, is below the new activity

    def _analyze(self, confl):
        learnt = [0]
        seen = set()
        counter = 0
        p = 0
        idx = len(self.trail) - 1
        cur = self.decision_level()
        c = confl
        while True:
            for q in c:
                if q == p:
                    continue
                v = abs(q)
                if v in seen or self.level[v] == 0:
                    continue
                seen.add(v)
                self._bump(v)
                if self.level[v] >= cur:
                    counter += 1
                else:
                    learnt.append(q)
            while abs(self.trail[idx]) not in seen:
                idx -= 1
            p = self.trail[idx]
            v = abs(p)
            idx -= 1
            seen.discard(v)
            counter -= 1
            if counter == 0:
                break
            c = self.reason[v]
        learnt[0] = -p
        if len(learnt) == 1:
            bt = 0
        else:
            mi = max(range(1, len(learnt)), key=lambda j: self.level[abs(learnt[j])])
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
            bt = self.level[abs(learnt[1])]
        self.var_inc *= _VAR_DECAY
        return learnt, bt

    def _analyze_final(self, p):
        """Assumptions whose placement forced p false; includes p itself."""
        failed = {p}
        if not self.trail_lim:
            return frozenset(failed)
        seen = {abs(p)}
        for i in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[i]
            var = abs(lit)
            if var not in seen:
                continue
            seen.discard(var)
            r = self.reason[var]
            if r is None:
                failed.add(lit)
            else:
                for q in r:
                    u = abs(q)
                    if u != var and self.level[u] > 0:
                        seen.add(u)
        return frozenset(failed)

    def _pick_branch(self):
        heap = self._heap
        heaped = self._heaped
        vals = self.vals
        while heap:
            _, var = heapq.heappop(heap)
            heaped[var] = False
            if vals[var] is None:
                return var
        return None

    # ------------------------------------------------------------------
    # main search

    def solve(self, assumptions=()):
        """Solve under the given assumption literals.

        Returns SAT with a total model over all variables, or UNSAT with the
        failed subset of the assumptions.
        """
        assumptions = list(assumptions)
        for p in assumptions:
            if abs(p) > self.nvars or p == 0:
                raise ValueError(f"unknown literal {p}")
        if self.root_unsat:
            return SolveResult(False, None, frozenset())
        self._cancel_until(0)
        if self._propagate() is not None:
            self.root_unsat = True
            return SolveResult(False, None, frozenset())
        if self._simplify_pending:
            self._simplify()
        conflicts_here = 0
        restart_limit = 100
        while True:
            confl = self._propagate()
            if confl is not None:
                self.total_conflicts += 1
                conflicts_here += 1
                if self.decision_level() == 0:
                    self.root_unsat = True
                    return SolveResult(False, None, frozenset())
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    clause = list(learnt)
                    self._attach(clause)
                    self._enqueue(clause[0], clause)
                if conflicts_here >= restart_limit:
                    conflicts_here = 0
                    restart_limit = int(restart_limit * 1.5)
                    self._cancel_until(0)
                continue
            lvl = self.decision_level()
            if lvl < len(assumptions):
                p = assumptions[lvl]
                v = self.vals[p]
                if v is False:
                    failed = self._analyze_final(p)
                    self._cancel_until(0)
                    return SolveResult(False, None, failed)
                self.trail_lim.append(len(self.trail))
                if v is None:
                    self._enqueue(p, None)
                continue
            var = self._pick_branch()
            if var is None:
                n = self.nvars
                model = dict(zip(range(1, n + 1), self.vals[1:n + 1]))
                self._cancel_until(0)
                return SolveResult(True, model, None)
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.phase[var] else -var, None)
