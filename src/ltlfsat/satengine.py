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


@dataclass(frozen=True)
class SolveResult:
    sat: bool
    model: dict | None
    failed: frozenset | None


class SatSolver:
    def __init__(self):
        self.nvars = 0
        self.assigns = [None]
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
        self._heap = []
        self._simplify_pending = False
        self._simplified = 0  # root trail length at the last simplification

    # ------------------------------------------------------------------
    # variables and clauses

    def new_var(self):
        self.nvars += 1
        self.assigns.append(None)
        self.level.append(0)
        self.reason.append(None)
        self.phase.append(False)
        self.activity.append(0.0)
        heapq.heappush(self._heap, (0.0, self.nvars))
        return self.nvars

    def value(self, lit):
        v = self.assigns[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def add_clause(self, lits):
        """Add a clause over existing variables; duplicates are harmless.

        Tautologies and clauses a root fact already satisfies are not kept.
        """
        assert not self.trail_lim, "clauses may only be added between solves"
        lits = list(dict.fromkeys(lits))
        for lit in lits:
            if abs(lit) > self.nvars or lit == 0:
                raise ValueError(f"unknown literal {lit}")
        if any(-l in lits or self.value(l) is True for l in lits):
            return
        self.clauses.append(tuple(lits))
        if self.root_unsat:
            return
        simp = [l for l in lits if self.value(l) is not False]
        if not simp:
            self.root_unsat = True
            return
        if len(simp) == 1:
            if not self._enqueue(simp[0], None):
                self.root_unsat = True
            return
        self._attach(simp)

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
        v = self.value(lit)
        if v is not None:
            return v
        var = abs(lit)
        self.assigns[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _cancel_until(self, lvl):
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[i]
            var = abs(lit)
            self.phase[var] = lit > 0
            self.assigns[var] = None
            self.reason[var] = None
            heapq.heappush(self._heap, (-self.activity[var], var))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    # ------------------------------------------------------------------
    # propagation and conflict analysis

    def _propagate(self):
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            falsified = -p
            ws = self.watches.get(falsified)
            if not ws:
                continue
            new_ws = []
            i = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                v0 = self.value(first)
                if v0 is True:
                    new_ws.append(c)
                    continue
                moved = False
                for k in range(2, len(c)):
                    if self.value(c[k]) is not False:
                        c[1], c[k] = c[k], c[1]
                        self.watches.setdefault(c[1], []).append(c)
                        moved = True
                        break
                if moved:
                    continue
                new_ws.append(c)
                if v0 is False:
                    new_ws.extend(ws[i:])
                    self.watches[falsified] = new_ws
                    return c
                self._enqueue(first, c)
            self.watches[falsified] = new_ws
        return None

    def _bump(self, var):
        act = self.activity[var] + self.var_inc
        self.activity[var] = act
        if act > _RESCALE_AT:
            for v in range(1, self.nvars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            act = self.activity[var]
        if self.assigns[var] is None:
            heapq.heappush(self._heap, (-act, var))

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
        while heap:
            negact, var = heapq.heappop(heap)
            if self.assigns[var] is None:
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
                v = self.value(p)
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
                model = {v: self.assigns[v] for v in range(1, self.nvars + 1)}
                self._cancel_until(0)
                return SolveResult(True, model, None)
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.phase[var] else -var, None)
