"""Propositional view of obligation states and the incremental SAT encoding.

A state (set of formulas, read conjunctively) is queried by giving each
member a dedicated assumption variable and encoding its expanded form once,
structurally, into the shared clause database. Unsatisfiable queries come
back with a core: the subset of members whose assumption variables the
engine reports as failed. Contexts are retracted with activation literals:
the final-position context asserts the Tail atom, step contexts carry
blocking clauses over next-step atoms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .formula import (
    TAIL,
    And,
    Atom,
    FalseConst,
    Next,
    Not,
    Or,
    Release,
    TrueConst,
    Until,
    WeakNext,
    conjuncts,
)
from .satengine import SatSolver


def propositional_atoms(f):
    """Atoms of the propositional reading of f.

    Temporal nodes (next/until/release and weak-next) count as indivisible
    atoms; negation and the boolean connectives are looked through.
    """
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (TrueConst, FalseConst)):
            continue
        if isinstance(g, (Atom, Next, Until, Release, WeakNext)):
            out.add(g)
        elif isinstance(g, Not):
            stack.append(g.operand)
        else:
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


_XNF_CACHE = {}


def xnf(f):
    """Expand until/release one step so only literals and next-atoms remain
    in the propositional reading. The result is equivalent to f.
    """
    got = _XNF_CACHE.get(f)
    if got is not None:
        return got
    if isinstance(f, (TrueConst, FalseConst, Atom, Next)):
        out = f
    elif isinstance(f, Not):
        if not isinstance(f.operand, Atom):
            raise ValueError(f"negation above a non-atom; not in NNF: {f!r}")
        out = f
    elif isinstance(f, WeakNext):
        raise ValueError(f"weak-next in input; expected a TNF formula: {f!r}")
    elif isinstance(f, And):
        out = And(xnf(f.left), xnf(f.right))
    elif isinstance(f, Or):
        out = Or(xnf(f.left), xnf(f.right))
    elif isinstance(f, Until):
        out = Or(xnf(f.right), And(xnf(f.left), Next(f)))
    elif isinstance(f, Release):
        out = And(xnf(f.right), Or(xnf(f.left), Next(f)))
    else:
        raise TypeError(f"not a formula: {f!r}")
    _XNF_CACHE[f] = out
    return out


@dataclass(frozen=True)
class Assignment:
    """A solver model restricted to the atoms relevant to one query.

    `literals` carries the signed input atoms: the transition label.
    `next_bodies` carries the bodies of the positively assigned next-atoms:
    the successor state's members.
    """

    literals: frozenset
    next_bodies: frozenset

    def true_atoms(self):
        return frozenset(name for name, value in self.literals if value)

    def value(self, name):
        return dict(self.literals).get(name)


@dataclass(frozen=True)
class QueryOutcome:
    assignment: Assignment | None
    core: frozenset | None

    @property
    def sat(self):
        return self.assignment is not None


class Encoder:
    """Formula-to-variable tables plus the persistent solver for one checker.

    Single-owner: one encoder per checker instance; independent encoders may
    run in parallel.
    """

    def __init__(self, *, dump_dir=None):
        self.solver = SatSolver()
        self.sat_calls = 0
        self._atom_vars = {}
        self._def_vars = {}
        self._members = {}
        self._dump_dir = dump_dir
        self._dump_count = 0
        if dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
        self._true = self.solver.new_var()
        self.solver.add_clause([self._true])
        self._tail_var = self.atom_var(Atom(TAIL))
        self.final_activation = self.solver.new_var()
        self.solver.add_clause([-self.final_activation, self._tail_var])

    def atom_var(self, pa):
        v = self._atom_vars.get(pa)
        if v is None:
            v = self.solver.new_var()
            self._atom_vars[pa] = v
        return v

    def _lit(self, g):
        """Literal equisatisfiable with g under positive polarity."""
        if isinstance(g, TrueConst):
            return self._true
        if isinstance(g, FalseConst):
            return -self._true
        if isinstance(g, Atom):
            return self.atom_var(g)
        if isinstance(g, Not):
            if not isinstance(g.operand, Atom):
                raise ValueError(f"negation above a non-atom reached the encoder: {g!r}")
            return -self.atom_var(g.operand)
        if isinstance(g, Next):
            return self.atom_var(g)
        if isinstance(g, (And, Or)):
            d = self._def_vars.get(g)
            if d is None:
                left = self._lit(g.left)
                right = self._lit(g.right)
                d = self.solver.new_var()
                self._def_vars[g] = d
                # full definitional equivalence, so definition variables track
                # their structure and never force don't-care atoms
                if isinstance(g, And):
                    self.solver.add_clause([-d, left])
                    self.solver.add_clause([-d, right])
                    self.solver.add_clause([d, -left, -right])
                else:
                    self.solver.add_clause([-d, left, right])
                    self.solver.add_clause([d, -left])
                    self.solver.add_clause([d, -right])
            return d
        raise ValueError(f"unexpanded temporal node reached the encoder: {g!r}")

    def member(self, psi):
        """Assumption variable and relevant-atom sets for one state member."""
        entry = self._members.get(psi)
        if entry is None:
            expanded = xnf(psi)
            lit = self._lit(expanded)
            p = self.solver.new_var()
            self.solver.add_clause([-p, lit])
            pa = propositional_atoms(expanded)
            assert not any(isinstance(a, (Until, Release, WeakNext)) for a in pa)
            lits = frozenset(a for a in pa if isinstance(a, Atom))
            nexts = frozenset(a for a in pa if isinstance(a, Next))
            entry = (p, lits, nexts)
            self._members[psi] = entry
        return entry

    def relevant_atoms(self, state):
        """Literal atoms and next-atoms of the expanded state conjunction."""
        lits = set()
        nexts = set()
        for psi in state:
            _, member_lits, member_nexts = self.member(psi)
            lits |= member_lits
            nexts |= member_nexts
        return frozenset(lits), frozenset(nexts)

    def new_activation(self):
        return self.solver.new_var()

    def block_core(self, act, core):
        """Forbid successors that contain every member of the core."""
        clause = [-act]
        clause.extend(-self.atom_var(Next(psi)) for psi in sorted(core, key=lambda g: g.uid))
        self.solver.add_clause(clause)

    def block_next_projection(self, act, next_atoms, bodies):
        """Forbid assignments with exactly these next-atom bodies."""
        clause = [-act]
        for n in sorted(next_atoms, key=lambda g: g.uid):
            v = self.atom_var(n)
            clause.append(-v if n.operand in bodies else v)
        self.solver.add_clause(clause)

    def block_assignment(self, act, assignment, lit_atoms, next_atoms):
        """Forbid this exact assignment over the relevant atoms."""
        values = dict(assignment.literals)
        clause = [-act]
        for a in sorted(lit_atoms, key=lambda g: g.uid):
            v = self.atom_var(a)
            clause.append(-v if values[a.name] else v)
        for n in sorted(next_atoms, key=lambda g: g.uid):
            v = self.atom_var(n)
            clause.append(-v if n.operand in assignment.next_bodies else v)
        self.solver.add_clause(clause)

    def query(self, state, *, final=False, acts=(), _recheck=False):
        """Solve the state conjunction in the given context.

        Satisfiable queries return the assignment restricted to the state's
        relevant atoms (plus Tail for final-position queries); unsatisfiable
        ones return the member core, re-checked in isolation.
        """
        members = sorted(state, key=lambda g: g.uid)
        entries = [self.member(psi) for psi in members]
        assumptions = [p for p, _, _ in entries]
        assumptions.extend(acts)
        if final:
            assumptions.append(self.final_activation)
        if self._dump_dir is not None and not _recheck:
            self._dump(assumptions)
        if not _recheck:
            self.sat_calls += 1
        res = self.solver.solve(assumptions)
        if res.sat:
            rel_lits = set()
            rel_nexts = set()
            for _, member_lits, member_nexts in entries:
                rel_lits |= member_lits
                rel_nexts |= member_nexts
            if final:
                rel_lits.add(Atom(TAIL))
            literals = frozenset(
                (a.name, res.model[self.atom_var(a)]) for a in rel_lits
            )
            bodies = frozenset(
                n.operand for n in rel_nexts if res.model[self.atom_var(n)]
            )
            return QueryOutcome(Assignment(literals, bodies), None)
        failed = res.failed
        core = frozenset(
            psi for psi, (p, _, _) in zip(members, entries) if p in failed
        )
        # an empty core is legitimate: the context alone (e.g. exhausted
        # enumeration blockers) is already contradictory
        if not _recheck and core != state:
            again = self.query(core, final=final, acts=acts, _recheck=True)
            assert not again.sat, "unsat core is satisfiable when re-queried alone"
        return QueryOutcome(None, core)

    def _dump(self, assumptions):
        """One query per file, standard competition clause-list format."""
        self._dump_count += 1
        path = os.path.join(self._dump_dir, f"query{self._dump_count:05d}.cnf")
        # root facts as units: clauses they satisfy may have been dropped
        clauses = self.solver.clauses + [(lit,) for lit in self.solver.trail]
        lines = [
            f"c query {self._dump_count}; assumptions appended as unit clauses",
            f"p cnf {self.solver.nvars} {len(clauses) + len(assumptions)}",
        ]
        lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
        lines.extend(f"{a} 0" for a in assumptions)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def enumerate_assignments(target, *, encoder=None):
    """Yield every assignment of the expanded target over its relevant atoms.

    Each found assignment is blocked by its full projection before the next
    solve, so the enumeration is exhaustive and free of duplicates; the
    order is engine-dependent. The blocking clauses are released once the
    enumeration is exhausted.
    """
    enc = encoder if encoder is not None else Encoder()
    state = target if isinstance(target, frozenset) else frozenset(conjuncts(target))
    lit_atoms, next_atoms = enc.relevant_atoms(state)
    act = enc.new_activation()
    while True:
        out = enc.query(state, acts=(act,))
        if not out.sat:
            enc.solver.release(act)
            return
        yield out.assignment
        enc.block_assignment(act, out.assignment, lit_atoms, next_atoms)
