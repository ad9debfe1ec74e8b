"""Propositional view of obligation states and the incremental SAT encoding.

A state (set of formulas, read conjunctively) is queried by giving each
member a dedicated assumption variable and encoding its expanded form once,
structurally, into the shared clause database. Unsatisfiable queries come
back with a core: the subset of members whose assumption variables the
engine reports as failed. Contexts are retracted with activation literals:
the final-position context asserts the Tail atom, step contexts carry
blocking clauses over next-step atoms.

Everything that depends on a member alone is computed once per process and
cached by the interned node: its expanded form (`xnf`) and its encoding
recipe, the distinct nodes of that form in the order a recursive Tseitin
encoding would first reach them. An encoder replays a member's recipe into
its own solver.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .formula import (
    FALSE,
    TAIL,
    TRUE,
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
    seen = set()  # uids: shared subterms are read once
    while stack:
        g = stack.pop()
        if g.uid in seen:
            continue
        seen.add(g.uid)
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


def expanded_atoms(expanded):
    """Literal atoms and next-atoms of an expanded (`xnf`) formula."""
    lits = set()
    nexts = set()
    seen = set()  # uids of the visited connectives; expansions share subterms
    stack = [expanded]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is Atom:
            lits.add(g)
        elif kind is Next:
            nexts.add(g)
        elif kind is And or kind is Or:
            if g.uid not in seen:
                seen.add(g.uid)
                stack.append(g.left)
                stack.append(g.right)
        elif kind is Not:
            stack.append(g.operand)
        elif kind is not TrueConst and kind is not FalseConst:
            raise ValueError(f"unexpanded temporal node in an expanded formula: {g!r}")
    return frozenset(lits), frozenset(nexts)


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


# Encoding recipe of every member encoded so far in this process, keyed by
# the interned member as `_XNF_CACHE` is.
_RECIPE_CACHE = {}


def _recipe(psi):
    """The member's encoding recipe: the distinct nodes of `xnf(psi)` in
    post-order, left operand first, and its `expanded_atoms`.

    Negated atoms, atoms, next-atoms and constants are the leaves. The
    order is the one in which a recursive Tseitin encoding first reaches
    each node, so replaying it creates the same variables and clauses.
    """
    got = _RECIPE_CACHE.get(psi)
    if got is not None:
        return got
    expanded = xnf(psi)
    lits, nexts = expanded_atoms(expanded)
    steps = []
    seen = set()
    stack = [(expanded, False)]
    while stack:
        g, complete = stack.pop()
        if complete:
            steps.append(g)
        elif g.uid not in seen:
            seen.add(g.uid)
            kind = type(g)
            if kind is And or kind is Or:
                stack.append((g, True))
                stack.append((g.right, False))
                stack.append((g.left, False))
            else:
                steps.append(g)
    got = (tuple(steps), lits, nexts)
    _RECIPE_CACHE[psi] = got
    return got


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


class _QueryCount:
    """Queries made through a group of sibling encoders, rechecks excluded."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


class Encoder:
    """A node-to-literal table plus one persistent solver.

    The table maps the uid of every node encoded so far to its literal
    (an int key hashes without calling `Formula.__hash__`): an atom or
    next-atom to its variable, a negated atom to the negated variable, a
    connective of an expanded form to its definition variable, and the
    constants to the literals of a variable fixed true. `member` replays a
    member's cached recipe (see `_recipe`) and encodes only the nodes the
    table lacks, so members that share subterms share their definitions.

    Single-owner: an encoder and its siblings (see `sibling`) belong to one
    checker run; independent encoders may run in parallel.
    """

    def __init__(self, *, dump_dir=None):
        self.solver = SatSolver()
        self._queries = _QueryCount()
        self._members = {}
        self._dump_dir = dump_dir
        if dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
        self._true = self.solver.new_var()
        self.solver.add_clause([self._true])
        self._lits = {TRUE.uid: self._true, FALSE.uid: -self._true}
        self._tail_var = self.atom_var(Atom(TAIL))
        self.final_activation = self.solver.new_var()
        self.solver.add_clause([-self.final_activation, self._tail_var])

    @property
    def sat_calls(self):
        """Queries made through this encoder and its siblings, rechecks
        excluded; clause dumps are numbered by this count."""
        return self._queries.n

    def sibling(self):
        """A fresh encoder with a solver of its own that shares this one's
        query count, and so its clause dump directory and numbering."""
        other = Encoder(dump_dir=self._dump_dir)
        other._queries = self._queries
        return other

    def atom_var(self, pa):
        """The variable of an atom or next-atom, created on first use."""
        v = self._lits.get(pa.uid)
        if v is None:
            v = self.solver.new_var()
            self._lits[pa.uid] = v
        return v

    def member(self, psi):
        """Assumption variable and relevant-atom sets for one state member.

        A connective gets a definition variable, fully defined by its
        operands, so definition variables track their structure and never
        force don't-care atoms.
        """
        entry = self._members.get(psi.uid)
        if entry is None:
            steps, lits, nexts = _recipe(psi)
            table = self._lits
            solver = self.solver
            for g in steps:
                uid = g.uid
                if uid in table:
                    continue
                kind = type(g)
                if kind is And or kind is Or:
                    d = solver.new_var()
                    solver.add_definition(d, table[g.left.uid], table[g.right.uid], kind is And)
                    table[uid] = d
                elif kind is Not:
                    table[uid] = -self.atom_var(g.operand)
                else:
                    self.atom_var(g)
            p = solver.new_var()
            solver.add_clause([-p, table[steps[-1].uid]])
            entry = (p, lits, nexts)
            self._members[psi.uid] = entry
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
        if not _recheck:
            self._queries.n += 1
            if self._dump_dir is not None:
                self._dump(assumptions)
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
        number = self._queries.n
        path = os.path.join(self._dump_dir, f"query{number:05d}.cnf")
        # root facts as units: clauses they satisfy may have been dropped
        clauses = self.solver.clauses + [(lit,) for lit in self.solver.trail]
        lines = [
            f"c query {number}; assumptions appended as unit clauses",
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
