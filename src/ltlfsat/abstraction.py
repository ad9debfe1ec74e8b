"""Propositional view of obligation states and the incremental SAT encoding.

A state (set of formulas, read conjunctively) is queried by giving each
member a dedicated assumption variable and encoding its expanded form once,
structurally, into the shared clause database. Unsatisfiable queries come
back with a core: the subset of members whose assumption variables the
engine reports as failed. Contexts are retracted with activation literals:
the final-position context asserts the Tail atom, step contexts carry
blocking clauses over next-step atoms.

A member is only ever assumed true, so its encoding is one-sided at the top
(Plaisted & Greenbaum, 1986): its selector guards one clause per top-level
conjunct of the expanded form, over that conjunct's top-level disjuncts,
and only those disjuncts, the skeleton's leaves, get literals with full
Tseitin definitions. Everything that depends on a member alone is computed
once per process and cached by the interned node: its expanded form (`xnf`)
and its encoding recipe (`recipe`), which holds the skeleton and the nodes
below its leaves in the order a recursive encoding would first reach them.
An encoder replays a member's recipe into its own solver.
"""

from __future__ import annotations

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
    by_uid,
    fold,
    subformulas,
)
from .satengine import SatSolver


# the connectives of the propositional reading, which its walks look through,
# and with the constants, every kind of node that is not one of its atoms
_CONNECTIVES = frozenset({And, Or, Not})
_NOT_ATOMS = _CONNECTIVES | {TrueConst, FalseConst}


def _connective(g):
    return type(g) in _CONNECTIVES


def propositional_atoms(f):
    """Atoms of the propositional reading of f.

    Temporal nodes (next/until/release and weak-next) count as indivisible
    atoms; negation and the boolean connectives are looked through.
    """
    return frozenset(g for g in subformulas(f, _connective) if type(g) not in _NOT_ATOMS)


def expanded_atoms(expanded):
    """Literal atoms and next-atoms of an expanded (`xnf`) formula."""
    lits = set()
    nexts = set()
    for g in subformulas(expanded, _connective):
        kind = type(g)
        if kind is Atom:
            lits.add(g)
        elif kind is Next:
            nexts.add(g)
        elif kind not in _NOT_ATOMS:
            raise ValueError(f"unexpanded temporal node in an expanded formula: {g!r}")
    return frozenset(lits), frozenset(nexts)


_XNF_CACHE = {}


def xnf(f):
    """Expand until/release one step so only literals and next-atoms remain
    in the propositional reading. The result is equivalent to f.
    """
    return fold(_XNF_CACHE, f, _xnf_parts)


def _xnf_parts(memo, g):
    """`fold`'s parts of xnf(g): an until or release expands its right
    operand first, as `Or(xnf(right), And(xnf(left), Next(g)))` does."""
    kind = type(g)
    if kind is And or kind is Or:
        return ((memo, g.left), (memo, g.right)), kind
    if kind is Until:
        return ((memo, g.right), (memo, g.left)), lambda r, l: Or(r, And(l, Next(g)))
    if kind is Release:
        return ((memo, g.right), (memo, g.left)), lambda r, l: And(r, Or(l, Next(g)))
    if kind is Not and type(g.operand) is not Atom:
        raise ValueError(f"negation above a non-atom; not in NNF: {g!r}")
    if kind is WeakNext:
        raise ValueError(f"weak-next in input; expected a TNF formula: {g!r}")
    return (), lambda: g  # constants, literals and next-atoms


# Encoding recipe of every member encoded so far in this process, keyed by
# the interned member as `_XNF_CACHE` is.
_RECIPE_CACHE = {}


def recipe(psi):
    """The member's encoding recipe: (steps, literal atoms, next-atoms,
    skeleton) for `xnf(psi)`.

    `steps` are the distinct nodes of the expanded form in post-order, left
    operand first; `transition.truth_table` evaluates them bitwise. The
    skeleton is (cone, clauses). Its clauses are the distinct top-level
    conjuncts of the expanded form, each as its distinct top-level
    disjuncts, left first: the leaves. A leaf is an atom, a negated atom, a
    next-atom, a constant or a conjunction below a disjunction. The cone is
    the distinct nodes at or below the leaves, in the order in which a
    recursive Tseitin encoding of the leaves, one after another, first
    reaches them; `Encoder.member` defines exactly these.
    """
    got = _RECIPE_CACHE.get(psi)
    if got is not None:
        return got
    expanded = xnf(psi)
    lits, nexts = expanded_atoms(expanded)
    clauses = tuple(_operands(c, Or) for c in _operands(expanded, And))
    leaves = [g for clause in clauses for g in clause]
    got = (_post_order([expanded]), lits, nexts, (_post_order(leaves), clauses))
    _RECIPE_CACHE[psi] = got
    return got


def _operands(g, kind):
    """The distinct top-level operands of g under connective kind (And or
    Or), left first, as a tuple; (g,) when g is of another kind."""
    out = []
    seen = set()
    stack = [g]
    while stack:
        h = stack.pop()
        if h in seen:
            continue
        seen.add(h)
        if type(h) is kind:
            stack += (h.right, h.left)
        else:
            out.append(h)
    return tuple(out)


def _post_order(roots):
    """The distinct nodes below the roots, roots included, in post-order:
    roots in turn, left operand first. Only And and Or are looked through."""
    out = []
    seen = set()
    stack = [(g, False) for g in reversed(roots)]
    while stack:
        g, complete = stack.pop()
        if complete:
            out.append(g)
        elif g not in seen:
            seen.add(g)
            kind = type(g)
            if kind is And or kind is Or:
                stack += ((g, True), (g.right, False), (g.left, False))
            else:
                out.append(g)
    return tuple(out)


def union_atoms(entries):
    """Literal atoms and next-atoms of a state, as two sets, from its
    members' `recipe` or `Encoder.member` entries, whose second and third
    fields are the literal atoms and the next-atoms."""
    lits, nexts = set(), set()
    for entry in entries:
        lits |= entry[1]
        nexts |= entry[2]
    return lits, nexts


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


@dataclass(frozen=True)
class QueryOutcome:
    assignment: Assignment | None
    core: frozenset | None

    @property
    def sat(self):
        return self.assignment is not None


class Encoder:
    """A node-to-literal table plus one persistent solver.

    The table maps every node encoded so far to its literal: an atom or
    next-atom to its variable, a negated atom to the negated variable, a
    connective at or below a skeleton leaf to its definition variable, and
    the constants to the literals of a variable fixed true. The connectives
    above a member's leaves get no entry. `member` replays a member's cached
    recipe (see `recipe`) and encodes only the nodes the table lacks, so
    members that share subterms below their leaves share their definitions.
    `query` only encodes, solves and decodes; it does not check the cores
    it returns. `sat_calls` counts the queries made through this encoder,
    rechecks (`_recheck=True`) excluded.

    Single-owner: an encoder belongs to one run; independent encoders may
    run in parallel.
    """

    def __init__(self):
        self.solver = SatSolver()
        self.sat_calls = 0
        self._members = {}
        self._true = self.solver.new_var()
        self.solver.add_clause([self._true])
        self._lits = {TRUE: self._true, FALSE: -self._true}
        self._tail_var = self.atom_var(Atom(TAIL))
        self.final_activation = self.solver.new_var()
        self.solver.add_clause([-self.final_activation, self._tail_var])

    def atom_var(self, pa):
        """The variable of an atom or next-atom, created on first use."""
        v = self._lits.get(pa)
        if v is None:
            v = self.solver.new_var()
            self._lits[pa] = v
        return v

    def member(self, psi):
        """Assumption variable and relevant-atom sets for one state member.

        The member's selector p guards one clause per clause of its
        skeleton (see `recipe`): [-p, l1, ..., lk] over the leaves'
        literals. Members are only ever assumed true, so the nodes above the
        leaves need no variable (Plaisted & Greenbaum, 1986). A leaf
        conjunction gets a definition variable, fully defined by its
        operands, as does every connective below it, so definition
        variables track their structure and never force don't-care atoms.
        """
        entry = self._members.get(psi)
        if entry is None:
            _, lits, nexts, (cone, clauses) = recipe(psi)
            table = self._lits
            solver = self.solver
            for g in cone:
                if g in table:
                    continue
                kind = type(g)
                if kind is And or kind is Or:
                    d = solver.new_var()
                    solver.add_definition(d, table[g.left], table[g.right], kind is And)
                    table[g] = d
                elif kind is Not:
                    table[g] = -self.atom_var(g.operand)
                else:
                    self.atom_var(g)
            p = solver.new_var()
            for clause in clauses:
                solver.add_clause([-p, *[table[g] for g in clause]])
            entry = (p, lits, nexts)
            self._members[psi] = entry
        return entry

    def relevant_atoms(self, state):
        """Literal atoms and next-atoms of the expanded state conjunction."""
        lits, nexts = union_atoms(self.member(psi) for psi in state)
        return frozenset(lits), frozenset(nexts)

    def new_activation(self):
        return self.solver.new_var()

    def block_core(self, act, core):
        """Forbid successors that contain every member of the core."""
        clause = [-act]
        clause.extend(-self.atom_var(Next(psi)) for psi in sorted(core, key=by_uid))
        self.solver.add_clause(clause)

    def block_assignment(self, act, assignment, next_atoms):
        """Forbid this assignment's projection on the next-atoms."""
        clause = [-act]
        for n in sorted(next_atoms, key=by_uid):
            v = self.atom_var(n)
            clause.append(-v if n.operand in assignment.next_bodies else v)
        self.solver.add_clause(clause)

    def query(self, state, *, final=False, acts=(), dump=None, _recheck=False):
        """Solve the state conjunction in the given context.

        Satisfiable queries return the assignment restricted to the state's
        relevant atoms (plus Tail for final-position queries); unsatisfiable
        ones return the member core: the members whose selectors the solver
        reports as failed. An empty core is legitimate: the context alone
        (e.g. exhausted enumeration blockers) is already contradictory. The
        core is not checked here: `cdlsc._Run._query`, the one caller that
        keeps cores, rechecks it with `_recheck=True`. With a dump path, the
        query is first written there as a clause file.
        """
        members = sorted(state, key=by_uid)
        entries = [self.member(psi) for psi in members]
        assumptions = [p for p, _, _ in entries]
        assumptions.extend(acts)
        if final:
            assumptions.append(self.final_activation)
        if not _recheck:
            self.sat_calls += 1
        if dump is not None:
            self._dump(dump, assumptions)
        res = self.solver.solve(assumptions)
        if res.sat:
            rel_lits, rel_nexts = union_atoms(entries)
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
        return QueryOutcome(None, core)

    def _dump(self, path, assumptions):
        """The solver's clauses and the query's assumptions as one file in
        the standard competition clause-list format."""
        # root facts as units: clauses they satisfy may have been dropped
        clauses = self.solver.clauses + [(lit,) for lit in self.solver.trail]
        lines = [
            "c one solver query; assumptions appended as unit clauses",
            f"p cnf {self.solver.nvars} {len(clauses) + len(assumptions)}",
        ]
        lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
        lines.extend(f"{a} 0" for a in assumptions)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
