"""Satisfiability checking for linear temporal logic over finite traces."""

from .abstraction import Assignment, Encoder, propositional_atoms, xnf
from .bench import BenchSpec, gen_conjunction, gen_pattern, gen_random, run_suite
from .cdlsc import Verdict, check, inv_found, reconstruct_witness, solve
from .errors import Limits, ResourceAbort
from .formula import (
    TAIL,
    TRUE,
    FALSE,
    And,
    Atom,
    FiniteTrace,
    Formula,
    Next,
    Not,
    Or,
    ParseError,
    Release,
    ReservedAtomError,
    Until,
    WeakNext,
    atoms,
    closure,
    parse,
    render,
    to_nnf,
    to_tnf,
)
from .semantics import brute_force_sat, evaluate
from .transition import build_full_system, export_dot, naive_check, state_of

__version__ = "0.1.0"
