"""Benchmark formula generators and the measurement runner.

Three families: seeded random formulas of an exact surface length, scalable
process-constraint patterns (always finite-trace satisfiable), and practical
conjunctions of pattern instances over a small shared alphabet whose
verdicts vary. Generation is integer-seeded only, so the same spec and seed
reproduce byte-identical formula files on any platform.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field

from .cdlsc import solve
from .errors import Limits, ResourceAbort, WitnessError
from .formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    Next,
    Not,
    Or,
    Release,
    Until,
    render,
)

_PROB_SCALE = 1 << 16


def _globally(f):
    return Release(FALSE, f)


def _eventually(f):
    return Until(TRUE, f)


def _implies(a, b):
    return Or(Not(a), b)


def _precedence(a, b):
    return Or(Until(Not(b), a), _globally(Not(b)))


PATTERNS = {
    "response": lambda a, b: _globally(_implies(a, _eventually(b))),
    "precedence": _precedence,
    "responded-existence": lambda a, b: _implies(_eventually(a), _eventually(b)),
    "alternate-response": lambda a, b: _globally(_implies(a, Next(Until(Not(a), b)))),
    "alternate-precedence": lambda a, b: And(
        _precedence(a, b), _globally(_implies(b, Next(_precedence(a, b))))
    ),
    "chain-response": lambda a, b: _globally(_implies(a, Next(b))),
    "chain-precedence": lambda a, b: _globally(_implies(Next(b), a)),
}

PATTERN_NAMES = tuple(sorted(PATTERNS))


def _conjoin(parts):
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def gen_random(vars, length, temporal_prob, seed):
    """Random formula with exactly `length` drawn operator/atom nodes.

    Temporal operators (next, until, release, globally, eventually) are
    drawn with the given probability, boolean ones otherwise; atoms are
    uniform. Integer-only seeding keeps generation platform-independent.
    """
    if vars < 1 or length < 1:
        raise ValueError("vars and length must be positive")
    if not 0.0 <= temporal_prob <= 1.0:
        raise ValueError("temporal_prob must lie in [0, 1]")
    rng = random.Random(seed)
    names = [f"p{i}" for i in range(vars)]
    threshold = round(temporal_prob * _PROB_SCALE)
    # Budgets still to draw, and drawn operators waiting for their operands:
    # a node's random choices come before its operands', left before right,
    # and the node is made after them, as in a recursive draw.
    stack = [length]
    made = []
    while stack:
        item = stack.pop()
        if type(item) is str:
            arity = 1 if item in "!XGF" else 2
            operands = made[-arity:]
            del made[-arity:]
            made.append(_DRAWN[item](*operands))
        elif item == 1:
            made.append(Atom(names[rng.randrange(len(names))]))
        else:
            if rng.randrange(_PROB_SCALE) < threshold:
                ops = "XGF" if item == 2 else "XGFUR"
            else:
                ops = "!" if item == 2 else "!&|"
            op = ops[rng.randrange(len(ops))]
            stack.append(op)
            if op in "!XGF":
                stack.append(item - 1)
            else:
                left = rng.randrange(1, item - 1)
                stack += (item - 1 - left, left)
    return made.pop()


_DRAWN = {"!": Not, "X": Next, "G": _globally, "F": _eventually,
          "&": And, "|": Or, "U": Until, "R": Release}


def gen_pattern(name, n):
    """The n-th instance of a pattern family: n template copies over fresh
    atom pairs, conjoined."""
    if name not in PATTERNS:
        raise ValueError(f"unknown pattern family {name!r}; choose one of {PATTERN_NAMES}")
    if n < 1:
        raise ValueError("the scaling parameter must be positive")
    template = PATTERNS[name]
    return _conjoin([template(Atom(f"a{i}"), Atom(f"b{i}")) for i in range(1, n + 1)])


_POOL_PER_FAMILY = 4


def gen_conjunction(pool_seed, k, seed, *, alphabet_size=6):
    """Conjunction of k pattern instances drawn from a seeded pool.

    Pool instances are templates instantiated with signed literals over a
    shared alphabet, so conjunctions can conflict and verdicts vary.
    """
    if k < 1:
        raise ValueError("k must be positive")
    pool_rng = random.Random(pool_seed)
    names = [f"q{i}" for i in range(alphabet_size)]

    def literal():
        a = Atom(names[pool_rng.randrange(len(names))])
        return Not(a) if pool_rng.randrange(2) else a

    pool = []
    for name in PATTERN_NAMES:
        template = PATTERNS[name]
        for _ in range(_POOL_PER_FAMILY):
            pool.append(template(literal(), literal()))
    rng = random.Random(seed)
    if k > len(pool):
        raise ValueError(f"k may not exceed the pool size {len(pool)}")
    chosen = rng.sample(pool, k)
    return _conjoin(chosen)


@dataclass(frozen=True)
class BenchSpec:
    family: str
    count: int
    seed: int
    vars: int = 3
    length_min: int = 5
    length_max: int = 12
    temporal_prob: float = 0.5
    pattern: str = "response"
    k_min: int = 3
    k_max: int = 8
    alphabet_size: int = 6


def instances(spec):
    """Deterministic (id, formula) list for a spec; its count and its
    family's ranges are checked before anything is drawn."""
    if spec.count < 0:
        raise ValueError("count must not be negative")
    if spec.family == "random" and spec.length_min > spec.length_max:
        raise ValueError("length_min must not exceed length_max")
    if spec.family == "conjunction":
        if spec.k_min > spec.k_max:
            raise ValueError("k_min must not exceed k_max")
        if spec.alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
    out = []
    if spec.family == "random":
        rng = random.Random(spec.seed)
        for i in range(spec.count):
            length = rng.randrange(spec.length_min, spec.length_max + 1)
            sub = rng.getrandbits(60)
            out.append((f"random-{i:04d}", gen_random(spec.vars, length, spec.temporal_prob, sub)))
    elif spec.family == "pattern":
        for i in range(spec.count):
            out.append((f"{spec.pattern}-{i + 1:03d}", gen_pattern(spec.pattern, i + 1)))
    elif spec.family == "conjunction":
        rng = random.Random(spec.seed)
        for i in range(spec.count):
            k = rng.randrange(spec.k_min, spec.k_max + 1)
            pool_seed = rng.getrandbits(60)
            sub = rng.getrandbits(60)
            out.append((
                f"conjunction-{i:04d}",
                gen_conjunction(pool_seed, k, sub, alphabet_size=spec.alphabet_size),
            ))
    else:
        raise ValueError(f"unknown family {spec.family!r}")
    return out


@dataclass(frozen=True)
class BenchRow:
    """One instance's outcome. `frames` is the verdict's `Stats.frames`,
    None on an abort or a failed witness check; `invariant_level` is the
    unsat verdict's, None on sat rows, aborts and the engines that have no
    frames. `verified` is false on aborts and failed witness checks."""

    id: str
    family: str
    verdict: str
    states_expanded: int
    sat_calls: int
    elapsed_ms: float
    verified: bool
    frames: int | None = None
    invariant_level: int | None = None


@dataclass
class BenchReport:
    solver: str
    rows: list = field(default_factory=list)

    def totals(self):
        return {
            "instances": len(self.rows),
            "sat": sum(r.verdict == "sat" for r in self.rows),
            "unsat": sum(r.verdict == "unsat" for r in self.rows),
            "aborted": sum(r.verdict.startswith("abort") for r in self.rows),
            "states_expanded": sum(r.states_expanded for r in self.rows),
            "sat_calls": sum(r.sat_calls for r in self.rows),
            "elapsed_ms": sum(r.elapsed_ms for r in self.rows),
        }


CSV_HEADER = ("id,family,verdict,states_expanded,sat_calls,elapsed_ms,verified,"
              "frames,invariant_level")


def render_csv(report):
    """The report as CSV; a field that is None is left empty."""
    lines = [CSV_HEADER]
    for r in report.rows:
        frames = "" if r.frames is None else r.frames
        level = "" if r.invariant_level is None else r.invariant_level
        lines.append(
            f"{r.id},{r.family},{r.verdict},{r.states_expanded},{r.sat_calls},"
            f"{r.elapsed_ms:.3f},{str(r.verified).lower()},{frames},{level}"
        )
    return "\n".join(lines) + "\n"


def run_instance(instance_id, family, f, solver, limits):
    """Check one formula with the selected engine; aborts are recorded,
    never turned into verdicts. `solve` verifies every witness it returns;
    one that fails the check gives a sat row with `verified` false."""
    start = time.monotonic()
    try:
        verdict = solve(f, solver, limits=limits)
    except ResourceAbort as abort:
        elapsed = (time.monotonic() - start) * 1000.0
        return BenchRow(instance_id, family, f"abort:{abort.kind}",
                        abort.states_expanded, abort.sat_calls, elapsed, False)
    except WitnessError:
        elapsed = (time.monotonic() - start) * 1000.0
        return BenchRow(instance_id, family, "sat", 0, 0, elapsed, False)
    elapsed = (time.monotonic() - start) * 1000.0
    return BenchRow(instance_id, family, "sat" if verdict.sat else "unsat",
                    verdict.stats.states_expanded, verdict.stats.sat_calls,
                    elapsed, True, verdict.stats.frames, verdict.invariant_level)


def run_suite(spec, solver="cdlsc", limits=Limits()):
    """One report row per instance, in order."""
    rows = [run_instance(instance_id, spec.family, f, solver, limits)
            for instance_id, f in instances(spec)]
    return BenchReport(solver, rows)


def compare_reports(a, b):
    """Instance ids whose verdicts differ between two reports; aborted rows
    are skipped since they carry no verdict."""
    verdicts_b = {r.id: r.verdict for r in b.rows}
    mismatched = []
    for row in a.rows:
        other = verdicts_b.get(row.id)
        if other is None or row.verdict.startswith("abort") or other.startswith("abort"):
            continue
        if row.verdict != other:
            mismatched.append(row.id)
    return mismatched


def write_corpus(spec, outdir):
    """One formula per file plus a manifest describing the generation."""
    drawn = instances(spec)
    os.makedirs(outdir, exist_ok=True)
    entries = []
    for instance_id, f in drawn:
        filename = f"{instance_id}.ltlf"
        with open(os.path.join(outdir, filename), "w", encoding="utf-8") as fh:
            fh.write(render(f) + "\n")
        entries.append({"id": instance_id, "file": filename})
    manifest = {
        "family": spec.family,
        "count": spec.count,
        "seed": spec.seed,
        "params": {
            k: v
            for k, v in vars(spec).items()
            if k not in ("family", "count", "seed")
        },
        "formulas": entries,
    }
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest
