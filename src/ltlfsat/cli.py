"""Command-line front end.

Exit codes: 10 = satisfiable, 20 = unsatisfiable, 0 = non-verdict success,
1 = usage or input error, 2 = resource abort.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import bench as benchmod
from .cdlsc import ENGINES, brute_target, normalise, solve
from .errors import Limits, ResourceAbort
from .formula import FiniteTrace, atoms, parse
from .semantics import MAX_BRUTE_ATOMS, brute_force_sat, evaluate
from .transition import bfs_depth, brute_bound, build_full_system, export_dot

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORT = 2


def _add_formula_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-f", "--file", help="read the formula from FILE")
    group.add_argument("--formula", help="formula given inline")


def _load_formula(args):
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.formula
    return parse(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ltlfsat",
        description="Satisfiability checking for linear temporal logic over finite traces",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="decide satisfiability of a formula")
    _add_formula_args(check)
    check.add_argument("--raw-tnf", action="store_true",
                       help="treat the input as already tail-marked; Tail allowed")
    check.add_argument("--oracle", choices=ENGINES, default="cdlsc")
    check.add_argument("--max-frames", type=int, default=Limits.max_frames)
    check.add_argument("--timeout", type=float, default=Limits.timeout)
    check.add_argument("--brute-bound", type=int, default=Limits.brute_bound,
                       help="trace-length bound for the brute oracle")
    check.add_argument("--out", help="write the witness trace to FILE")
    check.add_argument("--dump-cnf", help="dump one clause file per solver query into DIR")

    oracle = subs.add_parser("oracle", help="run all engines and compare verdicts")
    _add_formula_args(oracle)
    oracle.add_argument("--raw-tnf", action="store_true")
    oracle.add_argument("--timeout", type=float, default=Limits.timeout)

    verify = subs.add_parser("verify", help="check a trace file against a formula")
    _add_formula_args(verify)
    verify.add_argument("-t", "--trace", required=True, help="trace file to check")
    verify.add_argument("--raw-tnf", action="store_true",
                        help="evaluate the formula as given; Tail allowed")

    gen = subs.add_parser("gen", help="generate a benchmark corpus")
    _add_gen_args(gen)
    gen.add_argument("--out", required=True, help="output directory")

    bench = subs.add_parser("bench", help="run a benchmark suite")
    _add_gen_args(bench)
    bench.add_argument("--oracle", choices=ENGINES, default="cdlsc")
    bench.add_argument("--cross-check", choices=ENGINES, default=None,
                       help="also run this engine and flag verdict disagreements")
    bench.add_argument("--timeout", type=float, default=Limits.timeout,
                       help="per-instance timeout in seconds")
    bench.add_argument("--max-frames", type=int, default=Limits.max_frames)
    bench.add_argument("--state-limit", type=int, default=Limits.state_limit)
    bench.add_argument("--brute-bound", type=int, default=Limits.brute_bound)
    bench.add_argument("--out", help="write the report CSV to FILE")

    dump = subs.add_parser("dump-ts", help="write the transition system as a graph")
    _add_formula_args(dump)
    dump.add_argument("--raw-tnf", action="store_true")
    # smaller than Limits.state_limit: a graph this size is already unreadable
    dump.add_argument("--state-limit", type=int, default=1 << 16)
    dump.add_argument("--out", help="write the graph text to FILE (default stdout)")

    return parser


def _add_gen_args(sub):
    sub.add_argument("--family", choices=("random", "pattern", "conjunction"),
                     required=True)
    spec = benchmod.BenchSpec
    sub.add_argument("--count", type=int, default=20)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--vars", type=int, default=spec.vars)
    sub.add_argument("--length-min", type=int, default=spec.length_min)
    sub.add_argument("--length-max", type=int, default=spec.length_max)
    sub.add_argument("--temporal-prob", type=float, default=spec.temporal_prob)
    sub.add_argument("--pattern", choices=benchmod.PATTERN_NAMES, default=spec.pattern)
    sub.add_argument("--k-min", type=int, default=spec.k_min)
    sub.add_argument("--k-max", type=int, default=spec.k_max)
    sub.add_argument("--alphabet-size", type=int, default=spec.alphabet_size)


def _from_args(cls, args):
    """A `Limits` or `BenchSpec` from the flags named after its fields; a
    field the subcommand has no flag for keeps its default."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)})


def _print_stats(stats):
    print(
        f"stats: states_expanded={stats.states_expanded} table_states={stats.table_states}"
        f" sat_calls={stats.sat_calls} table_queries={stats.table_queries}"
        f" frames={stats.frames} pushes={stats.pushes} reused={stats.reused}"
        f" live_clauses={stats.live_clauses}"
        f" elapsed={stats.elapsed:.3f}s"
    )


def _emit_witness(witness, out):
    text = witness.to_text()
    print("witness:")
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args):
    original = _load_formula(args)
    verdict = solve(original, args.oracle, raw_tnf=args.raw_tnf,
                    limits=_from_args(Limits, args), dump_dir=args.dump_cnf)
    print(f"verdict: {'sat' if verdict.sat else 'unsat'}")
    if verdict.sat:
        _emit_witness(verdict.witness, args.out)
    elif verdict.invariant_level is not None:
        print(f"invariant_level: {verdict.invariant_level}")
    _print_stats(verdict.stats)
    return EXIT_SAT if verdict.sat else EXIT_UNSAT


def _cmd_oracle(args):
    original = _load_formula(args)
    limits = _from_args(Limits, args)
    verdicts = {
        engine: solve(original, engine, raw_tnf=args.raw_tnf, limits=limits).sat
        for engine in ("cdlsc", "naive")
    }
    target = brute_target(original, args.raw_tnf)
    count = len(atoms(target))
    brute = f"skipped ({count} atoms > {MAX_BRUTE_ATOMS})"
    if count <= MAX_BRUTE_ATOMS:
        full = build_full_system(normalise(original, args.raw_tnf), exhaustive=True,
                                 limits=limits)
        bound = brute_bound(target, full)
        witness = brute_force_sat(target, bound, timeout=limits.timeout)
        # a miss means unsat only when the bound reaches the final position
        # of a path to the system's deepest state
        if witness is not None or bound > bfs_depth(full):
            verdicts["brute"] = witness is not None
        else:
            brute = f"inconclusive (no witness up to length {bound})"
    for name, sat in verdicts.items():
        print(f"{name}: {'sat' if sat else 'unsat'}")
    if "brute" not in verdicts:
        print(f"brute: {brute}")
    if len(set(verdicts.values())) > 1:
        print("DISAGREEMENT between engines", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_SAT if verdicts["cdlsc"] else EXIT_UNSAT


def _cmd_verify(args):
    original = _load_formula(args)
    if not args.raw_tnf:
        normalise(original)  # raises ReservedAtomError if the formula mentions Tail
    with open(args.trace, "r", encoding="utf-8") as fh:
        text = fh.read()
    trace = FiniteTrace.from_text(text)
    alphabet = trace.alphabet | atoms(original)
    trace = FiniteTrace(trace.positions, alphabet)
    if evaluate(trace, original):
        print("trace satisfies the formula")
        return EXIT_OK
    print("trace does NOT satisfy the formula", file=sys.stderr)
    return EXIT_USAGE


def _cmd_gen(args):
    spec = _from_args(benchmod.BenchSpec, args)
    manifest = benchmod.write_corpus(spec, args.out)
    print(f"wrote {len(manifest['formulas'])} formulas to {args.out}")
    return EXIT_OK


def _cmd_bench(args):
    spec = _from_args(benchmod.BenchSpec, args)
    limits = _from_args(Limits, args)
    report = benchmod.run_suite(spec, solver=args.oracle, limits=limits)
    csv_text = benchmod.render_csv(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    totals = report.totals()
    print(
        f"total: {totals['instances']} instances, {totals['sat']} sat,"
        f" {totals['unsat']} unsat, {totals['aborted']} aborted,"
        f" {totals['elapsed_ms']:.1f} ms"
    )
    unverified = [r.id for r in report.rows if r.verdict == "sat" and not r.verified]
    if unverified:
        print(f"UNVERIFIED witnesses: {unverified}", file=sys.stderr)
        return EXIT_USAGE
    if args.cross_check and args.cross_check != args.oracle:
        other = benchmod.run_suite(spec, solver=args.cross_check, limits=limits)
        mismatched = benchmod.compare_reports(report, other)
        if mismatched:
            print(f"DISAGREEMENT on instances: {mismatched}", file=sys.stderr)
            return EXIT_USAGE
        print(f"cross-check against {args.cross_check}: verdicts agree")
    return EXIT_OK


def _cmd_dump_ts(args):
    ts = build_full_system(normalise(_load_formula(args), args.raw_tnf), exhaustive=True,
                           limits=_from_args(Limits, args))
    text = export_dot(ts)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {ts.state_count} states to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "dump-ts": _cmd_dump_ts,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ResourceAbort as abort:
        print(f"aborted: {abort}", file=sys.stderr)
        return EXIT_ABORT
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
