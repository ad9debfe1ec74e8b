"""The repository benchmark: time to verdict of ltlfsat on seeded workloads.

    python3 perfbench/run.py --workload cdlsc-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory. A run is a closed loop with one client: passes over the
workload's corpus, one after another, until ``--seconds`` are used (at
least three passes, and three of each kind when tracing). Each pass
generates the corpus in a fresh process (``corpus.py``) and decides it in
another fresh, single-threaded process (``worker.py``), which receives only
the rendered formula text. Verdicts are checked here, after the passes and
outside the timed section.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics:

- ``setup_s``: per pass, the corpus process's CPU time plus the decision
  process's CPU time from its start to its first timed call (interpreter,
  imports, generation, rendering); median over passes.
- ``solve_s``: each instance's median time to verdict over the passes,
  summed over the corpus.
- ``latency_p50_ms``, ``latency_p90_ms``: percentiles of the same
  per-instance medians.
- ``peak_rss_mb``: ``ru_maxrss`` of the decision process; median.

All times are CPU time of the child processes, which run one thread each:
on a shared virtual machine, wall time also counts the stretches in which
the host runs other guests. The children run with ``PYTHONHASHSEED=0``.

With ``--trace 1`` untraced and traced passes alternate, and the line holds
the per-layer metrics (medians over traced passes, see ``tracer.py``) plus
``trace.overhead_ratio``, traced over untraced ``solve_s``, and
``trace.accounted_ratio``, the share of traced time to verdict that the
layers' self times account for. Spans of each traced pass are written to
``.perfbench/``.

``attempted`` counts decisions over all passes; ``failed`` counts those that
aborted, raised, timed out, disagreed with the reference or carried a
witness that fails ``evaluate``. A corpus that differs from what
``strata.json`` or ``baseline.json`` records for the seed fails every
decision: its times would not be comparable. Any failure prints
``correct: false`` and makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import WORKLOADS, src_dir

sys.path.insert(0, str(src_dir()))

from tracer import PER_LAYER  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench"
# Every run must end within 180 s; a pass that would run past this is killed
# and its instances count as failed.
RUN_LIMIT_S = 170.0
# What other guests run on the host moves even CPU time, by up to a fifth
# for seconds at a time; the median of at least three passes per instance
# rides out one such stretch.
MIN_PASSES = 3
# Unsat verdicts on cdlsc-mix are checked by brute force up to this length.
MIX_REFUTE_BOUND = 3
# numpy may start a thread pool on import; the workload is single-threaded.
# A fixed hash seed gives string hashes, and with them the iteration order of
# the program's sets of formulas, the same in every pass and run.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


def _child(args, *, stdin=None, timeout):
    env = dict(os.environ, **CHILD_ENV)
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, env=env, timeout=timeout, check=True)


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(workload, seed, trace_file, timeout):
    """Generate the corpus and decide it, each in a fresh process."""
    started = time.perf_counter()
    cpu = _children_cpu()
    gen = _child([str(HERE / "corpus.py"), "--workload", workload, "--seed", str(seed)],
                 timeout=timeout)
    gen_cpu = _children_cpu() - cpu
    args = [str(HERE / "worker.py"), "--workload", workload]
    if trace_file is not None:
        args += ["--trace", str(trace_file)]
    work = _child(args, stdin=gen.stdout, timeout=timeout - (time.perf_counter() - started))
    result = json.loads(work.stdout.splitlines()[-1])
    result["setup_s"] = gen_cpu + result["ready"]
    result["corpus"] = json.loads(gen.stdout)
    return result


def baseline_fingerprint(workload, seed):
    """The corpus digest baseline.json records for this seed, if any."""
    path = HERE / "baseline.json"
    if not path.exists():
        return None
    entry = json.loads(path.read_text()).get("workloads", {}).get(workload, {})
    return entry.get("corpus_sha256", {}).get(str(seed))


def percentile(values, q):
    """The q-th percentile (0 < q < 100), interpolated as statistics does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def verify(workload, inst, outcomes):
    """Failure reasons of one instance's outcomes over all passes."""
    from ltlfsat.formula import parse
    from ltlfsat.semantics import brute_force_sat

    problems = [o["abort"] for o in outcomes if "abort" in o]
    if problems:
        return problems
    f = parse(inst["text"])
    verdicts = set()
    distinct = {json.dumps(o, sort_keys=True): o for o in outcomes}
    for outcome in distinct.values():
        engines = {k: v for k, v in outcome.items() if isinstance(v, dict)}
        for engine, got in engines.items():
            if got["sat"]:
                problems += witness_problems(engine, got["witness"], f)
        verdicts.add(tuple(sorted((engine, got["sat"]) for engine, got in engines.items())))
    if len(verdicts) > 1:
        return problems + [f"verdicts differ between passes: {sorted(verdicts)}"]
    verdict = dict(verdicts.pop())
    if len(set(verdict.values())) > 1:
        problems.append(f"engines disagree: {verdict}")
    if inst["expect"] is not None and verdict["cdlsc"] != (inst["expect"] == "sat"):
        problems.append(f"cdlsc verdict sat={verdict['cdlsc']}, known {inst['expect']}")
    if workload == "cdlsc-mix" and not verdict["cdlsc"]:
        if brute_force_sat(f, MIX_REFUTE_BOUND) is not None:
            problems.append(f"unsat refuted by a trace of length <= {MIX_REFUTE_BOUND}")
    return problems


def witness_problems(engine, w, f):
    """Why a sat verdict's witness does not show that f is satisfiable."""
    from ltlfsat.formula import FiniteTrace
    from ltlfsat.semantics import evaluate

    if w is None:
        return [f"{engine} says sat without a witness"]
    try:
        holds = evaluate(FiniteTrace.make(w["positions"], w["alphabet"]), f)
    except ValueError as bad:
        return [f"{engine} witness cannot be evaluated: {bad}"]
    return [] if holds else [f"{engine} witness fails evaluate"]


def corpus_problems(workload, seed, passes):
    """Why the passes' corpus is not the one the benchmark records."""
    problems = [f"generated formula differs from strata.json: {d}"
                for d in passes[0]["corpus"].get("drift", [])]
    if len({p["corpus"]["sha256"] for p in passes}) > 1:
        problems.append("corpus differs between passes of one seed")
    recorded = baseline_fingerprint(workload, seed)
    if recorded is not None and recorded != passes[0]["corpus"]["sha256"]:
        problems.append(f"corpus sha256 differs from baseline.json ({recorded}):"
                        " inputs changed, times not comparable")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    begin = time.perf_counter()
    kinds = [False, True] if args.trace else [False]
    passes = []
    overrun = None
    while True:
        traced = kinds[len(passes) % len(kinds)]
        trace_file = None
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            trace_file = OUT_DIR / (f"spans-{args.workload}-seed{args.seed}"
                                    f"-pass{len(passes)}.csv")
        elapsed = time.perf_counter() - begin
        try:
            p = run_pass(args.workload, args.seed, trace_file, RUN_LIMIT_S - elapsed)
        except subprocess.TimeoutExpired:
            overrun = f"pass {len(passes)} did not finish within the run limit"
            break
        except subprocess.CalledProcessError as crash:
            print(f"perfbench: {crash}\n{crash.stderr}", file=sys.stderr)
            return 1
        p["traced"] = traced
        p["wall"] = time.perf_counter() - begin - elapsed
        passes.append(p)
        if len(passes) < MIN_PASSES * len(kinds):
            continue
        last = max(q["wall"] for q in passes[-len(kinds):])
        if time.perf_counter() - begin + last > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not plain or (args.trace and not traced):
        print(f"perfbench: {overrun}", file=sys.stderr)
        return 1
    corpus = passes[0]["corpus"]
    instances = corpus["instances"]
    failures = {}
    for i, inst in enumerate(instances):
        problems = verify(args.workload, inst, [p["outcomes"][i] for p in passes])
        if problems:
            failures[inst["id"]] = problems
    attempted = len(instances) * len(passes)
    failed = sum(
        1 for p in passes for i, inst in enumerate(instances)
        if "abort" in p["outcomes"][i] or inst["id"] in failures
    )
    drift = corpus_problems(args.workload, args.seed, passes)
    if drift:
        failures["corpus"] = drift
        failed = attempted
    if overrun is not None:
        attempted += len(instances)
        failed += len(instances)
        failures["run"] = [overrun]

    per_instance = [statistics.median(p["times"][i] for p in plain)
                    for i in range(len(instances))]
    solve_s = sum(per_instance)
    e2e = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "solve_s": (solve_s, "s"),
        "latency_p50_ms": (1000.0 * statistics.median(per_instance), "ms"),
        "latency_p90_ms": (1000.0 * percentile(per_instance, 90), "ms"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in plain) / 1024.0, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances,"
          f" corpus sha256 {corpus['sha256']}")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced;"
          f" {attempted} decisions, {failed} failed")
    samples = {"setup_s": len(passes), "latency_p50_ms": len(instances),
               "latency_p90_ms": len(instances)}
    for name, (value, unit) in e2e.items():
        print(f"  {name} = {value:.6g} {unit}  (n={samples.get(name, len(plain))})")
    for inst_id, problems in failures.items():
        print(f"FAILED {inst_id}: {'; '.join(problems)}")

    if args.trace:
        metrics = {name: {"value": statistics.median(p["layers"][name] for p in traced),
                          "unit": unit} for name, unit in PER_LAYER.items()}
        traced_solve = sum(statistics.median(p["times"][i] for p in traced)
                           for i in range(len(instances)))
        metrics["trace.overhead_ratio"] = {"value": traced_solve / solve_s, "unit": "ratio"}
        metrics["trace.accounted_ratio"] = {
            "value": statistics.median(sum(p["accounted"]) / sum(p["times"]) for p in traced),
            "unit": "ratio",
        }
        split = {name: statistics.median(p["split"][name] for p in traced)
                 for name in traced[0]["split"]}
        print("self-time split (s): " + json.dumps(split, sort_keys=True))
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}  (n={len(traced)})")
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}

    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
