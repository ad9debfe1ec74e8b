"""One measured pass: decide every instance of a corpus in a fresh process.

Reads the corpus JSON (as printed by ``corpus.py``) on stdin and prints one
JSON result on stdout. Each instance is timed from ``parse`` of its text to
its verdict, including the program's own witness re-verification. Times
are CPU time of this single-threaded process (``time.process_time``), so
that time the host takes the virtual CPU away for other guests does not
count. Verdicts are reported, not judged: ``run.py`` checks them after the
pass; an instance that raises anything records the exception instead of a
verdict and counts as failed.

    python3 perfbench/worker.py --workload cdlsc-deep [--trace FILE] < corpus.json

With ``--trace`` the pass records per-layer spans (see ``tracer.py``),
writes them to FILE as CSV and adds the per-layer totals to the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback

from corpus import WORKLOADS, src_dir

sys.path.insert(0, str(src_dir()))

import ltlfsat.cdlsc as cdlsc  # noqa: E402
import ltlfsat.formula as formula  # noqa: E402
import ltlfsat.semantics as semantics  # noqa: E402
import ltlfsat.transition as transition  # noqa: E402

# Hangs count as failures instead of stalling the run. The slowest instance
# of any workload takes about 5 s at the seed commit.
INSTANCE_TIMEOUT_S = 60.0

# The acceptance suite's complete witness-length bound for brute force.
BRUTE_WORK_CAP = 1 << 24
BRUTE_FALLBACK_MIN = 8
BRUTE_FALLBACK_MAX = 9


class InstanceTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise InstanceTimeout(f"no verdict within {INSTANCE_TIMEOUT_S} s")


def brute_bound(f, ts):
    """Witness-length bound that makes brute force complete for f."""
    bound = ts.state_count + 1
    if (1 << len(formula.atoms(f))) ** bound <= BRUTE_WORK_CAP:
        return bound
    depth_bound = max(transition.bfs_depth(ts) + 2, BRUTE_FALLBACK_MIN)
    return min(depth_bound, BRUTE_FALLBACK_MAX)


def decide_cdlsc(text):
    verdict = cdlsc.check(formula.parse(text))
    return {"cdlsc": (verdict.sat, verdict.witness)}


def decide_oracles(text):
    """The acceptance suite's oracle traffic for one formula."""
    f = formula.parse(text)
    verdict = cdlsc.check(f)
    translated = formula.to_tnf(formula.to_nnf(f))
    naive = transition.naive_check(translated)
    full = transition.build_full_system(translated, exhaustive=True)
    bound = brute_bound(f, full)
    witness = semantics.brute_force_sat(f, bound)
    return {
        "cdlsc": (verdict.sat, verdict.witness),
        "naive": (naive.sat, naive.witness),
        "brute": (witness is not None, witness),
        "states": full.state_count,
        "bound": bound,
    }


DECIDE = {
    "cdlsc-deep": decide_cdlsc,
    "cdlsc-mix": decide_cdlsc,
    "oracle-exhaustive": decide_oracles,
}


def _trace_json(trace):
    if trace is None:
        return None
    return {"positions": [sorted(p) for p in trace.positions],
            "alphabet": sorted(trace.alphabet)}


def _outcome_json(outcome):
    out = {}
    for key, value in outcome.items():
        if isinstance(value, tuple):
            sat, witness = value
            out[key] = {"sat": sat, "witness": _trace_json(witness)}
        else:
            out[key] = value
    return out


def run_pass(workload, corpus, tracer=None):
    """Decide every instance; returns (CPU time at ready, times, outcomes)."""
    decide = DECIDE[workload]
    times = []
    outcomes = []
    signal.signal(signal.SIGALRM, _alarm)
    ready = time.process_time()
    for i, inst in enumerate(corpus):
        if tracer is not None:
            tracer.instance = i
        signal.setitimer(signal.ITIMER_REAL, INSTANCE_TIMEOUT_S)
        start = time.process_time()
        try:
            outcome = decide(inst["text"])
        except Exception as abort:  # a crash is a failed instance, not a failed run
            where = traceback.extract_tb(abort.__traceback__)[-1]
            outcome = {"abort": f"{type(abort).__name__}: {abort}"
                                f" ({where.filename}:{where.lineno})"}
        finally:
            elapsed = time.process_time() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(elapsed)
        outcomes.append(outcome)
    return ready, times, outcomes


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,instance,name,start,end,parent,info\n")
        for index, (name, start, end, parent, instance, info) in enumerate(spans):
            fh.write(f"{index},{instance},{name},{start:.9f},{end:.9f},{parent},"
                     f"\"{'' if info is None else info}\"\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--trace", metavar="FILE")
    args = parser.parse_args(argv)
    corpus = json.load(sys.stdin)["instances"]
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        with tracer.installed():
            ready, times, outcomes = run_pass(args.workload, corpus, tracer)
    else:
        ready, times, outcomes = run_pass(args.workload, corpus)
    result = {
        "ready": ready,
        "times": times,
        "outcomes": [_outcome_json(o) for o in outcomes],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layers, split = layer_metrics(tracer.spans, tracer.solvers_created)
        accounted = [0.0] * len(corpus)
        for span in tracer.spans:
            if span[3] < 0:
                accounted[span[4]] += span[2] - span[1]
        result.update(layers=layers, split=split, accounted=accounted)
        write_spans(args.trace, tracer.spans)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
