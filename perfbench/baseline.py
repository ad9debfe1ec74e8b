"""Measure the benchmark over several seeds and record the result.

    python3 perfbench/baseline.py --seeds 1-10 --trace-seeds 1-3

Runs ``run.py`` once per workload and seed, one run at a time, with the run
length from ``BENCHMARK.json``. For every end-to-end metric it prints the
median, the quartiles and the spread (quartile distance over median) next to
the metric's bound; then it runs the traced seeds. It stores the figures,
the seeds and each seed's corpus fingerprint in ``perfbench/baseline.json``,
keeping the keys it does not measure (such as ``moves``, the map from
per-layer to end-to-end metrics).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
SPLIT_PREFIX = "self-time split (s): "


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {proc.returncode}")
    header = re.search(r": (\d+) instances, corpus sha256 ([0-9a-f]{64})", lines[0])
    split = next((json.loads(line[len(SPLIT_PREFIX):]) for line in lines
                  if line.startswith(SPLIT_PREFIX)), None)
    return int(header.group(1)), header.group(2), json.loads(lines[-1]), split


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace-seeds", type=seed_range, default=[])
    parser.add_argument("--workloads", nargs="+", help="default: all of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    record = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    measured = record.setdefault("workloads", {})
    for workload in names:
        entry = {"seeds": args.seeds, "corpus_sha256": {}, "attempted": 0, "failed": 0}
        values = {}
        for seed in args.seeds:
            count, sha, result, _ = run_once(workload, seed, spec["run_seconds"], 0)
            entry["instances"] = count
            entry["corpus_sha256"][str(seed)] = sha
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry["end_to_end"] = {name: summary(v) for name, v in values.items()}
        for name, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {workload} {name}: median {s['median']:.4g} q1 {s['q1']:.4g}"
                  f" q3 {s['q3']:.4g} spread {s['spread']:.3f} bound {bounds[name]} {flag}")
        if args.trace_seeds:
            layers = {}
            splits = []
            for seed in args.trace_seeds:
                _, _, result, split = run_once(workload, seed, spec["run_seconds"], 1)
                splits.append(split)
                for name, m in result["metrics"].items():
                    layers.setdefault(name, []).append(m["value"])
            entry["trace_seeds"] = args.trace_seeds
            entry["per_layer"] = {name: statistics.median(v) for name, v in layers.items()}
            entry["self_time_split_s"] = {
                name: statistics.median(s.get(name, 0.0) for s in splits)
                for name in sorted(set().union(*splits))
            }
            print(f"  {workload} trace.overhead_ratio"
                  f" {entry['per_layer']['trace.overhead_ratio']:.3f}")
        measured[workload] = entry
        BASELINE.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
