"""Build ``strata.json``: the candidate lists of the random workloads.

    PYTHONHASHSEED=0 python3 perfbench/strata.py

Candidate i of a workload is generated from ``master_seed + i`` (see
``corpus.py``); this script records which candidates make up each stratum,
and a digest of each member (see ``corpus.canonical``) so that
``corpus.py`` notices when a generator of ``ltlfsat.bench`` no longer
yields the same formula.
Candidates in no stratum are left out of the workload. Time per instance is
set by how much search an instance needs, which only deciding it shows, so
the strata are worked out once here and not at every set-up. A stratum's
name is ``group/...``; ``corpus.py`` fixes how many instances each group
contributes and spreads them over the group's strata by their size.

- cdlsc-mix strata are k and the number of SAT calls ``cdlsc.check``
  makes (1, 2, 3-10, 11-100). Candidates needing more than 100 calls, about
  0.6% of the family but a fifth of its time, are left out: cdlsc-mix
  measures shallow instances and cdlsc-deep measures deep ones.
- oracle-exhaustive strata are the size of the exhaustive transition system
  (group ``small``: up to 17 states, ``mid``: 18 to 64 states) and the CPU
  time of the whole oracle traffic of the candidate, in bands of a factor
  of the square root of two, named by their lower end in milliseconds. Larger systems and candidates with more than 6 temporal nodes
  after translation are left out; the workload's one large system is a
  fixed 128-state anchor that ``corpus.py`` names.
- A candidate that repeats an earlier one is left out.

The strata were computed at the commit that added the benchmark and are
not rebuilt when the program changes: they only fix how many instances of
each kind a seed draws. The times that place oracle candidates in bands
come from the machine that built the file; they are a sorting key, not a
measurement.
"""

from __future__ import annotations

import json
import math
import sys
import time

from corpus import (ANCHORS, MIX_K, STRATA, canonical, formula_digest, mix_candidate,
                    oracle_candidate, src_dir)

sys.path.insert(0, str(src_dir()))

from ltlfsat import cdlsc  # noqa: E402
from ltlfsat.formula import Next, Release, Until, closure, render, to_nnf, to_tnf  # noqa: E402

MIX_CANDIDATES = 3000
MIX_MAX_SAT_CALLS = 100
ORACLE_CANDIDATES = 2000
ORACLE_MAX_TEMPORAL = 6
ORACLE_SMALL_STATES = 17
ORACLE_MID_STATES = 64
MASTER_SEEDS = {"cdlsc-mix": 1811_0000_000, "oracle-exhaustive": 1811_0000_000_000}


def temporal_nodes(f):
    """Number of next/until/release nodes of f's translated form."""
    return sum(isinstance(g, (Next, Until, Release)) for g in closure(to_tnf(to_nnf(f))))


def mix_stratum(i, f):
    calls = cdlsc.check(f).stats.sat_calls
    if calls > MIX_MAX_SAT_CALLS:
        return None
    band = "1" if calls == 1 else "2" if calls == 2 else "3-10" if calls <= 10 else "11-100"
    return f"mix/k{MIX_K[i % len(MIX_K)]:02d}/calls{band}"


def oracle_stratum(i, f):
    from worker import decide_oracles

    if temporal_nodes(f) > ORACLE_MAX_TEMPORAL:
        return None
    start = time.process_time()
    states = decide_oracles(render(f))["states"]
    elapsed = time.process_time() - start
    if states > ORACLE_MID_STATES:
        return None
    group = "small" if states <= ORACLE_SMALL_STATES else "mid"
    band = max(0, math.floor(2 * math.log2(elapsed * 1000.0)))
    return f"{group}/ms{2 ** (band / 2):07.1f}"


def strata(workload, count, make, classify):
    """Candidate indices by stratum and the digests of their texts."""
    seed = MASTER_SEEDS[workload]
    seen = set()
    out = {}
    digests = {}
    for i in range(count):
        f = make(i, seed)
        key = canonical(f)
        stratum = None if key in seen else classify(i, f)
        seen.add(key)
        if stratum is not None:
            out.setdefault(stratum, []).append(i)
            digests[str(i)] = formula_digest(f)
    return {"master_seed": seed, "candidates": count,
            "strata": {k: out[k] for k in sorted(out)}, "digests": digests}


def main():
    table = {
        "cdlsc-mix": strata("cdlsc-mix", MIX_CANDIDATES, mix_candidate, mix_stratum),
        "oracle-exhaustive": strata("oracle-exhaustive", ORACLE_CANDIDATES,
                                    oracle_candidate, oracle_stratum),
    }
    oracle = table["oracle-exhaustive"]
    oracle["anchors"] = {str(i): formula_digest(oracle_candidate(i, oracle["master_seed"]))
                         for i in ANCHORS.values()}
    STRATA.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    for workload, t in table.items():
        kept = sum(len(v) for v in t["strata"].values())
        print(f"{workload}: {kept} of {t['candidates']} candidates in {len(t['strata'])} strata:",
              {k: len(v) for k, v in t["strata"].items()})


if __name__ == "__main__":
    main()
