"""Seeded workload corpora for the benchmark.

Each workload is a list of instances ``{"id", "text", "expect"}``: the
rendered formula text the program receives and, where the verdict is known
by construction, ``"sat"`` or ``"unsat"`` (otherwise ``None``). The same
workload and seed always give the same corpus. Its SHA-256 fingerprint is
recorded per seed in ``baseline.json``, so a change in the ``ltlfsat.bench``
generators shows up as a changed fingerprint instead of a speed change.

The random workloads draw from fixed candidate lists whose members are
grouped into strata (``strata.json``, built by ``strata.py``): every seed
takes the same number of candidates from each stratum, so the mix of cheap
and costly instances, and with it the time percentiles, does not depend on
the seed. ``strata.json`` also holds a digest of every member; a generated
candidate that no longer matches it is reported as drift, and ``run.py``
fails the run.

Run as a script, it prints the corpus of one workload as JSON on stdout;
``run.py`` does this in a fresh process per pass and counts it as set-up:

    python3 perfbench/corpus.py --workload cdlsc-mix --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
STRATA = HERE / "strata.json"
WORKLOADS = ("cdlsc-deep", "cdlsc-mix", "oracle-exhaustive")

# cdlsc-deep: sizes are fixed so that the amount of work does not depend on
# the seed; the seed picks the atom names, and so the order of the
# eventualities' conjuncts relative to their atoms. Eight instances, so that
# the median is the mean of the fourth and fifth, one of them the 1 s
# eventualities-6: a median on one quarter-second instance moved by over a
# quarter between runs on a shared host.
CHAIN_SIZES = (10, 20, 30, 40)
EVENTUALITY_SIZES = (4, 5, 6, 7)

# cdlsc-mix: conjunctions of k pattern instances over 4 atoms, k over the
# range of the acceptance suites. Instances per stratum group.
MIX_K = range(3, 13)
MIX_ALPHABET = 4
MIX_SIZES = {"mix": 1200}

# oracle-exhaustive: random formulas shaped like the acceptance suite's
# ORACLE_SPEC. Systems of up to 17 states are most of the traffic, and the
# seed draws them. The rest is the same on every seed, because it holds most
# of the time and sets the p90: two fixed candidates, one whose exhaustive
# system reaches 128 states (per-solve time grows with the blocking clauses
# written while it is built) and an unsatisfiable one that brute force
# enumerates up to length 9, which sets the pass's peak memory; then the
# 18-64 state group, drawn once with ORACLE_FIXED_SEED, over a tenth of the
# corpus so that the p90 falls on it. Deciding these first gives their
# formulas the same interning order, and so the same solver path, on every
# seed.
ORACLE_SHAPE = dict(vars=3, length_min=5, length_max=12, temporal_prob=0.5)
ANCHORS = {"anchor-states128": 146, "anchor-brute9": 239}
ORACLE_FIXED_SIZES = {"mid": 30}
ORACLE_FIXED_SEED = 1811
ORACLE_SIZES = {"small": 150}


def x_chain(n, atom="a"):
    """``X^n a``: satisfiable, by a trace of n + 1 positions with a last."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return "X " * n + atom, "sat"


def distinct_eventualities(n, names=None):
    """``F p1 & ... & F pn & G(at most one p) & !(X^(n-1) true)``.

    Each of n atoms must hold somewhere, no two at the same position, on a
    trace of fewer than n positions: unsatisfiable by pigeonhole.
    ``names`` lists the atoms in the order their conjuncts are written.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    names = list(names) if names is not None else [f"p{i}" for i in range(1, n + 1)]
    if len(names) != n or len(set(names)) != n:
        raise ValueError("need n distinct atom names")
    parts = [f"F {p}" for p in names]
    pairs = [f"!({p} & {q})" for i, p in enumerate(names) for q in names[i + 1:]]
    parts.append("G (" + " & ".join(pairs) + ")")
    parts.append("!(" + "X " * (n - 1) + "true)")
    return " & ".join(parts), "unsat"


def mix_candidate(i, master_seed):
    """Formula of the i-th cdlsc-mix candidate."""
    from ltlfsat.bench import gen_conjunction

    rng = random.Random(master_seed + i)
    k = MIX_K[i % len(MIX_K)]
    return gen_conjunction(rng.getrandbits(60), k, rng.getrandbits(60),
                           alphabet_size=MIX_ALPHABET)


def oracle_candidate(i, master_seed):
    """Formula of the i-th oracle-exhaustive candidate."""
    from ltlfsat.bench import gen_random

    rng = random.Random(master_seed + i)
    length = rng.randrange(ORACLE_SHAPE["length_min"], ORACLE_SHAPE["length_max"] + 1)
    return gen_random(ORACLE_SHAPE["vars"], length, ORACLE_SHAPE["temporal_prob"],
                      rng.getrandbits(60))


CANDIDATES = {"cdlsc-mix": mix_candidate, "oracle-exhaustive": oracle_candidate}


def canonical(f):
    """f written out with the operands of ``&`` and ``|`` in sorted order.

    The package orders those operands by creation order, so the rendered
    text of a generated formula depends on what the process built before it;
    this form does not.
    """
    from ltlfsat.formula import And, Atom, Or

    memo = {}

    def walk(g):
        out = memo.get(g)
        if out is None:
            if isinstance(g, Atom):
                out = g.name
            elif hasattr(g, "operand"):
                out = f"{type(g).__name__}({walk(g.operand)})"
            elif hasattr(g, "left"):
                parts = [walk(g.left), walk(g.right)]
                if isinstance(g, (And, Or)):
                    parts.sort()
                out = f"{type(g).__name__}({parts[0]},{parts[1]})"
            else:
                out = type(g).__name__
            memo[g] = out
        return out

    return walk(f)


def formula_digest(f):
    """Short digest of one generated formula, as ``strata.json`` records it."""
    return hashlib.sha256(canonical(f).encode()).hexdigest()[:12]


def stratified(workload, sizes, rng, drift=None):
    """(stratum, formula) pairs: from every stratum, its share of its group's size.

    ``sizes`` maps a group (the part of a stratum name before the first
    ``/``) to its number of instances. Candidates that differ from the
    digest ``strata.json`` records are appended to ``drift``.
    """
    table = json.loads(STRATA.read_text())[workload]
    members = table["strata"]
    make = CANDIDATES[workload]
    out = []
    for group, size in sizes.items():
        names = sorted(s for s in members if s.split("/", 1)[0] == group)
        total = sum(len(members[s]) for s in names)
        for stratum in names:
            quota = round(size * len(members[stratum]) / total)
            for i in sorted(rng.sample(members[stratum], quota)):
                f = make(i, table["master_seed"])
                if drift is not None and formula_digest(f) != table["digests"][str(i)]:
                    drift.append(f"{workload} candidate {i}")
                out.append((stratum, f))
    return out


def oracle_anchors(drift=None):
    """(id, formula) of the fixed instances of oracle-exhaustive."""
    table = json.loads(STRATA.read_text())["oracle-exhaustive"]
    out = []
    for name, i in ANCHORS.items():
        f = oracle_candidate(i, table["master_seed"])
        if drift is not None and formula_digest(f) != table["anchors"][str(i)]:
            drift.append(f"oracle-exhaustive {name} (candidate {i})")
        out.append((name, f))
    return out


def _deep(seed):
    rng = random.Random(seed)
    out = []
    for n in CHAIN_SIZES:
        text, expect = x_chain(n, f"a{rng.randrange(100)}")
        out.append({"id": f"chain-{n:02d}", "text": text, "expect": expect})
    for n in EVENTUALITY_SIZES:
        names = [f"e{i}" for i in rng.sample(range(100), n)]
        text, expect = distinct_eventualities(n, names)
        out.append({"id": f"eventualities-{n}", "text": text, "expect": expect})
    return out


def _sampled(workload, sizes, seed, drift):
    from ltlfsat.formula import render

    rng = random.Random(seed)
    out = []
    for stratum, f in stratified(workload, sizes, rng, drift):
        out.append({"id": f"{stratum}#{len(out):04d}", "text": render(f), "expect": None})
    rng.shuffle(out)
    return out


def build(workload, seed, drift=None):
    """The corpus of one workload for one seed.

    Generated candidates that differ from ``strata.json`` are appended to
    ``drift``.
    """
    if workload == "cdlsc-deep":
        return _deep(seed)
    if workload == "cdlsc-mix":
        return _sampled(workload, MIX_SIZES, seed, drift)
    if workload == "oracle-exhaustive":
        from ltlfsat.formula import render

        anchors = [{"id": name, "text": render(f), "expect": None}
                   for name, f in oracle_anchors(drift)]
        fixed = _sampled(workload, ORACLE_FIXED_SIZES, ORACLE_FIXED_SEED, drift)
        return anchors + fixed + _sampled(workload, ORACLE_SIZES, seed, drift)
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


def fingerprint(corpus):
    """SHA-256 of the rendered corpus, in order."""
    digest = hashlib.sha256()
    for inst in corpus:
        digest.update(f"{inst['id']}\t{inst['text']}\n".encode())
    return digest.hexdigest()


def src_dir():
    """The package sources of the checkout this benchmark sits in."""
    src = HERE.parent / "src"
    if not (src / "ltlfsat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ltlfsat sources under {src}")
    return src


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(src_dir()))
    drift = []
    corpus = build(args.workload, args.seed, drift)
    json.dump({"sha256": fingerprint(corpus), "instances": corpus, "drift": drift}, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
