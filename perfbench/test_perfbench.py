"""Tests of the benchmark's own parts: hard families, corpora, verdict
checks and the tracer's accounting.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import random
from collections import Counter

import pytest

import corpus
import run
import worker
from tracer import PER_LAYER, Tracer, layer_metrics, self_times

import ltlfsat.abstraction as abstraction
import ltlfsat.cdlsc as cdlsc
import ltlfsat.satengine as satengine
from ltlfsat.formula import parse, render, to_nnf, to_tnf
from ltlfsat.semantics import brute_force_sat
from ltlfsat.transition import naive_check


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_x_chain_matches_oracles(n):
    text, expect = corpus.x_chain(n)
    f = parse(text)
    assert expect == "sat"
    assert naive_check(to_tnf(to_nnf(f))).sat
    assert cdlsc.check(f).sat
    # the shortest witness has exactly n + 1 positions
    assert len(brute_force_sat(f, n + 1)) == n + 1
    assert n == 0 or brute_force_sat(f, n) is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_distinct_eventualities_match_oracles(n):
    text, expect = corpus.distinct_eventualities(n)
    f = parse(text)
    assert expect == "unsat"
    assert not naive_check(to_tnf(to_nnf(f))).sat
    assert not cdlsc.check(f).sat
    # the length bound admits fewer than n positions, so this bound is complete
    assert brute_force_sat(f, n) is None
    # without the length bound the eventualities fit on n positions
    relaxed = parse(text.rsplit(" & ", 1)[0])
    assert len(brute_force_sat(relaxed, n)) == n


def test_corpora_are_seeded():
    for workload in corpus.WORKLOADS:
        a = corpus.fingerprint(corpus.build(workload, 7))
        assert a == corpus.fingerprint(corpus.build(workload, 7))
        assert a != corpus.fingerprint(corpus.build(workload, 8))


def test_sampled_corpora_take_every_stratum_share():
    for workload, sizes in (("cdlsc-mix", corpus.MIX_SIZES),
                            ("oracle-exhaustive", corpus.ORACLE_SIZES),
                            ("oracle-exhaustive", corpus.ORACLE_FIXED_SIZES)):
        drift = []
        a = corpus.stratified(workload, sizes, random.Random(1), drift)
        b = corpus.stratified(workload, sizes, random.Random(2))
        assert drift == []
        for group, size in sizes.items():
            got = [s for s, _ in a if s.split("/", 1)[0] == group]
            assert abs(len(got) - size) <= len(set(got)) / 2
        assert Counter(s for s, _ in a) == Counter(s for s, _ in b)
        assert {render(f) for _, f in a} != {render(f) for _, f in b}


def test_oracle_corpus_starts_with_the_parts_every_seed_shares():
    other = corpus.build("oracle-exhaustive", 5)
    fixed = next(i for i, inst in enumerate(other) if inst["id"].startswith("small/"))
    assert [inst["id"] for inst in other[:2]] == list(corpus.ANCHORS)
    assert all(inst["id"].startswith("mid/") for inst in other[2:fixed])
    assert fixed - 2 >= 0.1 * len(other)
    for seed in (3, 4):
        built = corpus.build("oracle-exhaustive", seed)
        assert built[:fixed] == other[:fixed]
        assert built[fixed:] != other[fixed:]


def test_changed_generator_output_is_reported_as_drift(tmp_path, monkeypatch):
    table = json.loads(corpus.STRATA.read_text())
    digests = table["cdlsc-mix"]["digests"]
    changed = sorted(digests)[0]
    digests[changed] = "0" * 12
    anchor = str(corpus.ANCHORS["anchor-brute9"])
    table["oracle-exhaustive"]["anchors"][anchor] = "0" * 12
    path = tmp_path / "strata.json"
    path.write_text(json.dumps(table))
    monkeypatch.setattr(corpus, "STRATA", path)
    drift = []
    corpus.stratified("cdlsc-mix", {"mix": len(digests)}, random.Random(1), drift)
    corpus.oracle_anchors(drift)
    assert drift == [f"cdlsc-mix candidate {changed}",
                     f"oracle-exhaustive anchor-brute9 (candidate {anchor})"]


def test_corpus_problems_flag_drift_and_a_changed_fingerprint(monkeypatch):
    clean = {"corpus": {"sha256": "a" * 64, "drift": []}}
    monkeypatch.setattr(run, "baseline_fingerprint", lambda workload, seed: "a" * 64)
    assert run.corpus_problems("cdlsc-mix", 1, [clean, clean]) == []
    drifted = {"corpus": {"sha256": "a" * 64, "drift": ["cdlsc-mix candidate 7"]}}
    assert run.corpus_problems("cdlsc-mix", 1, [drifted])
    monkeypatch.setattr(run, "baseline_fingerprint", lambda workload, seed: "b" * 64)
    assert run.corpus_problems("cdlsc-mix", 1, [clean])


def _deep_instance(expect):
    return {"id": "x", "text": "X a", "expect": expect}


def test_verify_accepts_a_correct_outcome():
    good = {"cdlsc": {"sat": True, "witness": {"positions": [[], ["a"]], "alphabet": ["a"]}}}
    assert run.verify("cdlsc-deep", _deep_instance("sat"), [good, good]) == []


@pytest.mark.parametrize("outcome", [
    {"cdlsc": {"sat": False, "witness": None}},
    {"cdlsc": {"sat": True, "witness": {"positions": [["a"]], "alphabet": ["a"]}}},
    {"cdlsc": {"sat": True, "witness": None}},
    {"abort": "InstanceTimeout: no verdict"},
])
def test_verify_rejects_wrong_verdict_bad_witness_and_abort(outcome):
    assert run.verify("cdlsc-deep", _deep_instance("sat"), [outcome])


def test_a_raising_instance_is_a_failed_outcome(monkeypatch):
    def crash(text):
        raise AssertionError("witness fails evaluate")

    monkeypatch.setitem(worker.DECIDE, "cdlsc-deep", crash)
    _, times, outcomes = worker.run_pass("cdlsc-deep", [{"text": "X a"}, {"text": "a"}])
    assert len(times) == 2
    assert outcomes[0]["abort"].startswith("AssertionError: witness fails evaluate (")
    assert run.verify("cdlsc-deep", _deep_instance("sat"), outcomes)


def test_a_witness_that_cannot_be_evaluated_is_a_problem():
    undeclared = {"cdlsc": {"sat": True, "witness": {"positions": [[], []], "alphabet": []}}}
    assert run.verify("cdlsc-deep", _deep_instance("sat"), [undeclared])


def test_verify_rejects_oracle_disagreement_and_refuted_unsat():
    outcome = {
        "cdlsc": {"sat": False, "witness": None},
        "naive": {"sat": True, "witness": {"positions": [[], ["a"]], "alphabet": ["a"]}},
        "brute": {"sat": False, "witness": None},
    }
    assert run.verify("oracle-exhaustive", _deep_instance(None), [outcome])
    refuted = {"cdlsc": {"sat": False, "witness": None}}
    assert run.verify("cdlsc-mix", _deep_instance(None), [refuted])


def test_self_times_subtract_direct_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0, None),
        ("b", 1.0, 4.0, 0, 0, None),
        ("c", 2.0, 3.0, 1, 0, None),
        ("d", 5.0, 9.0, 0, 0, None),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_traced_pass_accounts_for_wall_time_and_restores_the_package():
    originals = (cdlsc.check, cdlsc.inv_found, abstraction.Encoder.query,
                 satengine.SatSolver.solve)
    items = [
        ("cdlsc-deep", corpus.x_chain(14)[0]),
        ("cdlsc-deep", corpus.distinct_eventualities(5)[0]),
        ("oracle-exhaustive", "G (p0 -> X F p1) & F (p1 U p2)"),
    ]
    for workload, text in items:
        tracer = Tracer()
        with tracer.installed():
            _, times, outcomes = worker.run_pass(workload, [{"text": text}], tracer)
        assert "abort" not in outcomes[0]
        own = self_times(tracer.spans)
        assert all(s >= -1e-9 for s in own)
        accounted = sum(own)
        assert abs(accounted - times[0]) <= 0.03 * times[0] + 2e-4
        layers, split = layer_metrics(tracer.spans, tracer.solvers_created)
        assert sum(split.values()) == pytest.approx(accounted)
        assert layers["satengine.solve_calls"] > 0
        assert layers["abstraction.query_calls"] > 0
        assert layers["cdlsc.check_s"] > 0
    assert originals == (cdlsc.check, cdlsc.inv_found, abstraction.Encoder.query,
                         satengine.SatSolver.solve)


def test_benchmark_json_names_the_workloads_and_layers_the_code_reports():
    spec = json.loads((corpus.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
        PER_LAYER, **{"trace.overhead_ratio": "ratio", "trace.accounted_ratio": "ratio"})
