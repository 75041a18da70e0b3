"""Self-tests of the benchmark at a tiny size: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import common, spec  # noqa: E402
from perfbench.common import model_errors, repeated_set_up  # noqa: E402
from perfbench.inputs import RECIPES, build_matrix  # noqa: E402
from perfbench.run import result_line  # noqa: E402
from perfbench.serving import Outcome, check_outcomes, run_serve  # noqa: E402
from perfbench.sweeps import Sweep, failed_cells, run_sweep  # noqa: E402
from repro.graphs.corpus import get_entry  # noqa: E402

TINY = Sweep("test", ("test-comm", "test-mesh"), ("original", "rabbit"), ("lru", "belady"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(autouse=True)
def _scratch_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))  # for the spawned server
    # two set-ups per run keep the repeat path exercised at tiny cost
    monkeypatch.setattr(common, "SETUP_MIN_REPEATS", 2)
    monkeypatch.setattr(common, "SETUP_MIN_SECONDS", 0.0)


def _sweep(tmp_path, seed, trace=False, label="w"):
    work = tmp_path / f"{label}-{seed}-{int(trace)}"
    work.mkdir()
    return run_sweep("sweep-cold", seed, 0.0, trace, str(work), sweep=TINY)


def test_benchmark_json_matches_spec_and_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = handle.read()
    assert committed == spec.render_benchmark_json()
    document = json.loads(committed)
    assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(document["workloads"]) <= 8 and len(document["per_layer"]) <= 128


def test_set_up_repeats_to_both_floors_and_discards_all_but_the_last(monkeypatch):
    monkeypatch.setattr(common, "SETUP_MIN_REPEATS", 3)
    monkeypatch.setattr(common, "SETUP_MIN_SECONDS", 0.05)
    discarded = []
    last, durations = repeated_set_up(lambda i: i, discard=discarded.append)
    assert len(durations) >= 3 and sum(durations) > 0
    assert discarded == list(range(last)) and last == len(durations) - 1
    assert repeated_set_up(lambda i: i, once=True)[0] == 0


def test_recipes_reproduce_the_corpus_generators():
    for name, recipe in RECIPES.items():
        ours, theirs = recipe(lambda base: base), get_entry(name).builder()
        assert ours.n_rows == theirs.n_rows
        assert np.array_equal(ours.rows, theirs.rows) and np.array_equal(ours.cols, theirs.cols)


def test_seed_selects_inputs():
    a, b = build_matrix("test-comm", 1), build_matrix("test-comm", 1)
    c = build_matrix("test-comm", 2)
    assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
    assert not (a.nnz == c.nnz and np.array_equal(a.rows, c.rows) and np.array_equal(a.cols, c.cols))


def test_sweep_emits_every_metric_and_is_deterministic(tmp_path):
    first = _sweep(tmp_path, 3, label="a")
    again = _sweep(tmp_path, 3, label="b")
    other = _sweep(tmp_path, 4, label="c")
    assert first.correct and first.failed == 0 and first.attempted >= 1
    line = result_line(first, trace=False)
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        n: u for n, u, *_ in spec.END_TO_END
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())
    digest = first.info["records_digest"]["untraced"]
    assert digest == again.info["records_digest"]["untraced"]
    assert digest != other.info["records_digest"]["untraced"]


def test_traced_sweep_shares_sum_to_one_and_digest_matches(tmp_path):
    result = _sweep(tmp_path, 5, trace=True)
    line = result_line(result, trace=True)
    assert {n: m["unit"] for n, m in line["metrics"].items()} == dict(spec.PER_LAYER)
    shares = sum(line["metrics"][f"{layer}.share"]["value"] for layer in spec.LAYERS)
    assert shares == pytest.approx(1.0, abs=0.01)
    digests = result.info["records_digest"]
    assert digests["traced"] == digests["untraced"] and result.correct


def test_corrupted_records_count_as_failed(tmp_path, monkeypatch):
    from repro.reorder.base import TimedReordering

    from perfbench.sweeps import FileRunner

    run, permutation = FileRunner.run, FileRunner.permutation

    def bad_count(self, matrix, technique, **kwargs):
        record = run(self, matrix, technique, **kwargs)
        if (matrix, technique, kwargs["policy"]) == ("test-comm", "rabbit", "lru"):
            record = dataclasses.replace(record, misses=record.misses + 1)
        return record

    monkeypatch.setattr(FileRunner, "run", bad_count)
    result = _sweep(tmp_path, 6, label="count")
    assert not result.correct and result.failed == 1
    assert "hits" in result.info["failures"]["test-comm/rabbit/lru"]

    def duplicate_entry(self, matrix, technique):
        timed = permutation(self, matrix, technique)
        if (matrix, technique) == ("test-mesh", "original"):
            perm = timed.permutation.copy()
            perm[1] = perm[0]
            timed = TimedReordering(timed.technique, perm, timed.seconds)
        return timed

    monkeypatch.setattr(FileRunner, "run", run)
    monkeypatch.setattr(FileRunner, "permutation", duplicate_entry)
    result = _sweep(tmp_path, 6, label="perm")
    # both policies of the corrupted (matrix, technique) fail
    assert not result.correct and result.failed == 2


def test_failed_cells_checks_bijection_and_accounting():
    from repro.experiments.runner import RunRecord

    record = RunRecord(
        matrix="m", technique="t", kernel="spmv-csr", policy="lru", mask="none",
        platform="p", normalized_traffic=2.0, normalized_runtime=2.0, traffic_bytes=64,
        compulsory_bytes=32, modeled_seconds=1.0, ideal_seconds=0.5, hit_rate=0.5,
        dead_line_fraction=0.0, accesses=4, misses=2, reorder_seconds=0.0,
    )
    cell, pair = ("m", "t", "lru"), ("m", "t")
    assert failed_cells({cell: record}, {pair: (np.arange(4), 4)}, 32) == {}
    assert failed_cells({cell: record}, {pair: (np.array([0, 1, 1, 3]), 4)}, 32)
    broken = dataclasses.replace(record, misses=3)
    assert failed_cells({cell: broken}, {pair: (np.arange(4), 4)}, 32)


def test_percentile_is_harrell_davis_and_failures_count_as_slowest():
    from perfbench.common import percentile

    hd = pytest.importorskip("scipy.stats.mstats").hdquantiles
    values = list(np.random.default_rng(1).lognormal(size=500))
    for q in (50, 90):
        assert percentile(values, q) == pytest.approx(float(hd(values, prob=[q / 100])[0]))
    assert percentile([1.0] * 95 + [math.inf] * 5, 90) < math.inf
    assert percentile([1.0] * 85 + [math.inf] * 15, 90) == math.inf


def test_model_identities():
    model = {"accesses": 10, "misses": 4, "hit_rate": 0.6, "traffic_bytes": 128,
             "compulsory_bytes": 64}
    assert model_errors(model, 32) == []
    assert model_errors(dict(model, hit_rate=0.5), 32)  # hits + misses != accesses
    assert model_errors(dict(model, traffic_bytes=100), 32)


def test_serve_checks_flag_bad_permutations_and_differing_bodies():
    from perfbench.inputs import InputSet, MatrixFile

    inputs = InputSet([MatrixFile("m", "m.mtx", 3, 3, False)])
    body = {"permutation": [2, 0, 1], "model": {"accesses": 10, "misses": 4, "hit_rate": 0.6,
            "traffic_bytes": 128, "compulsory_bytes": 64}}
    key = ("/v1/reorder", "m", "rcm")

    def outcome(payload, store="hit"):
        return Outcome(key, 200, store, json.dumps(payload).encode(), 0.01)

    passed, _ = check_outcomes([outcome(body, "miss"), outcome(body)], inputs, 32)
    assert passed == [True, True]
    passed, _ = check_outcomes([outcome(dict(body, permutation=[0, 0, 1]))], inputs, 32)
    assert passed == [False]
    passed, _ = check_outcomes(
        [outcome(body, "miss"), outcome(dict(body, technique="x"))], inputs, 32
    )
    assert passed == [True, False]


def test_serve_emits_every_metric(tmp_path):
    families = ("test-comm", "test-mesh")
    untraced = run_serve(7, 1.5, False, str(tmp_path), families=families)
    assert untraced.correct and untraced.attempted >= 1
    line = result_line(untraced, trace=False)
    assert all(m["value"] > 0 and not math.isinf(m["value"]) for m in line["metrics"].values())
    (tmp_path / "t").mkdir()
    traced = run_serve(7, 1.5, True, str(tmp_path / "t"), families=families)
    layer_line = result_line(traced, trace=True)
    shares = sum(layer_line["metrics"][f"{layer}.share"]["value"] for layer in spec.LAYERS)
    assert shares == pytest.approx(1.0, abs=0.01)
    assert traced.info["records_digest"]["traced"] == untraced.info["records_digest"]["untraced"]
