"""Perf-regression gate: payload comparison logic and the CLI gate.

The load-bearing acceptance test is
``test_cli_gate_fails_on_perturbed_baseline``: it locks in that
``repro bench --check`` exits nonzero when a speedup drops beyond
tolerance, which is what CI relies on.
"""

import json
import os

import pytest

from repro.cli import main
from repro.obs.benchgate import (
    DEFAULT_TOLERANCE,
    check_files,
    compare_payloads,
    format_gate_report,
)


def payload(speedups, match=True, match_key="stats_match"):
    return {"speedups": dict(speedups), match_key: match, "results": []}


class TestComparePayloads:
    def test_identical_passes(self):
        result = compare_payloads("sim", payload({"lru": 8.0}), payload({"lru": 8.0}))
        assert result.passed
        assert [d.regressed for d in result.deltas] == [False]

    def test_within_tolerance_passes(self):
        base, fresh = payload({"lru": 10.0}), payload({"lru": 6.5})
        assert compare_payloads("sim", base, fresh, tolerance=0.4).passed

    def test_beyond_tolerance_fails(self):
        base, fresh = payload({"lru": 10.0}), payload({"lru": 5.9})
        result = compare_payloads("sim", base, fresh, tolerance=0.4)
        assert not result.passed
        delta = result.deltas[0]
        assert delta.regressed
        assert "fell" in delta.note

    def test_improvement_never_fails(self):
        result = compare_payloads("sim", payload({"lru": 2.0}), payload({"lru": 9.0}))
        assert result.passed
        assert "improved" in result.deltas[0].note

    def test_missing_metric_is_a_regression(self):
        result = compare_payloads(
            "reorder", payload({"rabbit": 3.0, "rcm": 2.0}), payload({"rcm": 2.0})
        )
        assert not result.passed
        missing = [d for d in result.deltas if d.name == "rabbit"]
        assert missing[0].regressed
        assert missing[0].fresh is None

    def test_new_metric_is_informational(self):
        result = compare_payloads("sim", payload({"lru": 2.0}),
                                  payload({"lru": 2.0, "belady": 4.0}))
        assert result.passed
        new = [d for d in result.deltas if d.name == "belady"][0]
        assert not new.regressed and new.baseline is None

    def test_false_correctness_flag_fails_regardless_of_speedups(self):
        for key in ("stats_match", "results_match"):
            fresh = payload({"lru": 99.0}, match=False, match_key=key)
            result = compare_payloads("sim", payload({"lru": 1.0}), fresh)
            assert not result.passed
            assert any(key in e for e in result.errors)

    def test_baseline_without_speedups_errors(self):
        result = compare_payloads("sim", {"results": []}, payload({"lru": 1.0}))
        assert not result.passed


class TestCheckFiles:
    def write(self, path, doc):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    def test_missing_baseline_is_always_an_error(self, tmp_path):
        fresh = self.write(str(tmp_path / "fresh.json"), payload({"lru": 1.0}))
        results, skipped = check_files([("sim", str(tmp_path / "nope.json"), fresh)])
        assert not results[0].passed
        assert "baseline" in results[0].errors[0]
        assert skipped == []

    def test_missing_fresh_skips_unless_strict(self, tmp_path):
        base = self.write(str(tmp_path / "base.json"), payload({"lru": 1.0}))
        missing = str(tmp_path / "fresh.json")
        results, skipped = check_files([("sim", base, missing)], strict=False)
        assert results == [] and len(skipped) == 1
        results, skipped = check_files([("sim", base, missing)], strict=True)
        assert skipped == [] and not results[0].passed

    def test_unreadable_fresh_treated_as_missing(self, tmp_path):
        base = self.write(str(tmp_path / "base.json"), payload({"lru": 1.0}))
        bad = str(tmp_path / "fresh.json")
        with open(bad, "w") as handle:
            handle.write("{truncated")
        results, skipped = check_files([("sim", base, bad)], strict=True)
        assert not results[0].passed

    def test_report_formatting(self, tmp_path):
        base = self.write(str(tmp_path / "base.json"), payload({"lru": 10.0}))
        fresh = self.write(str(tmp_path / "fresh.json"), payload({"lru": 1.0}))
        results, skipped = check_files([("sim", base, fresh)])
        text = format_gate_report(results, skipped)
        assert "[FAIL] sim" in text
        assert "REGRESSED" in text


class TestBenchCli:
    def seed(self, tmp_path, sim=None, reorder=None):
        baselines = tmp_path / "baselines"
        baselines.mkdir(exist_ok=True)
        if sim is not None:
            json.dump(sim, open(baselines / "BENCH_sim.json", "w"))
        if reorder is not None:
            json.dump(reorder, open(baselines / "BENCH_reorder.json", "w"))
        return str(baselines)

    def args(self, tmp_path, baselines, *extra):
        return [
            "bench", "--check",
            "--sim", str(tmp_path / "BENCH_sim.json"),
            "--reorder", str(tmp_path / "BENCH_reorder.json"),
            "--baseline-dir", baselines,
            *extra,
        ]

    def test_cli_gate_passes_on_matching_payloads(self, tmp_path, capsys):
        sim = payload({"lru": 8.0})
        reorder = payload({"rabbit": 2.0}, match_key="results_match")
        baselines = self.seed(tmp_path, sim=sim, reorder=reorder)
        json.dump(sim, open(tmp_path / "BENCH_sim.json", "w"))
        json.dump(reorder, open(tmp_path / "BENCH_reorder.json", "w"))
        assert main(self.args(tmp_path, baselines, "--strict")) == 0
        assert "bench gate: PASS" in capsys.readouterr().out

    def test_cli_gate_fails_on_perturbed_baseline(self, tmp_path, capsys):
        """Acceptance: a speedup drop beyond tolerance exits nonzero."""
        sim = payload({"lru": 8.0})
        reorder = payload({"rabbit": 2.0}, match_key="results_match")
        baselines = self.seed(tmp_path, sim=sim, reorder=reorder)
        perturbed = payload({"lru": 8.0 * (1 - DEFAULT_TOLERANCE) * 0.9})
        json.dump(perturbed, open(tmp_path / "BENCH_sim.json", "w"))
        json.dump(reorder, open(tmp_path / "BENCH_reorder.json", "w"))
        code = main(self.args(tmp_path, baselines, "--strict"))
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "bench gate: FAIL" in captured.err

    def test_cli_tolerance_flag(self, tmp_path):
        sim = payload({"lru": 10.0})
        reorder = payload({"rabbit": 2.0}, match_key="results_match")
        baselines = self.seed(tmp_path, sim=sim, reorder=reorder)
        json.dump(payload({"lru": 7.0}), open(tmp_path / "BENCH_sim.json", "w"))
        json.dump(reorder, open(tmp_path / "BENCH_reorder.json", "w"))
        assert main(self.args(tmp_path, baselines, "--tolerance", "0.5")) == 0
        assert main(self.args(tmp_path, baselines, "--tolerance", "0.1")) == 1

    def test_cli_missing_fresh_skips_without_strict_fails_with(self, tmp_path):
        baselines = self.seed(
            tmp_path,
            sim=payload({"lru": 8.0}),
            reorder=payload({"rabbit": 2.0}, match_key="results_match"),
        )
        assert main(self.args(tmp_path, baselines)) == 0
        assert main(self.args(tmp_path, baselines, "--strict")) == 1

    def test_cli_update_seeds_baselines(self, tmp_path, capsys):
        baselines = str(tmp_path / "baselines")
        sim = payload({"lru": 8.0})
        json.dump(sim, open(tmp_path / "BENCH_sim.json", "w"))
        code = main([
            "bench", "--update",
            "--sim", str(tmp_path / "BENCH_sim.json"),
            "--reorder", str(tmp_path / "BENCH_reorder.json"),
            "--baseline-dir", baselines,
        ])
        assert code == 0
        assert json.load(open(os.path.join(baselines, "BENCH_sim.json"))) == sim
        assert "BASELINE" in capsys.readouterr().out

    def test_cli_bench_without_action_errors(self, tmp_path, capsys):
        assert main(["bench", "--baseline-dir", str(tmp_path)]) == 2
        assert "needs --check or --update" in capsys.readouterr().err

    def test_cli_writes_bench_check_manifest(self, tmp_path, monkeypatch, capsys):
        runs_dir = str(tmp_path / "ledger")
        monkeypatch.setenv("REPRO_RUNS_DIR", runs_dir)
        sim = payload({"lru": 8.0})
        reorder = payload({"rabbit": 2.0}, match_key="results_match")
        baselines = self.seed(tmp_path, sim=sim, reorder=reorder)
        json.dump(sim, open(tmp_path / "BENCH_sim.json", "w"))
        json.dump(reorder, open(tmp_path / "BENCH_reorder.json", "w"))
        assert main(self.args(tmp_path, baselines)) == 0
        run_id = os.listdir(runs_dir)[0]
        manifest = json.load(
            open(os.path.join(runs_dir, run_id, "manifest.json"))
        )
        assert manifest["kind"] == "bench-check"
        assert manifest["bench"]["tolerance"] == pytest.approx(DEFAULT_TOLERANCE)
        assert [r["label"] for r in manifest["bench"]["results"]] == [
            "bench-sim", "bench-reorder",
        ]
        assert all(r["passed"] for r in manifest["bench"]["results"])


def test_committed_baselines_are_wellformed():
    """The baselines in the repo must parse and carry speedups, so the
    CI gate always has something real to compare against."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("BENCH_sim.json", "BENCH_reorder.json"):
        path = os.path.join(repo_root, "benchmarks", "baselines", name)
        assert os.path.exists(path), f"missing committed baseline {name}"
        doc = json.load(open(path))
        assert doc["speedups"], name
        assert all(v > 0 for v in doc["speedups"].values())


def test_bench_sim_smoke_covers_committed_baseline(tmp_path):
    """A fresh ``bench-sim --smoke`` carries every gated speedup of the
    committed baseline, including LRU at the 16-set bench L2."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline = json.load(
        open(os.path.join(repo_root, "benchmarks", "baselines", "BENCH_sim.json"))
    )
    out = str(tmp_path / "BENCH_sim.json")
    assert main(["--quiet", "bench-sim", "--smoke", "--json", out]) == 0
    fresh = json.load(open(out))
    assert fresh["stats_match"] is True
    assert set(baseline["speedups"]) <= set(fresh["speedups"])
    assert "lru@16sets" in fresh["speedups"]
