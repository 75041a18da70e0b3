"""The sweep workloads: ExperimentRunner.run over generated .mtx inputs.

Each pass makes a fresh :class:`FileRunner` and runs every (matrix,
technique, kernel, policy) cell serially.  ``FileRunner`` reads the
benchmark's MatrixMarket files instead of the built-in corpus, so memo
keys, permutations and records are the ones a real sweep of those
matrices produces.  Output checks run after the timed window.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache import simulate
from repro.experiments import fig2
from repro.experiments.runner import ExperimentRunner, RunRecord
from repro.gpu.specs import scaled_platform
from repro.graphs import io as gio
from repro.graphs.corpus import corpus_names
from repro.graphs.graph import Graph
from repro.sparse import convert
from repro.sparse.permute import permute_symmetric
from repro.trace.kernelspec import KernelSpec

from perfbench.common import (
    digest,
    is_bijection,
    latency_ms,
    model_errors,
    repeated_set_up,
    workload_info,
)
from perfbench.inputs import InputSet, write_inputs
from perfbench.tracer import Tracer, installed, layer_metrics

Cell = Tuple[str, str, str]  # (matrix, technique, policy)
KERNEL = "spmv-csr"


@dataclass(frozen=True)
class Sweep:
    profile: str
    families: Tuple[str, ...]
    techniques: Tuple[str, ...]
    policies: Tuple[str, ...]


BENCH_FAMILIES = tuple(corpus_names("bench"))

SWEEPS: Dict[str, Sweep] = {
    "sweep-cold": Sweep("bench", BENCH_FAMILIES, tuple(fig2.TECHNIQUES), ("lru",)),
    "sweep-cachesim": Sweep(
        "full", ("soc-forum", "road-state", "kmer-protein"),
        ("original", "random", "degsort", "dbg"),
        ("lru", "belady"),
    ),
}


class FileRunner(ExperimentRunner):
    """An ExperimentRunner whose corpus is the benchmark's ``.mtx`` files."""

    def __init__(self, inputs: InputSet, profile: str, cache_dir: str) -> None:
        super().__init__(profile, cache_dir=cache_dir)
        self._inputs = inputs
        self._loaded: Dict[str, Graph] = {}

    def matrices(self) -> List[str]:
        return self._inputs.names

    def graph(self, matrix: str) -> Graph:
        if matrix not in self._loaded:
            entry = self._inputs.files[matrix]
            coo = gio.read_matrix_market(entry.path)
            self._loaded[matrix] = Graph(convert.coo_to_csr(coo), directed=entry.directed)
        return self._loaded[matrix]


def sweep_cells(sweep: Sweep, matrices: List[str], seed: int) -> List[Cell]:
    """Every cell, in a seeded order that spreads each matrix's costly
    cells over the pass instead of bunching them into one stretch of
    the window (records and memo keys do not depend on the order)."""
    cells = [(m, t, p) for m in matrices for t in sweep.techniques for p in sweep.policies]
    random.Random(seed).shuffle(cells)
    return cells


@dataclass
class Pass:
    runner: Optional[FileRunner]  # first pass only: its permutations are checked
    records: Optional[Dict[Cell, RunRecord]]  # None when not retained for checks
    raised: Dict[Cell, str]


@dataclass
class Window:
    passes: List[Pass]
    seconds: float
    latencies: List[float]  # per cell, in run order; inf where it raised
    cells: List[Cell]  # one pass, in run order


def _retained(index: int) -> bool:
    """Passes whose records are kept and checked: 0, 1, 2, 4, 8, ..."""
    return (index & (index - 1)) == 0


def run_pass(sweep: Sweep, runner: FileRunner, cells: List[Cell], latencies: List[float],
             keep: bool) -> Pass:
    records: Dict[Cell, RunRecord] = {}
    raised: Dict[Cell, str] = {}
    for cell in cells:
        matrix, technique, policy = cell
        start = time.perf_counter()
        try:
            record = runner.run(matrix, technique, kernel=KERNEL, policy=policy)
        except Exception as exc:  # noqa: BLE001 - a failed cell is counted, not fatal
            raised[cell] = f"raised {type(exc).__name__}: {exc}"
            latencies.append(math.inf)
            continue
        latencies.append(time.perf_counter() - start)
        if keep:
            records[cell] = record
    return Pass(None, records if keep else None, raised)


def timed_window(
    sweep: Sweep,
    inputs: InputSet,
    seed: int,
    memo_root: str,
    seconds: float,
    n_passes: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Window:
    """Whole passes, stopping where the elapsed time is nearest ``seconds``
    (at least one), or exactly ``n_passes``."""
    cells = sweep_cells(sweep, inputs.names, seed)
    passes: List[Pass] = []
    latencies: List[float] = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        runner = FileRunner(inputs, sweep.profile, os.path.join(memo_root, f"pass-{index}"))
        if tracer is None:
            pass_ = run_pass(sweep, runner, cells, latencies, _retained(index))
        else:
            with tracer.span("experiments"):
                pass_ = run_pass(sweep, runner, cells, latencies, _retained(index))
        if index == 0:
            pass_.runner = runner
        passes.append(pass_)
        elapsed = time.perf_counter() - start
        if n_passes is not None:
            if len(passes) >= n_passes:
                break
        elif elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
    return Window(passes, elapsed, latencies, cells)


# -- output checks ----------------------------------------------------------

def _comparable(record: RunRecord) -> dict:
    """A record as compared across passes: the wall-clock field, which
    each pass measures itself, dropped."""
    document = dataclasses.asdict(record)
    document.pop("reorder_seconds")
    return document


def failed_cells(
    records: Dict[Cell, RunRecord],
    permutations: Dict[Tuple[str, str], Tuple[object, int]],
    line_bytes: int,
) -> Dict[Cell, str]:
    """Cells whose record breaks an accounting identity or whose
    permutation is not a bijection; maps each to its first reason."""
    failed: Dict[Cell, str] = {}
    for cell, record in records.items():
        errors = model_errors(dataclasses.asdict(record), line_bytes)
        perm = permutations.get(cell[:2])
        if perm is not None and not is_bijection(*perm):
            errors.append(f"permutation of {cell[0]}/{cell[1]} is not a bijection")
        if errors:
            failed[cell] = errors[0]
    return failed


def permutations_of(runner: FileRunner, cells: List[Cell]) -> Dict[Tuple[str, str], Tuple[object, int]]:
    """The runner's (memoized) permutation of every (matrix, technique)."""
    out = {}
    for matrix, technique, _policy in cells:
        if (matrix, technique) not in out:
            perm = runner.permutation(matrix, technique).permutation
            out[(matrix, technique)] = (perm, runner.graph(matrix).n_nodes)
    return out


def reference_mismatches(
    sweep: Sweep, runner: FileRunner, records: Dict[Cell, RunRecord], seed: int
) -> Dict[Cell, str]:
    """Re-simulate a seed-chosen cell per (technique, policy) with the
    reference engine; its CacheStats must match the record's."""
    rng = random.Random(seed)
    matrices = runner.matrices()
    failed: Dict[Cell, str] = {}
    for technique in sweep.techniques:
        for policy in sweep.policies:
            cell = (rng.choice(matrices), technique, policy)
            record = records.get(cell)
            if record is None:
                continue
            permuted = permute_symmetric(
                runner.graph(cell[0]).adjacency,
                runner.permutation(cell[0], technique).permutation,
            )
            trace = KernelSpec.coerce(KERNEL).build_trace(
                permuted, runner.platform, schedule=runner.schedule
            )
            stats = simulate(trace, runner.platform.cache_config(), policy=policy,
                             impl="reference")
            expected = (stats.accesses, stats.misses, stats.traffic_bytes, stats.hit_rate,
                        stats.dead_line_fraction)
            got = (record.accesses, record.misses, record.traffic_bytes, record.hit_rate,
                   record.dead_line_fraction)
            if expected != got:
                failed[cell] = f"reference engine gives {expected}, record has {got}"
    return failed


@dataclass
class Checked:
    attempted: int
    failed: int
    reasons: Dict[Cell, str]
    records_digest: str
    reference: Dict[Cell, RunRecord]


def check_window(
    sweep: Sweep,
    window: Window,
    seed: int,
    line_bytes: int,
) -> Checked:
    """Check the first pass and compare every retained pass with it; a
    cell failing a check fails in every pass that ran it."""
    first = window.passes[0]
    runner, reference = first.runner, first.records
    reasons = failed_cells(reference, permutations_of(runner, window.cells), line_bytes)
    for cell, why in reference_mismatches(sweep, runner, reference, seed).items():
        reasons.setdefault(cell, why)
    for index, pass_ in enumerate(window.passes):
        for cell, record in (pass_.records or {}).items():
            base = reference.get(cell)
            if base is None or _comparable(record) != _comparable(base):
                reasons.setdefault(cell, f"pass {index} record differs from the reference")
    failed = 0
    for pass_ in window.passes:
        failed += len(set(pass_.raised) | set(reasons))
        for cell, why in pass_.raised.items():
            reasons.setdefault(cell, why)
    documents = [_comparable(reference[cell]) for cell in sorted(reference)]
    return Checked(
        attempted=len(window.passes) * len(window.cells),
        failed=failed,
        reasons=reasons,
        records_digest=digest(documents),
        reference=reference,
    )


# -- the workload -----------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    info: Dict[str, object]


def run_sweep(name: str, seed: int, seconds: float, trace: bool, work: str,
              sweep: Optional[Sweep] = None) -> Result:
    """One run of a sweep workload; ``sweep`` overrides the named shape."""
    sweep = sweep or SWEEPS[name]
    # Input generation; traced runs report no setup_s, so they set up once.
    inputs, setup_durations = repeated_set_up(
        lambda _repeat: write_inputs(sweep.families, seed, os.path.join(work, "inputs")),
        once=trace,
    )
    platform = scaled_platform(sweep.profile)
    line_bytes = platform.line_bytes
    window = timed_window(sweep, inputs, seed, os.path.join(work, "memo"), seconds)
    # Read before the checks: their reference re-simulation is seed-chosen.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = check_window(sweep, window, seed, line_bytes)
    attempted, failed = checked.attempted, checked.failed
    reasons = dict(checked.reasons)
    digests = {"untraced": checked.records_digest}

    if not trace:
        # A cell's latency is its median over the window's passes: the
        # host's speed drifts within seconds, and a percentile over single
        # timings ranks the cells that happened to run in a slow moment.
        n = len(window.cells)
        latencies = [
            math.inf if cell in reasons else statistics.median(window.latencies[i::n])
            for i, cell in enumerate(window.cells)
        ]
        good = [r for c, r in checked.reference.items() if c not in reasons]
        ok = attempted - failed
        metrics = {
            "cells_per_s": ok / window.seconds,
            "mean_norm_traffic": sum(r.normalized_traffic for r in good) / max(1, len(good)),
            "req_per_s": sum(1 for v in window.latencies if not math.isinf(v)) / window.seconds,
            "req_p50_ms": latency_ms(latencies, 50),
            "req_p90_ms": latency_ms(latencies, 90),
            "setup_s": statistics.median(setup_durations),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": ok / max(1, attempted),
        }
    else:
        tracer = Tracer()
        try:
            with installed(tracer):
                traced = timed_window(
                    sweep, inputs, seed, os.path.join(work, "memo-traced"), seconds,
                    n_passes=len(window.passes), tracer=tracer,
                )
        finally:
            tracer.close()
        traced_check = check_window(sweep, traced, seed, line_bytes)
        attempted += traced_check.attempted
        failed += traced_check.failed
        for cell, why in traced_check.reasons.items():
            reasons.setdefault(cell, why)
        digests["traced"] = traced_check.records_digest
        metrics = layer_metrics(tracer)
        metrics.update({
            "serve.hit_p50_ms": 0.0,
            "serve.miss_p50_ms": 0.0,
            "serve.hit_ratio": 0.0,
            "serve.coalesced": 0.0,
            "serve.shed": 0.0,
            "obs.overhead_frac": (traced.seconds - window.seconds) / window.seconds,
            "failed_frac": failed / max(1, attempted),
        })
    info = workload_info(name, seed, trace, digests, platform, inputs)
    info.update({
        "techniques": list(sweep.techniques),
        "policies": list(sweep.policies),
        "kernel": KERNEL,
        "memo": "cold (empty per pass)",
        "cells_per_pass": len(window.cells),
        "passes": len(window.passes),
        "window_s": window.seconds,
        "latency_samples": len(window.cells),
        "latency_sample": "one per cell: its median over the passes",
        "simulated_accesses_per_pass": sum(r.accesses for r in checked.reference.values()),
        "reference_sampled_cells": len(sweep.techniques) * len(sweep.policies),
        "setup_repeats": len(setup_durations),
        "failures": {"/".join(cell): why for cell, why in reasons.items()},
    })
    correct = failed == 0 and len(set(digests.values())) == 1
    return Result(correct, attempted, failed, metrics, info)
