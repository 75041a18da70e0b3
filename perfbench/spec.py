"""What the benchmark measures: workloads, metrics and the layer map.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 perfbench/run.py --write-benchmark-json``), so the metric
names, units, bounds and workload rationale live in one place.

Every run prints every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``).  An *operation* is one call into the
program's public entry point: one ``ExperimentRunner.run`` cell on the
sweeps, one HTTP request on ``serve-zipf``.  That is how the request
metrics are defined on the sweeps and the cell metrics on serve (a
2xx ``/v1/reorder`` response is one evaluated cell).
"""

from __future__ import annotations

import json
from typing import Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

#: name -> one-line rationale (the ``why`` of BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "sweep-cold": "fig2 cells (12 bench families x 6 orderings, LRU, 16 sets) from an "
    "empty memo: reorder and cache-sim split the time",
    "sweep-cachesim": "full-size families, cheap orderings, LRU and Belady at 64 sets: "
    "cache-sim and the perf model dominate, reorder is near zero",
    "serve-zipf": "repro serve over HTTP, 2 closed-loop clients, zipf keys over mtx "
    "uploads: store hits, coalescing, admission and parsing",
}

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END = [
    ("cells_per_s", "1/s", "higher", 0.25),
    ("mean_norm_traffic", "ratio", "lower", 0.05),
    ("req_per_s", "1/s", "higher", 0.25),
    ("req_p50_ms", "ms", "lower", 0.25),
    ("req_p90_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_frac", "ratio", "higher", 0.01),
]

#: Layers, named after the modules whose public entry points the
#: tracer wraps.  ``experiments`` is the runner itself (the sweep's
#: root span); ``serve`` is the HTTP handler (serve's root span).
LAYERS = (
    "experiments",
    "graphs",
    "community",
    "reorder",
    "sparse",
    "trace",
    "cache",
    "gpu",
    "memo",
    "serve",
    "predict",
)

#: Orderings any workload runs; ``+`` is not allowed in metric names.
REORDER_TECHNIQUES = (
    "random",
    "original",
    "degsort",
    "dbg",
    "gorder",
    "rabbit",
    "rcm",
    "rabbit++",
)


def technique_metric(technique: str) -> str:
    return f"reorder.{technique.replace('+', 'p')}.s"


def _per_layer() -> List[tuple]:
    rows = [
        ("graphs.load.s", "s"),
        ("graphs.load.nnz_per_s", "1/s"),
        ("community.detect.s", "s"),
        ("community.detect.nodes_per_s", "1/s"),
        ("reorder.s", "s"),
    ]
    rows += [(technique_metric(t), "s") for t in REORDER_TECHNIQUES]
    rows += [
        ("reorder.nodes_per_s", "1/s"),
        ("sparse.permute.s", "s"),
        ("sparse.permute.nnz_per_s", "1/s"),
        ("trace.build.s", "s"),
        ("trace.accesses", "count"),
        ("cache.sim.s", "s"),
        ("cache.sim.accesses_per_s", "1/s"),
        ("cache.lru.s", "s"),
        ("cache.belady.s", "s"),
        ("cache.misses", "count"),
        ("cache.hit_ratio", "ratio"),
        ("gpu.model.s", "s"),
        ("memo.load.s", "s"),
        ("memo.store.s", "s"),
        ("memo.bytes", "bytes"),
        ("memo.hit_ratio", "ratio"),
        ("serve.hit_p50_ms", "ms"),
        ("serve.miss_p50_ms", "ms"),
        ("serve.hit_ratio", "ratio"),
        ("serve.coalesced", "count"),
        ("serve.shed", "count"),
        ("predict.recommend.s", "s"),
    ]
    rows += [(f"{layer}.share", "ratio") for layer in LAYERS]
    rows += [(f"{layer}.rss_delta_mb", "MB") for layer in LAYERS]
    rows += [("obs.overhead_frac", "ratio"), ("failed_frac", "ratio")]
    return rows


#: (name, unit); printed only by traced runs, no bound.
PER_LAYER = _per_layer()

#: The base of every ratio a result reports.
RATIO_BASES = {
    "cells_per_s": "cells that passed every output check / wall seconds of the timed window",
    "mean_norm_traffic": "modeled DRAM traffic bytes / compulsory traffic bytes, "
    "mean over cells (serve: over 2xx /v1/reorder bodies)",
    "req_per_s": "2xx operations / wall seconds of the timed window",
    "req_p50_ms / req_p90_ms": "Harrell-Davis estimate of the 50th / 90th percentile of "
    "per-operation client latency over every attempted operation (sweeps: one latency per "
    "cell, its median over the passes of the window); failures count as slower than any "
    "success",
    "ok_frac": "operations that passed every check / operations attempted "
    "(1 - failed_frac; failed_frac itself is 0 on a healthy run)",
    "failed_frac": "failed operations / attempted operations",
    "<layer>.share": "layer self (exclusive) seconds / summed root-span seconds of the "
    "traced run (sweeps: the timed window; serve: server request-handler time)",
    "<layer>.rss_delta_mb": "sum over the layer's calls of current RSS (/proc/self/statm) "
    "at exit minus at entry, children's deltas excluded",
    "*_per_s (layer)": "items the layer processed / that layer's self seconds",
    "cache.hit_ratio": "hits / simulated accesses",
    "memo.hit_ratio": "memo reads that returned a payload / memo lookups "
    "(ExperimentRunner.run cells + PermutationStore.get calls)",
    "serve.hit_ratio": "responses with X-Repro-Store: hit / 2xx responses",
    "obs.overhead_frac": "(traced wall - untraced wall) / untraced wall, same work",
}

#: Which end-to-end metric each layer metric should move, and on which
#: workload; ``not`` lists pairings where the prediction is no change.
LAYER_MOVES = [
    {
        "layer_metrics": ["reorder.*", "community.detect.*"],
        "moves": [["cells_per_s", "sweep-cold"], ["req_p90_ms", "serve-zipf"]],
        "not": [["cells_per_s", "sweep-cachesim"]],
    },
    {
        "layer_metrics": ["cache.*"],
        "moves": [["cells_per_s", "sweep-cold"], ["cells_per_s", "sweep-cachesim"]],
        "not": [],
    },
    {
        "layer_metrics": ["gpu.model.s"],
        "moves": [["cells_per_s", "sweep-cachesim"], ["cells_per_s", "sweep-cold"]],
        "not": [],
    },
    {
        "layer_metrics": ["sparse.permute.s", "trace.build.s"],
        "moves": [["cells_per_s", "sweep-cold"]],
        "not": [],
    },
    {
        "layer_metrics": ["memo.*"],
        # writes on the cold sweeps (every cell stores), reads on serve hits
        "moves": [["cells_per_s", "sweep-cold"], ["req_p50_ms", "serve-zipf"]],
        "not": [],
    },
    {
        "layer_metrics": ["graphs.load.*"],
        "moves": [
            ["cells_per_s", "sweep-cold"],
            ["cells_per_s", "sweep-cachesim"],
            ["req_p50_ms", "serve-zipf"],
        ],
        "not": [],
    },
    {
        "layer_metrics": ["serve.hit_ratio", "serve.coalesced"],
        "moves": [["req_per_s", "serve-zipf"], ["req_p50_ms", "serve-zipf"]],
        "not": [],
    },
    {
        "layer_metrics": ["<layer>.rss_delta_mb"],
        "moves": [["peak_rss_mb", "the workload where that layer dominates"]],
        "not": [],
    },
]


def benchmark_document() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _better(name)} for name, unit in PER_LAYER
        ],
    }


def _better(name: str) -> str:
    higher = ("_per_s", "hit_ratio", "serve.coalesced")
    return "higher" if name.endswith(higher) else "lower"


def render_benchmark_json() -> str:
    return json.dumps(benchmark_document(), indent=2) + "\n"
