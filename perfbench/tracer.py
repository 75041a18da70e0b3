"""Exclusive-time span tracer and the layer wrappers it installs.

A span is opened around each call into a layer's public entry point;
the wrappers live here, in the benchmark's own files, and replace the
entry point only in the namespaces that call it.  A span's *self* time
is its duration minus the time covered by the spans it caused, so the
self times of one thread partition its root spans exactly and layer
shares sum to 100%.  Memory is the current resident set read from
``/proc/self/statm`` at span entry and exit, also counted exclusively
(not the monotone ``ru_maxrss``); it is process-wide, so under
concurrent server threads a span's delta includes the other threads'.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / float(1 << 20)


def current_rss_mb(statm_fd: int) -> float:
    """Current resident set, from an open ``/proc/self/statm``, in MB."""
    return int(os.pread(statm_fd, 128, 0).split()[1]) * _PAGE_MB


class Tracer:
    """Per-thread span stacks accumulating exclusive time per layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        #: layer (or ``layer.detail``) -> exclusive seconds
        self.self_s: Dict[str, float] = defaultdict(float)
        #: layer -> exclusive net RSS change, MB
        self.rss_mb: Dict[str, float] = defaultdict(float)
        #: free-form counters (items processed, hits, bytes)
        self.counts: Dict[str, float] = defaultdict(float)
        #: summed duration of root spans (the base of every share)
        self.root_s = 0.0

    def close(self) -> None:
        os.close(self._statm)

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, detail: Optional[str] = None) -> Iterator[None]:
        stack = self._stack()
        # [start, child seconds, rss at entry, child rss delta]
        frame = [time.perf_counter(), 0.0, current_rss_mb(self._statm), 0.0]
        stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            delta = current_rss_mb(self._statm) - frame[2]
            stack.pop()
            exclusive = duration - frame[1]
            with self._lock:
                self.self_s[layer] += exclusive
                if detail is not None:
                    self.self_s[f"{layer}.{detail}"] += exclusive
                self.rss_mb[layer] += delta - frame[3]
                if stack:
                    stack[-1][1] += duration
                    stack[-1][3] += delta
                else:
                    self.root_s += duration

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value


# -- layer wrappers --------------------------------------------------------

#: (module, attribute, layer, name of the hook below).  A function is
#: replaced in each namespace that calls it; a method on its class.
_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.graphs.io", "read_matrix_market", "graphs", "parsed"),
    ("repro.sparse.convert", "coo_to_csr", "graphs", ""),
    ("repro.serve.service", "read_matrix_market", "graphs", "parsed"),
    ("repro.serve.service", "coo_to_csr", "graphs", ""),
    ("repro.reorder.rabbit", "rabbit_communities", "community", "detected"),
    ("repro.reorder.rabbitpp", "rabbit_communities", "community", "detected"),
    ("repro.reorder.base", "ReorderingTechnique.compute", "reorder", "ordered"),
    ("repro.experiments.runner", "permute_symmetric", "sparse", "permuted"),
    ("repro.serve.service", "permute_symmetric", "sparse", "permuted"),
    ("repro.trace.kernelspec", "KernelSpec.build_trace", "trace", "traced"),
    ("repro.gpu.perf", "simulate", "cache", "simulated"),
    ("repro.experiments.runner", "model_run", "gpu", ""),
    ("repro.serve.service", "model_run", "gpu", ""),
    ("repro.experiments.runner", "load_or_quarantine", "memo", "memo_read"),
    ("repro.serve.store", "load_or_quarantine", "memo", "memo_read"),
    ("repro.experiments.runner", "atomic_write_document", "memo", "memo_written"),
    ("repro.serve.store", "atomic_write_document", "memo", "memo_written"),
    ("repro.experiments.runner", "ExperimentRunner.run", "experiments", "memo_lookup"),
    ("repro.serve.store", "PermutationStore.get", "serve", "memo_lookup"),
    ("repro.serve.service", "recommendation_from_features", "predict", ""),
    ("repro.serve.httpd", "ServeHandler.do_POST", "serve", ""),
)


def _detail(hook: str, args: tuple, kwargs: dict) -> Optional[str]:
    if hook == "ordered":
        return args[0].name
    if hook == "simulated":
        return kwargs.get("policy", "lru")
    if hook == "memo_read":
        return "load"
    if hook == "memo_written":
        return "store"
    return None


def _account(tracer: Tracer, hook: str, args: tuple, result: object) -> None:
    """Items and outcomes counted at the layer boundary."""
    if hook == "parsed":
        tracer.count("graphs.nnz", result.nnz)
    elif hook == "detected":
        tracer.count("community.nodes", args[0].n_nodes)
    elif hook == "ordered":
        tracer.count("reorder.nodes", args[1].n_nodes)
    elif hook == "permuted":
        tracer.count("sparse.nnz", args[0].nnz)
    elif hook == "traced":
        tracer.count("trace.accesses", result.lines.size)
    elif hook == "simulated":
        tracer.count("cache.accesses", result.accesses)
        tracer.count("cache.hits", result.hits)
        tracer.count("cache.misses", result.misses)
    elif hook == "memo_read" and result is not None:
        tracer.count("memo.hits")
        tracer.count("memo.bytes", os.path.getsize(args[0]))
    elif hook == "memo_written":
        tracer.count("memo.bytes", os.path.getsize(args[0]))
    elif hook == "memo_lookup":
        tracer.count("memo.lookups")


def _wrap(tracer: Tracer, fn: Callable, layer: str, hook: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(layer, _detail(hook, args, kwargs)):
            result = fn(*args, **kwargs)
        _account(tracer, hook, args, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer entry point for the duration of the block."""
    undo = []
    try:
        for module_name, attribute, layer, hook in _TARGETS:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            undo.append((owner, name, original))
            setattr(owner, name, _wrap(tracer, original, layer, hook))
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics a traced run derives from its spans; the
    workload adds the client-side serve metrics, overhead and failures."""
    from perfbench import spec

    s, c = tracer.self_s, tracer.counts

    def rate(items: float, seconds: float) -> float:
        return items / seconds if seconds > 0 else 0.0

    metrics = {
        "graphs.load.s": s["graphs"],
        "graphs.load.nnz_per_s": rate(c["graphs.nnz"], s["graphs"]),
        "community.detect.s": s["community"],
        "community.detect.nodes_per_s": rate(c["community.nodes"], s["community"]),
        "reorder.s": s["reorder"],
        "reorder.nodes_per_s": rate(c["reorder.nodes"], s["reorder"]),
        "sparse.permute.s": s["sparse"],
        "sparse.permute.nnz_per_s": rate(c["sparse.nnz"], s["sparse"]),
        "trace.build.s": s["trace"],
        "trace.accesses": c["trace.accesses"],
        "cache.sim.s": s["cache"],
        "cache.sim.accesses_per_s": rate(c["cache.accesses"], s["cache"]),
        "cache.lru.s": s["cache.lru"],
        "cache.belady.s": s["cache.belady"],
        "cache.misses": c["cache.misses"],
        "cache.hit_ratio": rate(c["cache.hits"], c["cache.accesses"]),
        "gpu.model.s": s["gpu"],
        "memo.load.s": s["memo.load"],
        "memo.store.s": s["memo.store"],
        "memo.bytes": c["memo.bytes"],
        "memo.hit_ratio": rate(c["memo.hits"], c["memo.lookups"]),
        "predict.recommend.s": s["predict"],
    }
    for technique in spec.REORDER_TECHNIQUES:
        metrics[spec.technique_metric(technique)] = s[f"reorder.{technique}"]
    for layer in spec.LAYERS:
        metrics[f"{layer}.share"] = rate(s[layer], tracer.root_s)
        metrics[f"{layer}.rss_delta_mb"] = tracer.rss_mb[layer]
    return metrics
