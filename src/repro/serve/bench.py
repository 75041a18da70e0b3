"""Load-test harness for the serve tier (``repro serve-bench``).

Replays a synthetic request trace against a running ``repro serve``
instance (or one it spawns itself) and writes ``BENCH_serve.json``:

* matrix popularity is zipf-skewed (weight ``1 / rank**skew``), the
  canonical shape of repeat traffic a reordering service exists to
  absorb — a few hot matrices dominate, a long tail stays cold;
* the mix of store hits and misses therefore emerges naturally: first
  touches miss and pay the full reorder+simulate pipeline, repeats hit
  the content-addressed store;
* client-side latency is recorded per request into the same
  log-bucketed :class:`~repro.obs.histogram.Histogram` the server uses,
  split by the ``X-Repro-Store`` response header, so the report can
  state hit-path and miss-path p50/p99 from real distributions;
* the server's own ``/stats`` snapshot (counters + histogram
  summaries) is appended for the server-side view.

The report's headline numbers: ``store_hit_rate`` (fraction of
requests answered from the store) and ``hit_speedup_p50``
(miss-path p50 / hit-path p50 — the acceptance floor is 10x).

``run_overload_bench`` is the overload harness behind ``repro
serve-bench --overload``: it spawns a *calibration* server to measure
the un-contended miss latency, then an *overload* server with a
deliberately small admission gate and hammers it at ``offered_factor``x
compute capacity with mostly-unique cold keys (distinct kernel B
widths, so nothing coalesces) plus a pre-warmed hot key.  The report
records goodput (accepted requests/s), shed rate (429s/total) and the
accepted-request p99 against the calibrated baseline — the acceptance
contract is zero 500s and accepted p99 within 2x of baseline.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.graphs.corpus import corpus_names
from repro.obs.histogram import Histogram
from repro.serve.client import ClientResponse, ServeClient

BENCH_SCHEMA = 2

#: Latency classes, keyed by the ``X-Repro-Store`` response header
#: ("degraded" is the 202 predictor-only answer under an open breaker).
_CLASSES = ("hit", "miss", "coalesced", "degraded")


def zipf_trace(
    names: Sequence[str], n_requests: int, skew: float = 1.1, seed: int = 0
) -> List[str]:
    """A zipf-skewed request trace over ``names`` (rank = given order).

    ``weight(rank k) = 1 / k**skew``; ``skew=0`` degenerates to uniform.
    Deterministic for a given seed, so bench runs are reproducible.
    """
    if not names:
        raise ValidationError("zipf_trace needs at least one matrix name")
    if n_requests < 1:
        raise ValidationError(f"n_requests must be >= 1, got {n_requests}")
    weights = [1.0 / (rank**skew) for rank in range(1, len(names) + 1)]
    rng = random.Random(seed)
    return rng.choices(list(names), weights=weights, k=n_requests)


def _post_json(
    base_url: str, path: str, payload: Dict[str, object], timeout: float
) -> Tuple[int, Dict[str, str], bytes]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base_url + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers or {}), exc.read()


def _get_json(base_url: str, path: str, timeout: float) -> Dict[str, object]:
    with urllib.request.urlopen(base_url + path, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def wait_for_server(base_url: str, timeout: float = 30.0) -> None:
    """Poll ``/health`` until the server answers (or raise TimeoutError).

    Only *connection-level* failures keep the poll going (the server is
    still binding).  An HTTP-level error means the server is up but
    broken — that fails fast with the status and body instead of
    burning the whole timeout.  (``HTTPError`` subclasses ``OSError``,
    so it must be caught first or it silently looks like
    connection-refused.)
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            if _get_json(base_url, "/health", timeout=2.0).get("ok"):
                return
        except urllib.error.HTTPError as exc:
            body = exc.read().decode("utf-8", errors="replace")[:500]
            raise RuntimeError(
                f"serve endpoint {base_url} is up but unhealthy: "
                f"HTTP {exc.code} on /health: {body}"
            ) from exc
        except (OSError, ValueError):
            pass
        if time.monotonic() >= deadline:
            raise TimeoutError(f"serve endpoint {base_url} not healthy after {timeout}s")
        time.sleep(0.05)


class _LoadState:
    """Shared, lock-guarded client-side measurement state.

    Every request lands in exactly one bucket: a latency class (200 by
    ``X-Repro-Store`` header, 202 as ``degraded``), the ``shed`` count
    (429), or a named error class — ``timeout``, ``connection``, or the
    HTTP status as a string.  A failed request never aborts the run; it
    is counted and the workers move on.
    """

    def __init__(self, trace: Sequence[object]) -> None:
        self.trace = trace
        self.next_index = 0
        self.lock = threading.Lock()
        self.overall = Histogram()
        #: Latency of every non-error answer (200 + 202): what an
        #: admitted caller actually waited, the overload p99 source.
        self.accepted = Histogram()
        self.by_class: Dict[str, Histogram] = {name: Histogram() for name in _CLASSES}
        self.errors: Dict[str, int] = {}
        self.attempted = 0
        self.shed = 0
        self.retries = 0

    def take(self) -> Optional[object]:
        with self.lock:
            if self.next_index >= len(self.trace):
                return None
            item = self.trace[self.next_index]
            self.next_index += 1
            return item

    def record(self, seconds: float, response: ClientResponse) -> None:
        store = response.headers.get("X-Repro-Store")
        with self.lock:
            self.attempted += 1
            self.retries += response.retries
            if response.status == 200 and store in self.by_class:
                self.overall.observe(seconds)
                self.accepted.observe(seconds)
                self.by_class[store].observe(seconds)
            elif response.status == 202:
                self.accepted.observe(seconds)
                self.by_class["degraded"].observe(seconds)
            elif response.status == 429:
                self.shed += 1
            elif response.status < 0:
                error = response.error or ""
                key = "timeout" if "timed out" in error else "connection"
                self.errors[key] = self.errors.get(key, 0) + 1
            else:
                key = str(response.status)
                self.errors[key] = self.errors.get(key, 0) + 1


def run_load(
    base_url: str,
    trace: Sequence[object],
    concurrency: int = 4,
    request_template: Optional[Dict[str, object]] = None,
    timeout: float = 120.0,
    max_retries: int = 2,
) -> _LoadState:
    """Replay ``trace`` against ``base_url`` with ``concurrency`` workers.

    Trace items are corpus names (merged into the template) or complete
    request dicts.  Workers use the resilient :class:`ServeClient`;
    pass ``max_retries=0`` to observe shed 429s instead of retrying
    through them (the overload harness does).
    """
    if concurrency < 1:
        raise ValidationError(f"concurrency must be >= 1, got {concurrency}")
    state = _LoadState(trace)
    template = dict(request_template or {})

    def worker(index: int) -> None:
        client = ServeClient(
            base_url,
            max_retries=max_retries,
            timeout=timeout,
            rng=random.Random(index),
        )
        while True:
            item = state.take()
            if item is None:
                return
            if isinstance(item, dict):
                payload = dict(template)
                payload.update(item)
            else:
                payload = dict(template)
                payload["matrix"] = item
            started = time.monotonic()
            response = client.reorder(payload)
            state.record(time.monotonic() - started, response)

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"serve-bench-{i}", daemon=True)
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return state


def _class_summary(hist: Histogram) -> Dict[str, object]:
    summary = hist.summary()
    summary["mean"] = hist.mean()
    return summary


def bench_payload(
    state: _LoadState,
    server_stats: Optional[Dict[str, object]],
    config: Dict[str, object],
) -> Dict[str, object]:
    """Assemble the ``BENCH_serve.json`` document."""
    total = state.overall.count
    hits = state.by_class["hit"].count
    hit_p50 = state.by_class["hit"].percentile_or(0.50)
    miss_p50 = state.by_class["miss"].percentile_or(0.50)
    speedup = None
    if hit_p50 and miss_p50 and hit_p50 > 0:
        speedup = miss_p50 / hit_p50
    # Server-side view of the same split, from the serve.request.{hit,
    # miss} histograms: excludes client/socket overhead, so it isolates
    # what the store actually saves (request parse + store read vs the
    # full reorder+simulate pipeline).
    server_speedup = None
    if server_stats:
        histograms = server_stats.get("histograms") or {}
        server_hit = (histograms.get("serve.request.hit") or {}).get("p50")
        server_miss = (histograms.get("serve.request.miss") or {}).get("p50")
        if server_hit and server_miss:
            server_speedup = server_miss / server_hit
    return {
        "schema": BENCH_SCHEMA,
        "config": config,
        "requests": {
            "total": total,
            "attempted": state.attempted,
            "shed": state.shed,
            "retries": state.retries,
            "errors": dict(sorted(state.errors.items())),
        },
        "client": {
            "overall": _class_summary(state.overall),
            **{name: _class_summary(state.by_class[name]) for name in _CLASSES},
        },
        "store_hit_rate": (hits / total) if total else 0.0,
        "hit_speedup_p50": speedup,
        "hit_speedup_p50_server": server_speedup,
        "server": server_stats,
    }


def spawn_server(
    profile: str = "test",
    store_dir: Optional[str] = None,
    extra_args: Sequence[str] = (),
    timeout: float = 60.0,
) -> Tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` on a free port; returns (process, base_url).

    The child writes its bound port to a temp file (``--port-file``), so
    there is no port race; the caller owns the process and must
    ``terminate()`` it.
    """
    fd, port_file = tempfile.mkstemp(prefix="repro-serve-port-")
    os.close(fd)
    os.unlink(port_file)
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--profile",
        profile,
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--port-file",
        port_file,
        *(("--store-dir", store_dir) if store_dir is not None else ()),
        *extra_args,
    ]
    process = subprocess.Popen(command)
    deadline = time.monotonic() + timeout
    try:
        while not os.path.exists(port_file):
            if process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {process.returncode} before binding"
                )
            if time.monotonic() >= deadline:
                raise TimeoutError(f"repro serve did not bind a port in {timeout}s")
            time.sleep(0.05)
        with open(port_file, "r", encoding="utf-8") as handle:
            port = int(handle.read().strip())
        base_url = f"http://127.0.0.1:{port}"
        wait_for_server(base_url, timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        process.terminate()
        process.wait(timeout=10)
        raise
    finally:
        if os.path.exists(port_file):
            os.unlink(port_file)
    return process, base_url


def run_bench(
    base_url: Optional[str] = None,
    profile: str = "test",
    n_requests: int = 60,
    concurrency: int = 4,
    skew: float = 1.1,
    seed: int = 0,
    technique: str = "rabbit++",
    kernel: str = "spmv-csr",
    policy: str = "lru",
    matrices: Optional[Sequence[str]] = None,
    store_dir: Optional[str] = None,
    timeout: float = 120.0,
) -> Dict[str, object]:
    """One full bench run; spawns a server when ``base_url`` is None."""
    names = list(matrices) if matrices else corpus_names(profile)
    trace = zipf_trace(names, n_requests, skew=skew, seed=seed)
    template: Dict[str, object] = {
        "technique": technique,
        "kernel": kernel,
        "policy": policy,
        "include_permutation": False,
    }
    config: Dict[str, object] = {
        "profile": profile,
        "n_requests": n_requests,
        "concurrency": concurrency,
        "skew": skew,
        "seed": seed,
        "technique": technique,
        "kernel": kernel,
        "policy": policy,
        "matrices": names,
        "spawned": base_url is None,
    }
    process: Optional[subprocess.Popen] = None
    try:
        if base_url is None:
            process, base_url = spawn_server(profile=profile, store_dir=store_dir)
        state = run_load(
            base_url, trace, concurrency=concurrency,
            request_template=template, timeout=timeout,
        )
        try:
            server_stats: Optional[Dict[str, object]] = _get_json(
                base_url, "/stats", timeout=10.0
            )
        except (OSError, ValueError):
            server_stats = None
    finally:
        if process is not None:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
                process.wait(timeout=10)
    return bench_payload(state, server_stats, config)


def _stop_server(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:  # pragma: no cover
        process.kill()
        process.wait(timeout=10)


def _overload_request(
    matrix: str, kernel: str, technique: str, policy: str
) -> Dict[str, object]:
    return {
        "matrix": matrix,
        "kernel": kernel,
        "technique": technique,
        "policy": policy,
        "include_permutation": False,
    }


def run_overload_bench(
    profile: str = "test",
    n_requests: int = 96,
    offered_factor: float = 6.0,
    max_inflight: int = 1,
    max_queue: int = 2,
    hot_fraction: float = 0.3,
    calibration_requests: int = 8,
    technique: str = "rabbit++",
    policy: str = "lru",
    seed: int = 0,
    timeout: float = 120.0,
) -> Dict[str, object]:
    """Overload harness: drive a small admission gate past capacity.

    Two phases, each against a private spawned server with a fresh
    store:

    1. **Calibration** — default (ample) admission, concurrency 1:
       measures the un-contended accepted p99 (the *baseline*) over
       cold misses sampled from the same kernel-width range the
       overload phase uses.  The overload server's ``queue_timeout``
       is set to 80% of that baseline, which is what bounds the
       accepted-request p99 at roughly (queue wait) + (one compute)
       ≤ 2x baseline.
    2. **Overload** — ``max_inflight``/``max_queue`` deliberately
       small, client concurrency = ``offered_factor * max_inflight``
       with retries off, a mostly-unique cold trace (distinct
       ``spmm-csr-K`` widths, so nothing coalesces) plus a pre-warmed
       hot key whose store hits are always admitted.  Keep
       ``max_inflight`` at or below the physical core count: extra
       slots only time-slice the compute, which inflates accepted p99
       without adding capacity.

    Cold keys vary the dense-operand width K because it is the only
    per-request knob that changes the eval store key without changing
    the permutation — every cold request is a genuine compute, none of
    them coalesce, and the permutation itself is computed exactly once.
    """
    if offered_factor < 1:
        raise ValidationError(
            f"offered_factor must be >= 1, got {offered_factor}"
        )
    if not 0.0 <= hot_fraction < 1.0:
        raise ValidationError(
            f"hot_fraction must be in [0, 1), got {hot_fraction}"
        )
    if n_requests < 4 or calibration_requests < 2:
        raise ValidationError("overload bench needs >= 4 requests, >= 2 calibration")
    matrix = corpus_names(profile)[0]
    n_hot = int(n_requests * hot_fraction)
    n_cold = n_requests - n_hot
    # Dense-operand widths stride by 8: K 4-byte elements per gather
    # must fill whole 32B cache lines, so other widths are a 400.
    k_base, k_stride = 24, 8
    cold_widths = [k_base + k_stride * i for i in range(n_cold)]
    hot_kernel = "spmv-csr"

    # Phase 1: calibration — un-contended miss latency, sampled across
    # the same K range so the baseline reflects the expensive end too.
    ks = sorted(
        {
            cold_widths[(i * (n_cold - 1)) // max(1, calibration_requests - 1)]
            for i in range(calibration_requests)
        }
    )
    cal_trace = [
        _overload_request(matrix, f"spmm-csr-{k}", technique, policy) for k in ks
    ]
    with tempfile.TemporaryDirectory(prefix="repro-overload-cal-") as cal_store:
        process, base_url = spawn_server(profile=profile, store_dir=cal_store)
        try:
            cal_state = run_load(
                base_url, cal_trace, concurrency=1, timeout=timeout, max_retries=2
            )
        finally:
            _stop_server(process)
    baseline_p99 = cal_state.accepted.percentile_or(0.99)
    baseline_miss_p50 = cal_state.by_class["miss"].percentile_or(0.50)
    if not baseline_p99 or not cal_state.accepted.count:
        raise RuntimeError(
            f"overload calibration produced no accepted requests "
            f"(errors: {cal_state.errors})"
        )
    queue_timeout = max(0.02, 0.8 * baseline_p99)

    # Phase 2: overload — offered load ≈ offered_factor x capacity.
    concurrency = max(1, int(round(offered_factor * max_inflight)))
    trace: List[Dict[str, object]] = [
        _overload_request(matrix, f"spmm-csr-{k}", technique, policy)
        for k in cold_widths
    ] + [
        _overload_request(matrix, hot_kernel, technique, policy)
        for _ in range(n_hot)
    ]
    random.Random(seed).shuffle(trace)
    with tempfile.TemporaryDirectory(prefix="repro-overload-") as store:
        process, base_url = spawn_server(
            profile=profile,
            store_dir=store,
            extra_args=(
                "--max-inflight", str(max_inflight),
                "--max-queue", str(max_queue),
                "--queue-timeout", f"{queue_timeout:.4f}",
            ),
        )
        try:
            # Pre-warm the hot key: its store hits bypass admission, so
            # they are the goodput floor no overload can shed.
            warm = ServeClient(base_url, max_retries=4, timeout=timeout)
            prewarm = warm.reorder(
                _overload_request(matrix, hot_kernel, technique, policy)
            )
            started = time.monotonic()
            state = run_load(
                base_url,
                trace,
                concurrency=concurrency,
                timeout=timeout,
                max_retries=0,  # count 429s as shed, don't retry through them
            )
            elapsed = time.monotonic() - started
            try:
                server_stats: Optional[Dict[str, object]] = _get_json(
                    base_url, "/stats", timeout=10.0
                )
            except (OSError, ValueError):
                server_stats = None
        finally:
            _stop_server(process)

    total = state.attempted
    accepted = state.accepted.count
    accepted_p99 = state.accepted.percentile_or(0.99)
    config: Dict[str, object] = {
        "mode": "overload",
        "profile": profile,
        "n_requests": n_requests,
        "concurrency": concurrency,
        "seed": seed,
        "technique": technique,
        "kernel": (
            f"spmm-csr-{cold_widths[0]}..{cold_widths[-1]}"
            f" step {k_stride} + {hot_kernel}"
        ),
        "policy": policy,
        "matrices": [matrix],
        "spawned": True,
    }
    payload = bench_payload(state, server_stats, config)
    payload["overload"] = {
        "offered_factor": offered_factor,
        "max_inflight": max_inflight,
        "max_queue": max_queue,
        "queue_timeout": queue_timeout,
        "hot_fraction": hot_fraction,
        "prewarm_status": prewarm.status,
        "requests": total,
        "accepted": accepted,
        "shed": state.shed,
        "errors": dict(sorted(state.errors.items())),
        "elapsed_seconds": elapsed,
        "offered_rps": (total / elapsed) if elapsed > 0 else None,
        "goodput_rps": (accepted / elapsed) if elapsed > 0 else None,
        "shed_rate": (state.shed / total) if total else 0.0,
        "accepted_p99": accepted_p99,
        "baseline_p99": baseline_p99,
        "baseline_miss_p50": baseline_miss_p50,
        "p99_ratio": (
            accepted_p99 / baseline_p99 if accepted_p99 and baseline_p99 else None
        ),
    }
    return payload
