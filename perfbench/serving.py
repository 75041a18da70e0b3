"""The serve-zipf workload: ``repro serve`` driven over HTTP.

Set-up writes the seeded bench-size matrices and starts ``repro serve
--profile bench`` with an empty store.  Two client threads (one client
process, two persistent connections) then run a closed loop for the
window: each sends its next request only after the previous reply.
Keys are (matrix, technique) pairs in a seed-shuffled zipf popularity
order; a share of the requests asks ``/v1/recommend`` for the key's
matrix instead.  Every request uploads the matrix as MatrixMarket text.

The traced run hosts the same service in this process
(``make_server``), so the layer wrappers see the server side.
"""

from __future__ import annotations

import bisect
import http.client
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpu.specs import scaled_platform
from repro.serve.bench import spawn_server

from perfbench.common import (
    digest,
    is_bijection,
    latency_ms,
    model_errors,
    repeated_set_up,
    workload_info,
)
from perfbench.inputs import InputSet, write_inputs
from perfbench.sweeps import BENCH_FAMILIES, Result
from perfbench.tracer import Tracer, installed, layer_metrics

# The request mix is assumed, not taken from measured traffic: the
# repository has none.  Only the skew has a precedent, the default of
# ``repro serve-bench``, which sends one technique and no recommends.
TECHNIQUES = ("degsort", "rcm", "rabbit", "rabbit++", "auto")
#: Assumed: a minority of cheap predictor-only requests, so the reorder
#: path dominates while ``predict`` still runs on every workload seed.
RECOMMEND_SHARE = 0.2
ZIPF_SKEW = 1.1
TRACE_LENGTH = 5000
CLIENTS = 2
#: Trace entries whose bodies make up the records digest; any of them
#: the window did not reach is requested after it.
DIGEST_PREFIX = 16
_GOLDEN = (5 ** 0.5 - 1) / 2
_SQRT2 = 2 ** 0.5 - 1

Request = Tuple[str, str, Optional[str]]  # (path, matrix, technique)


def make_trace(names: Sequence[str], seed: int, length: int = TRACE_LENGTH) -> List[Request]:
    """Zipf-skewed requests in a seed-determined order.

    Popularity rank ``r`` maps to matrix ``r % M`` and one of the
    techniques, rotating with ``r // M`` (an assumed even split), so each
    matrix is served under every technique and the hottest keys spread
    over all families and techniques.  Ranks and the recommend
    share are drawn with low-discrepancy (golden-ratio) sequences from
    a seed-derived offset: the order of requests changes with the seed,
    while every prefix of the trace keeps nearly the same key mix, which
    keeps hit ratio and load steady from seed to seed.
    """
    m = len(names)
    keys = [(names[r % m], TECHNIQUES[(r % m + r // m) % len(TECHNIQUES)])
            for r in range(m * len(TECHNIQUES))]
    weights = [1.0 / rank**ZIPF_SKEW for rank in range(1, len(keys) + 1)]
    cumulative = list(itertools.accumulate(w / sum(weights) for w in weights))
    rng = random.Random(seed)
    key_offset, share_offset = rng.random(), rng.random()
    trace = []
    for i in range(length):
        u = (key_offset + i * _GOLDEN) % 1.0
        matrix, technique = keys[min(bisect.bisect_right(cumulative, u), len(keys) - 1)]
        if (share_offset + i * _SQRT2) % 1.0 < RECOMMEND_SHARE:
            trace.append(("/v1/recommend", matrix, None))
        else:
            trace.append(("/v1/reorder", matrix, technique))
    return trace


class Bodies:
    """Request bodies, encoded once per key outside the timed window."""

    def __init__(self, inputs: InputSet) -> None:
        self._mtx = {}
        for name, entry in inputs.files.items():
            with open(entry.path, "r", encoding="utf-8") as handle:
                self._mtx[name] = handle.read()
        self._cache: Dict[Request, bytes] = {}

    def get(self, request: Request) -> bytes:
        if request not in self._cache:
            _path, matrix, technique = request
            payload: Dict[str, object] = {"mtx": self._mtx[matrix], "kernel": "spmv-csr"}
            if technique is not None:
                payload.update(technique=technique, policy="lru")
            self._cache[request] = json.dumps(payload).encode("utf-8")
        return self._cache[request]


@dataclass
class Outcome:
    request: Request
    status: int  # 0 when the connection failed
    store: str
    body: bytes
    seconds: float


def drive(
    port: int,
    trace: Sequence[Request],
    bodies: Bodies,
    seconds: Optional[float],
    limit: Optional[int] = None,
) -> Tuple[List[Outcome], float]:
    """Closed loop of ``CLIENTS`` connections; returns outcomes in trace
    order and the window's wall seconds.  Stops at ``seconds`` or after
    ``limit`` requests."""
    for request in trace[: limit or len(trace)]:
        bodies.get(request)
    lock = threading.Lock()
    outcomes: List[Optional[Outcome]] = [None] * len(trace)
    cursor = [0]
    stop = len(trace) if limit is None else min(limit, len(trace))
    start = time.perf_counter()
    deadline = math.inf if seconds is None else start + seconds

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= stop or time.perf_counter() >= deadline:
                        return
                    cursor[0] += 1
                request = trace[index]
                begin = time.perf_counter()
                try:
                    conn.request(
                        "POST", request[0], body=bodies.get(request),
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    body = response.read()
                    outcome = Outcome(
                        request, response.status,
                        response.getheader("X-Repro-Store", ""), body,
                        time.perf_counter() - begin,
                    )
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                    outcome = Outcome(request, 0, "", b"", math.inf)
                outcomes[index] = outcome
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return [o for o in outcomes if o is not None], elapsed


# -- server lifetime ----------------------------------------------------------

def spawn(work: str, label: str) -> Tuple[subprocess.Popen, int]:
    """``repro serve --profile bench`` in a child process with an empty
    store; returns the process and its port."""
    process, base_url = spawn_server(
        profile="bench", store_dir=os.path.join(work, f"{label}-store")
    )
    return process, int(base_url.rsplit(":", 1)[1])


def stop_child(process: subprocess.Popen) -> None:
    """SIGTERM (the server drains), then wait; kill if it does not exit."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=20)


def peak_rss_mb(process: subprocess.Popen) -> float:
    """The child's high-water resident set (``VmHWM``), in MB."""
    with open(f"/proc/{process.pid}/status", "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class InProcessServer:
    """The same service hosted in this process, for the traced run."""

    def __init__(self, work: str, label: str) -> None:
        from repro.serve.httpd import make_server
        from repro.serve.service import ReorderService, ServeConfig

        service = ReorderService(
            ServeConfig(profile="bench", store_dir=os.path.join(work, f"{label}-store"))
        )
        self._server = make_server(service)
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(target=self._server.serve_forever)
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=20)


# -- checks -------------------------------------------------------------------

def _canonical(body: dict) -> dict:
    """A body as digested: the measured reorder wall time dropped."""
    return {k: v for k, v in body.items() if k != "reorder_seconds"}


def check_outcomes(
    outcomes: Sequence[Outcome], inputs: InputSet, line_bytes: int
) -> Tuple[List[bool], Dict[str, str]]:
    """Per outcome, whether it passed; plus the first reason per key.

    A reply fails unless it is 2xx, parses, carries a bijective
    permutation over the uploaded rows and a consistent cache model,
    and is byte-identical to every other reply for the same key.
    """
    first_body: Dict[Request, bytes] = {}
    reasons: Dict[str, str] = {}
    passed = []
    for outcome in outcomes:
        key = outcome.request
        why = None
        if not 200 <= outcome.status < 300:
            why = f"status {outcome.status}"
        else:
            try:
                body = json.loads(outcome.body)
            except ValueError:
                body = None
                why = "reply is not JSON"
            if body is not None and key[0] == "/v1/reorder":
                n = inputs.files[key[1]].n_nodes
                if not is_bijection(body.get("permutation") or [], n):
                    why = "permutation is not a bijection over the uploaded rows"
                else:
                    errors = model_errors(body["model"], line_bytes)
                    why = errors[0] if errors else None
            if why is None and first_body.setdefault(key, outcome.body) != outcome.body:
                why = f"{outcome.store} body differs from the first body for this key"
        if why is not None:
            reasons.setdefault("|".join(str(k) for k in key), why)
        passed.append(why is None)
    return passed, reasons


def records_digest(outcomes, port, trace, bodies) -> str:
    """Digest of the bodies of the first ``DIGEST_PREFIX`` trace keys."""
    replies: Dict[Request, bytes] = {}
    for outcome in outcomes:
        if 200 <= outcome.status < 300:
            replies.setdefault(outcome.request, outcome.body)
    documents = []
    for request in trace[:DIGEST_PREFIX]:
        if request not in replies:
            late, _ = drive(port, [request], bodies, None)
            replies[request] = late[0].body if late[0].status == 200 else b"{}"
        documents.append(_canonical(json.loads(replies[request] or b"{}")))
    return digest(documents)


# -- the workload -----------------------------------------------------------

def _client_metrics(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    ok = [o for o in outcomes if 200 <= o.status < 300]
    hits = [o.seconds for o in ok if o.store == "hit"]
    misses = [o.seconds for o in ok if o.store == "miss"]
    return {
        "serve.hit_p50_ms": latency_ms(hits, 50) if hits else 0.0,
        "serve.miss_p50_ms": latency_ms(misses, 50) if misses else 0.0,
        "serve.hit_ratio": len(hits) / max(1, len(ok)),
        "serve.coalesced": float(sum(1 for o in ok if o.store == "coalesced")),
        "serve.shed": float(sum(1 for o in outcomes if o.status == 429)),
    }


def run_serve(seed: int, seconds: float, trace_run: bool, work: str,
              families: Sequence[str] = BENCH_FAMILIES) -> Result:
    """One run of serve-zipf; ``families`` overrides the uploaded matrices."""
    line_bytes = scaled_platform("bench").line_bytes
    trace = make_trace(families, seed)

    def set_up(repeat: int):
        inputs = write_inputs(families, seed, os.path.join(work, "inputs"))
        return inputs, (None if trace_run else spawn(work, f"server-{repeat}"))

    # Input generation and server spawn; traced runs report no setup_s,
    # so they set up once and host the untraced service in-process.
    (inputs, child), durations = repeated_set_up(
        set_up, once=trace_run, discard=lambda result: stop_child(result[1][0])
    )
    server = None
    try:
        bodies = Bodies(inputs)
        if trace_run:
            server = InProcessServer(work, "untraced")
        port = server.port if trace_run else child[1]
        outcomes, window_s = drive(port, trace, bodies, seconds)
        passed, reasons = check_outcomes(outcomes, inputs, line_bytes)
        digests = {"untraced": records_digest(outcomes, port, trace, bodies)}
        peak_rss = None if trace_run else peak_rss_mb(child[0])
    finally:
        if child is not None:
            stop_child(child[0])
        if server is not None:
            server.stop()

    attempted = len(outcomes)
    failed = passed.count(False)
    client = _client_metrics(outcomes)
    if trace_run:
        tracer = Tracer()
        traced_server = None
        try:
            with installed(tracer):
                traced_server = InProcessServer(work, "traced")
                traced, traced_s = drive(traced_server.port, trace, bodies, None, limit=attempted)
            digests["traced"] = records_digest(traced, traced_server.port, trace, bodies)
        finally:
            if traced_server is not None:
                traced_server.stop()
            tracer.close()
        traced_passed, traced_reasons = check_outcomes(traced, inputs, line_bytes)
        for key, why in traced_reasons.items():
            reasons.setdefault(key, why)
        attempted += len(traced)
        failed += traced_passed.count(False)
        metrics = layer_metrics(tracer)
        metrics.update(client)
        metrics["obs.overhead_frac"] = (traced_s - window_s) / window_s
        metrics["failed_frac"] = failed / max(1, attempted)
    else:
        good = [o for o, ok in zip(outcomes, passed) if ok]
        cells = [json.loads(o.body) for o in good if o.request[0] == "/v1/reorder"]
        latencies = [o.seconds if ok else math.inf for o, ok in zip(outcomes, passed)]
        metrics = {
            "cells_per_s": len(cells) / window_s,
            "mean_norm_traffic": sum(c["model"]["normalized_traffic"] for c in cells)
            / max(1, len(cells)),
            "req_per_s": sum(1 for o in outcomes if 200 <= o.status < 300) / window_s,
            "req_p50_ms": latency_ms(latencies, 50),
            "req_p90_ms": latency_ms(latencies, 90),
            "setup_s": statistics.median(durations),
            "peak_rss_mb": peak_rss,
            "ok_frac": (attempted - failed) / max(1, attempted),
        }
    mix: Dict[str, int] = {}
    for outcome in outcomes:
        label = outcome.request[2] or "recommend"
        mix[label] = mix.get(label, 0) + 1
    info = workload_info("serve-zipf", seed, trace_run, digests, scaled_platform("bench"), inputs)
    info.update({
        "techniques": list(TECHNIQUES),
        "kernel": "spmv-csr",
        "policy": "lru",
        "request_mix": mix,
        "recommend_share": RECOMMEND_SHARE,
        "request_mix_source": "assumed (no measured traffic); zipf skew from repro serve-bench",
        "zipf_skew": ZIPF_SKEW,
        "loop": f"closed, {CLIENTS} connections from one client process",
        "server": "in-process make_server" if trace_run else "repro serve child process",
        "store_states": client,
        "window_s": window_s,
        "latency_samples": len(outcomes),
        "setup_repeats": len(durations),
        "failures": reasons,
    })
    correct = failed == 0 and len(set(digests.values())) == 1
    return Result(correct, attempted, failed, metrics, info)
