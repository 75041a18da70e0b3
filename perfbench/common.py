"""Helpers shared by the workloads: percentiles, digests, run context."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, TypeVar

import numpy as np

#: Latency reported when the percentile lands on a failed or refused
#: operation, which counts as slower than any limit.
FAILED_LATENCY_MS = 1e9

#: ``setup_s`` is the median of at least this many set-ups, repeated
#: until at least ``SETUP_MIN_SECONDS`` have passed, so the median
#: covers seconds of machine-speed variation rather than one moment.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 5.0

T = TypeVar("T")


def repeated_set_up(
    set_up: Callable[[int], T],
    once: bool = False,
    discard: Callable[[T], None] = lambda result: None,
) -> Tuple[T, List[float]]:
    """Call ``set_up(repeat)`` until the floors above are met (or once).

    Returns the last result and the seconds of every call; each earlier
    result is passed to ``discard`` (untimed) before the next call.
    """
    durations: List[float] = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        result = set_up(len(durations))
        durations.append(time.perf_counter() - begin)
        if once or (
            len(durations) >= SETUP_MIN_REPEATS
            and time.perf_counter() - start >= SETUP_MIN_SECONDS
        ):
            return result, durations
        discard(result)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for numerator in (
            m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A Beta-weighted mean of the order statistics around rank ``q``%: it
    moves smoothly when the samples near that rank change, where a
    single order statistic jumps between clusters of cell costs.  A
    failed operation is ``inf``: when failures reach the ``q``-th rank
    the result is ``inf`` (slower than any limit), below it they weigh
    as the slowest success.
    """
    ordered = sorted(values)
    n = len(ordered)
    finite = [v for v in ordered if not math.isinf(v)]
    if len(finite) < max(1, math.ceil(q / 100.0 * n)):
        return math.inf
    ordered = finite + [finite[-1]] * (n - len(finite))
    if n == 1:
        return ordered[0]
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    # weights beyond ~8 standard deviations of Beta(a, b) are < 1e-15
    spread = 8.0 * math.sqrt(p * (1.0 - p) / (n + 2))
    first = max(0, math.floor((p - spread) * n))
    last = min(n, math.ceil((p + spread) * n))
    start = previous = _beta_cdf(a, b, first / n)
    total = 0.0
    for i in range(first, last):
        current = _beta_cdf(a, b, (i + 1) / n)
        weight = current - previous
        previous = current
        total += weight * ordered[i]
    return total / (previous - start)


def latency_ms(seconds: Sequence[float], q: float) -> float:
    value = percentile(seconds, q)
    return FAILED_LATENCY_MS if math.isinf(value) else value * 1000.0


def digest(documents: Iterable[object]) -> str:
    """SHA-256 over the canonical JSON of ``documents``, in order."""
    h = hashlib.sha256()
    for document in documents:
        h.update(json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def is_bijection(perm: Sequence[int], n: int) -> bool:
    """``perm`` maps ``range(n)`` onto itself one-to-one."""
    array = np.asarray(perm)
    if array.shape != (n,) or not np.issubdtype(array.dtype, np.integer):
        return False
    return bool(np.array_equal(np.sort(array), np.arange(n)))


def model_errors(model: Dict[str, object], line_bytes: int) -> List[str]:
    """Accounting identities every simulated cell must satisfy.

    ``hits`` is recovered from the reported hit rate, so a record whose
    hit rate, misses and accesses disagree fails ``hits + misses ==
    accesses``.
    """
    errors = []
    accesses = int(model["accesses"])
    misses = int(model["misses"])
    hits = round(float(model["hit_rate"]) * accesses)
    if hits + misses != accesses:
        errors.append(f"hits {hits} + misses {misses} != accesses {accesses}")
    if int(model["traffic_bytes"]) != misses * line_bytes:
        errors.append(f"traffic {model['traffic_bytes']} != misses {misses} x {line_bytes}")
    if not 0 < int(model["compulsory_bytes"]) <= int(model["traffic_bytes"]):
        errors.append("compulsory traffic not in (0, traffic]")
    return errors


def run_context() -> Dict[str, object]:
    """Machine and toolchain facts every result records."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def workload_info(name, seed, trace, digests, platform, inputs) -> Dict[str, object]:
    """The self-description every result starts from."""
    from perfbench import spec

    config = platform.cache_config()
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "records_digest": digests,
        "geometry": {
            "platform": platform.name,
            "capacity_bytes": config.capacity_bytes,
            "ways": config.ways,
            "sets": config.n_sets,
            "line_bytes": config.line_bytes,
        },
        "matrices": inputs.describe(),
        "ratio_bases": spec.RATIO_BASES,
        "layer_map": [
            row for row in spec.LAYER_MOVES
            if any(name in pair for pair in row["moves"] + row["not"])
        ],
        **run_context(),
    }
