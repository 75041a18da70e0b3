"""Single public entry point for cache simulation.

:func:`simulate` dispatches one trace replay to either the reference
per-access simulators (:mod:`repro.cache.lru`,
:mod:`repro.cache.belady`) or the vectorized engines
(:mod:`repro.cache.fast`), which produce bit-identical
:class:`~repro.cache.stats.CacheStats`.

Implementation selection (``impl`` argument):

* ``"auto"`` (default) — pick the engine from the input: the fast
  one when the geometry is wide enough for round-parallel replay to
  win (the reference loop is faster on tiny caches where a few sets
  serialize the rounds).
* ``"fast"`` / ``"reference"`` — force one engine; the differential
  suite and the benchmarks use this to reach the reference oracle.

Every call emits one ``cache-sim`` observability span tagged with the
policy and the resolved implementation, plus ``cache.<policy>.*``
counters — the same names the reference wrappers have always used, so
profiles stay comparable across implementations.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.cache.belady import _simulate_belady
from repro.cache.config import CacheConfig
from repro.cache.fast import simulate_belady_fast, simulate_lru_fast
from repro.cache.lru import RegionBounds, _simulate_lru
from repro.cache.stats import CacheStats
from repro.errors import ValidationError
from repro.obs import get_obs
from repro.trace.kernel_traces import KernelTrace

IMPLS = ("auto", "fast", "reference")
POLICIES = ("lru", "belady")

#: Below either bound the reference loop beats the vectorized engine:
#: few sets means long sequential per-set chains, and tiny traces are
#: dominated by the bucketing overhead.
_FAST_MIN_SETS = {"lru": 32, "belady": 16}
_FAST_MIN_ACCESSES = 8192


def resolve_impl(impl: Optional[str] = None) -> str:
    """Validate ``impl``; ``None`` means ``"auto"``."""
    if impl is None:
        impl = "auto"
    if impl not in IMPLS:
        raise ValidationError(f"impl must be one of {IMPLS}, got {impl!r}")
    return impl


def _choose_impl(n_accesses: int, config: CacheConfig, policy: str) -> str:
    if n_accesses < _FAST_MIN_ACCESSES:
        return "reference"
    if config.n_sets < _FAST_MIN_SETS[policy]:
        return "reference"
    return "fast"


def simulate(
    trace: Union[np.ndarray, KernelTrace],
    config: CacheConfig,
    *,
    policy: str = "lru",
    regions: Optional[RegionBounds] = None,
    impl: Optional[str] = None,
) -> CacheStats:
    """Simulate ``trace`` (line IDs or a :class:`KernelTrace`) on ``config``.

    When ``trace`` is a :class:`KernelTrace` its region bounds are used
    for the per-region miss split unless ``regions`` is given
    explicitly (pass ``regions=()`` to suppress the split).  ``policy``
    selects LRU or Belady replacement and ``impl`` the engine, as
    documented in the module docstring.
    """
    if isinstance(trace, KernelTrace):
        if regions is None:
            regions = trace.regions
        lines = trace.lines
    else:
        lines = trace
    if policy not in POLICIES:
        raise ValidationError(f"policy must be one of {POLICIES}, got {policy!r}")
    impl = resolve_impl(impl)
    n = int(np.size(lines))
    if impl == "auto":
        impl = _choose_impl(n, config, policy)

    obs = get_obs()
    with obs.span("cache-sim", policy=policy, impl=impl, accesses=n):
        if policy == "lru":
            engine = simulate_lru_fast if impl == "fast" else _simulate_lru
        else:
            engine = simulate_belady_fast if impl == "fast" else _simulate_belady
        stats = engine(lines, config, regions)
    if obs.enabled:
        obs.add_counters(stats.as_counters(prefix=f"cache.{policy}"))
    return stats
