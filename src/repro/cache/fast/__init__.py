"""Vectorized cache simulators (numpy, no per-access Python loop).

Drop-in fast paths for the reference simulators in
:mod:`repro.cache.lru` and :mod:`repro.cache.belady`: identical
``CacheStats`` (bit-for-bit, including dead-line and per-region miss
counters), ~5x+ faster on realistic traces.  The reference
implementations stay in-tree as the oracle; the randomized
differential suite (``tests/test_cache_fast_differential.py``) pins
the equivalence.

Callers should not import this package directly — go through
:func:`repro.cache.simulate`, which dispatches between the fast and
reference engines by trace length and cache geometry.
"""

from repro.cache.fast.belady import simulate_belady_fast
from repro.cache.fast.lru import simulate_lru_fast

__all__ = ["simulate_belady_fast", "simulate_lru_fast"]
