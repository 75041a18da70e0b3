"""The public simulate() dispatch: impl resolution, inputs, obs."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.cache import CacheConfig, simulate
from repro.cache.dispatch import (
    _FAST_MIN_ACCESSES,
    _FAST_MIN_SETS,
    _choose_impl,
    resolve_impl,
)
from repro.errors import ValidationError
from repro.gpu.specs import scaled_platform
from repro.graphs.corpus import load_graph
from repro.obs import Instrumentation, MemorySink, using
from repro.trace.kernelspec import KernelSpec


@pytest.fixture
def trace():
    rng = np.random.default_rng(3)
    return rng.integers(0, 400, size=6000)


@pytest.fixture
def config():
    return CacheConfig(capacity_bytes=64 * 16 * 32, line_bytes=32, ways=16)


class TestResolution:
    def test_explicit_impl_wins(self, trace, config):
        reference = simulate(trace, config, impl="reference")
        fast = simulate(trace, config, impl="fast")
        assert reference == fast

    def test_invalid_impl_rejected(self, trace, config):
        with pytest.raises(ValidationError):
            simulate(trace, config, impl="numba")

    def test_invalid_policy_rejected(self, trace, config):
        with pytest.raises(ValidationError):
            simulate(trace, config, policy="fifo")

    def test_resolve_impl_defaults_to_auto(self):
        assert resolve_impl(None) == "auto"

    def test_auto_heuristic(self):
        small_cache = CacheConfig(capacity_bytes=4 * 16 * 32, ways=16)  # 4 sets
        big_cache = CacheConfig(capacity_bytes=64 * 16 * 32, ways=16)  # 64 sets
        big_n = 10 * _FAST_MIN_ACCESSES
        for policy in ("lru", "belady"):
            assert _choose_impl(big_n, small_cache, policy) == "reference"
            assert _choose_impl(100, big_cache, policy) == "reference"
            assert _choose_impl(big_n, big_cache, policy) == "fast"
            assert big_cache.n_sets >= _FAST_MIN_SETS[policy]


class TestInputs:
    def test_kernel_trace_input_uses_its_regions(self, config):
        graph = load_graph("test-comm")
        trace = KernelSpec.parse("spmv-csr").build_trace(
            graph.adjacency, scaled_platform("test")
        )
        stats = simulate(trace, config)
        assert stats.region_misses
        assert sum(stats.region_misses.values()) == stats.misses
        suppressed = simulate(trace, config, regions=())
        assert suppressed.region_misses == {}
        assert suppressed.misses == stats.misses

    def test_ndarray_input_no_regions(self, trace, config):
        stats = simulate(trace, config)
        assert stats.region_misses == {}

    def test_policies_differ(self, trace, config):
        lru = simulate(trace, config, policy="lru")
        belady = simulate(trace, config, policy="belady")
        assert belady.misses <= lru.misses


class TestObsWiring:
    def test_span_and_counters(self, trace, config):
        sink = MemorySink()
        instr = Instrumentation(sink=sink)
        with using(instr):
            simulate(trace, config, policy="lru", impl="fast")
        spans = [e for e in sink.by_kind("span") if e["name"] == "cache-sim"]
        assert len(spans) == 1
        assert spans[0]["tags"]["policy"] == "lru"
        assert spans[0]["tags"]["impl"] == "fast"
        assert spans[0]["tags"]["accesses"] == trace.size
        assert instr.counters.get("cache.lru.accesses") == trace.size


class TestFacade:
    def test_facade_exports(self):
        assert repro.simulate is simulate
        assert repro.KernelSpec is KernelSpec
        for name in ("simulate", "KernelSpec"):
            assert name in repro.__all__
