"""Property-based tests for the cache simulators (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache import next_use_index, simulate
from repro.cache.config import CacheConfig
from repro.cache import compulsory_misses, simulate

traces = st.lists(st.integers(0, 30), min_size=0, max_size=300).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)

configs = st.sampled_from(
    [
        CacheConfig(capacity_bytes=64, line_bytes=32, ways=1),
        CacheConfig(capacity_bytes=128, line_bytes=32, ways=2),
        CacheConfig(capacity_bytes=256, line_bytes=32, ways=4),
        CacheConfig(capacity_bytes=512, line_bytes=32, ways=4),
        CacheConfig(capacity_bytes=1024, line_bytes=32, ways=32),
    ]
)


class TestSimulatorInvariants:
    @given(traces, configs)
    @settings(max_examples=80, deadline=None)
    def test_lru_accounting(self, trace, config):
        stats = simulate(trace, config)
        stats.check_consistency()
        assert stats.misses >= compulsory_misses(trace)
        assert stats.dead_lines <= stats.misses

    @given(traces, configs)
    @settings(max_examples=80, deadline=None)
    def test_belady_accounting(self, trace, config):
        stats = simulate(trace, config, policy="belady")
        stats.check_consistency()
        assert stats.misses >= compulsory_misses(trace)

    @given(traces, configs)
    @settings(max_examples=80, deadline=None)
    def test_belady_never_worse_than_lru(self, trace, config):
        """The defining property of the optimal policy."""
        opt = simulate(trace, config, policy="belady")
        lru = simulate(trace, config)
        assert opt.misses <= lru.misses

    @given(traces)
    @settings(max_examples=80, deadline=None)
    def test_lru_capacity_monotonicity(self, trace):
        """Fully-associative LRU has the stack (inclusion) property:
        more capacity can never add misses."""
        small = simulate(trace, CacheConfig(capacity_bytes=128, line_bytes=32, ways=4))
        large = simulate(trace, CacheConfig(capacity_bytes=256, line_bytes=32, ways=8))
        assert large.misses <= small.misses

    @given(traces)
    @settings(max_examples=80, deadline=None)
    def test_next_use_is_future_position_of_same_line(self, trace):
        next_use = next_use_index(trace)
        n = trace.size
        for i in range(n):
            j = next_use[i]
            if j < n:
                assert j > i
                assert trace[j] == trace[i]
                # No intermediate occurrence of the same line.
                assert not np.any(trace[i + 1: j] == trace[i])
            else:
                assert not np.any(trace[i + 1:] == trace[i])

    @given(traces, configs)
    @settings(max_examples=60, deadline=None)
    def test_repeating_trace_second_pass_bounded(self, trace, config):
        """On a doubled trace, misses cannot exceed twice the single-pass
        misses (each pass is at worst the cold run)."""
        if trace.size == 0:
            return
        doubled = np.concatenate([trace, trace])
        once = simulate(trace, config)
        twice = simulate(doubled, config)
        assert twice.misses <= 2 * once.misses


def textbook_lru(trace, n_sets, ways, regions):
    """Per-set recency lists, most recent last; independent of repro.cache.

    Returns the ``CacheStats`` counters as a plain dict.
    """
    sets = [[] for _ in range(n_sets)]  # entries: [line, reused]
    out = dict(hits=0, misses=0, evictions=0, dead_evictions=0)
    missed = []
    for line in trace.tolist():
        recency = sets[line % n_sets]
        entry = next((e for e in recency if e[0] == line), None)
        if entry is not None:
            recency.remove(entry)
            entry[1] = True
            recency.append(entry)
            out["hits"] += 1
            continue
        out["misses"] += 1
        missed.append(line)
        recency.append([line, False])
        if len(recency) > ways:
            _, reused = recency.pop(0)
            out["evictions"] += 1
            out["dead_evictions"] += not reused
    out["dead_at_end"] = sum(not reused for s in sets for _, reused in s)
    split = {name: sum(lo <= x < hi for x in missed) for name, lo, hi in regions}
    other = len(missed) - sum(split.values())
    out["region_misses"] = {**split, **({"other": other} if other else {})}
    return out


@st.composite
def oracle_cases(draw):
    """(trace, n_sets, ways); non-power-of-two set counts included."""
    n_sets = draw(st.sampled_from([1, 2, 3, 4, 12, 16]))
    ways = draw(st.sampled_from([1, 2, 4, 16]))
    if draw(st.booleans()):
        lines = draw(st.lists(st.integers(0, 4 * n_sets * ways), max_size=400))
    else:
        # Long gaps over few distinct lines: a small hot set of one
        # cache set cycles while rare lines of that set recur, so the
        # backward scan must widen past its first window.
        hot = draw(st.lists(st.integers(0, 2), min_size=150, max_size=400))
        rare = draw(st.lists(st.integers(3, 5), max_size=8))
        at = draw(st.lists(st.integers(0, len(hot)), min_size=len(rare),
                           max_size=len(rare)))
        lines = list(hot)
        for pos, line in sorted(zip(at, rare), reverse=True):
            lines.insert(pos, line)
        lines = [line * n_sets for line in lines]
    return np.asarray(lines, dtype=np.int64), n_sets, ways


class TestLRUOracle:
    @given(oracle_cases())
    @settings(max_examples=150, deadline=None)
    def test_both_engines_match_textbook_lru(self, case):
        trace, n_sets, ways = case
        config = CacheConfig(capacity_bytes=n_sets * ways * 32, line_bytes=32, ways=ways)
        assert config.n_sets == n_sets
        regions = [("low", 0, 2 * n_sets), ("high", 2 * n_sets, 6 * n_sets)]
        expected = textbook_lru(trace, n_sets, ways, regions)
        for impl in ("fast", "reference"):
            stats = simulate(trace, config, regions=regions, impl=impl)
            got = {key: getattr(stats, key) for key in expected}
            assert got == expected, impl
