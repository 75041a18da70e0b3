"""Vectorized set-associative LRU simulation.

State lives in flat ``(n_sets * ways)`` arrays: the resident line per
way (``tags``), its last-touch round (``age``, ``-1`` for empty ways,
which doubles as the fill-before-evict rule since ``argmin`` picks
empty ways first) and a re-reference bitmap (``reused``) backing the
dead-line counters of paper Table III.  Hits are detected through a
presence table mapping line id to its way — each line belongs to
exactly one set, so one gather replaces a ``ways``-wide tag compare.

Produces counters bit-identical to :func:`repro.cache.lru._simulate_lru`
(see ``tests/test_cache_fast_differential.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.fast.bucket import bucket_trace, compact_line_ids
from repro.cache.lru import RegionBounds, classify_misses
from repro.cache.stats import CacheStats


def simulate_lru_fast(
    trace: np.ndarray,
    config: CacheConfig,
    regions: Optional[RegionBounds] = None,
) -> CacheStats:
    """Vectorized equivalent of :func:`repro.cache.lru._simulate_lru`."""
    trace = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    if trace.size == 0:
        miss_positions = np.empty(0, dtype=np.int64)
        hits = evictions = dead_evictions = dead_at_end = 0
    else:
        hits, evictions, dead_evictions, dead_at_end, miss_positions = _lru_core(
            trace, config.n_sets, config.ways
        )
    stats = CacheStats(
        accesses=int(trace.size),
        hits=hits,
        misses=int(miss_positions.size),
        evictions=evictions,
        dead_evictions=dead_evictions,
        dead_at_end=dead_at_end,
        line_bytes=config.line_bytes,
        region_misses=classify_misses(trace, miss_positions, regions),
    )
    stats.check_consistency()
    return stats


def _lru_core(trace: np.ndarray, n_sets: int, ways: int):
    plan = bucket_trace(trace, n_sets)
    ids, table_size = compact_line_ids(plan.lines)
    pos_first = plan.pos_first
    multi = plan.multi

    tags = np.full(n_sets * ways, -1, dtype=np.int64)
    age = np.full(n_sets * ways, -1, dtype=np.int64)
    reused = np.zeros(n_sets * ways, dtype=bool)
    way_of_line = np.full(table_size, -1, dtype=np.int64)
    col_starts = plan.set_offsets[plan.set_rank]
    row_base = plan.set_rank * ways
    way_range = np.arange(ways)

    miss_positions = np.empty(ids.size, dtype=np.int64)
    n_miss = 0
    evictions = 0
    dead_evictions = 0
    for r in range(plan.rounds):
        n_active = int(plan.active[r + 1])
        idx = col_starts[:n_active] + r
        line = ids[idx]
        way = way_of_line[line]
        hit = way >= 0
        base = row_base[:n_active]
        flat_hit = base[hit] + way[hit]
        age[flat_hit] = r
        reused[flat_hit] = True
        miss_row = np.nonzero(~hit)[0]
        if miss_row.size:
            miss_idx = idx[miss_row]
            miss_positions[n_miss:n_miss + miss_row.size] = pos_first[miss_idx]
            n_miss += miss_row.size
            miss_base = base[miss_row]
            victim = np.argmin(age[miss_base[:, None] + way_range], axis=1)
            flat_victim = miss_base + victim
            old_tag = tags[flat_victim]
            evicted = age[flat_victim] >= 0
            n_evicted = int(np.count_nonzero(evicted))
            if n_evicted:
                evictions += n_evicted
                dead_evictions += int(
                    np.count_nonzero(evicted & ~reused[flat_victim])
                )
                way_of_line[old_tag[evicted]] = -1
            miss_line = line[miss_row]
            tags[flat_victim] = miss_line
            age[flat_victim] = r
            reused[flat_victim] = multi[miss_idx]
            way_of_line[miss_line] = victim
    dead_at_end = int(np.count_nonzero((age >= 0) & ~reused))
    return (
        int(trace.size) - n_miss,
        evictions,
        dead_evictions,
        dead_at_end,
        miss_positions[:n_miss],
    )
