"""Belady (OPT) replacement simulation (paper Figure 8).

Belady's policy evicts the resident line whose next use lies farthest
in the future — an oracular upper bound on replacement quality.  The
paper uses it to quantify the remaining locality headroom after
reordering: the LRU-vs-Belady traffic gap is smallest (7.6%) for
RABBIT++ ordered matrices.

The offline next-use index is computed vectorially (lexsort by line
then position); the simulation keeps, per set, a dict of resident
lines with their next-use time plus a lazy max-heap for eviction.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.lru import RegionBounds, classify_misses
from repro.cache.stats import CacheStats


def next_use_index(trace: np.ndarray) -> np.ndarray:
    """For every access, the position of the next access to its line.

    Positions with no future access get ``trace.size`` (an "infinite"
    sentinel larger than any valid position).
    """
    trace = np.asarray(trace, dtype=np.int64)
    n = trace.size
    next_use = np.full(n, n, dtype=np.int64)
    if n == 0:
        return next_use
    order = np.lexsort((np.arange(n), trace))
    same_line = trace[order][1:] == trace[order][:-1]
    next_use[order[:-1][same_line]] = order[1:][same_line]
    return next_use


def _simulate_belady(
    trace: np.ndarray,
    config: CacheConfig,
    regions: Optional[RegionBounds] = None,
) -> CacheStats:
    trace = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    next_use = next_use_index(trace)
    n_sets = config.n_sets
    ways = config.ways
    resident: List[dict] = [dict() for _ in range(n_sets)]  # line -> (next_use, reused)
    heaps: List[list] = [[] for _ in range(n_sets)]

    hits = 0
    evictions = 0
    dead_evictions = 0
    miss_positions: List[int] = []
    miss_append = miss_positions.append

    trace_list = trace.tolist()
    next_list = next_use.tolist()
    for position, line in enumerate(trace_list):
        set_id = line % n_sets
        lines = resident[set_id]
        future = next_list[position]
        entry = lines.get(line)
        if entry is not None:
            hits += 1
            lines[line] = (future, True)
            heapq.heappush(heaps[set_id], (-future, line))
        else:
            miss_append(position)
            lines[line] = (future, False)
            heapq.heappush(heaps[set_id], (-future, line))
            if len(lines) > ways:
                # The new line is itself a candidate: evicting it
                # immediately models Belady's bypass decision.
                evictions += 1
                if _evict_farthest(lines, heaps[set_id]):
                    dead_evictions += 1

    dead_at_end = sum(
        1 for lines in resident for _, reused in lines.values() if not reused
    )
    stats = CacheStats(
        accesses=int(trace.size),
        hits=hits,
        misses=len(miss_positions),
        evictions=evictions,
        dead_evictions=dead_evictions,
        dead_at_end=dead_at_end,
        line_bytes=config.line_bytes,
        region_misses=classify_misses(trace, miss_positions, regions),
    )
    stats.check_consistency()
    return stats


def _evict_farthest(lines: dict, heap: list) -> bool:
    """Evict the farthest-next-use resident line; True if it was dead.

    Heap entries are lazy: a popped entry is valid only when the line
    is still resident with the same next-use stamp.
    """
    while heap:
        neg_future, line = heapq.heappop(heap)
        entry = lines.get(line)
        if entry is None or entry[0] != -neg_future:
            continue  # stale: line evicted earlier or re-accessed since
        del lines[line]
        return not entry[1]
    raise AssertionError("eviction requested from an empty candidate heap")
