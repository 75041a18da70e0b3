"""Exact set-associative LRU simulation by bounded stack distance.

LRU has the stack property (Mattson et al., IBM Sys. J. 1970): an
access hits exactly when fewer than ``ways`` distinct lines of its set
were touched since the previous touch of its own line.  So no cache
state is replayed at all.  The trace is grouped by set and collapsed
into runs (:func:`~repro.cache.fast.bucket.bucket_trace`); each run
learns its line's previous and next touch from one packed-key sort.
Within a set the runs between a run ``k`` and its previous touch
``p`` are contiguous, and the distinct lines among them are the runs
``j`` in ``(p, k)`` whose next touch lies beyond ``k``.  With
``gap = k - p - 1``:

* ``gap < ways`` — a hit, with no further work;
* otherwise a vectorized backward scan counts those last occurrences,
  stops once it reaches ``ways`` (a miss) or ``p`` (a hit), and widens
  geometrically only for the runs still undecided.  It runs in blocks
  of at most :data:`_SCAN_BLOCK` cells, so its scratch stays bounded;
  each run is scanned by at most ``ways`` queries, so the work is
  ``O(runs * ways)`` in the worst case.

The remaining counters follow in closed form: every miss inserts and
a set fills to ``min(ways, distinct lines)``, so that many misses are
not evictions; an insertion is dead unless its run re-references it
(``multi``) or its line's next touch hits; and a dead insertion is
still resident at the end when its line is among the last ``ways``
distinct lines of its set.

Produces counters bit-identical to :func:`repro.cache.lru._simulate_lru`
(see ``tests/test_cache_fast_differential.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.cache.config import CacheConfig
from repro.cache.fast.bucket import bucket_trace, compact_line_ids, stable_key_sort
from repro.cache.lru import RegionBounds, classify_misses
from repro.cache.stats import CacheStats

#: Cells (queries x scanned runs) per backward-scan step; also the
#: widest a single query's scan window grows.
_SCAN_BLOCK = 1 << 16


def simulate_lru_fast(
    trace: np.ndarray,
    config: CacheConfig,
    regions: Optional[RegionBounds] = None,
) -> CacheStats:
    """Vectorized equivalent of :func:`repro.cache.lru._simulate_lru`."""
    trace = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    if trace.size == 0:
        miss_positions = np.empty(0, dtype=np.int64)
        evictions = dead_evictions = dead_at_end = 0
    else:
        evictions, dead_evictions, dead_at_end, miss_positions = _lru_core(
            trace, config.n_sets, config.ways
        )
    stats = CacheStats(
        accesses=int(trace.size),
        hits=int(trace.size - miss_positions.size),
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
    n_runs = plan.lines.size
    earlier, later = _successive_touches(plan.lines)
    nxt = np.full(n_runs, n_runs, dtype=np.int64)  # n_runs: no next touch
    nxt[earlier] = later
    hit = np.zeros(n_runs + 1, dtype=bool)  # hit[n_runs]: "no next touch"
    far = later - earlier > ways  # at least ``ways`` runs in between
    hit[later[~far]] = True
    query, prev = later[far], earlier[far]
    del earlier, later, far  # freed first: the scan's peak is the engine's
    hit[query] = _scan_hits(query, prev, nxt, ways)
    miss = ~hit[:n_runs]

    # Lines of each set = its last touches; the set ends holding the
    # last ``ways`` of them.
    last = nxt == n_runs
    last_before = np.zeros(n_runs + 1, dtype=np.int64)  # last touches in [0, k)
    np.cumsum(last, out=last_before[1:])
    set_end = np.append(plan.set_offsets[1:], n_runs)
    distinct = last_before[set_end] - last_before[plan.set_offsets]
    n_miss = int(np.count_nonzero(miss))
    evictions = n_miss - int(np.minimum(distinct, ways).sum())

    dead = miss & ~plan.multi & ~hit[nxt]
    dead_last = np.nonzero(dead & last)[0]
    own_end = set_end[np.searchsorted(set_end, dead_last, side="right")]
    resident = last_before[own_end] - last_before[dead_last + 1] < ways
    dead_at_end = int(np.count_nonzero(resident))
    dead_evictions = int(np.count_nonzero(dead)) - dead_at_end
    return evictions, dead_evictions, dead_at_end, plan.pos_first[miss]


def _successive_touches(lines: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Run pairs ``(earlier[i], later[i])``: successive touches of a line."""
    ids, table_size = compact_line_ids(lines)
    order, ids = stable_key_sort(ids.astype(np.int64), table_size)
    same = ids[1:] == ids[:-1]
    return order[:-1][same], order[1:][same]


def _scan_hits(
    query: np.ndarray, prev: np.ndarray, nxt: np.ndarray, ways: int
) -> np.ndarray:
    """Whether each run ``query`` (previous touch ``prev``) is an LRU hit.

    Counts the runs ``j`` in ``(prev, query)`` with ``nxt[j] > query``
    — the distinct lines touched since ``prev`` — scanning backward
    from ``query`` in windows that double per pass, until the count
    reaches ``ways`` or the window passes ``prev``.
    """
    hit = np.zeros(query.size, dtype=bool)
    count = np.zeros(query.size, dtype=np.int64)
    # int32 halves the bytes each scanned cell gathers.  Zero padding in
    # front keeps every window start in range; zeros never exceed a
    # query and are masked out anyway.
    dtype = np.int32 if nxt.size < 2**31 else np.int64
    windows = np.concatenate((np.zeros(_SCAN_BLOCK, dtype=dtype), nxt.astype(dtype)))
    narrow = query.astype(dtype)
    todo = np.arange(query.size)
    scanned = 0  # runs just below every pending query already counted
    width = min(2 * ways, _SCAN_BLOCK)
    while todo.size:
        view = sliding_window_view(windows, width)
        offsets = np.arange(width)
        rows = max(1, _SCAN_BLOCK // width)
        for s in range(0, todo.size, rows):
            q = todo[s:s + rows]
            start = query[q] + (_SCAN_BLOCK - scanned - width)
            live = view[start] > narrow[q, None]
            live &= offsets > (prev[q] + _SCAN_BLOCK - start)[:, None]
            count[q] += live.view(np.uint8).sum(axis=1, dtype=np.int64)
        scanned += width
        decided = (count[todo] >= ways) | (query[todo] - scanned <= prev[todo] + 1)
        hit[todo[decided]] = count[todo[decided]] < ways
        todo = todo[~decided]
        width = min(2 * width, _SCAN_BLOCK)
    return hit
