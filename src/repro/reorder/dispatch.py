"""Implementation selection for the reordering engine.

Mirrors the cache-simulation dispatch (:mod:`repro.cache.dispatch`)
and shares its ``impl`` vocabulary and validator: the engine is chosen
from the input, ``"auto"`` picking the fast engine whenever the graph
is large enough for numpy vectorization to beat the reference Python
loops.  Techniques without a fast path (e.g. Louvain, degree sorts,
SlashBurn) always run their reference code.

Both engines produce **bit-identical permutations** (asserted by the
differential suite in ``tests/test_reorder_fast.py`` and re-checked by
``repro bench-reorder``, which times both), so the choice only affects
wall time — and therefore the memoized artifacts are byte-identical
across engines.  ``make_technique(name, impl=...)`` pins one engine for
those differential checks.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.dispatch import resolve_impl

#: Below both bounds the reference loops win: the vectorized engines
#: pay a handful of numpy-call overheads per visited node, which only
#: amortizes once rows carry enough neighbors (measured on the seeded
#: corpus generators; tiny fixtures run ~2x faster on the reference).
AUTO_MIN_NODES = 192
AUTO_MIN_EDGES = 1024


def choose_impl(n_nodes: int, n_edges: int) -> str:
    """Resolve ``"auto"`` from the graph size (fast iff big enough)."""
    if n_nodes >= AUTO_MIN_NODES or n_edges >= AUTO_MIN_EDGES:
        return "fast"
    return "reference"


def resolve_for_graph(impl: Optional[str], n_nodes: int, n_edges: int) -> str:
    """Full resolution: validate ``impl``, then apply the auto thresholds."""
    resolved = resolve_impl(impl)
    if resolved == "auto":
        return choose_impl(n_nodes, n_edges)
    return resolved
