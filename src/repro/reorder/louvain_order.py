"""Louvain-based community ordering (detector ablation).

Orders nodes by Louvain community, members in original relative order.
This is the "any community detector + contiguous IDs" strawman against
which Rabbit's dendrogram-DFS ordering can be ablated: Louvain finds
slightly higher-modularity partitions but provides no intra-community
hierarchy, so nested sub-communities are not kept contiguous.
"""

from __future__ import annotations

import numpy as np

from repro.community.louvain import louvain
from repro.graphs.graph import Graph
from repro.reorder.base import ReorderingTechnique, stable_order_to_permutation


class LouvainOrder(ReorderingTechnique):
    """Contiguous-community ordering from Louvain detection."""

    name = "louvain"

    def __init__(self, max_levels: int = 10) -> None:
        self.max_levels = int(max_levels)

    def _compute(self, graph: Graph) -> np.ndarray:
        result = louvain(graph, max_levels=self.max_levels)
        labels = result.assignment.labels
        # Stable sort: communities contiguous, original order within.
        visit = np.argsort(labels, kind="stable")
        return stable_order_to_permutation(visit)
