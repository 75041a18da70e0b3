"""Differential suite: vectorized reordering engines vs the reference.

Every technique with a fast path must produce **bit-identical**
permutations to the reference implementation on every graph — that is
the dispatch contract (:mod:`repro.reorder.dispatch`) that lets
``impl="auto"`` swap engines without perturbing any downstream
artifact.  The suite crosses the fast-path techniques with seeded
corpus generators and structural edge cases, checks the community
detectors underneath them (Louvain, which has no fast engine, against
networkx's independent modularity), and pins the dispatch plumbing
itself (validation, auto thresholds, cached transpose).
"""

from __future__ import annotations

import numpy as np
import pytest
from networkx import Graph as NxGraph
from networkx.algorithms.community import modularity as nx_modularity

from repro.community import modularity
from repro.community.louvain import louvain
from repro.community.rabbit import rabbit_communities
from repro.errors import ValidationError
from repro.graphs.generators.community import dcsbm, star_burst
from repro.graphs.generators.powerlaw import rmat
from repro.graphs.generators.random_graphs import erdos_renyi
from repro.graphs.graph import Graph
from repro.reorder.dispatch import (
    AUTO_MIN_EDGES,
    AUTO_MIN_NODES,
    choose_impl,
    resolve_impl,
)
from repro.reorder.registry import make_technique
from repro.sparse.convert import coo_to_csr, csr_to_coo
from repro.sparse.coo import COOMatrix
from repro.sparse.ops import transpose

FAST_TECHNIQUES = ("rabbit", "rabbit++", "rcm", "gorder")


def _graph_from_coo(coo: COOMatrix, directed: bool = True) -> Graph:
    return Graph.from_coo(coo, directed=directed)


def _empty_graph() -> Graph:
    return _graph_from_coo(COOMatrix(0, 0, [], [], []))


def _single_node() -> Graph:
    return _graph_from_coo(COOMatrix(1, 1, [], [], []))


def _disconnected() -> Graph:
    """Three components: a triangle, an edge, and isolated nodes."""
    edges = [(0, 1), (1, 2), (0, 2), (4, 5)]
    rows = [u for u, v in edges] + [v for u, v in edges]
    cols = [v for u, v in edges] + [u for u, v in edges]
    return _graph_from_coo(COOMatrix(8, 8, rows, cols), directed=False)


GRAPHS = {
    "rmat10": lambda: _graph_from_coo(rmat(10, 8, seed=7)),
    "rmat9-dense": lambda: _graph_from_coo(rmat(9, 24, seed=11)),
    "dcsbm": lambda: _graph_from_coo(dcsbm(512, 8, 12.0, 0.15, seed=3)),
    "dcsbm-hubs": lambda: _graph_from_coo(
        dcsbm(384, 6, 10.0, 0.3, theta_exponent=0.9, seed=5)
    ),
    "erdos": lambda: _graph_from_coo(erdos_renyi(400, 9.0, seed=2)),
    "star-burst": lambda: _graph_from_coo(star_burst(300, 6, seed=4)),
    "empty": _empty_graph,
    "single": _single_node,
    "disconnected": _disconnected,
}


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in GRAPHS.items()}


class TestTechniqueDifferential:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("technique", FAST_TECHNIQUES)
    def test_identical_permutations(self, graphs, technique, graph_name):
        graph = graphs[graph_name]
        reference = make_technique(technique, impl="reference").compute(graph)
        fast = make_technique(technique, impl="fast").compute(graph)
        assert fast.dtype == reference.dtype
        assert np.array_equal(fast, reference)

    @pytest.mark.parametrize("technique", FAST_TECHNIQUES)
    def test_auto_matches_reference(self, graphs, technique):
        graph = graphs["rmat10"]
        reference = make_technique(technique, impl="reference").compute(graph)
        auto = make_technique(technique, impl="auto").compute(graph)
        assert np.array_equal(auto, reference)

    def test_identical_cache_stats_downstream(self, graphs):
        """Same permutation => byte-identical simulated cache stats."""
        from repro.cache.config import CacheConfig
        from repro.cache.dispatch import simulate
        from repro.sparse.permute import permute_symmetric
        from repro.trace.kernel_traces import spmv_csr_trace

        graph = graphs["dcsbm"].to_undirected()
        config = CacheConfig(capacity_bytes=16 * 1024, line_bytes=64, ways=8)
        stats = {}
        for impl in ("reference", "fast"):
            perm = make_technique("rabbit", impl=impl).compute(graph)
            permuted = permute_symmetric(graph.adjacency, perm)
            stats[impl] = simulate(spmv_csr_trace(permuted), config)
        assert stats["reference"] == stats["fast"]


class TestDetectorDifferential:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_rabbit_detection(self, graphs, graph_name):
        graph = graphs[graph_name]
        ref = rabbit_communities(graph, impl="reference")
        fast = rabbit_communities(graph, impl="fast")
        assert np.array_equal(ref.assignment.labels, fast.assignment.labels)
        assert ref.n_merges == fast.n_merges
        assert np.array_equal(ref.dendrogram.ordering(), fast.dendrogram.ordering())

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_louvain_detection(self, graphs, graph_name):
        """Louvain has no fast engine; networkx is its differential partner."""
        graph = graphs[graph_name]
        result = louvain(graph)
        expected = _networkx_modularity(graph, result.assignment.labels)
        assert modularity(graph, result.assignment) == pytest.approx(expected, abs=1e-9)
        assert result.modularity == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_rabbit_modularity_matches_networkx(self, graphs, graph_name):
        graph = graphs[graph_name]
        assignment = rabbit_communities(graph).assignment
        expected = _networkx_modularity(graph, assignment.labels)
        assert modularity(graph, assignment) == pytest.approx(expected, abs=1e-9)


def _networkx_modularity(graph: Graph, labels: np.ndarray) -> float:
    """Modularity of ``labels`` computed by networkx on the undirected view."""
    coo = csr_to_coo(graph.to_undirected().adjacency)
    upper = coo.rows < coo.cols  # symmetric and loop-free: each edge once
    nx_graph = NxGraph()
    nx_graph.add_nodes_from(range(coo.n_rows))
    nx_graph.add_weighted_edges_from(
        zip(coo.rows[upper].tolist(), coo.cols[upper].tolist(), coo.values[upper].tolist())
    )
    if nx_graph.number_of_edges() == 0:
        return 0.0  # networkx divides by the edge weight; Q is defined as 0 here
    communities = [set(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)]
    return nx_modularity(nx_graph, communities)


class TestDispatch:
    def test_resolve_impl_validates(self):
        assert resolve_impl("fast") == "fast"
        assert resolve_impl(None) == "auto"
        with pytest.raises(ValidationError, match="impl"):
            resolve_impl("fastest")

    def test_auto_thresholds(self):
        assert choose_impl(AUTO_MIN_NODES, 0) == "fast"
        assert choose_impl(0, AUTO_MIN_EDGES) == "fast"
        assert choose_impl(AUTO_MIN_NODES - 1, AUTO_MIN_EDGES - 1) == "reference"

    def test_make_technique_rejects_bad_impl(self):
        with pytest.raises(ValidationError, match="impl"):
            make_technique("rabbit", impl="vectorised")

    def test_make_technique_sets_impl(self):
        assert make_technique("rabbit", impl="fast").impl == "fast"
        assert make_technique("rabbit").impl is None


class TestInAdjacencyCache:
    def test_matches_explicit_transpose(self, graphs):
        graph = graphs["rmat10"]
        expected = coo_to_csr(transpose(csr_to_coo(graph.adjacency)))
        got = graph.in_adjacency
        assert np.array_equal(got.row_offsets, expected.row_offsets)
        assert np.array_equal(got.col_indices, expected.col_indices)
        assert np.array_equal(got.values, expected.values)

    def test_cached_object_identity(self, graphs):
        graph = graphs["erdos"]
        assert graph.in_adjacency is graph.in_adjacency

