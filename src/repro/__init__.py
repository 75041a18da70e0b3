"""repro — reproduction of "Community-based Matrix Reordering for
Sparse Linear Algebra Optimization" (Balaji et al., ISPASS 2023).

The library provides, end to end, everything the paper's evaluation
needs:

* sparse formats and reference kernels (:mod:`repro.sparse`);
* a synthetic input corpus mirroring the paper's 50-matrix selection
  (:mod:`repro.graphs`);
* community detection — Rabbit-style incremental aggregation and
  Louvain (:mod:`repro.community`);
* the reordering techniques: RANDOM/ORIGINAL, DEGSORT, DBG, HUBSORT,
  HUBCLUSTER, GORDER, RCM, SLASHBURN, RABBIT and the paper's RABBIT++
  (:mod:`repro.reorder`);
* a trace-driven L2 cache simulator with LRU and Belady replacement
  (:mod:`repro.cache`, :mod:`repro.trace`);
* the GPU platform/performance model (:mod:`repro.gpu`);
* analysis metrics — insularity, skew, community statistics
  (:mod:`repro.metrics`);
* one experiment driver per paper table and figure
  (:mod:`repro.experiments`).

Quick start::

    from repro import load_graph, make_technique, evaluate_ordering

    graph = load_graph("soc-forum")
    perm = make_technique("rabbit++").compute(graph)
    result = evaluate_ordering(graph, perm)
    print(result.normalized_traffic, result.normalized_runtime)
"""

from repro.api import (
    Recommendation,
    ReorderEvaluation,
    evaluate_ordering,
    recommend,
    reorder_and_evaluate,
    reorder_matrix,
)
from repro.cache import (
    CacheConfig,
    CacheStats,
    simulate,
)
from repro.community import (
    CommunityAssignment,
    louvain,
    modularity,
    rabbit_communities,
)
from repro.graphs import Graph, corpus_names, load_matrix
from repro.graphs.corpus import load_graph
from repro.gpu import A6000, SCALED_A6000, PlatformSpec, model_run, scaled_platform
from repro.metrics import degree_skew, insular_node_fraction, insularity
from repro.reorder import (
    PAPER_TECHNIQUES,
    RabbitOrder,
    RabbitPlusPlus,
    available_techniques,
    make_technique,
)
from repro.sparse import COOMatrix, CSRMatrix, spmm_csr, spmv_coo, spmv_csr
from repro.trace import (
    KernelSpec,
    spgemm_csr_trace,
    spmm_csr_trace,
    spmv_coo_trace,
    spmv_csr_trace,
)

__version__ = "1.0.0"

__all__ = [
    "A6000",
    "COOMatrix",
    "CSRMatrix",
    "CacheConfig",
    "CacheStats",
    "CommunityAssignment",
    "Graph",
    "KernelSpec",
    "PAPER_TECHNIQUES",
    "PlatformSpec",
    "RabbitOrder",
    "RabbitPlusPlus",
    "Recommendation",
    "ReorderEvaluation",
    "SCALED_A6000",
    "available_techniques",
    "corpus_names",
    "degree_skew",
    "evaluate_ordering",
    "insular_node_fraction",
    "insularity",
    "load_graph",
    "load_matrix",
    "louvain",
    "make_technique",
    "model_run",
    "modularity",
    "rabbit_communities",
    "recommend",
    "reorder_and_evaluate",
    "reorder_matrix",
    "scaled_platform",
    "simulate",
    "spgemm_csr_trace",
    "spmm_csr",
    "spmm_csr_trace",
    "spmv_coo",
    "spmv_coo_trace",
    "spmv_csr",
    "spmv_csr_trace",
]
