"""Graph substrate: graph view, generators, I/O, and the input corpus.

The paper treats graphs and matrices interchangeably (nodes are
rows/columns, edges are non-zeros).  This subpackage provides the graph
view over CSR storage, deterministic synthetic generators spanning the
structural categories of the paper's 50-matrix corpus, Matrix-Market
I/O, and the corpus registry with the Section III selection criteria.
"""

from repro.graphs.graph import Graph
from repro.graphs.corpus import (
    CorpusEntry,
    corpus_entries,
    corpus_names,
    load_matrix,
    selection_report,
)
from repro.graphs.matrixcache import (
    build_rmat_cache,
    cached_rmat_graph,
    load_cached_graph,
    rmat_cache_key,
)
from repro.graphs.io import (
    MtxHeader,
    iter_matrix_market_chunks,
    mtx_to_memmap_csr,
    read_matrix_market,
    scan_matrix_market_header,
    write_matrix_market,
)

__all__ = [
    "CorpusEntry",
    "Graph",
    "MtxHeader",
    "build_rmat_cache",
    "cached_rmat_graph",
    "corpus_entries",
    "corpus_names",
    "iter_matrix_market_chunks",
    "load_cached_graph",
    "load_matrix",
    "rmat_cache_key",
    "mtx_to_memmap_csr",
    "read_matrix_market",
    "scan_matrix_market_header",
    "selection_report",
    "write_matrix_market",
]
