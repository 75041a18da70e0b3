"""Disk cache for large generated matrices."""

import os

import numpy as np
import pytest

from repro.errors import CacheIntegrityError
from repro.graphs.generators.powerlaw import rmat
from repro.graphs.graph import Graph
from repro.graphs.matrixcache import (
    GRAPH_META_FILENAME,
    build_rmat_cache,
    cached_rmat_graph,
    load_cached_graph,
    rmat_cache_key,
)
from repro.sparse.memmap import is_memmap_backed
from repro.store import kind_dir, resolve_cache_dir

PARAMS = dict(scale=8, edge_factor=8, seed=5)


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def matrix_cache_root():
    return kind_dir(resolve_cache_dir(), "matrices")


def entry_dir():
    return os.path.join(matrix_cache_root(), rmat_cache_key(**PARAMS))


class TestCachedRmatGraph:
    def test_cached_graph_matches_in_ram_build(self, cache_env):
        cached = cached_rmat_graph(**PARAMS)
        assert is_memmap_backed(cached.adjacency)
        reference = Graph.from_coo(rmat(**PARAMS), directed=True)
        assert np.array_equal(
            cached.adjacency.row_offsets, reference.adjacency.row_offsets
        )
        assert np.array_equal(
            cached.adjacency.col_indices, reference.adjacency.col_indices
        )
        assert np.array_equal(cached.adjacency.values, reference.adjacency.values)

    def test_undirected_view_preseeded_and_exact(self, cache_env):
        cached = cached_rmat_graph(**PARAMS)
        undirected = cached.to_undirected()
        assert is_memmap_backed(undirected.adjacency)
        assert undirected is cached.to_undirected()  # cached, no rebuild
        assert undirected.to_undirected() is undirected
        reference = Graph.from_coo(rmat(**PARAMS), directed=True).to_undirected()
        assert np.array_equal(
            undirected.adjacency.row_offsets, reference.adjacency.row_offsets
        )
        assert np.array_equal(
            undirected.adjacency.col_indices, reference.adjacency.col_indices
        )
        assert np.array_equal(undirected.adjacency.values, reference.adjacency.values)

    def test_second_load_is_a_hit(self, cache_env):
        cached_rmat_graph(**PARAMS)
        meta = os.path.join(entry_dir(), GRAPH_META_FILENAME)
        stamp = os.path.getmtime(meta)
        again = cached_rmat_graph(**PARAMS)
        assert os.path.getmtime(meta) == stamp  # not rebuilt
        assert again.n_nodes == 1 << PARAMS["scale"]

    def test_damaged_entry_quarantined_and_rebuilt(self, cache_env):
        first = cached_rmat_graph(**PARAMS)
        meta = os.path.join(entry_dir(), GRAPH_META_FILENAME)
        with open(meta, "a") as handle:
            handle.write("tail garbage")
        rebuilt = cached_rmat_graph(**PARAMS)
        assert np.array_equal(
            first.adjacency.col_indices, rebuilt.adjacency.col_indices
        )
        quarantine = cache_env / "quarantine"
        assert quarantine.is_dir() and any(quarantine.iterdir())

    def test_truncated_array_triggers_rebuild(self, cache_env):
        cached_rmat_graph(**PARAMS)
        victim = os.path.join(entry_dir(), "undirected", "col_indices.bin")
        with open(victim, "r+b") as handle:
            handle.truncate(os.path.getsize(victim) - 8)
        rebuilt = cached_rmat_graph(**PARAMS)
        assert rebuilt.to_undirected().adjacency.nnz > 0

    def test_distinct_parameters_distinct_entries(self, cache_env):
        cached_rmat_graph(**PARAMS)
        cached_rmat_graph(scale=8, edge_factor=8, seed=6)
        entries = os.listdir(matrix_cache_root())
        assert len(entries) == 2


class TestLoadCachedGraph:
    def test_absent_entry_raises_file_not_found(self, cache_env):
        with pytest.raises(FileNotFoundError):
            load_cached_graph(entry_dir())

    def test_parameter_mismatch_raises_integrity_error(self, cache_env):
        build_rmat_cache(entry_dir(), **PARAMS)
        with pytest.raises(CacheIntegrityError, match="does not match"):
            load_cached_graph(entry_dir(), expect={"seed": 999})

    def test_no_staging_left_behind(self, cache_env):
        build_rmat_cache(entry_dir(), **PARAMS)
        siblings = os.listdir(matrix_cache_root())
        assert siblings == [rmat_cache_key(**PARAMS)]
