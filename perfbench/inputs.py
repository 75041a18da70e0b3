"""Seeded benchmark inputs, written as MatrixMarket files.

Each recipe repeats a corpus entry of :mod:`repro.graphs.corpus` —
same generator, family and size — with every generator seed derived
from the benchmark seed, so one seed gives one input set and another
seed a different one.  Publisher order and directedness are read from
the corpus entry: a ``scrambled`` entry gets a seeded random relabeling,
as the corpus applies.  ``seed=None`` reproduces the corpus's own
generator seeds (the self-tests check the recipes against it).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.graphs.corpus import get_entry
from repro.graphs.generators import (
    barabasi_albert,
    dcsbm,
    erdos_renyi,
    grid_2d,
    hierarchical_blocks,
    hub_overlay,
    kmer_chain,
    planted_partition,
    rmat,
    road_network,
    star_burst,
    watts_strogatz,
)
from repro.graphs.io import write_matrix_market
from repro.sparse.coo import COOMatrix
from repro.sparse.permute import permute_coo

Seeder = Callable[[int], int]

#: name -> recipe(seeder); ``seeder(corpus_seed)`` is the generator seed.
RECIPES: Dict[str, Callable[[Seeder], COOMatrix]] = {
    # bench profile (4096 nodes), in corpus order.
    "bench-social": lambda s: dcsbm(4096, 32, 12.0, mu=0.35, theta_exponent=0.9, seed=s(301)),
    "bench-scalefree": lambda s: barabasi_albert(4096, 6, seed=s(302)),
    "bench-web": lambda s: hub_overlay(
        dcsbm(4096, 32, 8.0, mu=0.15, theta_exponent=0.6, seed=s(303)),
        n_hubs=16, hub_degree=192, seed=s(304),
    ),
    "bench-rmat": lambda s: rmat(12, 8, seed=s(305)),
    "bench-circuit": lambda s: hierarchical_blocks(4096, 8, 3.0, seed=s(306)),
    "bench-mesh": lambda s: grid_2d(64, 64),
    "bench-road": lambda s: road_network(64, 64, seed=s(307)),
    "bench-kmer": lambda s: kmer_chain(4096, branch_prob=0.02, seed=s(308)),
    "bench-comm": lambda s: planted_partition(4096, 64, 12.0, mu=0.05, seed=s(309)),
    "bench-traffic": lambda s: star_burst(4096, 4, leaf_links=1, seed=s(310)),
    "bench-smallworld": lambda s: watts_strogatz(4096, 8, 0.1, seed=s(311)),
    "bench-random": lambda s: erdos_renyi(4096, 8.0, seed=s(312)),
    # full profile, the families sweep-cachesim uses.
    "soc-forum": lambda s: dcsbm(16384, 64, 16.0, mu=0.35, theta_exponent=0.9, seed=s(101)),
    "road-state": lambda s: road_network(181, 181, seed=s(142)),
    "kmer-protein": lambda s: kmer_chain(32768, branch_prob=0.02, seed=s(151)),
    # test profile, for the self-tests.
    "test-comm": lambda s: planted_partition(512, 16, 8.0, mu=0.05, seed=s(401)),
    "test-mesh": lambda s: grid_2d(24, 24),
    "test-kmer": lambda s: kmer_chain(512, branch_prob=0.03, n_chains=4, seed=s(403)),
}


def derive_seed(seed: Optional[int], base: int, salt: str = "") -> int:
    """Generator seed for corpus seed ``base`` under benchmark ``seed``."""
    if seed is None:
        return base
    digest = hashlib.sha256(f"{seed}|{salt}|{base}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def build_matrix(name: str, seed: Optional[int]) -> COOMatrix:
    """One recipe's matrix with the corpus entry's publisher order applied."""
    matrix = RECIPES[name](lambda base: derive_seed(seed, base, name))
    if get_entry(name).publisher_order == "scrambled":
        rng = np.random.default_rng(derive_seed(seed, 0, f"scramble|{name}"))
        matrix = permute_coo(matrix, rng.permutation(matrix.n_rows).astype(np.int64))
    return matrix


@dataclass(frozen=True)
class MatrixFile:
    name: str
    path: str
    n_nodes: int
    nnz: int
    directed: bool


class InputSet:
    """The generated ``.mtx`` files of one workload, in corpus order."""

    def __init__(self, files: Sequence[MatrixFile]) -> None:
        self.files = {f.name: f for f in files}

    @property
    def names(self):
        return list(self.files)

    def describe(self):
        return [{"name": f.name, "nodes": f.n_nodes, "nnz": f.nnz} for f in self.files.values()]


def write_inputs(names: Sequence[str], seed: int, directory: str) -> InputSet:
    """Generate ``names`` from ``seed`` and write them under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    files = []
    for name in names:
        matrix = build_matrix(name, seed)
        path = os.path.join(directory, f"{name}.mtx")
        write_matrix_market(matrix, path, comment=f"perfbench seed={seed} family={name}")
        files.append(MatrixFile(name, path, matrix.n_rows, matrix.nnz, get_entry(name).directed))
    return InputSet(files)
