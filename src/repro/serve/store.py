"""Content-addressed permutation/evaluation store for the serve tier.

Keys are derived from the *structure* of the CSR matrix — the byte
content of ``row_offsets`` and ``col_indices`` plus the shape — never
from a user-supplied name, so two uploads of the same matrix (or an
upload that duplicates a corpus entry) share one store entry.  Two
entry kinds live in the one on-disk store (:mod:`repro.store`), whose
root is the memo root unless the server is given ``--store-dir``:

* ``perm``  — key = SHA-256(structure digest | technique | impl):
  the permutation and its measured pre-processing time;
* ``eval``  — key = SHA-256(perm key | kernel | policy | platform):
  the full response payload (model outputs + permutation reference),
  which is what makes a store hit byte-identical to the miss that
  created it.

Every entry is wrapped in the PR 4 versioned checksum envelope
(:mod:`repro.resilience.integrity`), so truncated or bit-flipped
entries are detected on read, quarantined under ``<root>/quarantine/``
and recomputed — a damaged store degrades to recomputation, never to a
wrong answer.  Writes go through :func:`atomic_write_document`, whose
per-write unique temp names make concurrent same-key writers safe.
``repro doctor`` scans and ``/stats`` sizes these entries together with
every other kind (:func:`repro.store.scan`, :func:`repro.store.stats`).
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Optional

import numpy as np

from repro.obs import get_obs
from repro.resilience.faults import fault_point
from repro.resilience.integrity import (
    atomic_write_document,
    load_or_quarantine,
    wrap_payload,
)
from repro.store import kind_dir, resolve_cache_dir

#: Store layout version: bump when the key derivation or entry payload
#: layout changes incompatibly (old entries then simply miss).
STORE_VERSION = 1

KINDS = ("perm", "eval")


def structure_digest(csr) -> str:
    """SHA-256 of a CSR matrix's structure (shape + offsets + indices).

    Values are deliberately excluded: every reordering technique and
    every kernel trace in this pipeline depends only on the sparsity
    structure, so matrices differing solely in values share entries.
    """
    h = hashlib.sha256()
    h.update(f"csr-structure-v{STORE_VERSION}|{csr.n_rows}|{csr.n_cols}|".encode())
    h.update(np.ascontiguousarray(csr.row_offsets, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(csr.col_indices, dtype=np.int64).tobytes())
    return h.hexdigest()


def perm_key(digest: str, technique: str, impl: str) -> str:
    """Content address of one permutation: structure + technique + impl."""
    raw = f"perm-v{STORE_VERSION}|{digest}|{technique}|{impl}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def eval_key(
    digest: str,
    technique: str,
    impl: str,
    kernel: str,
    policy: str,
    platform: str,
) -> str:
    """Content address of one evaluated (permutation, kernel) pair."""
    raw = (
        f"eval-v{STORE_VERSION}|{perm_key(digest, technique, impl)}"
        f"|{kernel}|{policy}|{platform}"
    )
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


class PermutationStore:
    """On-disk content-addressed store with envelope verification.

    The store is shared-nothing between readers and writers: reads
    verify the envelope and quarantine damage, writes are atomic with
    unique temp names, and the key *is* the content address, so
    concurrent writers of one key write identical bytes and last-wins
    replacement is harmless.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = resolve_cache_dir(root)

    def path(self, kind: str, key: str) -> str:
        if kind not in KINDS:
            raise ValueError(f"store kind must be one of {KINDS}, got {kind!r}")
        return os.path.join(kind_dir(self.root, kind), f"{key}.json")

    def get(self, kind: str, key: str) -> Optional[Dict[str, object]]:
        """Verified payload for ``key``, or ``None`` (miss / quarantined)."""
        path = self.path(kind, key)
        if not os.path.exists(path):
            get_obs().counter(f"serve.store.{kind}.miss")
            return None
        # Chaos site: a ``corrupt`` rule here damages the entry before
        # the verified read (exercising quarantine-on-read); ``raise``
        # simulates a failing disk, which the service's store breaker
        # degrades to a miss.
        fault_point("serve.store.get", label=f"{kind}:{key[:12]}", path=path)
        payload = load_or_quarantine(path, cache_dir=self.root)
        if payload is None:
            get_obs().counter(f"serve.store.{kind}.miss")
            return None
        get_obs().counter(f"serve.store.{kind}.hit")
        return payload

    def put(self, kind: str, key: str, payload: Dict[str, object]) -> str:
        """Persist ``payload`` under ``key``; returns the entry path."""
        path = self.path(kind, key)
        atomic_write_document(path, wrap_payload(payload))
        # Chaos site, mirroring ``memo.write``: ``corrupt`` damages the
        # just-written entry (caught by the next verified read or the
        # startup scrub), ``raise`` simulates a failed persist.
        fault_point("serve.store.put", label=f"{kind}:{key[:12]}", path=path)
        get_obs().counter(f"serve.store.{kind}.write")
        return path
