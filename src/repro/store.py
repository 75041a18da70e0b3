"""The one on-disk store: root, layout, integrity scan, stats, quarantine.

Everything this package memoizes lives under one root, one directory
per entry kind; entry basenames are the writers' own::

    <root>/
      run/run-<key>-<digest>.json        simulated cells (ExperimentRunner.run)
      metrics/metrics-<matrix>-<digest>.json
      reorder-time/reorder-time-<key>-<digest>.json
      fig9/fig9-<key>-<digest>.json      Figure 9 size-sweep points
      perm/<sha256>.json                 serve permutations (repro.serve.store)
      eval/<sha256>.json                 serve evaluations
      matrices/rmat-s13-ef16-seed7/      R-MAT memmap entries
        graph.json  adjacency/meta.json  undirected/meta.json  *.bin
      quarantine/                        damaged files and entry directories

An *entry* is a top-level child of a kind directory: one JSON file, or
one matrix directory.  Every JSON file carries the checksum envelope of
:mod:`repro.resilience.integrity`; :func:`scan` verifies all of them
(``repro doctor``) and :func:`stats` sizes every kind directory
(``repro cache-stats``, the serve ``/stats`` endpoint).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CacheIntegrityError
from repro.resilience.integrity import (
    QUARANTINE_DIRNAME,
    LegacyCacheEntry,
    load_verified,
    quarantine_file,
)

#: Default root *name*, resolved against the working directory at call
#: time (not import time) by :func:`resolve_cache_dir`.
DEFAULT_CACHE_DIR = ".repro_cache"

KINDS = ("run", "metrics", "reorder-time", "fig9", "perm", "eval", "matrices")


def resolve_cache_dir(cache_dir: Optional[str] = None) -> str:
    """Explicit argument, else ``$REPRO_CACHE_DIR``, else the default.

    The default is resolved against the *current* working directory on
    every call, so a ``chdir`` after import (pytest tmp dirs, pool
    workers, long-lived services) does not silently pin the store to
    the import-time directory.
    """
    if cache_dir is not None:
        return cache_dir
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.getcwd(), DEFAULT_CACHE_DIR)


def kind_dir(root: str, kind: str) -> str:
    """``<root>/<kind>``, the directory holding every entry of ``kind``."""
    if kind not in KINDS:
        raise ValueError(f"store kind must be one of {KINDS}, got {kind!r}")
    return os.path.join(root, kind)


@dataclass
class CacheScan:
    """Integrity classification of every JSON file under one root."""

    ok: List[str] = field(default_factory=list)
    legacy: List[str] = field(default_factory=list)
    damaged: List[Tuple[str, str]] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when every JSON file outside ``quarantine/`` verifies."""
        return not self.legacy and not self.damaged


def scan(root: str, quarantine: bool = False) -> CacheScan:
    """Verify every enveloped JSON under ``root`` (root-relative names).

    With ``quarantine=True`` each damaged or legacy file's *entry* — the
    file itself, or the whole matrix directory it belongs to — moves to
    ``<root>/quarantine/``, so it can never serve a bad hit.
    """
    result = CacheScan()
    bad: List[Tuple[str, str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        if dirpath == root:
            dirnames[:] = [d for d in dirnames if d != QUARANTINE_DIRNAME]
        # A matrix build writes its meta.json files in place inside a
        # unique_tmp_path staging dir: not an entry until renamed.
        dirnames[:] = sorted(d for d in dirnames if ".tmp." not in d)
        for name in sorted(filenames):
            if not name.endswith(".json"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            try:
                load_verified(path)
            except LegacyCacheEntry:
                result.legacy.append(rel)
                bad.append((rel, "legacy"))
            except CacheIntegrityError as exc:
                result.damaged.append((rel, str(exc)))
                bad.append((rel, str(exc)))
            else:
                result.ok.append(rel)
    if quarantine:
        for rel, reason in bad:
            parts = rel.split(os.sep)
            # A matrix entry is its whole directory; anything else, the file.
            entry = parts[:2] if parts[0] == "matrices" and len(parts) > 2 else parts
            quarantine_file(os.path.join(root, *entry), cache_dir=root, reason=reason)
    qdir = os.path.join(root, QUARANTINE_DIRNAME)
    if os.path.isdir(qdir):
        result.quarantined = sorted(os.listdir(qdir))
    return result


def _tree_bytes(path: str) -> int:
    if not os.path.isdir(path):
        return os.path.getsize(path)
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _dirnames, filenames in os.walk(path)
        for name in filenames
    )


def _usage(paths: List[str]) -> Dict[str, object]:
    """Entry count, bytes and newest entry of a list of entry paths."""
    count, size, newest = 0, 0, None
    for path in paths:
        try:
            size += _tree_bytes(path)
            mtime = os.path.getmtime(path)
        except OSError:  # removed by a concurrent writer or quarantine
            continue
        count += 1
        if newest is None or mtime > newest[1]:
            newest = [os.path.basename(path), mtime]
    return {"entries": count, "bytes": size, "newest": newest}


def _children(directory: str) -> List[str]:
    if not os.path.isdir(directory):
        return []
    return [os.path.join(directory, name) for name in sorted(os.listdir(directory))]


def stats(root: str) -> Dict[str, object]:
    """Entries, bytes and newest entry per kind directory.

    Keys: ``root``, every kind of :data:`KINDS`, ``quarantine`` and
    ``other`` (top-level children of the root outside the layout).
    """
    out: Dict[str, object] = {"root": root}
    for kind in KINDS + (QUARANTINE_DIRNAME,):
        out[kind] = _usage(_children(os.path.join(root, kind)))
    layout = set(KINDS) | {QUARANTINE_DIRNAME}
    out["other"] = _usage(
        [p for p in _children(root) if os.path.basename(p) not in layout]
    )
    return out
