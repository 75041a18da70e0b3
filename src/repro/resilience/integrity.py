"""Versioned, checksummed envelopes for memo cache files.

Every memo JSON the :class:`~repro.experiments.runner.ExperimentRunner`
writes is wrapped in an envelope::

    {
      "__repro_cache__": {"schema": 1, "checksum": "<sha256 of payload>"},
      "payload": { ... }
    }

The checksum covers the canonical serialization of the payload
(``sort_keys``, compact separators), so any truncation, bit-flip or
half-written file is detected on read.  :func:`load_or_quarantine` is
the tolerant read path: a damaged (or legacy unversioned) file is moved
to ``<cache>/quarantine/`` — never deleted, so it stays available for
debugging — the ``resilience.quarantined`` counter ticks, and the
caller recomputes instead of crashing.  The store-wide scan behind
``repro doctor`` lives in :mod:`repro.store`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from typing import Dict, Optional

from repro.errors import CacheIntegrityError
from repro.obs import get_obs, logger

#: Bump when the envelope (not the payload) layout changes; readers
#: quarantine anything they do not recognize and recompute.
SCHEMA_VERSION = 1

ENVELOPE_KEY = "__repro_cache__"
QUARANTINE_DIRNAME = "quarantine"


class LegacyCacheEntry(CacheIntegrityError):
    """Valid JSON but no envelope: written before cache versioning.

    Treated exactly like damage on the read path (quarantine once,
    recompute) but reported separately by ``repro doctor``.
    """


def payload_checksum(payload: Dict[str, object]) -> str:
    """sha256 hex digest of the canonical JSON serialization."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def wrap_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Wrap a memo payload in the versioned checksum envelope."""
    return {
        ENVELOPE_KEY: {
            "schema": SCHEMA_VERSION,
            "checksum": payload_checksum(payload),
        },
        "payload": payload,
    }


def unwrap_document(
    document: object, source: str = "<memory>"
) -> Dict[str, object]:
    """Verify an envelope and return its payload.

    Raises :class:`CacheIntegrityError` naming ``source`` when the
    document is not an envelope (legacy unversioned entries included),
    carries an unknown schema version, or fails its checksum.
    """
    if not isinstance(document, dict) or ENVELOPE_KEY not in document:
        raise LegacyCacheEntry(
            f"{source}: missing cache envelope (legacy or foreign file)"
        )
    envelope = document[ENVELOPE_KEY]
    if not isinstance(envelope, dict):
        raise CacheIntegrityError(f"{source}: malformed cache envelope")
    schema = envelope.get("schema")
    if schema != SCHEMA_VERSION:
        raise CacheIntegrityError(
            f"{source}: cache schema version {schema!r} != {SCHEMA_VERSION}"
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise CacheIntegrityError(f"{source}: cache payload is not an object")
    expected = envelope.get("checksum")
    actual = payload_checksum(payload)
    if expected != actual:
        raise CacheIntegrityError(
            f"{source}: cache checksum mismatch "
            f"(stored {str(expected)[:12]}…, computed {actual[:12]}…)"
        )
    return payload


def load_verified(path: str) -> Dict[str, object]:
    """Read + verify one memo file; any damage raises CacheIntegrityError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CacheIntegrityError(
            f"{path}: unreadable cache file ({type(exc).__name__}: {exc})"
        ) from exc
    return unwrap_document(document, source=path)


def quarantine_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, QUARANTINE_DIRNAME)


def quarantine_file(
    path: str, cache_dir: Optional[str] = None, reason: str = ""
) -> Optional[str]:
    """Move a damaged file or entry directory into ``<cache>/quarantine/``.

    Returns the quarantined path (suffixed on name collisions), or
    ``None`` if the source vanished first.  Never raises on a missing
    source — a concurrent worker may have quarantined it already.
    """
    directory = cache_dir if cache_dir is not None else os.path.dirname(path)
    target_dir = quarantine_path(directory)
    name = os.path.basename(path)
    destination = os.path.join(target_dir, name)
    try:
        os.makedirs(target_dir, exist_ok=True)
        suffix = 0
        while os.path.exists(destination):
            suffix += 1
            destination = os.path.join(target_dir, f"{name}.{suffix}")
        os.replace(path, destination)
    except FileNotFoundError:
        return None
    except OSError as exc:  # pragma: no cover - disk-level failures
        logger.error("could not quarantine %s: %s", path, exc)
        return None
    get_obs().counter("resilience.quarantined")
    logger.warning(
        "quarantined damaged cache entry %s -> %s%s",
        path,
        destination,
        f" ({reason})" if reason else "",
    )
    return destination


def load_or_quarantine(
    path: str, cache_dir: Optional[str] = None
) -> Optional[Dict[str, object]]:
    """Tolerant memo read: verified payload, or ``None`` after quarantine.

    This is the read path the runner uses — a truncated, bit-flipped or
    legacy unversioned memo file never crashes a sweep; it is moved
    aside exactly once and the cell recomputes.
    """
    try:
        return load_verified(path)
    except CacheIntegrityError as exc:
        quarantine_file(path, cache_dir=cache_dir, reason=str(exc))
        return None


#: Monotonic sequence making temp names unique *within* a process; the
#: pid/tid components make them unique across processes and threads.
_TMP_SEQ = itertools.count()


def unique_tmp_path(path: str) -> str:
    """A temp name no concurrent writer of ``path`` can collide with.

    A pid-only suffix is not enough: two threads of one process writing
    the same memo key (serve workers completing the same computation)
    would share the temp file and interleave, leaving a torn JSON
    document that gets quarantined on the next read.  The pid + thread
    id + per-process sequence triple is collision-free.
    """
    return (
        f"{path}.tmp.{os.getpid()}.{threading.get_ident()}.{next(_TMP_SEQ)}"
    )


def atomic_write_document(path: str, document: Dict[str, object]) -> None:
    """Write a JSON document atomically (unique tmp + ``os.replace``).

    Safe under concurrent same-key writers: every writer renames its
    own private temp file over ``path``, so readers only ever see a
    complete document (last writer wins).
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = unique_tmp_path(path)
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
