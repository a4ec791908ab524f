"""Content-addressed cache of pairwise distances.

Robustness sweeps and repeated benchmark sessions evaluate the same
measure over largely overlapping sets of representation matrices — a
perturbation sweep shares every clean-vs-clean pair across levels, and a
warm benchmark session shares everything.  Each computed distance is a
pure function of the two matrices and the measure, so it can be cached
under a content address and never computed twice.

Keys
----
``matrix_digest`` hashes a matrix's *content*: its shape plus the raw
bytes of its C-contiguous ``float64`` form.  A pair key is then the
SHA-256 of the two matrix digests (sorted — every registered measure is
symmetric, so ``(A, B)`` and ``(B, A)`` share an entry), the measure
name, and :data:`DISTANCE_CACHE_FORMAT_VERSION`.  Any change to a
matrix, the measure, or the on-disk layout changes the key; stale
entries are simply never addressed again.

Storage
-------
One append-only JSONL file (``distances.jsonl``) per cache directory:
``{"key": ..., "value": ...}`` per line.  Appends and loads go through
:mod:`repro.exec.journal` — heal a torn tail before appending, write
each row atomically on an append-mode descriptor, tolerate torn/corrupt
lines on load — so a killed sweep leaves a usable cache.  Corrupt or
non-finite entries are treated as misses, never as errors.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from repro.exec.arrays import float64_digest
from repro.exec.journal import append_jsonl, load_jsonl
from repro.obs.logging import get_logger
from repro.obs.metrics import get_metrics

logger = get_logger(__name__)

#: Bump when the key derivation or the on-disk layout changes; every
#: existing entry stops being addressable.
DISTANCE_CACHE_FORMAT_VERSION = 1

#: SHA-256 content address of a representation matrix.
matrix_digest = float64_digest


def pair_key(digest_a: str, digest_b: str, measure_name: str) -> str:
    """Cache key for one (matrix, matrix, measure) distance evaluation."""
    lo, hi = sorted((digest_a, digest_b))
    payload = json.dumps(
        {
            "format": DISTANCE_CACHE_FORMAT_VERSION,
            "measure": measure_name,
            "pair": [lo, hi],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class DistanceCache:
    """On-disk memo of pairwise distances, keyed by :func:`pair_key`.

    The full entry set is held in memory (a distance is one float; even
    a million entries are cheap) and mirrored to ``distances.jsonl``
    under ``root``.  ``get``/``put`` publish
    ``distance_cache.hits_total`` / ``distance_cache.misses_total``
    through :mod:`repro.obs`.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root).expanduser()
        self.path = self.root / "distances.jsonl"
        self._entries: dict[str, float] = {}
        self._load()

    def __len__(self) -> int:
        return len(self._entries)

    def _load(self) -> None:
        entries, corrupt = load_jsonl(self.path, label="distance cache")
        for entry in entries:
            key = entry.get("key") if isinstance(entry, dict) else None
            value = entry.get("value") if isinstance(entry, dict) else None
            if (
                isinstance(key, str)
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
                and math.isfinite(value)
            ):
                self._entries[key] = float(value)
            else:
                corrupt += 1
        if corrupt:
            get_metrics().counter("distance_cache.corrupt_total").inc(corrupt)
            logger.warning(
                "distance cache %s: skipped %d corrupt line(s)",
                self.path, corrupt,
            )

    def get(self, key: str) -> float | None:
        """The cached distance for ``key``, or ``None`` on a miss."""
        value = self._entries.get(key)
        if value is None:
            get_metrics().counter("distance_cache.misses_total").inc()
            return None
        get_metrics().counter("distance_cache.hits_total").inc()
        return value

    def put(self, key: str, value: float) -> None:
        """Record a computed distance (idempotent per cache object).

        Non-finite values are never persisted — an ``inf`` or ``nan``
        from degenerate inputs is not a distance worth replaying.
        Append failures are logged and swallowed: the cache is an
        optimization, not a correctness requirement.
        """
        value = float(value)
        if not math.isfinite(value):
            return
        if key in self._entries:
            return
        self._entries[key] = value
        append_jsonl(
            self.path, {"key": key, "value": value}, label="distance cache"
        )

    def clear(self) -> None:
        """Drop every entry, in memory and on disk."""
        self._entries.clear()
        try:
            self.path.unlink(missing_ok=True)
        except OSError as exc:
            logger.warning(
                "cannot remove distance cache %s: %s", self.path, exc
            )


def as_distance_cache(
    cache: "DistanceCache | str | Path | None",
) -> DistanceCache | None:
    """Normalize a cache argument: ``None``, a directory, or a cache."""
    if cache is None or isinstance(cache, DistanceCache):
        return cache
    if isinstance(cache, (str, Path)):
        return DistanceCache(cache)
    raise TypeError(
        "cache must be None, a path, or a DistanceCache, "
        f"got {type(cache).__name__}"
    )
