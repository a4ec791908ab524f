"""Content-addressed cache of pairwise distances.

Robustness sweeps and repeated benchmark sessions evaluate the same
measure over largely overlapping sets of representation matrices — a
perturbation sweep shares every clean-vs-clean pair across levels, and a
warm benchmark session shares everything.  Each computed distance is a
pure function of the two matrices and the measure, so it can be cached
under a content address and never computed twice.  L2,1 and L1,1 over
matrices of one shape never use it: the pair engine computes them in
process faster than a warm cache answers.

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
``{"key": ..., "value": ...}`` per line, kept by the shared
:class:`~repro.exec.journal.KeyValueJournal` — torn tails healed
before appending, each row written atomically on an append-mode
descriptor, torn/corrupt lines tolerated on load — so a killed sweep
leaves a usable cache.  Corrupt or non-finite entries are treated as
misses, never as errors.
"""

from __future__ import annotations

import hashlib
import json
import math

from repro.exec.arrays import float64_digest
from repro.exec.journal import KeyValueJournal

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


def _is_distance(value) -> bool:
    """A distance is a finite real number (a bool is not one)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


class DistanceCache(KeyValueJournal):
    """On-disk memo of pairwise distances, keyed by :func:`pair_key`.

    The full entry set is held in memory (a distance is one float; even
    a million entries are cheap) and mirrored to ``distances.jsonl``
    under ``root``.  ``get``/``put`` publish
    ``distance_cache.hits_total`` / ``distance_cache.misses_total``
    through :mod:`repro.obs`.
    """

    filename = "distances.jsonl"
    family = "distance_cache"
    valid = staticmethod(_is_distance)
