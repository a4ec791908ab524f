"""The float64 content address of an array.

:func:`float64_digest` is the one key both persisted caches address
their entries by: the distance cache (``matrix_digest``) and the fit
cache (``array_digest``).  Its bytes are pinned by
``tests/similarity/test_distcache.py`` and ``tests/ml/test_fitexec.py``,
so on-disk entries stay addressable across releases.
"""

from __future__ import annotations

import hashlib

import numpy as np


def float64_digest(values) -> str:
    """SHA-256 content address of ``values`` as float64: shape plus bytes.

    No dtype is hashed, so an array and its float64 cast share one
    digest, and layout (C/Fortran) does not matter.
    """
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(repr(arr.shape).encode("utf-8"))
    digest.update(arr.tobytes())
    return digest.hexdigest()
