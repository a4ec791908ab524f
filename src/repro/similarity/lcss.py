"""Longest common sub-sequence distances (Hirschberg [45]).

LCSS counts the longest alignment of samples that match within an
``epsilon`` tolerance and a ``delta`` time window, and converts it to a
distance ``1 - LCSS / min(m, n)``.  The dependent variant requires all
dimensions of a multivariate sample to match simultaneously; the
independent variant averages per-dimension LCSS distances [83].
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def _lcss_length(
    A: np.ndarray, B: np.ndarray, epsilon: float, delta: int | None
) -> int:
    """Length of the longest epsilon/delta-constrained common subsequence.

    ``A`` and ``B`` are ``(time, features)``; a pair matches when every
    dimension differs by at most ``epsilon``.  The dynamic program walks
    the rows of the shorter series, each a vectorized pass over the
    longer one (the similarity benchmarks evaluate thousands of pairs).
    Row ``i`` of the table follows from row ``i - 1``, ``previous``, as
    ``maximum.accumulate(where(match, previous[:-1] + 1, previous[1:]))``:
    that equals the recurrence ``previous[j - 1] + 1`` on a match and
    ``max(previous[j], current[j - 1])`` otherwise, because neighbouring
    entries of an LCS table differ by at most 1, whatever the match
    matrix.  The entries are integers, so the length is exact.
    """
    m, n = A.shape[0], B.shape[0]
    matches = np.all(
        np.abs(A[:, None, :] - B[None, :, :]) <= epsilon, axis=2
    )
    if delta is not None and delta < max(m, n) - 1:
        # A wider delta admits every (i, j) pair; masking would change
        # nothing, so skip building the index grids entirely.
        i_idx = np.arange(m)[:, None]
        j_idx = np.arange(n)[None, :]
        matches = matches & (np.abs(i_idx - j_idx) <= delta)
    if m > n:
        # The LCS of the transposed match matrix has the same length.
        matches = matches.T
    row = np.zeros(matches.shape[1] + 1, dtype=int)
    for match in matches:
        row[1:] = np.maximum.accumulate(
            np.where(match, row[:-1] + 1, row[1:])
        )
    return int(row[-1])


def _as_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValidationError(f"{name} must be a non-empty (time, features) matrix")
    return arr


def lcss_distance(a, b, *, epsilon: float = 0.1, delta: int | None = None) -> float:
    """Univariate LCSS distance in [0, 1] (0 = one contains the other)."""
    A = _as_matrix(a, "a")
    B = _as_matrix(b, "b")
    if A.shape[1] != 1 or B.shape[1] != 1:
        raise ValidationError("lcss_distance expects univariate series")
    if epsilon < 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
    length = _lcss_length(A, B, epsilon, delta)
    return 1.0 - length / min(A.shape[0], B.shape[0])


def multivariate_lcss(
    A,
    B,
    *,
    strategy: str = "dependent",
    epsilon: float = 0.1,
    delta: int | None = None,
) -> float:
    """Multivariate LCSS distance between ``(time, features)`` matrices."""
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    if A.shape[1] != B.shape[1]:
        raise ValidationError(
            f"feature dimensions differ: {A.shape[1]} vs {B.shape[1]}"
        )
    if epsilon < 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
    if strategy == "dependent":
        length = _lcss_length(A, B, epsilon, delta)
        return 1.0 - length / min(A.shape[0], B.shape[0])
    if strategy == "independent":
        distances = [
            lcss_distance(A[:, k], B[:, k], epsilon=epsilon, delta=delta)
            for k in range(A.shape[1])
        ]
        return float(np.mean(distances))
    raise ValidationError(
        f"strategy must be 'dependent' or 'independent', got {strategy!r}"
    )
