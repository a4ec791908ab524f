"""Matrix-norm distances between same-shape workload representations.

The paper deploys the L1,1, L2,1, Frobenius, Canberra, Chi-square, and
Correlation norms (Section 5.1.2).  All functions take two matrices of the
same shape — Hist-FP/Phase-FP fingerprints or aligned MTS windows — and
return a non-negative scalar distance.

Norms whose reductions can run over a whole stack of pairs at once also
have a stacked form, ``(P, r, c) x (P, r, c) -> (P,)``, listed in
:data:`BATCHED_NORMS`.  A stacked form applies the same ufuncs as the
scalar function and adds each C-contiguous slice's entries in the same
order as numpy does for the scalar, so each result is bit-identical to
it (``tests/similarity/test_batched_norms.py`` asserts ``==``).  The
others keep only their scalar form: Frobenius reduces through a BLAS dot
product, Canberra/Chi-square sum a masked selection whose length varies
per pair (a stacked reduction would add in a different order), and
Correlation branches per pair on constant inputs.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def _pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValidationError(
            f"matrices must share a shape, got {A.shape} vs {B.shape}"
        )
    if A.size == 0:
        raise ValidationError("matrices must not be empty")
    if A.ndim == 1:
        A = A[:, None]
        B = B[:, None]
    return A, B


def _stack_pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pair` for two ``(P, r, c)`` stacks of matrices."""
    A, B = _pair(A, B)
    if A.ndim != 3:
        raise ValidationError(
            f"stacks must be (pairs, rows, columns), got shape {A.shape}"
        )
    return A, B


def l11_distance(A, B) -> float:
    """L1,1 norm of the difference: sum of absolute entry differences."""
    A, B = _pair(A, B)
    return float(np.sum(np.abs(A - B)))


def l21_distance(A, B) -> float:
    """L2,1 norm of the difference: sum of column-wise Euclidean norms."""
    A, B = _pair(A, B)
    return float(np.sum(np.linalg.norm(A - B, axis=0)))


def batch_l11_distances(A, B) -> np.ndarray:
    """:func:`l11_distance` of every slice pair of two ``(P, r, c)`` stacks."""
    A, B = _stack_pair(A, B)
    difference = np.subtract(A, B)
    np.abs(difference, out=difference)
    return np.sum(difference.reshape(len(A), -1), axis=1)


def batch_l21_distances(A, B) -> np.ndarray:
    """:func:`l21_distance` of every slice pair of two ``(P, r, c)`` stacks.

    ``np.linalg.norm(X, axis=0)`` of a real ``X`` is
    ``sqrt(add.reduce(X * X, axis=0))``.  numpy reduces the first axis
    of a C-contiguous ``(r, c)`` matrix with ``c >= 2`` by adding its
    rows one after another into a running sum of ``c`` entries.  So the
    squares are copied experiment-minor, ``(r, c, P)``, and reduced the
    same way: each row addition is one vector pass over every pair, not
    ``P * r`` inner loops over ``c`` entries.  A single column is a
    contiguous vector, which numpy sums pairwise from 8 rows on, so
    ``c == 1`` keeps the pair-major reduction.  Either way the column
    norms are summed pair-major, as the scalar sums its vector of them.
    """
    A, B = _stack_pair(A, B)
    difference = np.subtract(A, B)
    np.multiply(difference, difference, out=difference)
    P, r, c = difference.shape
    if c == 1:
        return np.sum(np.sqrt(np.add.reduce(difference, axis=1)), axis=1)
    squares = np.ascontiguousarray(difference.reshape(P, -1).T)
    norms = np.sqrt(np.add.reduce(squares.reshape(r, c, P), axis=0))
    return np.sum(np.ascontiguousarray(norms.T), axis=1)


def frobenius_distance(A, B) -> float:
    """Frobenius norm of the difference."""
    A, B = _pair(A, B)
    return float(np.linalg.norm(A - B))


def canberra_distance(A, B) -> float:
    """Canberra distance: sum of |a-b| / (|a|+|b|), zero-safe."""
    A, B = _pair(A, B)
    numerator = np.abs(A - B)
    denominator = np.abs(A) + np.abs(B)
    mask = denominator > 0
    return float(np.sum(numerator[mask] / denominator[mask]))


def chi2_distance(A, B) -> float:
    """Chi-square histogram distance: 0.5 * sum (a-b)^2 / (a+b).

    Intended for non-negative representations (histograms); magnitudes are
    used in the denominator so the function stays defined on raw telemetry.
    """
    A, B = _pair(A, B)
    numerator = (A - B) ** 2
    denominator = np.abs(A) + np.abs(B)
    mask = denominator > 0
    return float(0.5 * np.sum(numerator[mask] / denominator[mask]))


def correlation_distance(A, B) -> float:
    """1 - Pearson correlation of the flattened matrices (in [0, 2])."""
    A, B = _pair(A, B)
    a = A.ravel()
    b = B.ravel()
    a_std = a.std()
    b_std = b.std()
    if a_std == 0 or b_std == 0:
        # A constant representation correlates with nothing; treat equal
        # matrices as identical and anything else as maximally unrelated.
        return 0.0 if np.array_equal(a, b) else 1.0
    correlation = float(
        np.mean((a - a.mean()) * (b - b.mean())) / (a_std * b_std)
    )
    # Clamp float dust: perfectly correlated inputs must yield exactly 0.
    return max(0.0, 1.0 - correlation)


#: Registry of norm names used across the Section 5 experiments.
NORMS = {
    "L2,1": l21_distance,
    "L1,1": l11_distance,
    "Fro": frobenius_distance,
    "Canb": canberra_distance,
    "Chi2": chi2_distance,
    "Corr": correlation_distance,
}

#: Distances that are a norm of ``A - B``, so they obey the triangle
#: inequality ``d(A, C) <= d(A, B) + d(B, C)``.
DIFFERENCE_NORMS = frozenset({l21_distance, l11_distance, frobenius_distance})

#: Stacked forms, keyed by the scalar function each one reproduces
#: bit for bit on every C-contiguous slice.
BATCHED_NORMS = {
    l21_distance: batch_l21_distances,
    l11_distance: batch_l11_distances,
}
