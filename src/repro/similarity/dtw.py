"""Dynamic time warping distances (Sakoe & Chiba [78]).

Univariate DTW plus the two multivariate generalizations of
Shokoohi-Yekta et al. [83]: *independent* DTW sums per-dimension DTW
distances, *dependent* DTW warps all dimensions jointly using squared
Euclidean local costs.

Fast-path machinery for the pairwise-distance engine
(:mod:`repro.similarity.evaluation`) and the pruned nearest-group
search (:mod:`repro.similarity.pruning`) lives here too:

- :func:`lb_kim` and :func:`lb_keogh` are cheap lower bounds on the
  dependent-DTW distance — a candidate whose bound already exceeds the
  best distance found so far never needs the full dynamic program;
- :func:`batch_dependent_costs` computes the local-cost matrices for a
  whole stack of equal-shape pairs in one vectorized pass.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def _as_series(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional")
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    return arr


def _dtw_from_cost(cost: np.ndarray, window: int | None) -> float:
    """Dynamic program over a precomputed local-cost matrix.

    The recurrence is evaluated along anti-diagonals: every cell of one
    diagonal depends only on the two previous diagonals, so each diagonal
    is computed with vectorized minima — the similarity benchmarks run
    thousands of pairwise DTWs, where the cell-by-cell loop would dominate.

    ``window`` is a Sakoe-Chiba band half-width; a band at least
    ``max(m, n) - 1`` wide can never exclude a cell, so the mask is not
    even allocated in that case.
    """
    m, n = cost.shape
    if window is not None:
        window = max(window, abs(m - n))
        if window >= max(m, n) - 1:
            # The band covers the whole matrix; masking would be a no-op
            # on every diagonal.
            window = None
    acc = np.full((m + 1, n + 1), np.inf)
    acc[0, 0] = 0.0
    if window is not None:
        i_idx = np.arange(1, m + 1)[:, None]
        j_idx = np.arange(1, n + 1)[None, :]
        banned = np.abs(i_idx - j_idx) > window
    for diagonal in range(2, m + n + 1):
        i_low = max(1, diagonal - n)
        i_high = min(m, diagonal - 1)
        if i_low > i_high:
            continue
        i = np.arange(i_low, i_high + 1)
        j = diagonal - i
        best_prev = np.minimum(
            np.minimum(acc[i - 1, j], acc[i, j - 1]), acc[i - 1, j - 1]
        )
        values = cost[i - 1, j - 1] + best_prev
        if window is not None:
            values = np.where(banned[i - 1, j - 1], np.inf, values)
        acc[i, j] = values
    return float(np.sqrt(acc[m, n]))


def dtw_distance(a, b, *, window: int | None = None) -> float:
    """Univariate DTW distance with optional Sakoe-Chiba band ``window``.

    Local cost is the squared difference; the returned value is the square
    root of the accumulated cost, so DTW of equal-length series is upper
    bounded by their Euclidean distance.
    """
    a = _as_series(a, "a")
    b = _as_series(b, "b")
    cost = (a[:, None] - b[None, :]) ** 2
    return _dtw_from_cost(cost, window)


def _dependent_cost(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean local costs, vectorized.

    ``cost[..., i, j] = sum_k (A[..., i, k] - B[..., j, k]) ** 2``, so
    leading axes stack pairs.  Samples are subtracted before squaring:
    the expanded form ``|a|^2 + |b|^2 - 2 a.b`` cancels when two samples
    are close, and rounds ``[1e-8, 1]`` vs ``[0, 1]`` to a cost of 0,
    below what :func:`lb_keogh` proves.  Features are added one at a
    time in order, elementwise, so every slice of a stack gets the same
    bits as its pair alone.
    """
    shape = A.shape[:-1] + (B.shape[-2],)
    cost = np.zeros(shape)
    diff = np.empty(shape)
    for k in range(A.shape[-1]):
        np.subtract(A[..., :, k, None], B[..., None, :, k], out=diff)
        np.multiply(diff, diff, out=diff)
        cost += diff
    return cost


def batch_dependent_costs(
    stack_a: np.ndarray, stack_b: np.ndarray
) -> np.ndarray:
    """Local-cost matrices for a stack of equal-shape pairs at once.

    ``stack_a`` is ``(pairs, m, features)`` and ``stack_b`` is
    ``(pairs, n, features)``; the result is ``(pairs, m, n)``.  Each
    slice is bit-identical to :func:`_dependent_cost` on the single pair
    (its sums are elementwise), so the distance engine's batch path
    reproduces the per-pair path exactly.
    """
    return _dependent_cost(stack_a, stack_b)


def _as_mts(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a (time, features) matrix")
    if arr.shape[0] == 0:
        raise ValidationError(f"{name} must not be empty")
    return arr


def lb_kim(A, B) -> float:
    """LB_Kim-style lower bound on the dependent DTW distance.

    Every warping path aligns the first samples with each other and the
    last samples with each other, so the accumulated cost is at least
    the sum of those two local costs (just the one cell when both series
    have length 1).  Costs only accumulate, hence ``lb_kim(A, B) <=
    multivariate_dtw(A, B, strategy="dependent")`` for any band.
    """
    A = _as_mts(A, "A")
    B = _as_mts(B, "B")
    if A.shape[1] != B.shape[1]:
        raise ValidationError(
            f"feature dimensions differ: {A.shape[1]} vs {B.shape[1]}"
        )
    first = float(np.sum((A[0] - B[0]) ** 2))
    if A.shape[0] == 1 and B.shape[0] == 1:
        return float(np.sqrt(first))
    last = float(np.sum((A[-1] - B[-1]) ** 2))
    return float(np.sqrt(first + last))


def _envelope(
    B: np.ndarray, n_queries: int, radius: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-query-index (lower, upper) envelopes of ``B``.

    ``radius=None`` means an unconstrained alignment: the envelope is the
    global per-dimension min/max.  Otherwise query index ``i`` may align
    with ``B[i - radius : i + radius + 1]`` only (Sakoe-Chiba band).
    """
    n = B.shape[0]
    if radius is None or radius >= n - 1 and n_queries <= n:
        lower = np.broadcast_to(B.min(axis=0), (n_queries, B.shape[1]))
        upper = np.broadcast_to(B.max(axis=0), (n_queries, B.shape[1]))
        return lower, upper
    pad_right = radius + max(0, n_queries - n)
    width = 2 * radius + 1
    padded_min = np.pad(
        B, ((radius, pad_right), (0, 0)), constant_values=np.inf
    )
    padded_max = np.pad(
        B, ((radius, pad_right), (0, 0)), constant_values=-np.inf
    )
    windows_min = np.lib.stride_tricks.sliding_window_view(
        padded_min, width, axis=0
    )
    windows_max = np.lib.stride_tricks.sliding_window_view(
        padded_max, width, axis=0
    )
    lower = windows_min.min(axis=-1)[:n_queries]
    upper = windows_max.max(axis=-1)[:n_queries]
    return lower, upper


def keogh_envelope(B) -> tuple[np.ndarray, np.ndarray]:
    """Precomputable unconstrained-band LB_Keogh envelope of ``B``.

    With no Sakoe-Chiba band every query sample may align with any
    sample of ``B``, so the envelope collapses to the global
    per-dimension ``(min, max)`` — independent of the query length,
    which is what makes it precomputable once per reference series
    (the serving :class:`~repro.serve.index.ReferenceIndex` stores one
    per reference matrix).  Feed the result to
    :func:`lb_keogh_from_envelope`.
    """
    B = _as_mts(B, "B")
    return B.min(axis=0), B.max(axis=0)


def lb_keogh_from_envelope(A, lower: np.ndarray, upper: np.ndarray) -> float:
    """LB_Keogh from a precomputed :func:`keogh_envelope`.

    Bit-identical to ``lb_keogh(A, B)`` (unconstrained band) when
    ``(lower, upper)`` is ``keogh_envelope(B)``: broadcasting the 1-D
    envelope against ``A`` performs element-for-element the same float
    operations as the materialized envelope in :func:`lb_keogh`
    (pinned by ``tests/similarity/test_pruned_group.py``).
    """
    A = _as_mts(A, "A")
    if A.shape[1] != lower.shape[-1]:
        raise ValidationError(
            f"feature dimensions differ: {A.shape[1]} vs {lower.shape[-1]}"
        )
    exceed = np.maximum(0.0, np.maximum(A - upper, lower - A))
    return float(np.sqrt(np.sum(exceed**2)))


def lb_keogh(A, B, *, window: int | None = None) -> float:
    """LB_Keogh lower bound on the dependent DTW distance.

    Builds per-dimension envelopes of ``B`` over the (effective) warping
    band and sums the squared amounts by which ``A`` escapes them.  Every
    sample of ``A`` is aligned with at least one sample of ``B`` inside
    its band, at a local cost no smaller than the squared envelope
    exceedance, so the bound never exceeds the true distance.
    """
    A = _as_mts(A, "A")
    B = _as_mts(B, "B")
    if A.shape[1] != B.shape[1]:
        raise ValidationError(
            f"feature dimensions differ: {A.shape[1]} vs {B.shape[1]}"
        )
    radius = window
    if radius is not None:
        radius = max(int(radius), abs(A.shape[0] - B.shape[0]))
    lower, upper = _envelope(B, A.shape[0], radius)
    exceed = np.maximum(0.0, np.maximum(A - upper, lower - A))
    return float(np.sqrt(np.sum(exceed**2)))


def multivariate_dtw(
    A,
    B,
    *,
    strategy: str = "dependent",
    window: int | None = None,
) -> float:
    """Multivariate DTW between ``(time, features)`` matrices.

    ``strategy="dependent"`` warps all dimensions together (local cost is
    the squared Euclidean distance between multivariate samples);
    ``strategy="independent"`` sums per-dimension univariate DTWs.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    if B.ndim == 1:
        B = B[:, None]
    if A.ndim != 2 or B.ndim != 2:
        raise ValidationError("inputs must be (time, features) matrices")
    if A.shape[1] != B.shape[1]:
        raise ValidationError(
            f"feature dimensions differ: {A.shape[1]} vs {B.shape[1]}"
        )
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValidationError("inputs must not be empty")
    if strategy == "dependent":
        return _dtw_from_cost(_dependent_cost(A, B), window)
    if strategy == "independent":
        total = 0.0
        for k in range(A.shape[1]):
            total += dtw_distance(A[:, k], B[:, k], window=window)
        return float(total)
    raise ValidationError(
        f"strategy must be 'dependent' or 'independent', got {strategy!r}"
    )
