"""Lower-bound pruned nearest-group search over representation matrices.

Prediction (``/v1/predict``) needs only the *identity* of the nearest
reference workload, not the exact distance to every reference.
:func:`nearest_group` scans labelled candidate groups and skips any
group whose cheap lower-bound block mean already reaches the best exact
mean found so far:

- Dependent-DTW bounds each pair with :func:`~repro.similarity.dtw.lb_kim`
  and then :func:`~repro.similarity.dtw.lb_keogh` (from precomputed
  envelopes when the caller indexed the candidates);
- the norm-induced measures (L2,1, L1,1, Frobenius) bound each pair by
  the reverse triangle inequality over :func:`measure_norm` scalars.

The search is **exact**: groups are scanned in order and the best is
only replaced on a strictly smaller mean, so the answer equals the
full-matrix nearest, tie-breaking included
(``tests/similarity/test_pruned_group.py``).  Skipped pairs are
counted in ``similarity.pairs_pruned_total``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.obs.metrics import get_metrics
from repro.obs.tracing import span
from repro.similarity.dtw import (
    lb_keogh,
    lb_keogh_from_envelope,
    lb_kim,
    multivariate_dtw,
)
from repro.similarity.evaluation import (
    _cross_pairs,
    _pair_values,
    _stacked_distances,
    _stacked_form,
)
from repro.similarity.measures import MeasureSpec, _dtw_dependent


def measure_norm(measure: MeasureSpec, A: np.ndarray) -> float | None:
    """Value of the matrix norm that induces ``measure``, or ``None``.

    L2,1, L1,1, and Frobenius distances are norm-induced —
    ``d(A, B) = N(A - B)`` — so the reverse triangle inequality
    ``|N(A) - N(B)| <= d(A, B)`` gives a constant-time lower bound from
    two precomputable scalars.  Canberra, Chi-square, and Correlation
    are not norms; elastic measures compare unequal lengths.  For those
    this returns ``None`` and callers fall back to exact evaluation.
    """
    if measure.name == "L2,1":
        return float(np.sum(np.linalg.norm(A, axis=0)))
    if measure.name == "L1,1":
        return float(np.sum(np.abs(A)))
    if measure.name == "Fro":
        return float(np.linalg.norm(A))
    return None


def _shape_codes(matrices: list[np.ndarray], codes: dict) -> np.ndarray:
    """One integer per matrix, equal exactly when the shapes are equal."""
    return np.array([codes.setdefault(M.shape, len(codes)) for M in matrices])


def _group_lower_bounds(
    query_matrices: list[np.ndarray],
    candidates: list[np.ndarray],
    indices: list[int],
    measure: MeasureSpec,
    envelopes,
    norms,
    query_norms,
) -> np.ndarray:
    """Per-pair lower bounds for one query-set x candidate-group block.

    Every entry is ``<=`` the exact pair distance, so the block mean —
    numpy's pairwise summation is weakly monotone element-for-element —
    is ``<=`` the exact block mean and a bound that reaches the current
    best proves the whole group cannot win.
    """
    if measure.func is not _dtw_dependent:
        if norms is None:
            return np.zeros((len(query_matrices), len(indices)))
        # Reverse triangle inequality |N(A) - N(B)|, as one broadcast.
        # Only valid when the exact path compares the full matrices
        # (equal shapes — unequal ones are truncated by _prepare_pair,
        # which the precomputed norms know nothing about); 0 elsewhere.
        member_norms = np.array([norms[c] for c in indices], dtype=float)
        bounds = np.abs(query_norms[:, None] - member_norms[None, :])
        codes: dict = {}
        same_shape = np.equal.outer(
            _shape_codes(query_matrices, codes),
            _shape_codes([candidates[c] for c in indices], codes),
        )
        return np.where(same_shape, bounds, 0.0)
    lbs = np.zeros((len(query_matrices), len(indices)))
    for row, A in enumerate(query_matrices):
        for col, candidate in enumerate(indices):
            B = candidates[candidate]
            bound = lb_kim(A, B)
            envelope = envelopes[candidate] if envelopes is not None else None
            if envelope is not None:
                bound = max(
                    bound, lb_keogh_from_envelope(A, envelope[0], envelope[1])
                )
            else:
                bound = max(bound, lb_keogh(A, B))
            lbs[row, col] = bound
    return lbs


def _exact_block(
    query_matrices: list[np.ndarray],
    members: list[np.ndarray],
    measure: MeasureSpec,
) -> np.ndarray:
    """Exact distances of the query x member block.

    Dependent-DTW runs pair by pair.  A measure with a stacked norm form
    over these matrices contracts the query stack against the member
    stack in process, as the distance engine does; every other measure
    goes through the engine's pair evaluation.
    """
    if measure.func is _dtw_dependent:
        return np.array(
            [[multivariate_dtw(A, B, strategy="dependent") for B in members]
             for A in query_matrices]
        )
    n_queries = len(query_matrices)
    matrices = list(query_matrices) + list(members)
    pairs = _cross_pairs(n_queries, len(members), n_queries)
    batched = _stacked_form(matrices, measure)
    if batched is None:
        values = _pair_values(matrices, pairs, measure)
    else:
        values = _stacked_distances(batched, matrices, pairs)
    return values.reshape(n_queries, len(members))


def nearest_group(
    query_matrices: list[np.ndarray],
    candidates: list[np.ndarray],
    groups: list[tuple[str, list[int]]],
    measure: MeasureSpec,
    *,
    envelopes=None,
    norms=None,
) -> str:
    """Name of the candidate group nearest to the query set.

    The distance to a group is the mean over the query x member block —
    exactly the per-reference aggregation
    :meth:`repro.serve.service.PredictionService.rank` applies to the
    cross-distance matrix — and groups are scanned in the given order
    with strict-improvement replacement, reproducing the stable
    first-wins tie-breaking of
    :meth:`repro.core.report.SimilarityRanking.nearest` when ``groups``
    follows the reference corpus's workload order.

    The comparison happens on **raw** block means; the full path's
    [0, 1] rescale divides every mean by the same positive peak, a
    monotone map, so the orderings agree — including bit-exact ties,
    which stay bit-exact after the division and resolve first-wins on
    both paths.  The one corner where the domains can disagree is two
    *distinct* raw means whose quotients round to the same float (needs
    a quantized measure such as LCSS producing mathematically equal
    means with different float roundings); continuous-valued measures
    on real telemetry never land there.

    A group whose lower-bound block mean already reaches the best mean
    found so far is skipped without computing a single exact distance:
    Dependent-DTW groups use the LB_Kim / LB_Keogh cascade (with
    precomputed ``envelopes`` — pairs of per-dimension ``(lower,
    upper)`` from :func:`~repro.similarity.dtw.keogh_envelope` — when
    the caller indexed the candidates ahead of time), norm-induced
    measures use the reverse triangle inequality over precomputed
    ``norms``.  Surviving groups are evaluated exactly, so the result
    matches the full-matrix path on every input
    (``tests/similarity/test_pruned_group.py``).
    """
    if not query_matrices:
        raise ValidationError("nearest_group needs at least one query matrix")
    if not groups:
        raise ValidationError("nearest_group needs at least one group")
    if any(not indices for _, indices in groups):
        raise ValidationError("every group needs at least one candidate")
    use_bounds = measure.func is _dtw_dependent or any(
        measure.name == name for name in ("L2,1", "L1,1", "Fro")
    )
    query_norms = None
    if use_bounds and measure.func is not _dtw_dependent:
        query_norms = np.array(
            [measure_norm(measure, A) for A in query_matrices]
        )
    best = np.inf
    best_name: str | None = None
    pruned = 0
    with span(
        "similarity.nearest_group",
        attrs={
            "n_queries": len(query_matrices),
            "n_groups": len(groups),
            "measure": measure.name,
        },
    ):
        for name, indices in groups:
            if use_bounds and np.isfinite(best):
                lbs = _group_lower_bounds(
                    query_matrices,
                    candidates,
                    indices,
                    measure,
                    envelopes,
                    norms,
                    query_norms,
                )
                if float(lbs.mean()) >= best:
                    pruned += lbs.size
                    continue
            block = _exact_block(
                query_matrices, [candidates[c] for c in indices], measure
            )
            value = float(block.mean())
            if value < best:
                best = value
                best_name = name
    if best_name is None:
        # Every group mean was inf/nan (degenerate inputs); mirror the
        # full path, where sorting all-equal distances keeps corpus order.
        best_name = groups[0][0]
    if pruned:
        get_metrics().counter("similarity.pairs_pruned_total").inc(pruned)
    return best_name
