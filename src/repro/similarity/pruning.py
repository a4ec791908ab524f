"""Lower-bound pruned 1-NN search over representation matrices.

1-NN workload identification (:func:`repro.similarity.evaluation.
knn_accuracy`) needs, per query, only the *identity* of the nearest
experiment — not the exact distance to every candidate.  For DTW that
means most of the O(n²) dynamic programs are provably unnecessary: a
candidate whose cheap lower bound (:func:`~repro.similarity.dtw.lb_kim`,
then :func:`~repro.similarity.dtw.lb_keogh`) already reaches the best
distance found so far can be skipped outright, and the remaining
candidates run with ``cutoff=best`` so the dynamic program early-abandons
the moment it proves the candidate loses.

The search is **exact**: candidates are scanned in index order and the
best is only replaced on a strictly smaller distance, which reproduces
``np.argmin``'s first-index tie-breaking — so
:func:`knn_accuracy_pruned` equals
``knn_accuracy(distance_matrix(matrices, measure), labels)`` on any
corpus (``tests/similarity/test_pruning.py`` asserts it, and a
hypothesis suite fuzzes the equivalence on random series).

Skipped and abandoned candidates are counted in
``similarity.pairs_pruned_total``.
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
    _is_elastic,
    _pair_values,
    _prepare_pair,
)
from repro.similarity.measures import (
    MeasureSpec,
    _dtw_dependent,
    _dtw_independent,
)


def _pair_distance(
    A: np.ndarray,
    B: np.ndarray,
    measure: MeasureSpec,
    cutoff: float | None,
) -> float:
    """Distance for one pair, early-abandoning at ``cutoff`` when the
    measure supports it.  A finite return value is always exact."""
    if measure.func is _dtw_dependent:
        return multivariate_dtw(A, B, strategy="dependent", cutoff=cutoff)
    if measure.func is _dtw_independent:
        return multivariate_dtw(A, B, strategy="independent", cutoff=cutoff)
    A, B = _prepare_pair(A, B, _is_elastic(measure))
    return float(measure(A, B))


def nearest_neighbor(
    matrices: list[np.ndarray], query: int, measure: MeasureSpec
) -> int:
    """Index of the query's nearest other matrix under ``measure``.

    Equal to ``np.argmin`` over the masked query row of the full
    distance matrix — including its first-index tie-breaking — while
    computing as few exact distances as the bounds allow.
    """
    n = len(matrices)
    if n < 2:
        raise ValidationError("need at least two experiments for 1-NN")
    if not 0 <= query < n:
        raise ValidationError(f"query index {query} out of range [0, {n})")
    dependent_dtw = measure.func is _dtw_dependent
    A = matrices[query]
    best = np.inf
    best_index = -1
    pruned = 0
    for candidate in range(n):
        if candidate == query:
            continue
        B = matrices[candidate]
        if dependent_dtw and np.isfinite(best):
            # Cascade of ever-tighter lower bounds: a bound that already
            # reaches ``best`` proves the candidate cannot win (the best
            # is only replaced on a strictly smaller distance).
            if lb_kim(A, B) >= best or lb_keogh(A, B) >= best:
                pruned += 1
                continue
        cutoff = best if np.isfinite(best) else None
        value = _pair_distance(A, B, measure, cutoff)
        if not np.isfinite(value):
            # Early-abandoned: provably > best, never a candidate.
            pruned += 1
            continue
        if value < best:
            best = value
            best_index = candidate
    if best_index < 0:
        # Every exact distance was inf (degenerate inputs).  np.argmin
        # over an all-inf masked row returns 0; reproduce that.
        best_index = 0
    if pruned:
        get_metrics().counter("similarity.pairs_pruned_total").inc(pruned)
    return best_index


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

    Dependent-DTW runs pair by pair; every other measure goes through
    the distance engine's pair evaluation, which is one contraction of
    the query stack against the member stack whenever the measure has a
    stacked norm form and the shapes allow it.
    """
    if measure.func is _dtw_dependent:
        return np.array(
            [[_pair_distance(A, B, measure, None) for B in members]
             for A in query_matrices]
        )
    n_queries = len(query_matrices)
    values = _pair_values(
        list(query_matrices) + list(members),
        _cross_pairs(n_queries, len(members), n_queries),
        measure,
    )
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


def knn_accuracy_pruned(
    matrices: list[np.ndarray], labels, measure: MeasureSpec
) -> float:
    """1-NN workload identification accuracy, without the full matrix.

    Equals ``knn_accuracy(distance_matrix(matrices, measure), labels)``
    while skipping every pairwise distance the lower bounds rule out.
    """
    labels = np.asarray(labels)
    if len(matrices) != labels.size:
        raise ValidationError("labels must align with the matrices")
    with span(
        "similarity.knn_pruned",
        attrs={"n_experiments": len(matrices), "measure": measure.name},
    ):
        correct = 0
        for query in range(len(matrices)):
            nearest = nearest_neighbor(matrices, query, measure)
            if labels[nearest] == labels[query]:
                correct += 1
    return correct / len(matrices)
