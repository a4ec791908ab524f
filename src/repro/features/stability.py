"""Selection-stability analysis across repeated experiment runs.

Section 4.3.1 observes that "the more often we run feature selection for
the same workload, the more stable our selected features become".  These
helpers quantify that: the Jaccard stability of top-k selections across
runs, and how consensus stability grows with the number of aggregated
runs.

:func:`bootstrap_rankings` / :func:`stability_selection` produce the
repeated selections themselves by refitting a Table 3 strategy on
bootstrap resamples.  The repetitions are independent model fits, so
they ride the evaluation fast path (:mod:`repro.ml.fitexec`): ``jobs``
fans them over a process pool (resample indices are drawn parent-side
in serial repetition order, so output is bit-identical at any worker
count) and ``fit_cache`` memoizes each repetition's ranking under a
content address — a warm re-run fits zero selectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.features.aggregation import top_k_features
from repro.features.base import encode_labels
from repro.ml.fitexec import FitCache, count_fits, fit_key, run_units
from repro.obs.tracing import span
from repro.utils.rng import RandomState, spawn_generators


def jaccard_similarity(a, b) -> float:
    """|A intersect B| / |A union B| for two index collections."""
    set_a, set_b = set(np.asarray(a).tolist()), set(np.asarray(b).tolist())
    if not set_a and not set_b:
        return 1.0
    return len(set_a & set_b) / len(set_a | set_b)


def selection_stability(rankings, k: int) -> float:
    """Mean pairwise Jaccard similarity of the per-run top-k selections.

    1.0 means every run selects exactly the same k features; values near
    ``k / n_features`` indicate selections no more stable than chance.
    """
    rankings = [np.asarray(r) for r in rankings]
    if len(rankings) < 2:
        raise ValidationError("need at least two rankings for stability")
    tops = []
    for ranking in rankings:
        if not 1 <= k <= ranking.size:
            raise ValidationError(f"k must be in [1, {ranking.size}]")
        tops.append(np.argsort(ranking, kind="stable")[:k])
    scores = []
    for i in range(len(tops)):
        for j in range(i + 1, len(tops)):
            scores.append(jaccard_similarity(tops[i], tops[j]))
    return float(np.mean(scores))


def _bootstrap_fit_unit(unit) -> list[int]:
    """Fit one strategy on one resample and return its ranking.

    The unit of work shipped to pool workers — and the exact same
    function the serial path calls, which is what keeps parallel
    stability runs bit-identical to serial.  The registry import is
    deferred so this module stays importable before
    :mod:`repro.features.evaluation`.
    """
    X, y, strategy = unit
    from repro.features.evaluation import strategy_registry

    selector = strategy_registry()[strategy]()
    selector.fit(X, y)
    count_fits(1)
    return [int(rank) for rank in selector.ranking()]


def _bootstrap_indices(
    rng: np.random.Generator, y: np.ndarray, n_draw: int
) -> np.ndarray:
    """Resample indices containing at least two target classes.

    A resample that collapses to one class cannot be fitted; it is
    redrawn from the same generator, which keeps the draw sequence — and
    therefore the output — deterministic.
    """
    n_samples = y.shape[0]
    for _ in range(64):
        indices = rng.integers(0, n_samples, size=n_draw)
        if np.unique(y[indices]).size >= 2:
            return indices
    raise ValidationError(
        "could not draw a bootstrap resample with two target classes; "
        "increase sample_fraction or provide more varied labels"
    )


def bootstrap_rankings(
    X,
    y,
    strategy: str = "Pearson",
    *,
    n_repetitions: int = 10,
    sample_fraction: float = 0.8,
    random_state: RandomState = 0,
    jobs: int | None = None,
    fit_cache=None,
) -> list[np.ndarray]:
    """Per-repetition feature rankings from bootstrap-resampled fits.

    Each repetition draws ``round(sample_fraction * n)`` rows with
    replacement (parent-side, in serial repetition order) and fits the
    named Table 3 strategy on them.  ``jobs`` fans the independent fits
    over a process pool; ``fit_cache`` memoizes each repetition's
    ranking by resample content, so a warm re-run performs zero fits.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValidationError("X must be 2-D and aligned with y")
    if n_repetitions < 2:
        raise ValidationError(
            f"need at least two repetitions, got {n_repetitions}"
        )
    if not 0.0 < sample_fraction <= 1.0:
        raise ValidationError(
            f"sample_fraction must be in (0, 1], got {sample_fraction}"
        )
    n_draw = max(2, int(round(sample_fraction * X.shape[0])))
    codes, _ = encode_labels(y)
    cache = FitCache.coerce(fit_cache)
    with span(
        "features.bootstrap_rankings",
        attrs={"strategy": strategy, "n_repetitions": n_repetitions},
    ):
        # Resamples are drawn up front in repetition order so the draw
        # sequence never depends on the worker count.
        index_sets = [
            _bootstrap_indices(rng, y, n_draw)
            for rng in spawn_generators(random_state, n_repetitions)
        ]
        keys = None
        if cache is not None:
            keys = [
                fit_key(
                    estimator=f"stability:{strategy}",
                    arrays={"X": X[indices], "y": codes[indices]},
                    fold="bootstrap",
                    scorer="ranking",
                )
                for indices in index_sets
            ]
        rankings = run_units(
            _bootstrap_fit_unit,
            [(X[indices], y[indices], strategy) for indices in index_sets],
            jobs=jobs, label=f"stability:{strategy}",
            keys=keys, cache=cache,
        )
    return [np.asarray(ranking, dtype=int) for ranking in rankings]


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one bootstrap stability-selection run."""

    strategy: str
    k: int
    n_repetitions: int
    stability: float
    rankings: tuple


def stability_selection(
    X,
    y,
    strategy: str = "Pearson",
    *,
    k: int = 7,
    n_repetitions: int = 10,
    sample_fraction: float = 0.8,
    random_state: RandomState = 0,
    jobs: int | None = None,
    fit_cache=None,
) -> StabilityReport:
    """Bootstrap selection stability of one strategy (Section 4.3.1).

    Refits the strategy on ``n_repetitions`` bootstrap resamples and
    scores the mean pairwise Jaccard stability of the per-repetition
    top-``k`` selections.  ``jobs``/``fit_cache`` follow the evaluation
    fast path's bit-identical contract.
    """
    X = np.asarray(X, dtype=float)
    # Checked before any fit; bootstrap_rankings rejects a non-2-D X.
    if X.ndim == 2 and not 1 <= k <= X.shape[1]:
        raise ValidationError(f"k must be in [1, {X.shape[1]}]")
    rankings = bootstrap_rankings(
        X,
        y,
        strategy,
        n_repetitions=n_repetitions,
        sample_fraction=sample_fraction,
        random_state=random_state,
        jobs=jobs,
        fit_cache=fit_cache,
    )
    return StabilityReport(
        strategy=strategy,
        k=k,
        n_repetitions=n_repetitions,
        stability=selection_stability(rankings, k),
        rankings=tuple(rankings),
    )


def consensus_stability_curve(
    rankings, k: int, *, n_resamples: int = 20, random_state: int = 0
) -> dict[int, float]:
    """Stability of the aggregated top-k as more runs are pooled.

    For each pool size ``m`` (2 .. len(rankings)), random subsets of ``m``
    rankings are aggregated and the Jaccard similarity of their consensus
    top-k selections is averaged — larger pools should agree more,
    reproducing the paper's stability observation.
    """
    rankings = [np.asarray(r) for r in rankings]
    if len(rankings) < 2:
        raise ValidationError("need at least two rankings")
    rng = np.random.default_rng(random_state)
    curve: dict[int, float] = {}
    for pool_size in range(1, len(rankings) + 1):
        consensus_tops = []
        for _ in range(n_resamples):
            chosen = rng.choice(len(rankings), size=pool_size, replace=True)
            consensus_tops.append(
                top_k_features([rankings[i] for i in chosen], k)
            )
        scores = [
            jaccard_similarity(consensus_tops[i], consensus_tops[j])
            for i in range(len(consensus_tops))
            for j in range(i + 1, len(consensus_tops))
        ]
        curve[pool_size] = float(np.mean(scores))
    return curve
