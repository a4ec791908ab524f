"""Wrapper feature-selection strategies: RFE and SFS (Section 4.1.3).

Both iterate model training over feature subsets.  RFE repeatedly drops the
feature the model deems least important; SFS greedily adds (forward) or
removes (backward) the feature that most helps cross-validated prediction
performance.  Either yields a complete elimination/insertion order, i.e. an
integer rank per feature — the rank-based output class of Section 4.2.

The estimator is chosen by name, matching the paper's variants: ``linear``
(least squares on integer-encoded labels), ``dectree`` (CART classifier),
and ``logreg`` (L2 logistic regression).

Wrappers are the most expensive strategies of Table 3 (O(d²) model fits),
so both ride the evaluation fast path (:mod:`repro.ml.fitexec`):

- ``jobs`` fans the independent candidate subsets of each SFS greedy
  step over a process pool.  Candidate scores are computed by the exact
  same worker function serially and in parallel and the greedy argmax
  walks them in the serial order, so the selected feature order is
  **bit-identical at any worker count**.  RFE's elimination steps are
  inherently sequential — one fit per step — so it takes no ``jobs``.
- ``fit_cache`` memoizes each candidate's CV score (and each RFE step's
  importance vector) under a content address; a warm re-run of a
  selection performs zero model fits.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.features.base import RankBasedSelector, encode_labels
from repro.ml.base import clone
from repro.ml.fitexec import FitCache, count_fits, fit_key, run_units
from repro.ml.linear import LinearRegression
from repro.ml.logistic import LogisticRegression
from repro.ml.model_selection import KFold
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeClassifier

ESTIMATOR_NAMES = ("linear", "dectree", "logreg")


def _make_estimator(name: str):
    if name == "linear":
        return LinearRegression()
    if name == "dectree":
        return DecisionTreeClassifier(max_depth=6, random_state=0)
    if name == "logreg":
        return LogisticRegression(alpha=1.0, max_iter=50)
    raise ValidationError(
        f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}"
    )


def _estimator_params(name: str) -> dict:
    """Canonicalized constructor parameters, for fit-cache keying."""
    if name == "linear":
        return {}
    if name == "dectree":
        return {"max_depth": 6, "random_state": 0}
    return {"alpha": 1.0, "max_iter": 50}


def _estimator_is_regressor(name: str) -> bool:
    return name == "linear"


def _importances(model, name: str) -> np.ndarray:
    if name == "linear":
        return np.abs(model.coef_)
    if name == "dectree":
        return model.feature_importances_
    return model.feature_importances_  # logreg: L2 norm of class coefs


def _sfs_cv_score(unit) -> float:
    """Mean CV score of one candidate subset.

    This is the unit of work shipped to pool workers, and the exact same
    function the serial path calls — which is what makes parallel SFS
    bit-identical to serial.
    """
    subset, target, estimator, cv = unit
    scores = []
    splitter = KFold(cv, shuffle=True, random_state=0)
    for train_idx, test_idx in splitter.split(subset):
        model = clone(_make_estimator(estimator))
        try:
            model.fit(subset[train_idx], target[train_idx])
        except Exception:
            # A degenerate fold (e.g. one class only) scores worst.
            scores.append(-np.inf)
            continue
        scores.append(model.score(subset[test_idx], target[test_idx]))
    count_fits(len(scores))
    return float(np.mean(scores))


def _rfe_step_importances(unit) -> list[float]:
    """Importances of one RFE elimination step (one fit)."""
    subset, target, estimator = unit
    model = _make_estimator(estimator)
    model.fit(subset, target)
    count_fits(1)
    return [float(value) for value in _importances(model, estimator)]


class RecursiveFeatureElimination(RankBasedSelector):
    """RFE: drop the least important feature until none remain.

    The elimination order *is* the ranking: the last surviving feature has
    rank 1.  Features are standardized so coefficient magnitudes are
    comparable across telemetry units.
    """

    def __init__(
        self,
        estimator: str = "logreg",
        *,
        step: int = 1,
        fit_cache=None,
    ):
        if estimator not in ESTIMATOR_NAMES:
            raise ValidationError(
                f"unknown estimator {estimator!r}; expected {ESTIMATOR_NAMES}"
            )
        if step < 1:
            raise ValidationError(f"step must be >= 1, got {step}")
        self.estimator = estimator
        self.step = step
        self.fit_cache = fit_cache
        self.name = f"RFE {estimator}"

    def _step_importances(
        self, subset: np.ndarray, target, codes: np.ndarray, cache
    ) -> np.ndarray:
        """Importances of one elimination step, memoized by content."""
        keys = None
        if cache is not None:
            keys = [
                fit_key(
                    estimator=self.estimator,
                    params=_estimator_params(self.estimator),
                    arrays={"X": subset, "y": codes},
                    fold="rfe",
                    scorer="importances",
                )
            ]
        [importances] = run_units(
            _rfe_step_importances, [(subset, target, self.estimator)],
            label=f"rfe:{self.estimator}", keys=keys, cache=cache,
        )
        return np.asarray(importances, dtype=float)

    def fit(self, X, y) -> "RecursiveFeatureElimination":
        X, y = self._validate(X, y)
        Xs = StandardScaler().fit_transform(X)
        codes, _ = encode_labels(y)
        target = codes.astype(float) if _estimator_is_regressor(self.estimator) else y
        cache = FitCache.coerce(self.fit_cache)
        remaining = list(range(X.shape[1]))
        ranking = np.zeros(X.shape[1], dtype=int)
        next_rank = X.shape[1]
        while remaining:
            if len(remaining) == 1:
                ranking[remaining[0]] = 1
                break
            importances = self._step_importances(
                Xs[:, remaining], target, codes, cache
            )
            n_drop = min(self.step, len(remaining) - 1)
            drop_positions = np.argsort(importances, kind="stable")[:n_drop]
            # Drop the least important; assign them the worst open ranks.
            for position in sorted(drop_positions, reverse=True):
                ranking[remaining[position]] = next_rank
                next_rank -= 1
                del remaining[position]
        self.ranking_ = ranking
        return self


class SequentialFeatureSelector(RankBasedSelector):
    """SFS: greedy forward addition or backward removal of features.

    The scoring metric is cross-validated prediction quality: accuracy for
    the classifier estimators, R^2 for the linear one.  Running the greedy
    process to completion yields a full feature ranking — forward order
    directly, backward order reversed.
    """

    def __init__(
        self,
        estimator: str = "logreg",
        *,
        direction: str = "forward",
        cv: int = 3,
        jobs: int | None = None,
        fit_cache=None,
    ):
        if estimator not in ESTIMATOR_NAMES:
            raise ValidationError(
                f"unknown estimator {estimator!r}; expected {ESTIMATOR_NAMES}"
            )
        if direction not in ("forward", "backward"):
            raise ValidationError(
                f"direction must be 'forward' or 'backward', got {direction!r}"
            )
        if cv < 2:
            raise ValidationError(f"cv must be >= 2, got {cv}")
        self.estimator = estimator
        self.direction = direction
        self.cv = cv
        self.jobs = jobs
        self.fit_cache = fit_cache
        prefix = "Fw" if direction == "forward" else "Bw"
        self.name = f"{prefix} SFS {estimator}"

    def _candidate_scores(
        self,
        X: np.ndarray,
        target: np.ndarray,
        codes: np.ndarray,
        candidates: list[list[int]],
        cache: FitCache | None,
    ) -> list[float]:
        """CV scores of one greedy step's candidate subsets, in order.

        The candidates are independent, so cache misses fan out over
        :func:`~repro.ml.fitexec.run_units`; results come back in
        candidate order and the caller's argmax walks them serially, so
        the chosen feature is identical at any worker count.
        """
        subsets = [X[:, columns] for columns in candidates]
        keys = None
        if cache is not None:
            keys = [
                fit_key(
                    estimator=self.estimator,
                    params=_estimator_params(self.estimator),
                    arrays={"X": subset, "y": codes},
                    seed=0,
                    fold=f"kfold:{self.cv}:shuffle",
                    scorer="cv_mean",
                )
                for subset in subsets
            ]
        return run_units(
            _sfs_cv_score,
            [(subset, target, self.estimator, self.cv) for subset in subsets],
            jobs=self.jobs, label=f"sfs:{self.estimator}",
            keys=keys, cache=cache,
        )

    def fit(self, X, y) -> "SequentialFeatureSelector":
        X, y = self._validate(X, y)
        Xs = StandardScaler().fit_transform(X)
        codes, _ = encode_labels(y)
        target = (
            codes.astype(float)
            if _estimator_is_regressor(self.estimator)
            else np.asarray(y)
        )
        n_features = X.shape[1]
        cache = FitCache.coerce(self.fit_cache)
        if self.direction == "forward":
            order = self._forward_order(Xs, target, codes, n_features, cache)
        else:
            order = self._backward_order(Xs, target, codes, n_features, cache)
        ranking = np.zeros(n_features, dtype=int)
        for rank, feature in enumerate(order, start=1):
            ranking[feature] = rank
        self.ranking_ = ranking
        return self

    def _forward_order(
        self, X, target, codes, n_features: int, cache
    ) -> list[int]:
        """Features in the order the greedy forward pass adds them."""
        selected: list[int] = []
        remaining = list(range(n_features))
        while remaining:
            candidates = [selected + [feature] for feature in remaining]
            scores = self._candidate_scores(
                X, target, codes, candidates, cache
            )
            best_feature, best_score = None, -np.inf
            for feature, score in zip(remaining, scores):
                if score > best_score:
                    best_score, best_feature = score, feature
            selected.append(best_feature)
            remaining.remove(best_feature)
        return selected

    def _backward_order(
        self, X, target, codes, n_features: int, cache
    ) -> list[int]:
        """Importance order from greedy backward elimination.

        The feature removed first mattered least (worst rank); the final
        survivor ranks 1.
        """
        remaining = list(range(n_features))
        removal_order: list[int] = []
        while len(remaining) > 1:
            candidates = [
                [f for f in remaining if f != feature] for feature in remaining
            ]
            scores = self._candidate_scores(
                X, target, codes, candidates, cache
            )
            best_feature, best_score = None, -np.inf
            for feature, score in zip(remaining, scores):
                if score > best_score:
                    best_score, best_feature = score, feature
            removal_order.append(best_feature)
            remaining.remove(best_feature)
        removal_order.append(remaining[0])
        return list(reversed(removal_order))
