"""Random forests (Breiman [10]) built on the CART trees.

The embedded feature-selection strategy of Section 4.1.2 reads the
forest-averaged impurity importances (``feature_importances_``).

``fit`` accepts ``jobs`` (constructor parameter) to fan per-tree builds
out over the shared :func:`repro.exec.engine.run_tasks` engine; each
tree batch carries the training matrix in its payload.  Parallel fits
are **bit-identical** to serial ones: the parent draws every bootstrap
sample from the pre-spawned per-tree generators *before* dispatch —
preserving the serial draw order — and ships each (sample, mutated
generator) pair to a worker, so the split-feature subsampling inside
the tree consumes exactly the stream it would have seen serially.
``tests/ml/test_parallel_ensembles.py`` asserts identical trees,
importances, and predictions.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.exec.engine import ExecTask, run_tasks
from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.obs.logging import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.tracing import span
from repro.utils.parallel import resolve_jobs
from repro.utils.rng import RandomState, spawn_generators
from repro.utils.validation import check_2d, check_consistent_length, check_positive_int

logger = get_logger(__name__)

#: Target number of tree batches a forest fit is split into.  The batch
#: layout is a pure function of ``n_estimators`` — never of the worker
#: count — so serial and parallel fits walk identical batches in
#: identical order and their telemetry (span trees included) matches.
FOREST_BATCH_TARGET = 16


def _resolve_max_features(max_features, n_features: int, default: str) -> int | None:
    """Translate a max_features spec into a concrete feature count."""
    if max_features is None:
        max_features = default
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "third":
            return max(1, n_features // 3)
        if max_features == "all":
            return None
        raise ValidationError(
            f"unknown max_features spec {max_features!r}; "
            "expected 'sqrt', 'third', 'all', or an int"
        )
    return check_positive_int(max_features, "max_features")


def _fit_tree_batch(tree_cls, tree_params, X, y, samples, rngs):
    """Fit one batch of trees; the unit of work shipped to pool workers.

    The serial path calls the same function with a single batch, so
    parallel and serial fits run identical code on identical inputs.
    """
    trees = []
    for sample, rng in zip(samples, rngs):
        tree = tree_cls(**tree_params, random_state=rng)
        tree.fit(X[sample], y[sample])
        trees.append(tree)
    return trees


def _fit_tree_batch_body(
    tree_cls, tree_params, X, y, samples, rngs, batch_index
):
    with span(
        "ml.fit_tree_batch",
        attrs={"batch": batch_index, "n_trees": len(samples)},
    ):
        return _fit_tree_batch(tree_cls, tree_params, X, y, samples, rngs)


def _tree_batch_unit(payload, attempt: int, in_worker: bool):
    """Engine adapter: one tree batch."""
    tree_cls, tree_params, X, y, samples, rngs, batch_index = payload
    return _fit_tree_batch_body(
        tree_cls, tree_params, X, y, samples, rngs, batch_index
    )


class _BaseForest(BaseEstimator):
    def __init__(
        self,
        n_estimators: int = 100,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        bootstrap: bool = True,
        random_state: RandomState = None,
        jobs: int | None = None,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.jobs = jobs

    def _fit_trees(
        self, X: np.ndarray, y: np.ndarray, tree_cls, tree_params: dict
    ) -> None:
        check_positive_int(self.n_estimators, "n_estimators")
        generators = spawn_generators(self.random_state, self.n_estimators)
        n_samples = X.shape[0]
        # Bootstrap samples are drawn by the parent, in the serial order,
        # *before* any dispatch; each worker receives the already-mutated
        # generator and consumes the rest of its stream exactly as the
        # serial path would.
        samples = []
        for rng in generators:
            if self.bootstrap:
                samples.append(rng.integers(0, n_samples, size=n_samples))
            else:
                samples.append(np.arange(n_samples))
        n_workers = min(resolve_jobs(self.jobs), self.n_estimators)
        # The batch layout depends only on n_estimators, so the span
        # tree recorded per batch is identical at any worker count.
        batches = [
            batch
            for batch in np.array_split(
                np.arange(self.n_estimators),
                min(FOREST_BATCH_TARGET, self.n_estimators),
            )
            if batch.size
        ]
        tasks = [
            ExecTask(
                index=index,
                fn=_tree_batch_unit,
                payload=(
                    tree_cls,
                    tree_params,
                    X,
                    y,
                    [samples[i] for i in batch],
                    [generators[i] for i in batch],
                    index,
                ),
                task_id=f"tree-batch-{index}",
            )
            for index, batch in enumerate(batches)
        ]
        with span(
            "ml.forest.fit",
            attrs={"n_estimators": self.n_estimators, "workers": n_workers},
        ):
            outputs = run_tasks(
                tasks,
                jobs=n_workers,
                retry=1,
                label="ml.forest",
                on_error="raise",
            )
            self.estimators_ = [tree for trees in outputs for tree in trees]
        get_metrics().counter("ml.trees_fit_total").inc(self.n_estimators)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean impurity-decrease importance across the ensemble."""
        self._check_fitted("estimators_")
        stacked = np.vstack([t.feature_importances_ for t in self.estimators_])
        importances = stacked.mean(axis=0)
        total = importances.sum()
        if total > 0:
            importances = importances / total
        return importances


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Bagged CART regression trees with per-split feature subsampling."""

    def fit(self, X, y) -> "RandomForestRegressor":
        X = check_2d(X, "X")
        y = np.asarray(y, dtype=float).ravel()
        check_consistent_length(X, y)
        self._n_features = X.shape[1]
        resolved = _resolve_max_features(self.max_features, X.shape[1], "third")
        self._fit_trees(
            X,
            y,
            DecisionTreeRegressor,
            {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": resolved,
            },
        )
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("estimators_")
        X = check_2d(X, "X")
        predictions = np.vstack([tree.predict(X) for tree in self.estimators_])
        return predictions.mean(axis=0)


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Bagged CART classification trees voting by averaged probabilities."""

    def fit(self, X, y) -> "RandomForestClassifier":
        X = check_2d(X, "X")
        y = np.asarray(y)
        check_consistent_length(X, y)
        self.classes_ = np.unique(y)
        self._n_features = X.shape[1]
        resolved = _resolve_max_features(self.max_features, X.shape[1], "sqrt")
        self._fit_trees(
            X,
            y,
            DecisionTreeClassifier,
            {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": resolved,
            },
        )
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("estimators_")
        X = check_2d(X, "X")
        n_classes = self.classes_.size
        aggregate = np.zeros((X.shape[0], n_classes))
        for tree in self.estimators_:
            probabilities = tree.predict_proba(X)
            # Map the tree's class order onto the forest's class order.
            for j, cls in enumerate(tree.classes_):
                k = int(np.searchsorted(self.classes_, cls))
                aggregate[:, k] += probabilities[:, j]
        aggregate /= len(self.estimators_)
        return aggregate

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
