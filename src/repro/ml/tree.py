"""CART decision trees (regression and classification).

Split search is vectorized: candidate thresholds for a node/feature pair are
evaluated in one pass using prefix statistics (sums of ``y`` and ``y^2`` for
regression, class counts for classification).  Impurity-decrease feature
importances are accumulated during construction, which the embedded and
wrapper feature-selection strategies of Section 4 consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_2d, check_consistent_length


@dataclass
class _Node:
    """A single tree node; leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: np.ndarray | None = None  # leaf prediction (mean or class counts)
    n_samples: int = 0


@dataclass
class _Split:
    feature: int
    threshold: float
    gain: float
    left_mask: np.ndarray


class _TreeBuilder:
    """Shared recursive builder for both tree flavours.

    Nodes operate on *index* subsets of the training matrix instead of
    sliced copies — the per-node values are identical, so fitted trees
    are bit-identical to the historical slicing builder, but no X/y
    copies are made while recursing.

    After :meth:`build`, :meth:`finalize` packs the nodes into
    struct-of-arrays form (feature/threshold/left/right/value arrays)
    so prediction is an iterative vectorized apply, and drops the X/y
    references so fitted trees pickle small (parallel forests ship them
    between processes).
    """

    def __init__(
        self,
        *,
        criterion: str,
        max_depth: int | None,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features: int | None,
        rng: np.random.Generator,
        n_classes: int = 0,
    ):
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self.n_classes = n_classes
        self.nodes: list[_Node] = []
        self.importances: np.ndarray | None = None
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._feature: np.ndarray | None = None
        self._threshold: np.ndarray | None = None
        self._left: np.ndarray | None = None
        self._right: np.ndarray | None = None
        self._values: np.ndarray | None = None

    # -- impurity helpers --------------------------------------------------
    def _node_impurity_total(self, y: np.ndarray) -> float:
        """Impurity multiplied by the node sample count."""
        if self.criterion == "mse":
            return float(np.sum((y - y.mean()) ** 2))
        counts = np.bincount(y.astype(int), minlength=self.n_classes)
        total = counts.sum()
        if total == 0:
            return 0.0
        gini = 1.0 - float(np.sum((counts / total) ** 2))
        return gini * total

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        if self.criterion == "mse":
            return np.asarray([y.mean()])
        counts = np.bincount(y.astype(int), minlength=self.n_classes)
        return counts.astype(float)

    def _best_split_for_feature(
        self,
        column: np.ndarray,
        y: np.ndarray,
        parent_impurity: float,
    ) -> tuple[float, float] | None:
        """Best (gain, threshold) for one feature, or None if unsplittable."""
        order = np.argsort(column, kind="stable")
        sorted_x = column[order]
        sorted_y = y[order]
        n = sorted_y.size
        # valid split positions: between i-1 and i where the value changes
        change = sorted_x[1:] != sorted_x[:-1]
        positions = np.flatnonzero(change) + 1  # left side gets [0, pos)
        min_leaf = self.min_samples_leaf
        positions = positions[(positions >= min_leaf) & (positions <= n - min_leaf)]
        if positions.size == 0:
            return None
        if self.criterion == "mse":
            prefix_sum = np.cumsum(sorted_y)
            prefix_sq = np.cumsum(sorted_y**2)
            left_n = positions.astype(float)
            right_n = n - left_n
            left_sum = prefix_sum[positions - 1]
            left_sq = prefix_sq[positions - 1]
            right_sum = prefix_sum[-1] - left_sum
            right_sq = prefix_sq[-1] - left_sq
            left_sse = left_sq - left_sum**2 / left_n
            right_sse = right_sq - right_sum**2 / right_n
            child_impurity = left_sse + right_sse
        else:
            one_hot = np.zeros((n, self.n_classes))
            one_hot[np.arange(n), sorted_y.astype(int)] = 1.0
            prefix_counts = np.cumsum(one_hot, axis=0)
            left_counts = prefix_counts[positions - 1]
            total_counts = prefix_counts[-1]
            right_counts = total_counts - left_counts
            left_n = positions.astype(float)
            right_n = n - left_n
            left_gini = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=1)
            right_gini = 1.0 - np.sum((right_counts / right_n[:, None]) ** 2, axis=1)
            child_impurity = left_gini * left_n + right_gini * right_n
        gains = parent_impurity - child_impurity
        best = int(np.argmax(gains))
        if gains[best] <= 1e-12:
            return None
        pos = positions[best]
        threshold = 0.5 * (sorted_x[pos - 1] + sorted_x[pos])
        return float(gains[best]), float(threshold)

    def _find_split(self, indices: np.ndarray) -> _Split | None:
        y = self._y[indices]
        parent_impurity = self._node_impurity_total(y)
        if parent_impurity <= 1e-12:
            return None
        n_features = self._X.shape[1]
        if self.max_features is not None and self.max_features < n_features:
            candidates = self.rng.choice(
                n_features, size=self.max_features, replace=False
            )
        else:
            candidates = np.arange(n_features)
        best: tuple[float, int, float] | None = None  # (gain, feature, threshold)
        for feature in candidates:
            result = self._best_split_for_feature(
                self._X[indices, feature], y, parent_impurity
            )
            if result is None:
                continue
            gain, threshold = result
            if best is None or gain > best[0]:
                best = (gain, int(feature), threshold)
        if best is None:
            return None
        gain, feature, threshold = best
        left_mask = self._X[indices, feature] <= threshold
        return _Split(feature, threshold, gain, left_mask)

    def build(self, X: np.ndarray, y: np.ndarray) -> None:
        self.importances = np.zeros(X.shape[1])
        self._X = X
        self._y = y
        self._build_node(np.arange(X.shape[0]), depth=0)
        self.finalize()

    def _build_node(self, indices: np.ndarray, depth: int) -> int:
        index = len(self.nodes)
        node = _Node(n_samples=indices.size)
        self.nodes.append(node)
        at_depth_limit = self.max_depth is not None and depth >= self.max_depth
        if (
            at_depth_limit
            or indices.size < self.min_samples_split
            or indices.size < 2 * self.min_samples_leaf
        ):
            node.value = self._leaf_value(self._y[indices])
            return index
        split = self._find_split(indices)
        if split is None:
            node.value = self._leaf_value(self._y[indices])
            return index
        node.feature = split.feature
        node.threshold = split.threshold
        self.importances[split.feature] += split.gain
        left_mask = split.left_mask
        node.left = self._build_node(indices[left_mask], depth + 1)
        node.right = self._build_node(indices[~left_mask], depth + 1)
        return index

    def finalize(self) -> None:
        """Pack nodes struct-of-arrays and drop training-data references."""
        self._X = None
        self._y = None
        n_nodes = len(self.nodes)
        value_dim = 1 if self.criterion == "mse" else self.n_classes
        self._feature = np.full(n_nodes, -1, dtype=np.intp)
        self._threshold = np.zeros(n_nodes)
        self._left = np.full(n_nodes, -1, dtype=np.intp)
        self._right = np.full(n_nodes, -1, dtype=np.intp)
        self._values = np.zeros((n_nodes, value_dim))
        for position, node in enumerate(self.nodes):
            if node.feature == -1:
                self._values[position] = node.value
            else:
                self._feature[position] = node.feature
                self._threshold[position] = node.threshold
                self._left[position] = node.left
                self._right[position] = node.right

    def predict_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for each row; shape ``(n_samples, value_dim)``.

        Iterative vectorized apply over the struct-of-arrays layout: all
        rows advance one tree level per step, rows that reach a leaf drop
        out, so the loop runs ``depth`` times instead of once per row.
        """
        node = np.zeros(X.shape[0], dtype=np.intp)
        active = np.flatnonzero(self._feature[node] >= 0)
        while active.size:
            current = node[active]
            go_left = (
                X[active, self._feature[current]] <= self._threshold[current]
            )
            node[active] = np.where(
                go_left, self._left[current], self._right[current]
            )
            active = active[self._feature[node[active]] >= 0]
        return self._values[node]


class _BaseDecisionTree(BaseEstimator):
    """Parameter handling shared by the two public tree classes."""

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        random_state: RandomState = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _validate_params(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValidationError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if self.min_samples_leaf < 1:
            raise ValidationError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )
        if self.max_features is not None and self.max_features < 1:
            raise ValidationError(
                f"max_features must be >= 1, got {self.max_features}"
            )

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-decrease importances normalized to sum to 1."""
        self._check_fitted("_builder")
        importances = self._builder.importances.copy()
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances

    @property
    def node_count_(self) -> int:
        """Number of nodes (internal + leaves) in the fitted tree."""
        self._check_fitted("_builder")
        return len(self._builder.nodes)

    @property
    def depth_(self) -> int:
        """Maximum depth of the fitted tree (root = depth 0)."""
        self._check_fitted("_builder")
        depths = {0: 0}
        max_depth = 0
        for index, node in enumerate(self._builder.nodes):
            depth = depths[index]
            max_depth = max(max_depth, depth)
            if node.feature != -1:
                depths[node.left] = depth + 1
                depths[node.right] = depth + 1
        return max_depth


class DecisionTreeRegressor(_BaseDecisionTree, RegressorMixin):
    """CART regression tree minimizing within-node squared error."""

    def __init__(
        self,
        max_depth: int | None = None,
        *,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        random_state: RandomState = None,
    ):
        super().__init__(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            random_state=random_state,
        )

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = check_2d(X, "X")
        y = np.asarray(y, dtype=float).ravel()
        check_consistent_length(X, y)
        self._validate_params()
        self._n_features = X.shape[1]
        self._builder = _TreeBuilder(
            criterion="mse",
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            rng=as_generator(self.random_state),
        )
        self._builder.build(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("_builder")
        X = check_2d(X, "X")
        if X.shape[1] != self._n_features:
            raise ValidationError(
                f"X has {X.shape[1]} features, tree was fitted with "
                f"{self._n_features}"
            )
        return self._builder.predict_values(X)[:, 0]


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """CART classification tree minimizing Gini impurity."""

    def __init__(
        self,
        max_depth: int | None = None,
        *,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        random_state: RandomState = None,
    ):
        super().__init__(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            random_state=random_state,
        )

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X = check_2d(X, "X")
        y = np.asarray(y)
        check_consistent_length(X, y)
        self._validate_params()
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self._n_features = X.shape[1]
        self._builder = _TreeBuilder(
            criterion="gini",
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            rng=as_generator(self.random_state),
            n_classes=self.classes_.size,
        )
        self._builder.build(X, encoded.astype(float))
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("_builder")
        X = check_2d(X, "X")
        if X.shape[1] != self._n_features:
            raise ValidationError(
                f"X has {X.shape[1]} features, tree was fitted with "
                f"{self._n_features}"
            )
        counts = self._builder.predict_values(X)
        totals = counts.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return counts / totals

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
