"""Bit-identical parallel ensemble fits and compact fitted trees."""

import pickle

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.obs.metrics import MetricsRegistry, set_metrics


@pytest.fixture
def regression_data(rng):
    X = rng.uniform(size=(160, 5))
    y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 5 * X[:, 2] + 0.1 * (
        rng.normal(size=160)
    )
    return X, y


@pytest.fixture
def classification_data(rng):
    X = rng.normal(size=(150, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, y


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _trees_identical(tree_a, tree_b):
    builder_a, builder_b = tree_a._builder, tree_b._builder
    np.testing.assert_array_equal(builder_a._feature, builder_b._feature)
    np.testing.assert_array_equal(builder_a._threshold, builder_b._threshold)
    np.testing.assert_array_equal(builder_a._left, builder_b._left)
    np.testing.assert_array_equal(builder_a._right, builder_b._right)
    np.testing.assert_array_equal(builder_a._values, builder_b._values)


class TestParallelForestIdentity:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_regressor_identical_at_any_worker_count(
        self, regression_data, jobs
    ):
        X, y = regression_data
        serial = RandomForestRegressor(12, random_state=0).fit(X, y)
        parallel = RandomForestRegressor(12, random_state=0, jobs=jobs).fit(
            X, y
        )
        assert len(serial.estimators_) == len(parallel.estimators_)
        for tree_s, tree_p in zip(serial.estimators_, parallel.estimators_):
            _trees_identical(tree_s, tree_p)
        np.testing.assert_array_equal(
            serial.feature_importances_, parallel.feature_importances_
        )
        np.testing.assert_array_equal(
            serial.predict(X), parallel.predict(X)
        )

    def test_classifier_identical_at_any_worker_count(
        self, classification_data
    ):
        X, y = classification_data
        serial = RandomForestClassifier(10, random_state=3).fit(X, y)
        parallel = RandomForestClassifier(10, random_state=3, jobs=4).fit(
            X, y
        )
        for tree_s, tree_p in zip(serial.estimators_, parallel.estimators_):
            _trees_identical(tree_s, tree_p)
        np.testing.assert_array_equal(
            serial.predict(X), parallel.predict(X)
        )
        np.testing.assert_array_equal(
            serial.predict_proba(X), parallel.predict_proba(X)
        )

    def test_jobs0_uses_all_cpus_and_stays_identical(self, regression_data):
        X, y = regression_data
        serial = RandomForestRegressor(6, random_state=1).fit(X, y)
        auto = RandomForestRegressor(6, random_state=1, jobs=0).fit(X, y)
        np.testing.assert_array_equal(serial.predict(X), auto.predict(X))

    def test_more_workers_than_trees(self, regression_data):
        X, y = regression_data
        serial = RandomForestRegressor(2, random_state=0).fit(X, y)
        wide = RandomForestRegressor(2, random_state=0, jobs=8).fit(X, y)
        for tree_s, tree_w in zip(serial.estimators_, wide.estimators_):
            _trees_identical(tree_s, tree_w)


class TestBoostingStages:
    def test_boosting_matches_historical_fit(self, regression_data):
        # subsample=1.0 fits every stage on all rows; the fitted model
        # must be indistinguishable from one built per-stage.
        X, y = regression_data
        model = GradientBoostingRegressor(
            30, max_depth=3, random_state=0
        ).fit(X, y)
        stage_trees = []
        current = np.full(y.shape, float(y.mean()))
        from repro.utils.rng import spawn_generators

        for rng_stage in spawn_generators(0, 30):
            tree = DecisionTreeRegressor(
                max_depth=3, random_state=rng_stage
            ).fit(X, y - current)
            current += 0.1 * tree.predict(X)
            stage_trees.append(tree)
        for fast, slow in zip(model.estimators_, stage_trees):
            _trees_identical(fast, slow)

    def test_boosting_subsample_path_still_works(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(
            20, subsample=0.7, random_state=0
        ).fit(X, y)
        assert model.score(X, y) > 0.5


class TestCompactTrees:
    def test_pickle_size_independent_of_training_set(self, rng):
        # finalize() must drop the X/y references so parallel
        # workers ship compact trees back, not the training data.  A
        # depth-capped tree's pickle therefore barely grows when the
        # training set grows 16x.
        def fitted_bytes(n):
            X = rng.uniform(size=(n, 5))
            y = X[:, 0] + X[:, 1]
            tree = DecisionTreeRegressor(max_depth=3, random_state=0).fit(
                X, y
            )
            assert tree._builder._X is None
            assert tree._builder._y is None
            return len(pickle.dumps(tree))

        small, large = fitted_bytes(125), fitted_bytes(2000)
        assert large < small * 2

    def test_pickled_tree_round_trips_predictions(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=6, random_state=0).fit(X, y)
        clone = pickle.loads(pickle.dumps(tree))
        np.testing.assert_array_equal(tree.predict(X), clone.predict(X))

    def test_pickled_forest_round_trips(self, regression_data):
        X, y = regression_data
        forest = RandomForestRegressor(8, random_state=0, jobs=2).fit(X, y)
        clone = pickle.loads(pickle.dumps(forest))
        np.testing.assert_array_equal(forest.predict(X), clone.predict(X))


class TestEnsembleObservability:
    def test_trees_fit_counter(self, regression_data, metrics):
        X, y = regression_data
        RandomForestRegressor(5, random_state=0).fit(X, y)
        assert metrics.counter("ml.trees_fit_total").value == 5
        GradientBoostingRegressor(7, random_state=0).fit(X, y)
        assert metrics.counter("ml.trees_fit_total").value == 12
