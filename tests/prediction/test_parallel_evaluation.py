"""Bit-identity and fit-cache behaviour of the strategy-grid fast path."""

import numpy as np
import pytest

from repro.ml.fitexec import FitCache
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.prediction.evaluation import (
    ScalingDataset,
    evaluate_pairwise_strategy,
    evaluate_single_strategy,
)


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(7)
    names = ["s2", "s4", "s8"]
    n = 30
    observations, groups = {}, {}
    for i, name in enumerate(names):
        base = 100.0 * (i + 1)
        observations[name] = base + rng.normal(0.0, 5.0, size=n)
        groups[name] = np.repeat(np.arange(3), n // 3)
    return ScalingDataset(
        workload="tpcc",
        terminals=8,
        sku_names=names,
        cpu_counts={"s2": 2, "s4": 4, "s8": 8},
        observations=observations,
        groups=groups,
    )


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


class TestPairwiseFastPath:
    def test_bit_identical_at_any_worker_count(self, dataset):
        scores = [
            evaluate_pairwise_strategy(
                dataset, "Regression", random_state=0, jobs=jobs
            )
            for jobs in (None, 1, 4)
        ]
        assert scores[0].mean_nrmse == scores[1].mean_nrmse
        assert scores[0].mean_nrmse == scores[2].mean_nrmse

    def test_generator_seed_still_accepted(self, dataset):
        score = evaluate_pairwise_strategy(
            dataset, "Regression", random_state=np.random.default_rng(0)
        )
        assert np.isfinite(score.mean_nrmse)

    def test_warm_cache_fits_nothing(self, dataset, tmp_path, metrics):
        cold = evaluate_pairwise_strategy(
            dataset, "Regression", random_state=0,
            fit_cache=FitCache(tmp_path),
        )
        assert metrics.counter("ml.fits_total").value > 0
        set_metrics(warm_registry := MetricsRegistry())
        try:
            warm = evaluate_pairwise_strategy(
                dataset, "Regression", random_state=0,
                fit_cache=FitCache(tmp_path),
            )
        finally:
            set_metrics(metrics)
        assert warm_registry.counter("ml.fits_total").value == 0
        assert warm_registry.counter("fit_cache.hits_total").value > 0
        assert warm.mean_nrmse == cold.mean_nrmse

    def test_cells_total_counts_grid_cells(self, dataset, metrics):
        evaluate_pairwise_strategy(
            dataset, "Regression", cv=5, random_state=0
        )
        n_pairs = len(dataset.upward_pairs())
        assert (
            metrics.counter("evaluation.cells_total").value == n_pairs * 5
        )


class TestSingleFastPath:
    def test_bit_identical_at_any_worker_count(self, dataset):
        scores = [
            evaluate_single_strategy(
                dataset, "Regression", random_state=0, jobs=jobs
            )
            for jobs in (None, 1, 4)
        ]
        assert scores[0].mean_nrmse == scores[1].mean_nrmse
        assert scores[0].mean_nrmse == scores[2].mean_nrmse

    def test_generator_seed_takes_legacy_path(self, dataset):
        score = evaluate_single_strategy(
            dataset, "Regression", random_state=np.random.default_rng(0)
        )
        assert np.isfinite(score.mean_nrmse)

    def test_generator_seed_draws_one_int_seed(self, dataset):
        seed = int(np.random.default_rng(5).integers(0, 2**31))
        drawn = evaluate_single_strategy(
            dataset, "Regression", random_state=np.random.default_rng(5)
        )
        direct = evaluate_single_strategy(
            dataset, "Regression", random_state=seed
        )
        assert drawn.mean_nrmse == direct.mean_nrmse

    def test_warm_cache_fits_nothing(self, dataset, tmp_path, metrics):
        cold = evaluate_single_strategy(
            dataset, "Regression", random_state=0,
            fit_cache=FitCache(tmp_path),
        )
        set_metrics(warm_registry := MetricsRegistry())
        try:
            warm = evaluate_single_strategy(
                dataset, "Regression", random_state=0,
                fit_cache=FitCache(tmp_path),
            )
        finally:
            set_metrics(metrics)
        assert warm_registry.counter("ml.fits_total").value == 0
        assert warm.mean_nrmse == cold.mean_nrmse

    def test_cells_total_counts_grid_cells(self, dataset, metrics):
        evaluate_single_strategy(
            dataset, "Regression", cv=5, random_state=0
        )
        n_pairs = len(dataset.upward_pairs())
        assert (
            metrics.counter("evaluation.cells_total").value == n_pairs * 5
        )


class TestCrossKnobConsistency:
    def test_cache_and_jobs_compose(self, dataset, tmp_path, metrics):
        """Every knob combination lands on the same NRMSE."""
        plain = evaluate_pairwise_strategy(
            dataset, "Regression", random_state=0
        )
        cache = FitCache(tmp_path)
        combos = [
            evaluate_pairwise_strategy(
                dataset, "Regression", random_state=0,
                jobs=jobs, fit_cache=fit_cache,
            )
            for jobs in (None, 2)
            for fit_cache in (None, cache)
        ]
        for score in combos:
            assert score.mean_nrmse == plain.mean_nrmse
