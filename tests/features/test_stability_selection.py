"""Bootstrap stability selection and its fast-path knobs."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.features import (
    StabilityReport,
    bootstrap_rankings,
    selection_stability,
    stability_selection,
)
from repro.ml.fitexec import FitCache
from repro.obs.metrics import MetricsRegistry, set_metrics


@pytest.fixture(scope="module")
def stability_data():
    rng = np.random.default_rng(23)
    n = 60
    labels = np.array(["a", "b", "c"] * (n // 3))
    codes = np.array([ord(l) - ord("a") for l in labels], dtype=float)
    X = rng.normal(size=(n, 5))
    X[:, 1] += 2.0 * codes
    return X, labels


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


class TestBootstrapRankings:
    def test_deterministic(self, stability_data):
        X, y = stability_data
        a = bootstrap_rankings(X, y, "Pearson", random_state=3)
        b = bootstrap_rankings(X, y, "Pearson", random_state=3)
        assert all(np.array_equal(r1, r2) for r1, r2 in zip(a, b))

    def test_bit_identical_at_any_worker_count(self, stability_data):
        X, y = stability_data
        serial = bootstrap_rankings(X, y, "Pearson", random_state=0)
        jobs1 = bootstrap_rankings(X, y, "Pearson", random_state=0, jobs=1)
        jobs4 = bootstrap_rankings(X, y, "Pearson", random_state=0, jobs=4)
        for r_serial, r_1, r_4 in zip(serial, jobs1, jobs4):
            assert np.array_equal(r_serial, r_1)
            assert np.array_equal(r_serial, r_4)

    def test_warm_cache_fits_nothing(self, stability_data, tmp_path, metrics):
        X, y = stability_data
        cold = bootstrap_rankings(
            X, y, "Pearson", random_state=0, fit_cache=FitCache(tmp_path)
        )
        assert metrics.counter("ml.fits_total").value > 0
        set_metrics(warm_registry := MetricsRegistry())
        try:
            warm = bootstrap_rankings(
                X, y, "Pearson", random_state=0,
                fit_cache=FitCache(tmp_path),
            )
        finally:
            set_metrics(metrics)
        assert warm_registry.counter("ml.fits_total").value == 0
        for r_cold, r_warm in zip(cold, warm):
            assert np.array_equal(r_cold, r_warm)

    def test_rankings_are_valid(self, stability_data):
        X, y = stability_data
        for ranking in bootstrap_rankings(X, y, "Pearson", n_repetitions=4):
            assert sorted(ranking.tolist()) == list(range(1, X.shape[1] + 1))

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_units_count_their_own_fits(self, stability_data, metrics, jobs):
        # Three selector fits plus four RFE steps in each of them.
        X, y = stability_data
        bootstrap_rankings(X, y, "RFE Linear", n_repetitions=3, jobs=jobs)
        assert metrics.counter("ml.fits_total").value == 15

    def test_validation(self, stability_data):
        X, y = stability_data
        with pytest.raises(ValidationError, match="repetitions"):
            bootstrap_rankings(X, y, n_repetitions=1)
        with pytest.raises(ValidationError, match="sample_fraction"):
            bootstrap_rankings(X, y, sample_fraction=0.0)
        with pytest.raises(ValidationError, match="aligned"):
            bootstrap_rankings(X[:-1], y)


class TestStabilitySelection:
    def test_report_shape(self, stability_data):
        X, y = stability_data
        report = stability_selection(
            X, y, "Pearson", k=2, n_repetitions=5, random_state=1
        )
        assert isinstance(report, StabilityReport)
        assert report.strategy == "Pearson"
        assert report.k == 2
        assert report.n_repetitions == 5
        assert len(report.rankings) == 5
        assert 0.0 <= report.stability <= 1.0

    def test_stability_matches_manual_computation(self, stability_data):
        X, y = stability_data
        report = stability_selection(X, y, "Pearson", k=2, random_state=4)
        manual = selection_stability(list(report.rankings), 2)
        assert report.stability == manual

    def test_informative_feature_is_stable(self, stability_data):
        X, y = stability_data
        report = stability_selection(X, y, "Pearson", k=1, random_state=0)
        # Feature 1 carries the class signal; every resample should rank
        # it first, making the top-1 selection perfectly stable.
        assert report.stability == 1.0

    def test_invalid_k(self, stability_data):
        X, y = stability_data
        with pytest.raises(ValidationError, match="k must be"):
            stability_selection(X, y, k=99)

    @pytest.mark.parametrize("k", [0, 6])
    def test_invalid_k_rejected_before_any_fit(
        self, stability_data, metrics, k
    ):
        X, y = stability_data
        with pytest.raises(ValidationError, match="k must be"):
            stability_selection(X, y, "RFE Linear", k=k, n_repetitions=4)
        assert metrics.counter("ml.fits_total").value == 0
