"""Determinism and caching of the parallel pairwise-distance engine."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.similarity import DistanceCache, RepresentationBuilder
from repro.similarity.evaluation import (
    distance_matrix,
    representation_matrices,
)
from repro.similarity.measures import get_measure, measure_registry
from repro.similarity.robustness import (
    robustness_profiles,
    robustness_under_noise,
)


@pytest.fixture(scope="module")
def mini_corpus(small_corpus):
    return small_corpus.filter(lambda r: r.subsample_index in (0, 1))


@pytest.fixture(scope="module")
def builder(mini_corpus):
    return RepresentationBuilder().fit(mini_corpus)


@pytest.fixture(scope="module")
def mts_matrices(mini_corpus, builder):
    return representation_matrices(mini_corpus, builder, "mts")


@pytest.fixture(scope="module")
def hist_matrices(mini_corpus, builder):
    return representation_matrices(mini_corpus, builder, "hist")


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _pairs_computed(registry):
    return int(registry.counter("similarity.pairs_computed").value)


class TestBitIdenticalParallelism:
    @pytest.mark.parametrize(
        "measure_name", ["L2,1", "Dependent-DTW", "Independent-LCSS"]
    )
    def test_serial_jobs1_jobs4_identical(self, mts_matrices, measure_name):
        measure = get_measure(measure_name)
        serial = distance_matrix(mts_matrices, measure)
        one = distance_matrix(mts_matrices, measure, jobs=1)
        four = distance_matrix(mts_matrices, measure, jobs=4)
        assert np.array_equal(serial, one)
        assert np.array_equal(serial, four)

    def test_jobs0_matches_serial(self, hist_matrices):
        measure = get_measure("L2,1")
        assert np.array_equal(
            distance_matrix(hist_matrices, measure),
            distance_matrix(hist_matrices, measure, jobs=0),
        )

    def test_unequal_lengths_still_identical(self):
        rng = np.random.default_rng(5)
        matrices = [
            rng.normal(size=(rng.integers(6, 14), 3)) for _ in range(9)
        ]
        measure = get_measure("Dependent-DTW")
        assert np.array_equal(
            distance_matrix(matrices, measure),
            distance_matrix(matrices, measure, jobs=4),
        )

    def test_all_registered_measures_parallel_identical(self, mts_matrices):
        subset = mts_matrices[:6]
        for name, measure in measure_registry().items():
            serial = distance_matrix(subset, measure)
            parallel = distance_matrix(subset, measure, jobs=2)
            assert np.array_equal(serial, parallel), name


class TestDistanceCacheIntegration:
    """On Fro: L2,1 and L1,1 skip the cache."""

    def test_warm_cache_recomputes_zero_pairs(
        self, hist_matrices, tmp_path, metrics
    ):
        measure = get_measure("Fro")
        cold = distance_matrix(
            hist_matrices, measure, cache=DistanceCache(tmp_path)
        )
        computed_cold = _pairs_computed(metrics)
        n = len(hist_matrices)
        assert computed_cold == n * (n - 1) // 2
        warm = distance_matrix(
            hist_matrices, measure, cache=DistanceCache(tmp_path)
        )
        assert _pairs_computed(metrics) == computed_cold
        assert np.array_equal(cold, warm)
        assert (
            int(metrics.counter("distance_cache.hits_total").value)
            == n * (n - 1) // 2
        )

    def test_cached_matrix_matches_uncached(self, mts_matrices, tmp_path):
        measure = get_measure("Dependent-DTW")
        plain = distance_matrix(mts_matrices, measure)
        cached = distance_matrix(mts_matrices, measure, cache=str(tmp_path))
        assert np.array_equal(plain, cached)

    def test_partial_overlap_computes_only_new_pairs(
        self, hist_matrices, tmp_path, metrics
    ):
        measure = get_measure("Fro")
        cache = DistanceCache(tmp_path)
        base = hist_matrices[:5]
        distance_matrix(base, measure, cache=cache)
        computed_before = _pairs_computed(metrics)
        extended = base + [hist_matrices[5]]
        distance_matrix(extended, measure, cache=cache)
        # Only the 5 pairs touching the new matrix are computed.
        assert _pairs_computed(metrics) - computed_before == 5

    def test_corrupt_cache_is_a_miss_not_an_error(
        self, hist_matrices, tmp_path, metrics
    ):
        measure = get_measure("Fro")
        plain = distance_matrix(hist_matrices, measure)
        (tmp_path / "distances.jsonl").write_text("garbage\n{torn")
        recovered = distance_matrix(
            hist_matrices, measure, cache=str(tmp_path)
        )
        assert np.array_equal(plain, recovered)


class TestRobustnessSweepCaching:
    """The cached sweep runs Fro: L2,1 and L1,1 skip the cache."""

    def test_repeated_sweep_recomputes_zero_pairs(
        self, mini_corpus, builder, tmp_path, metrics
    ):
        measure = get_measure("Fro")
        first = robustness_under_noise(
            mini_corpus, builder, "hist", measure,
            noise_levels=(0.1,), random_state=3, cache=str(tmp_path),
        )
        computed_first = _pairs_computed(metrics)
        assert computed_first > 0
        second = robustness_under_noise(
            mini_corpus, builder, "hist", measure,
            noise_levels=(0.1,), random_state=3, cache=str(tmp_path),
        )
        # Same seed => identical clean and perturbed matrices => the warm
        # sweep recomputes nothing at all.
        assert _pairs_computed(metrics) == computed_first
        assert first == second

    def test_profiles_match_standalone_sweeps(self, mini_corpus, builder):
        measure = get_measure("L2,1")
        profiles = robustness_profiles(
            mini_corpus, builder, "hist", measure,
            noise_levels=(0.1,), random_state=3,
            perturbations=("noise", "missing"),
        )
        for kind in ("noise", "missing"):
            standalone = robustness_under_noise(
                mini_corpus, builder, "hist", measure,
                noise_levels=(0.1,), random_state=3, perturbation=kind,
            )
            assert profiles[kind] == standalone

    def test_profiles_build_clean_distances_once(
        self, mini_corpus, builder, metrics
    ):
        measure = get_measure("L2,1")
        n = len(mini_corpus)
        clean_pairs = n * (n - 1) // 2
        robustness_profiles(
            mini_corpus, builder, "hist", measure,
            noise_levels=(0.1,), random_state=3,
            perturbations=("noise", "outliers", "missing"),
        )
        # 1 clean matrix + 3 kinds x 1 level, not 3 clean rebuilds.
        assert _pairs_computed(metrics) == 4 * clean_pairs


class TestEngineObservability:
    def test_pair_seconds_histogram_populated(self, hist_matrices, metrics):
        distance_matrix(hist_matrices, get_measure("L2,1"))
        histogram = metrics.histogram("similarity.pair_seconds")
        n = len(hist_matrices)
        assert histogram.count == n * (n - 1) // 2
