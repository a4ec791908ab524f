import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.utils.stats import (
    ar1_lognormal_noise,
    describe,
    rank_from_scores,
    weighted_mean,
)


class TestDescribe:
    def test_basic_statistics(self):
        summary = describe([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == 2.5
        assert summary.median == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.count == 4
        assert summary.variance == pytest.approx(1.25)
        assert summary.std == pytest.approx(np.sqrt(1.25))

    def test_single_value(self):
        summary = describe([7.0])
        assert summary.std == 0.0
        assert summary.mean == 7.0


class TestRankFromScores:
    def test_descending_default(self):
        ranks = rank_from_scores([0.1, 0.9, 0.5])
        np.testing.assert_array_equal(ranks, [3, 1, 2])

    def test_ascending(self):
        ranks = rank_from_scores([0.1, 0.9, 0.5], descending=False)
        np.testing.assert_array_equal(ranks, [1, 3, 2])

    def test_ties_break_by_index(self):
        ranks = rank_from_scores([1.0, 1.0, 0.0])
        np.testing.assert_array_equal(ranks, [1, 2, 3])

    def test_is_permutation(self):
        ranks = rank_from_scores(np.random.default_rng(0).normal(size=20))
        assert sorted(ranks) == list(range(1, 21))


class TestWeightedMean:
    def test_uniform_weights(self):
        assert weighted_mean([1, 2, 3], [1, 1, 1]) == 2.0

    def test_weighting(self):
        assert weighted_mean([0, 10], [3, 1]) == 2.5

    def test_zero_total_raises(self):
        with pytest.raises(ValidationError, match="positive"):
            weighted_mean([1, 2], [0, 0])

    def test_negative_weight_raises(self):
        with pytest.raises(ValidationError, match="non-negative"):
            weighted_mean([1, 2], [2, -1])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="align"):
            weighted_mean([1, 2, 3], [1, 1])


def numpy_scalar_loop(n, *, rho, sigma, rng):
    """The recurrence as first written: a loop over numpy scalars."""
    innovations = rng.normal(0.0, sigma * np.sqrt(1 - rho**2), n)
    log_noise = np.empty(n)
    log_noise[0] = rng.normal(0.0, sigma)
    for t in range(1, n):
        log_noise[t] = rho * log_noise[t - 1] + innovations[t]
    return np.exp(log_noise)


class TestAR1LognormalNoise:
    def test_matches_reference_loop_bit_for_bit(self):
        """The shared helper must reproduce the original inline loops.

        Telemetry and throughput series generated before the helper
        existed pinned this exact draw order (innovations vector first,
        then the initial stationary normal); golden corpora depend on it.
        """
        rho, sigma, n = 0.55, 0.3, 128
        rng = np.random.default_rng(42)
        innovations = rng.normal(0.0, sigma * np.sqrt(1 - rho**2), n)
        log_noise = np.empty(n)
        log_noise[0] = rng.normal(0.0, sigma)
        for t in range(1, n):
            log_noise[t] = rho * log_noise[t - 1] + innovations[t]
        expected = np.exp(log_noise)
        actual = ar1_lognormal_noise(
            n, rho=rho, sigma=sigma, rng=np.random.default_rng(42)
        )
        np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("n", [1, 2, 360])
    @pytest.mark.parametrize("rho", [0.55, 0.3, 0.0, np.float32(0.55)])
    def test_sweep_matches_numpy_scalar_loop(self, rho, n):
        """0.55 and 0.3 are the telemetry and throughput values; 360 is
        an hour sampled every 10 s; a float32 ``rho`` must not round
        the Python-float products to float32."""
        for seed in range(25):
            expected = numpy_scalar_loop(
                n, rho=rho, sigma=0.3, rng=np.random.default_rng(seed)
            )
            actual = ar1_lognormal_noise(
                n, rho=rho, sigma=0.3, rng=np.random.default_rng(seed)
            )
            assert actual.tobytes() == expected.tobytes()

    @given(
        n=st.integers(1, 400),
        rho=st.floats(0.0, 1.0, exclude_max=True),
        sigma=st.floats(1e-6, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_cases_match_numpy_scalar_loop(self, n, rho, sigma, seed):
        expected = numpy_scalar_loop(
            n, rho=rho, sigma=sigma, rng=np.random.default_rng(seed)
        )
        actual = ar1_lognormal_noise(
            n, rho=rho, sigma=sigma, rng=np.random.default_rng(seed)
        )
        assert actual.tobytes() == expected.tobytes()

    def test_stationary_scale(self):
        rng = np.random.default_rng(0)
        noise = ar1_lognormal_noise(100_000, rho=0.3, sigma=0.45, rng=rng)
        assert np.std(np.log(noise)) == pytest.approx(0.45, rel=0.02)

    def test_positive(self):
        noise = ar1_lognormal_noise(
            500, rho=0.9, sigma=1.0, rng=np.random.default_rng(1)
        )
        assert (noise > 0).all()

    def test_single_sample(self):
        noise = ar1_lognormal_noise(
            1, rho=0.5, sigma=0.2, rng=np.random.default_rng(2)
        )
        assert noise.shape == (1,)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="n_samples"):
            ar1_lognormal_noise(0, rho=0.5, sigma=0.1, rng=rng)
        with pytest.raises(ValidationError, match="rho"):
            ar1_lognormal_noise(5, rho=1.0, sigma=0.1, rng=rng)
        with pytest.raises(ValidationError, match="rho"):
            ar1_lognormal_noise(5, rho=-0.1, sigma=0.1, rng=rng)
