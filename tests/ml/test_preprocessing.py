import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.ml import MinMaxScaler, StandardScaler


class TestMinMaxScaler:
    def test_maps_to_unit_interval(self, rng):
        X = rng.normal(10, 5, size=(50, 3))
        scaled = MinMaxScaler().fit_transform(X)
        assert scaled.min() == pytest.approx(0.0)
        assert scaled.max() == pytest.approx(1.0)
        assert np.all(scaled >= 0) and np.all(scaled <= 1)

    def test_custom_range(self, rng):
        X = rng.normal(size=(20, 2))
        scaled = MinMaxScaler(feature_range=(-1, 1)).fit_transform(X)
        assert scaled.min() == pytest.approx(-1.0)
        assert scaled.max() == pytest.approx(1.0)

    def test_constant_feature_maps_to_lower_bound(self):
        X = np.column_stack([np.full(5, 3.0), np.arange(5, dtype=float)])
        scaled = MinMaxScaler().fit_transform(X)
        np.testing.assert_allclose(scaled[:, 0], 0.0)

    def test_inverse_round_trip(self, rng):
        X = rng.normal(size=(30, 4))
        scaler = MinMaxScaler().fit(X)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(X)), X, atol=1e-12
        )

    def test_inverse_restores_constant_feature(self):
        X = np.column_stack([np.full(5, 3.0), np.arange(5, dtype=float)])
        scaler = MinMaxScaler().fit(X)
        restored = scaler.inverse_transform(scaler.transform(X))
        np.testing.assert_allclose(restored, X)

    def test_invalid_range(self):
        with pytest.raises(ValidationError, match="increasing"):
            MinMaxScaler(feature_range=(1, 0)).fit(np.ones((3, 1)))

    def test_feature_count_mismatch(self):
        scaler = MinMaxScaler().fit(np.ones((3, 2)))
        with pytest.raises(ValidationError, match="features"):
            scaler.transform(np.ones((3, 5)))

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            MinMaxScaler().transform(np.ones((2, 2)))


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        X = rng.normal(5, 3, size=(100, 3))
        scaled = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(scaled.mean(axis=0), 0, atol=1e-10)
        np.testing.assert_allclose(scaled.std(axis=0), 1, atol=1e-10)

    def test_constant_feature_no_nan(self):
        X = np.column_stack([np.full(5, 2.0), np.arange(5, dtype=float)])
        scaled = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(scaled))
        np.testing.assert_allclose(scaled[:, 0], 0.0)

    def test_tiny_feature_standardized(self):
        # Squared deviations of ~1e-160 underflow into subnormals; the
        # spread must still be measured to full precision.
        X = np.array([[6.03136919e-160], [0.0], [0.0], [0.0]])
        scaled = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-12)

    def test_subnormal_spread_treated_as_constant(self):
        X = np.array([[1e-320], [0.0], [0.0], [0.0]])
        scaler = StandardScaler().fit(X)
        np.testing.assert_array_equal(scaler.scale_, [1.0])
        assert np.all(np.abs(scaler.transform(X)) < 1e-300)

    def test_spread_matches_numpy_on_ordinary_data(self, rng):
        X = rng.normal(5, 3, size=(100, 3)) * np.array([1e-3, 1.0, 1e6])
        np.testing.assert_array_equal(StandardScaler().fit(X).scale_, X.std(axis=0))

    def test_without_mean(self, rng):
        X = rng.normal(5, 1, size=(50, 2))
        scaled = StandardScaler(with_mean=False).fit_transform(X)
        assert scaled.mean() > 1.0  # mean retained

    def test_without_std(self, rng):
        X = rng.normal(0, 5, size=(50, 2))
        scaled = StandardScaler(with_std=False).fit_transform(X)
        assert scaled.std() > 2.0  # scale retained

    def test_inverse_round_trip(self, rng):
        X = rng.normal(size=(40, 3))
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(X)), X, atol=1e-12
        )
