"""Feature scaling transformers.

The similarity representations in the paper normalize every feature to
``[0, 1]`` before histogramming (Section 4.3), and the gradient-based models
standardize features internally; both transformations live here.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.ml.base import BaseEstimator
from repro.utils.validation import check_2d


class MinMaxScaler(BaseEstimator):
    """Scale each feature to a target range (default ``[0, 1]``).

    Constant features are mapped to the lower bound of the range instead of
    producing NaNs, matching the paper's convention of treating zero-variance
    telemetry channels as uninformative rather than invalid.
    """

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0)):
        self.feature_range = feature_range

    def fit(self, X) -> "MinMaxScaler":
        X = check_2d(X, "X")
        low, high = self.feature_range
        if not low < high:
            raise ValidationError(
                f"feature_range must be increasing, got {self.feature_range}"
            )
        self.data_min_ = X.min(axis=0)
        self.data_max_ = X.max(axis=0)
        span = self.data_max_ - self.data_min_
        # Constant features (and spans so small the reciprocal overflows,
        # e.g. subnormal ranges) scale to the lower bound instead of NaN.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            raw_scale = (high - low) / np.where(span > 0, span, 1.0)
        usable = (span > 0) & np.isfinite(raw_scale)
        self.scale_ = np.where(usable, raw_scale, 0.0)
        self.min_ = low - self.data_min_ * self.scale_
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("scale_")
        X = check_2d(X, "X")
        if X.shape[1] != self.scale_.shape[0]:
            raise ValidationError(
                f"X has {X.shape[1]} features, scaler was fitted with "
                f"{self.scale_.shape[0]}"
            )
        return X * self.scale_ + self.min_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X) -> np.ndarray:
        self._check_fitted("scale_")
        X = check_2d(X, "X")
        safe_scale = np.where(self.scale_ != 0, self.scale_, 1.0)
        restored = (X - self.min_) / safe_scale
        constant = self.scale_ == 0
        if np.any(constant):
            restored[:, constant] = self.data_min_[constant]
        return restored


class StandardScaler(BaseEstimator):
    """Standardize features to zero mean and unit variance."""

    def __init__(self, with_mean: bool = True, with_std: bool = True):
        self.with_mean = with_mean
        self.with_std = with_std

    def fit(self, X) -> "StandardScaler":
        X = check_2d(X, "X")
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            # Measure the spread with each column rescaled by a power of two
            # (exact), so squared deviations of tiny columns cannot underflow;
            # ordinary columns get the same bits as ``X.std``.  A spread below
            # the smallest normal float has no precision left and counts as
            # constant, like MinMaxScaler's subnormal ranges.
            _, exponent = np.frexp(np.abs(X).max(axis=0))
            std = np.ldexp(np.ldexp(X, -exponent).std(axis=0), exponent)
            self.scale_ = np.where(std >= np.finfo(float).tiny, std, 1.0)
        else:
            self.scale_ = np.ones(X.shape[1])
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("mean_")
        X = check_2d(X, "X")
        if X.shape[1] != self.mean_.shape[0]:
            raise ValidationError(
                f"X has {X.shape[1]} features, scaler was fitted with "
                f"{self.mean_.shape[0]}"
            )
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X) -> np.ndarray:
        self._check_fitted("mean_")
        X = check_2d(X, "X")
        return X * self.scale_ + self.mean_
