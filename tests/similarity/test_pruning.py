"""The DTW lower bounds ``repro.similarity`` exports, against DTW."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ValidationError
from repro.similarity.dtw import lb_keogh, lb_kim, multivariate_dtw

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def series_pairs(draw, min_len=2, max_len=12, cols=2):
    m = draw(st.integers(min_len, max_len))
    n = draw(st.integers(min_len, max_len))
    A = draw(arrays(np.float64, (m, cols), elements=finite))
    B = draw(arrays(np.float64, (n, cols), elements=finite))
    return A, B


class TestLowerBounds:
    @given(series_pairs())
    @settings(max_examples=60, deadline=None)
    def test_lb_kim_below_dependent_dtw(self, pair):
        A, B = pair
        exact = multivariate_dtw(A, B, strategy="dependent")
        assert lb_kim(A, B) <= exact + 1e-9

    @given(series_pairs())
    @settings(max_examples=60, deadline=None)
    def test_lb_keogh_below_dependent_dtw(self, pair):
        A, B = pair
        exact = multivariate_dtw(A, B, strategy="dependent")
        assert lb_keogh(A, B) <= exact + 1e-9

    @given(series_pairs(), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_lb_keogh_windowed_below_windowed_dtw(self, pair, window):
        A, B = pair
        exact = multivariate_dtw(A, B, strategy="dependent", window=window)
        assert lb_keogh(A, B, window=window) <= exact + 1e-9

    @given(series_pairs())
    @settings(max_examples=60, deadline=None)
    def test_unbanded_lb_keogh_is_the_global_envelope_form(self, pair):
        # Without a band any sample of A may align with any sample of B,
        # so the envelope is B's per-dimension minimum and maximum.
        A, B = pair
        lower, upper = B.min(axis=0), B.max(axis=0)
        exceed = np.maximum(0.0, np.maximum(A - upper, lower - A))
        assert lb_keogh(A, B) == float(np.sqrt(np.sum(exceed**2)))

    @pytest.mark.parametrize("bound", [lb_kim, lb_keogh])
    def test_dimension_mismatch_rejected(self, bound):
        with pytest.raises(ValidationError):
            bound(np.zeros((4, 2)), np.zeros((4, 3)))
