"""The DTW lower bounds the pruned nearest-group search relies on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
