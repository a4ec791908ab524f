"""Property-based tests (hypothesis) for similarity invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.similarity.dtw import dtw_distance, multivariate_dtw
from repro.similarity.lcss import lcss_distance, multivariate_lcss
from repro.similarity.norms import NORMS
from repro.similarity.robustness import distance_distortion

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
positive = st.floats(min_value=0.0, max_value=100, allow_nan=False)


@st.composite
def matrix_pairs(draw, min_rows=1, max_rows=8, min_cols=1, max_cols=4):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    A = draw(arrays(np.float64, (rows, cols), elements=finite))
    B = draw(arrays(np.float64, (rows, cols), elements=finite))
    return A, B


@st.composite
def matrix_triples(draw, max_rows=8, max_cols=4):
    shape = (draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols)))
    return tuple(
        draw(arrays(np.float64, shape, elements=finite)) for _ in range(3)
    )


class TestNormAxioms:
    @given(matrix_pairs())
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_identity_all_norms(self, pair):
        A, B = pair
        for name, norm in NORMS.items():
            assert norm(A, A) == pytest.approx(0.0, abs=1e-9), name
            assert norm(A, B) == pytest.approx(norm(B, A), rel=1e-9), name
            assert norm(A, B) >= 0.0, name

    @given(matrix_pairs(), matrix_pairs())
    @settings(max_examples=30, deadline=None)
    def test_l11_triangle_inequality(self, pair_a, pair_b):
        # Verify on compatible shapes only.
        A, B = pair_a
        C, _ = pair_b
        if C.shape != A.shape:
            return
        l11 = NORMS["L1,1"]
        assert l11(A, C) <= l11(A, B) + l11(B, C) + 1e-9

    @pytest.mark.parametrize("name", ["L2,1", "Fro"])
    @given(triple=matrix_triples())
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, name, triple):
        A, B, C = triple
        norm = NORMS[name]
        assert norm(A, C) <= norm(A, B) + norm(B, C) + 1e-9

    @pytest.mark.parametrize("name", ["L2,1", "L1,1", "Fro"])
    @given(pair=matrix_pairs())
    @settings(max_examples=40, deadline=None)
    def test_reverse_triangle_inequality(self, name, pair):
        # Each distance is a norm of the difference, so the distances to
        # zero of two matrices differ by at most their distance.
        A, B = pair
        norm = NORMS[name]
        zero = np.zeros_like(A)
        assert abs(norm(A, zero) - norm(B, zero)) <= norm(A, B) + 1e-9

    @given(
        arrays(np.float64, (4, 3), elements=finite),
        arrays(np.float64, (4, 3), elements=finite),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_homogeneity_of_linear_norms(self, A, B, factor):
        for name in ("L1,1", "L2,1", "Fro"):
            norm = NORMS[name]
            assert norm(A * factor, B * factor) == pytest.approx(
                factor * norm(A, B), rel=1e-6, abs=1e-6
            ), name


class TestElasticMeasures:
    @given(
        arrays(np.float64, st.integers(2, 12), elements=finite),
        arrays(np.float64, st.integers(2, 12), elements=finite),
    )
    @settings(max_examples=40, deadline=None)
    def test_dtw_symmetric_nonnegative(self, a, b):
        d = dtw_distance(a, b)
        assert d >= 0.0
        assert d == pytest.approx(dtw_distance(b, a), rel=1e-9, abs=1e-9)

    @given(arrays(np.float64, st.integers(2, 12), elements=finite))
    @settings(max_examples=40, deadline=None)
    def test_dtw_identity(self, a):
        assert dtw_distance(a, a) == 0.0

    @given(
        arrays(np.float64, st.integers(2, 10), elements=finite),
        arrays(np.float64, st.integers(2, 10), elements=finite),
    )
    @settings(max_examples=40, deadline=None)
    def test_dtw_below_euclidean_when_equal_length(self, a, b):
        if a.size != b.size:
            return
        assert dtw_distance(a, b) <= np.linalg.norm(a - b) + 1e-9

    @given(
        arrays(np.float64, st.integers(2, 10), elements=finite),
        arrays(np.float64, st.integers(2, 10), elements=finite),
        st.floats(0.01, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_lcss_in_unit_interval(self, a, b, epsilon):
        value = lcss_distance(a, b, epsilon=epsilon)
        assert 0.0 <= value <= 1.0

    @given(
        arrays(np.float64, st.integers(2, 10), elements=finite),
        st.floats(0.01, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_lcss_self_distance_zero(self, a, epsilon):
        assert lcss_distance(a, a, epsilon=epsilon) == 0.0

    @given(
        arrays(np.float64, (6, 2), elements=finite),
        arrays(np.float64, (8, 2), elements=finite),
    )
    @settings(max_examples=30, deadline=None)
    def test_multivariate_strategies_bounded(self, A, B):
        dep = multivariate_lcss(A, B, strategy="dependent", epsilon=1.0)
        ind = multivariate_lcss(A, B, strategy="independent", epsilon=1.0)
        assert 0.0 <= dep <= 1.0
        assert 0.0 <= ind <= 1.0
        # Dependent matching is stricter: never more matches than the
        # per-dimension average allows.
        assert dep >= ind - 1e-9
        dep_dtw = multivariate_dtw(A, B, strategy="dependent")
        assert dep_dtw >= 0.0


class TestDistortion:
    @given(arrays(np.float64, (5, 5), elements=positive))
    @settings(max_examples=40, deadline=None)
    def test_zero_for_identical_structure(self, D):
        D = (D + D.T) / 2
        np.fill_diagonal(D, 0.0)
        assert distance_distortion(D, D) == pytest.approx(0.0, abs=1e-9)

    @given(arrays(np.float64, (5, 5), elements=positive), st.floats(0.5, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_invariant_to_uniform_scaling(self, D, factor):
        D = (D + D.T) / 2
        np.fill_diagonal(D, 0.0)
        assert distance_distortion(D, D * factor) == pytest.approx(
            0.0, abs=1e-6
        )
