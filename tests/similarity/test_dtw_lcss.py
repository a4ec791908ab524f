import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ValidationError
from repro.similarity.dtw import (
    _dependent_cost,
    batch_dependent_costs,
    dtw_distance,
    lb_keogh,
    multivariate_dtw,
)
from repro.similarity.lcss import (
    _lcss_length,
    lcss_distance,
    multivariate_lcss,
)


class TestUnivariateDTW:
    def test_identical_series_zero(self):
        a = np.array([1.0, 2.0, 3.0])
        assert dtw_distance(a, a) == 0.0

    def test_bounded_by_euclidean_for_equal_lengths(self, rng):
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        assert dtw_distance(a, b) <= np.linalg.norm(a - b) + 1e-12

    def test_warps_shifted_series(self):
        a = np.array([0.0, 0, 1, 2, 1, 0, 0])
        b = np.array([0.0, 1, 2, 1, 0, 0, 0])  # same shape, shifted
        assert dtw_distance(a, b) < np.linalg.norm(a - b)

    def test_symmetry(self, rng):
        a = rng.normal(size=12)
        b = rng.normal(size=15)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    def test_hand_computed_example(self):
        # a=[0, 1], b=[0, 1, 1]: perfect alignment exists.
        assert dtw_distance([0.0, 1.0], [0.0, 1.0, 1.0]) == 0.0

    def test_window_constraint_tightens(self, rng):
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        unconstrained = dtw_distance(a, b)
        constrained = dtw_distance(a, b, window=2)
        assert constrained >= unconstrained - 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            dtw_distance([], [1.0])


class TestMultivariateDTW:
    def test_dependent_equals_univariate_for_one_dim(self, rng):
        a = rng.normal(size=10)
        b = rng.normal(size=12)
        assert multivariate_dtw(
            a[:, None], b[:, None], strategy="dependent"
        ) == pytest.approx(dtw_distance(a, b))

    def test_independent_sums_dimensions(self, rng):
        A = rng.normal(size=(10, 3))
        B = rng.normal(size=(12, 3))
        expected = sum(
            dtw_distance(A[:, k], B[:, k]) for k in range(3)
        )
        assert multivariate_dtw(A, B, strategy="independent") == (
            pytest.approx(expected)
        )

    def test_strategies_differ_on_correlated_dims(self, rng):
        A = rng.normal(size=(15, 2))
        B = rng.normal(size=(15, 2))
        dep = multivariate_dtw(A, B, strategy="dependent")
        ind = multivariate_dtw(A, B, strategy="independent")
        assert dep != pytest.approx(ind)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            multivariate_dtw(rng.normal(size=(5, 2)), rng.normal(size=(5, 3)))

    def test_unknown_strategy(self, rng):
        with pytest.raises(ValidationError):
            multivariate_dtw(
                rng.normal(size=(5, 2)),
                rng.normal(size=(5, 2)),
                strategy="both",
            )

    def test_dependent_cost_keeps_close_samples_apart(self):
        # One sample differs by 1e-8 next to a coordinate of 1: the
        # expanded |a|^2 + |b|^2 - 2 a.b form rounded this cost to 0,
        # below the LB_Keogh bound the pruned search relies on.
        A = np.zeros((8, 2))
        B = np.zeros((8, 2))
        A[-1] = [1e-8, 1.0]
        B[-1] = [0.0, 1.0]
        exact = multivariate_dtw(A, B, strategy="dependent", window=0)
        assert exact == pytest.approx(1e-8, rel=1e-12)
        assert lb_keogh(A, B, window=0) <= exact

    def test_batch_costs_bit_identical_to_pairs(self, rng):
        # Nine features: more than numpy's eight-way unrolled sum, so an
        # axis reduction could add them in another order than a pair.
        stack_a = rng.normal(size=(5, 7, 9)) * 1e3
        stack_b = stack_a + rng.normal(size=(5, 7, 9)) * 1e-6
        costs = batch_dependent_costs(stack_a, stack_b)
        for p in range(len(stack_a)):
            single = _dependent_cost(stack_a[p], stack_b[p])
            assert costs[p].tobytes() == single.tobytes()


class TestLCSS:
    def test_identical_zero_distance(self):
        a = np.array([1.0, 2.0, 3.0])
        assert lcss_distance(a, a, epsilon=0.01) == 0.0

    def test_disjoint_max_distance(self):
        a = np.zeros(5)
        b = np.full(5, 100.0)
        assert lcss_distance(a, b, epsilon=0.1) == 1.0

    def test_subsequence_detected(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([9.0, 1.0, 9.0, 2.0, 9.0, 3.0, 9.0, 4.0])
        assert lcss_distance(a, b, epsilon=0.01) == 0.0

    def test_epsilon_widens_matches(self):
        a = np.arange(10, dtype=float)  # spacing 1.0 rules out cross matches
        b = a + 0.05
        assert lcss_distance(a, b, epsilon=0.1) == 0.0
        assert lcss_distance(a, b, epsilon=0.01) == 1.0

    def test_distance_in_unit_interval(self, rng):
        a = rng.normal(size=10)
        b = rng.normal(size=14)
        assert 0.0 <= lcss_distance(a, b, epsilon=0.2) <= 1.0

    def test_delta_window_restricts(self):
        a = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        assert lcss_distance(a, b, epsilon=0.01, delta=1) > lcss_distance(
            a, b, epsilon=0.01
        ) - 1e-12

    def test_multivariate_dependent_requires_all_dims(self, rng):
        A = np.column_stack([np.zeros(6), np.zeros(6)])
        B = np.column_stack([np.zeros(6), np.full(6, 5.0)])
        # Dimension 2 never matches, so no dependent matches exist.
        assert multivariate_lcss(A, B, strategy="dependent", epsilon=0.1) == 1.0
        # Independent averaging still credits dimension 1.
        assert multivariate_lcss(
            A, B, strategy="independent", epsilon=0.1
        ) == pytest.approx(0.5)

    def test_multivariate_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            multivariate_lcss(
                rng.normal(size=(5, 2)), rng.normal(size=(5, 3))
            )

    def test_negative_epsilon_rejected(self, rng):
        with pytest.raises(ValidationError):
            lcss_distance(rng.normal(size=5), rng.normal(size=5), epsilon=-1)

    def test_univariate_wrapper_rejects_matrices(self, rng):
        with pytest.raises(ValidationError):
            lcss_distance(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))


def antidiagonal_lcss_length(A, B, epsilon, delta):
    """The reference LCSS program: the table filled one anti-diagonal at a
    time from ``table[i - 1, j - 1] + 1`` on a match and
    ``max(table[i - 1, j], table[i, j - 1])`` otherwise."""
    m, n = A.shape[0], B.shape[0]
    matches = np.all(np.abs(A[:, None, :] - B[None, :, :]) <= epsilon, axis=2)
    if delta is not None:
        window = np.abs(np.arange(m)[:, None] - np.arange(n)[None, :])
        matches &= window <= delta
    table = np.zeros((m + 1, n + 1), dtype=int)
    for diagonal in range(2, m + n + 1):
        i = np.arange(max(1, diagonal - n), min(m, diagonal - 1) + 1)
        j = diagonal - i
        table[i, j] = np.where(
            matches[i - 1, j - 1],
            table[i - 1, j - 1] + 1,
            np.maximum(table[i - 1, j], table[i, j - 1]),
        )
    return int(table[m, n])


@st.composite
def lcss_cases(draw):
    """Two series of 1-39 samples in 1-3 dimensions, with samples from a
    coarse grid so matches are common, NaN samples, and a ``delta``
    window that may be narrower or wider than either series."""
    dims = draw(st.integers(1, 3))
    samples = st.one_of(
        st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 1.0]), st.just(np.nan)
    )
    A, B = (
        draw(
            arrays(
                np.float64, (draw(st.integers(1, 39)), dims), elements=samples
            )
        )
        for _ in range(2)
    )
    epsilon = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.0]))
    delta = draw(st.one_of(st.none(), st.integers(0, 45)))
    return A, B, epsilon, delta


class TestLCSSProgram:
    @given(case=lcss_cases())
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_antidiagonals(self, case):
        A, B, epsilon, delta = case
        assert _lcss_length(A, B, epsilon, delta) == antidiagonal_lcss_length(
            A, B, epsilon, delta
        )
