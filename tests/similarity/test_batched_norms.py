"""Exactness of the stacked norm forms and the array-native pair engine.

Every stacked form in ``BATCHED_NORMS`` must equal its scalar function
on each slice with ``==`` — not within a tolerance — because the
distance kernels swap one for the other based on the input alone.  The
kernels must then equal a per-pair loop at any worker count, with and
without a distance cache, and inputs the stacked path cannot reproduce
exactly (mixed shapes, other layouts) must take the per-pair path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.similarity import evaluation
from repro.similarity.distcache import DistanceCache, matrix_digest
from repro.similarity.evaluation import (
    distance_matrix,
    multi_query_cross_distances,
    normalized_cross_block,
)
from repro.similarity.measures import get_measure
from repro.similarity.norms import BATCHED_NORMS, NORMS

#: Norm names with a stacked form.
STACKED = [name for name, scalar in NORMS.items() if scalar in BATCHED_NORMS]
JOBS = (1, 2)

# Magnitudes from subnormal to ~1e200: squares of the largest overflow
# to inf, which both paths must agree on as well.
wide = st.floats(min_value=-1e200, max_value=1e200, allow_nan=False)


@st.composite
def stack_pairs(draw):
    """Two ``(P, r, c)`` stacks: random, identical, all-zero, or
    one-magnitude pairs, over shapes that include single rows and single
    columns.  Entries of one magnitude let the order of the additions
    show in the last bits; across a wide range one square dominates
    each sum and hides it."""
    rows, cols = draw(
        st.one_of(
            # A single column is summed pairwise from 8 rows on.
            st.tuples(st.integers(1, 7), st.just(1)),
            st.tuples(st.integers(8, 12), st.just(1)),
            st.tuples(st.just(1), st.integers(1, 12)),
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
        )
    )
    kind = draw(
        st.sampled_from(["random", "identical", "zero", "one-magnitude"])
    )
    if kind == "one-magnitude":
        # Many pairs per stack: each is a fresh chance for a reduction
        # in another order to round differently.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        shape = (64, rows, cols)
        return rng.normal(size=shape), rng.normal(size=shape)
    shape = (draw(st.integers(1, 5)), rows, cols)
    if kind == "zero":
        return np.zeros(shape), np.zeros(shape)
    A = draw(arrays(np.float64, shape, elements=wide))
    if kind == "identical":
        return A, A.copy()
    return A, draw(arrays(np.float64, shape, elements=wide))


def per_slice(name, A, B):
    return [NORMS[name](a, b) for a, b in zip(A, B)]


class TestStackedForms:
    def test_l21_and_l11_have_stacked_forms(self):
        assert {"L2,1", "L1,1"} <= set(STACKED)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", STACKED)
    @given(pair=stack_pairs())
    @settings(max_examples=150, deadline=None)
    def test_each_slice_equals_scalar(self, name, pair):
        A, B = pair
        batched = BATCHED_NORMS[NORMS[name]](A, B)
        assert batched.shape == (len(A),)
        assert batched.tolist() == per_slice(name, A, B)

    @pytest.mark.parametrize("name", STACKED)
    @pytest.mark.parametrize(
        "shape",
        [(200, 1), (1, 300), (9, 9), (64, 64), (130, 7), (7, 130),
         (3, 9000), (9000, 3)],
    )
    def test_large_slices_equal_scalar(self, name, shape):
        # Past numpy's 8-way unrolled and 128-element pairwise-summation
        # blocks, and past its 8192-element buffer.
        rng = np.random.default_rng(sum(shape))
        scale = 10.0 ** rng.uniform(-100, 100, size=(3, *shape))
        A = rng.normal(size=(3, *shape)) * scale
        B = rng.normal(size=(3, *shape)) * scale
        batched = BATCHED_NORMS[NORMS[name]](A, B)
        assert batched.tolist() == per_slice(name, A, B)

    @pytest.mark.parametrize("name", STACKED)
    @pytest.mark.parametrize("n_pairs", [1, 64])
    @pytest.mark.parametrize(
        "shape", [(8, 1), (9, 1), (10, 1), (11, 1), (12, 1), (10, 7), (1, 7)]
    )
    def test_both_reduction_layouts_equal_scalar(self, name, n_pairs, shape):
        # The scalar sums a single column of 8 or more rows pairwise, so
        # L2,1 keeps its pair-major reduction there; other shapes add rows
        # experiment-minor.  A stack of one pair takes the same layouts.
        # Entries of one magnitude let the order of the additions show in
        # the last bits, where a wide dynamic range would hide it.
        rng = np.random.default_rng(100 * n_pairs + sum(shape))
        A = rng.normal(size=(n_pairs, *shape))
        B = rng.normal(size=(n_pairs, *shape))
        batched = BATCHED_NORMS[NORMS[name]](A, B)
        assert batched.tolist() == per_slice(name, A, B)

    @pytest.mark.parametrize("name", STACKED)
    def test_same_validation_errors_as_scalar(self, name):
        scalar, batched = NORMS[name], BATCHED_NORMS[NORMS[name]]
        for fn, a, b in (
            (scalar, np.ones((2, 2)), np.ones((3, 2))),
            (batched, np.ones((4, 2, 2)), np.ones((4, 3, 2))),
        ):
            with pytest.raises(ValidationError, match="must share a shape"):
                fn(a, b)
        for fn, a in (
            (scalar, np.ones((0, 3))),
            (batched, np.ones((4, 0, 3))),
            (batched, np.ones((0, 2, 3))),
        ):
            with pytest.raises(ValidationError, match="must not be empty"):
                fn(a, a)
        with pytest.raises(ValidationError, match="pairs, rows, columns"):
            batched(np.ones((2, 3)), np.ones((2, 3)))


def per_pair(A, B, measure):
    """The reference: one scalar call per pair, truncated to the common
    prefix as the engine aligns unequal norm-measure pairs."""
    rows = min(len(A), len(B))
    return measure(A[:rows], B[:rows])


@pytest.fixture()
def stacked_calls(monkeypatch):
    """Count calls of every stacked form in this process."""
    calls = []

    def spy(batched):
        def wrapper(A, B):
            calls.append(len(A))
            return batched(A, B)

        return wrapper

    monkeypatch.setattr(
        evaluation,
        "BATCHED_NORMS",
        {scalar: spy(batched) for scalar, batched in BATCHED_NORMS.items()},
    )
    return calls


def corpus(seed, n, *, mixed):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(int(rng.integers(5, 9)) if mixed else 6, 3))
        for _ in range(n)
    ]


class TestKernelsEqualPerPair:
    @pytest.fixture(params=[False, True], ids=["no-cache", "cache"])
    def cache(self, request, tmp_path):
        return DistanceCache(tmp_path / "dist") if request.param else None

    @pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
    @pytest.mark.parametrize("jobs", JOBS)
    @pytest.mark.parametrize("name", STACKED)
    def test_distance_matrix(self, name, jobs, mixed, cache):
        measure = get_measure(name)
        matrices = corpus(1, 9, mixed=mixed)
        expected = np.zeros((9, 9))
        for i in range(9):
            for j in range(i + 1, 9):
                expected[i, j] = expected[j, i] = per_pair(
                    matrices[i], matrices[j], measure
                )
        for _ in range(2):  # cold, then (with a cache) all hits
            D = distance_matrix(matrices, measure, jobs=jobs, cache=cache)
            assert np.array_equal(D, expected)

    @pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
    @pytest.mark.parametrize("jobs", JOBS)
    @pytest.mark.parametrize("name", STACKED)
    def test_cross_and_multi_query(self, name, jobs, mixed, cache):
        measure = get_measure(name)
        cols = corpus(2, 7, mixed=mixed)
        queries = [corpus(3 + q, q + 1, mixed=mixed) for q in range(3)]
        expected = [
            np.array([[per_pair(A, B, measure) for B in cols] for A in query])
            for query in queries
        ]
        for _ in range(2):
            blocks = multi_query_cross_distances(
                queries, cols, measure, jobs=jobs, cache=cache
            )
            for block, want in zip(blocks, expected):
                assert np.array_equal(block, want)

    @pytest.mark.parametrize("jobs", JOBS)
    @pytest.mark.parametrize("name", STACKED)
    def test_pair_lists_span_several_slices(self, name, jobs, stacked_calls):
        # 32 x 32 matrices fill a slice with 16 pairs: the 78 pairs of
        # 13 matrices take five slices, the last one part full, and the
        # 5 x 9 cross block three.
        measure = get_measure(name)
        per_slice = evaluation.NORM_SLICE_BYTES // (32 * 32 * 8)
        assert per_slice == 16
        rng = np.random.default_rng(21)
        matrices = [
            rng.normal(size=(32, 32)) * 10.0 ** rng.uniform(-3, 3)
            for _ in range(13)
        ]
        expected = np.zeros((13, 13))
        for i in range(13):
            for j in range(i + 1, 13):
                expected[i, j] = expected[j, i] = per_pair(
                    matrices[i], matrices[j], measure
                )
        D = distance_matrix(matrices, measure, jobs=jobs)
        assert np.array_equal(D, expected)
        assert stacked_calls == [16, 16, 16, 16, 14]

        cols = matrices[:9]
        queries = [matrices[9:11], matrices[11:13], matrices[4:5]]
        want = [
            np.array([[per_pair(A, B, measure) for B in cols] for A in query])
            for query in queries
        ]
        stacked_calls.clear()
        blocks = multi_query_cross_distances(queries, cols, measure, jobs=jobs)
        assert stacked_calls == [16, 16, 13]
        for block, wanted in zip(blocks, want):
            assert np.array_equal(block, wanted)


class TestPathChoice:
    @pytest.mark.parametrize("name", STACKED)
    def test_equal_shapes_take_the_stacked_path(self, name, stacked_calls):
        distance_matrix(corpus(1, 9, mixed=False), get_measure(name))
        assert sum(stacked_calls) == 9 * 8 // 2

    @pytest.mark.parametrize("name", STACKED)
    def test_mixed_shapes_take_the_per_pair_path(self, name, stacked_calls):
        # Every matrix a different length, so no chunk is uniform.
        measure = get_measure(name)
        rng = np.random.default_rng(1)
        matrices = [rng.normal(size=(5 + k, 3)) for k in range(9)]
        D = distance_matrix(matrices, measure)
        assert stacked_calls == []
        # Truncated to the common prefix, pair by pair.
        rows = min(len(matrices[0]), len(matrices[1]))
        assert D[0, 1] == measure(matrices[0][:rows], matrices[1][:rows])

    @pytest.mark.parametrize("name", STACKED)
    def test_other_layouts_take_the_per_pair_path(self, name, stacked_calls):
        # Fortran order changes the order numpy reduces in; the stacked
        # form would not be bit-identical, so it must not be used.
        measure = get_measure(name)
        matrices = [np.asfortranarray(M) for M in corpus(4, 6, mixed=False)]
        D = distance_matrix(matrices, measure)
        assert stacked_calls == []
        assert D[0, 1] == measure(matrices[0], matrices[1])

    @pytest.mark.parametrize("name", STACKED)
    def test_stacked_norms_start_no_pool_task_and_skip_the_cache(
        self, name, tmp_path, monkeypatch
    ):
        tasks = []
        run_tasks = evaluation.run_tasks

        def recording(batch, **kwargs):
            tasks.extend(batch)
            return run_tasks(batch, **kwargs)

        monkeypatch.setattr(evaluation, "run_tasks", recording)
        measure = get_measure(name)
        matrices = corpus(1, 9, mixed=False)
        rows, cols = matrices[:3], matrices[3:]
        cache = tmp_path / "dist"
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            distance_matrix(matrices, measure, jobs=2, cache=str(cache))
            multi_query_cross_distances(
                [rows[:2], rows[2:]], cols, measure, jobs=2,
                cache=str(cache), col_digests=[matrix_digest(M) for M in cols],
            )
            normalized_cross_block(
                matrices, ["a"] * 4 + ["b"] * 4, measure, jobs=2,
                cache=str(cache),
            )
        finally:
            set_metrics(previous)
        assert tasks == []
        journal = cache / "distances.jsonl"
        assert not journal.exists() or journal.read_text() == ""
        assert not [n for n in registry.snapshot()
                    if n.startswith("distance_cache.")]
        assert registry.counter("similarity.pairs_computed").value > 0

    def test_measures_without_stacked_form_stay_per_pair(self, stacked_calls):
        matrices = corpus(1, 5, mixed=False)
        for name in ("Fro", "Canb", "Chi2", "Corr", "Dependent-DTW"):
            distance_matrix(matrices, get_measure(name))
        assert stacked_calls == []
