"""Exactness of the normalized cross block.

``normalized_cross_block`` must equal the target-by-reference block of
``normalized_distances(distance_matrix(...))`` with ``np.array_equal``
— not within a tolerance — on every input: the triangle bound only
decides which pairs are computed, never a value or the peak.  Where
an input has no bound (other measures, mixed shapes, a zero or NaN
peak) every pair is computed.
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
from repro.similarity.distcache import DistanceCache
from repro.similarity.evaluation import (
    distance_matrix,
    normalized_cross_block,
    normalized_distances,
    representation_matrices,
)
from repro.similarity.measures import get_measure
from repro.similarity.representations import RepresentationBuilder
from repro.workloads.repository import ExperimentRepository

NORM_MEASURES = ("L2,1", "L1,1", "Fro")


def tight_triangle(measure, scale, seed=0, max_trials=20000):
    """One-row matrices ``p``, ``b`` and ``t`` whose computed distances
    satisfy ``d(0, p) + d(p, b) < d(0, t) < d(0, b)``.

    Found by a seeded search on the running platform, so the
    inequalities hold whatever order its BLAS sums the Frobenius dot
    product in.  Entries are of order ``scale``.  ``p`` lies on the
    segment from 0 to ``b`` (on the line, for Frobenius), and ``t`` is
    ``b`` with its last entry lowered by bisection.
    """
    rng = np.random.default_rng(seed)
    zero = np.zeros((1, 6))
    for _ in range(max_trials):
        b = rng.uniform(0.5, 2.0, (1, 6)) * scale
        p = b * rng.uniform(0.1, 0.9, 1 if measure.name == "Fro" else (1, 6))
        bound = measure(zero, p) + measure(p, b)
        peak = measure(zero, b)
        t, low, high = b.copy(), 0.0, b[0, -1]
        for _ in range(80):
            t[0, -1] = (low + high) / 2
            d_t = measure(zero, t)
            if bound < d_t < peak:
                return p, b, t
            if d_t >= peak:
                high = t[0, -1]
            else:
                low = t[0, -1]
    raise AssertionError("no tight triangle found")


def full_block(matrices, n_references, measure):
    """The block as the full path computes it."""
    D = normalized_distances(distance_matrix(matrices, measure))
    return D[n_references:, :n_references]


def assert_full_block(block, matrices, labels, measure):
    expected = full_block(matrices, len(labels), measure)
    assert block.flags.c_contiguous
    assert np.array_equal(block, expected, equal_nan=True)


def assert_exact(matrices, labels, measure):
    block = normalized_cross_block(matrices, labels, measure)
    assert_full_block(block, matrices, labels, measure)
    return block


def n_pairs(matrices):
    return len(matrices) * (len(matrices) - 1) // 2


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def counted(registry, name):
    return int(registry.counter(name).value) if name in registry else 0


@pytest.fixture()
def engine_calls(monkeypatch):
    """The pair lists of every ``_pair_distances`` call, in order."""
    calls = []
    original = evaluation._pair_distances

    def recording(matrices, pairs, *args, **kwargs):
        calls.append([tuple(pair) for pair in pairs.tolist()])
        return original(matrices, pairs, *args, **kwargs)

    monkeypatch.setattr(evaluation, "_pair_distances", recording)
    return calls


@st.composite
def grouped_corpora(draw):
    """Reference groups and a target of one shape, with labels.

    Members scatter around a group center by a drawn spread, at a drawn
    magnitude: from subnormal squares to squares that overflow.  The
    references come in a drawn order, so a group's runs need not be
    contiguous and its first run (its pivot) can be anywhere.
    """
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    n_targets = draw(st.integers(1, 3))
    spread = draw(st.sampled_from([0.0, 1e-9, 0.1, 1.0]))
    magnitude = draw(st.sampled_from([1e-160, 1.0, 1e150, 1e200]))
    groups = []
    for size in [*sizes, n_targets]:
        center = draw(arrays(np.float64, shape, elements=st.floats(-10, 10)))
        groups.append(
            [
                (center + spread * draw(
                    arrays(np.float64, shape, elements=st.floats(-1, 1))
                )) * magnitude
                for _ in range(size)
            ]
        )
    references = [
        (f"w{g}", M) for g, members in enumerate(groups[:-1]) for M in members
    ]
    order = draw(st.permutations(range(len(references))))
    references = [references[k] for k in order]
    matrices = [M for _, M in references] + groups[-1]
    return matrices, [label for label, _ in references]


class TestExactness:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", NORM_MEASURES)
    @given(corpus=grouped_corpora())
    @settings(max_examples=60, deadline=None)
    def test_random_grouped_corpora(self, name, corpus):
        matrices, labels = corpus
        assert_exact(matrices, labels, get_measure(name))

    @pytest.mark.parametrize("name", NORM_MEASURES)
    def test_peak_in_a_reference_pair_is_found_by_the_second_call(
        self, name, metrics, engine_calls
    ):
        # Two reference workloads spread apart along a line, the target
        # between them: the farthest pair is the last run of each
        # reference, and neither is a pivot.
        a = [np.full((3, 2), -1.0 - 0.1 * k) for k in range(4)]
        b = [np.full((3, 2), 1.0 + 0.1 * k) for k in range(4)]
        target = [np.full((3, 2), 0.05 * k) for k in range(3)]
        matrices = a + b + target
        labels = ["a"] * 4 + ["b"] * 4
        measure = get_measure(name)
        block = normalized_cross_block(matrices, labels, measure)
        first, second = engine_calls
        assert (3, 7) not in first
        assert (3, 7) in second
        computed = counted(metrics, "similarity.pairs_computed")
        pruned = counted(metrics, "similarity.pairs_pruned_total")
        assert computed == len(first) + len(second)
        assert pruned > 0
        assert computed + pruned == n_pairs(matrices)
        assert_full_block(block, matrices, labels, measure)

    @pytest.mark.parametrize("scale", [1.0, 2.0**-530])
    @pytest.mark.parametrize("name", NORM_MEASURES)
    def test_slack_covers_a_triangle_that_rounding_breaks(
        self, name, scale, engine_calls
    ):
        # References P (the pivot), A = 0 and B, and a target T near B:
        # in floats d(A, P) + d(P, B) is below d(A, T), the peak of the
        # first call, which is below d(A, B), so only the slack sends the
        # true peak (A, B) to the second call.  At 2**-530 the squares
        # are subnormal and keep about 14 bits: only the absolute term
        # of the slack covers that.
        measure = get_measure(name)
        p, b, t = tight_triangle(measure, scale)
        matrices = [p, np.zeros_like(b), b, t]
        block = normalized_cross_block(matrices, ["r"] * 3, measure)
        assert engine_calls[1] == [(1, 2)]
        assert_full_block(block, matrices, ["r"] * 3, measure)

    def test_first_call_is_the_cross_block_and_the_pivot_pairs(
        self, engine_calls
    ):
        rng = np.random.default_rng(0)
        matrices = [rng.random((2, 3)) for _ in range(9)]
        labels = ["x", "y", "x", "z", "y", "z"]
        normalized_cross_block(matrices, labels, get_measure("L2,1"))
        pivots = {0, 1, 3, 6}
        expected = [
            (i, j)
            for i in range(9)
            for j in range(i + 1, 9)
            if (i < 6 <= j) or i in pivots or j in pivots
        ]
        assert engine_calls[0] == expected

    @pytest.mark.parametrize("name", ["Chi2", "Canb", "Corr"])
    def test_other_norms_compute_every_pair(self, name, hist, metrics):
        matrices, labels = hist
        measure = get_measure(name)
        block = normalized_cross_block(matrices, labels, measure)
        assert counted(metrics, "similarity.pairs_computed") == n_pairs(
            matrices
        )
        assert counted(metrics, "similarity.pairs_pruned_total") == 0
        assert_full_block(block, matrices, labels, measure)

    def test_mixed_mts_lengths_compute_every_pair(self, mts, metrics):
        matrices, labels = mts
        matrices = [M[: len(M) - k % 3] for k, M in enumerate(matrices)]
        assert len({M.shape for M in matrices}) > 1
        measure = get_measure("L2,1")
        block = normalized_cross_block(matrices, labels, measure)
        assert counted(metrics, "similarity.pairs_computed") == n_pairs(
            matrices
        )
        assert counted(metrics, "similarity.pairs_pruned_total") == 0
        assert_full_block(block, matrices, labels, measure)

    @pytest.mark.parametrize("name", NORM_MEASURES)
    def test_identical_matrices_have_peak_zero(self, name):
        matrices = [np.ones((4, 3)) for _ in range(7)]
        block = assert_exact(matrices, ["a", "a", "b", "b", "b"],
                             get_measure(name))
        assert not block.any()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("position", [0, 1, 6, 7])
    def test_nan_entry_leaves_the_block_raw(self, position):
        # nan > 0 is false, so the full path returns the raw distances;
        # the NaN may sit in a pivot (0, 6) or elsewhere (1, 7).
        rng = np.random.default_rng(3)
        matrices = [rng.random((3, 3)) for _ in range(8)]
        matrices[position] = matrices[position].copy()
        matrices[position][1, 2] = np.nan
        measure = get_measure("L2,1")
        block = assert_exact(matrices, ["a"] * 3 + ["b"] * 3, measure)
        raw = distance_matrix(matrices, measure)[6:, :6]
        assert np.array_equal(block, raw, equal_nan=True)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", NORM_MEASURES)
    def test_nan_peak_from_a_pair_the_cross_block_reads_as_inf(self, name):
        # Two references with +inf in one entry: their distance is
        # inf - inf = NaN, the full path's peak, while every pair the
        # first call computes is finite or inf.
        rng = np.random.default_rng(4)
        matrices = [rng.random((3, 3)) for _ in range(8)]
        for position in (1, 4):
            matrices[position][0, 0] = np.inf
        measure = get_measure(name)
        block = assert_exact(matrices, ["a"] * 3 + ["b"] * 3, measure)
        raw = distance_matrix(matrices, measure)[6:, :6]
        assert np.array_equal(block, raw)


class TestEngine:
    def test_jobs_two_equals_serial(self, hist, metrics):
        matrices, labels = hist
        measure = get_measure("L2,1")
        serial = normalized_cross_block(matrices, labels, measure)
        serial_pairs = counted(metrics, "similarity.pairs_computed")
        parallel = normalized_cross_block(matrices, labels, measure, jobs=2)
        assert np.array_equal(serial, parallel)
        assert counted(metrics, "similarity.pairs_computed") == 2 * serial_pairs

    def test_warm_cache_computes_nothing(self, hist, tmp_path):
        # L2,1 and L1,1 skip the cache; Fro still reads it.
        matrices, labels = hist
        measure = get_measure("Fro")
        uncached = normalized_cross_block(matrices, labels, measure)
        cold = normalized_cross_block(
            matrices, labels, measure, cache=DistanceCache(tmp_path)
        )
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            warm = normalized_cross_block(
                matrices, labels, measure, cache=DistanceCache(tmp_path)
            )
        finally:
            set_metrics(previous)
        assert np.array_equal(cold, uncached)
        assert np.array_equal(warm, cold)
        assert counted(registry, "similarity.pairs_computed") == 0
        assert counted(registry, "distance_cache.misses_total") == 0
        assert counted(registry, "distance_cache.hits_total") > 0

    def test_computed_and_pruned_pairs_cover_the_matrix(self, hist, metrics):
        matrices, labels = hist
        measure = get_measure("L2,1")
        block = normalized_cross_block(matrices, labels, measure)
        computed = counted(metrics, "similarity.pairs_computed")
        pruned = counted(metrics, "similarity.pairs_pruned_total")
        assert computed + pruned == n_pairs(matrices)
        assert pruned > 0
        assert_full_block(block, matrices, labels, measure)

    @pytest.mark.parametrize("n_references", [0, 4])
    def test_needs_references_and_a_target(self, n_references):
        matrices = [np.eye(2) for _ in range(4)]
        with pytest.raises(ValidationError, match="references and target"):
            normalized_cross_block(
                matrices, ["a"] * n_references, get_measure("L2,1")
            )


@pytest.fixture(scope="module")
def hist(small_corpus):
    """Hist-FP of two reference workloads' runs and a third as target."""
    return _representation(small_corpus, "hist")


@pytest.fixture(scope="module")
def mts(small_corpus):
    return _representation(small_corpus, "mts")


def _representation(corpus, representation):
    runs = corpus.filter(lambda r: r.subsample_index < 3)
    references = [r for r in runs if r.workload_name in ("tpcc", "tpch")]
    target = [r for r in runs if r.workload_name == "ycsb"][:4]
    ordered = ExperimentRepository(references + target)
    builder = RepresentationBuilder().fit(ordered)
    matrices = representation_matrices(ordered, builder, representation)
    return matrices, [r.workload_name for r in references]
