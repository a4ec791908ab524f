"""Exactness of the batched Hist-FP path.

``RepresentationBuilder.fit`` and ``hist_fps`` work on one concatenation
of every experiment's samples per feature: segmented min/max for the
ranges, one ``np.bincount`` over ``(experiment, bin)`` for the
fingerprints.  Both must reproduce the per-experiment computation they
replaced exactly — fingerprints ``tobytes()``-equal to per-segment
``np.histogram`` + ``np.cumsum``, ranges and log floors equal to a
Python min/max loop — because fingerprints are content-addressed by the
distance cache.  The reference lives here, not in the package.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.similarity.evaluation import representation_matrices
from repro.similarity.representations import (
    RepresentationBuilder,
    equi_width_cumulative_histogram,
)
from repro.workloads.features import PLAN_FEATURES, RESOURCE_FEATURES
from repro.workloads.runner import ExperimentResult
from repro.workloads.sku import SKU

#: Two resource columns and two plan columns, so segments are ragged
#: across features of one experiment as well as across experiments.
FEATURES = (
    RESOURCE_FEATURES[0],
    RESOURCE_FEATURES[3],
    PLAN_FEATURES[1],
    PLAN_FEATURES[4],
)


def experiment(index: int, columns: dict[str, np.ndarray]) -> ExperimentResult:
    """An experiment whose ``FEATURES`` samples are ``columns``; other
    features are zero."""
    n = len(columns[RESOURCE_FEATURES[0]])
    m = len(columns[PLAN_FEATURES[1]])
    resource = np.zeros((n, len(RESOURCE_FEATURES)))
    plan = np.zeros((m, len(PLAN_FEATURES)))
    for name, values in columns.items():
        if name in RESOURCE_FEATURES:
            resource[:, RESOURCE_FEATURES.index(name)] = values
        else:
            plan[:, PLAN_FEATURES.index(name)] = values
    return ExperimentResult(
        workload_name="synthetic",
        workload_type="oltp",
        sku=SKU(cpus=2, memory_gb=8.0),
        terminals=1,
        run_index=index,
        data_group=0,
        sample_interval_s=10.0,
        resource_series=resource,
        throughput_series=np.ones(n),
        plan_matrix=plan,
        plan_txn_names=["q"] * m,
        throughput=1.0,
        latency_ms=1.0,
        per_txn_latency_ms={},
        per_txn_weights={},
        bottleneck="cpu",
    )


# -- the reference ----------------------------------------------------------------
def reference_fit(experiments, names):
    """Per-experiment Python min/max: a NaN operand never replaces the
    running value, so an experiment with a NaN sample adds nothing."""
    ranges, floors = {}, {}
    for name in names:
        low, high = np.inf, -np.inf
        for result in experiments:
            samples = result.feature_samples(name)
            low = min(low, float(samples.min()))
            high = max(high, float(samples.max()))
        floor = max(high * 1e-6, 1e-12)
        use_log = low >= 0.0 and (high + floor) / (low + floor) > (
            RepresentationBuilder.LOG_SCALE_RATIO
        )
        floors[name] = floor if use_log else None
        if use_log:
            low = float(np.log1p(low / floor))
            high = float(np.log1p(high / floor))
        ranges[name] = (low, high)
    return ranges, floors


def reference_hist(builder, result, names, cumulative):
    """One ``np.histogram`` per experiment and feature."""
    fingerprint = np.empty((builder.n_bins, len(names)))
    for j, name in enumerate(names):
        normalized = builder._normalize(result.feature_samples(name), name)
        counts, _ = np.histogram(
            np.clip(normalized, 0.0, 1.0), bins=builder.n_bins, range=(0.0, 1.0)
        )
        frequencies = counts / normalized.size
        fingerprint[:, j] = np.cumsum(frequencies) if cumulative else frequencies
    return fingerprint


def reference_cumulative(values, n_bins, low, high):
    counts, _ = np.histogram(
        np.clip(values, low, high), bins=n_bins, range=(low, high)
    )
    return np.cumsum(counts / values.size)


# -- inputs -----------------------------------------------------------------------
k_over_n = st.tuples(st.integers(1, 20), st.integers(0, 20)).map(
    lambda nk: min(nk[1], nk[0]) / nk[0]
)
special = st.one_of(
    st.sampled_from([0.0, 1.0, np.nan]),
    k_over_n,
    st.tuples(k_over_n, st.sampled_from([np.inf, -np.inf])).map(
        lambda pair: float(np.nextafter(*pair))
    ),
)
# Mantissa times a power of ten: spans 1e-4..1e7, so the dynamic-range
# test switches the feature to the log scale.
magnitude = st.tuples(st.floats(1.0, 10.0), st.integers(-4, 6)).map(
    lambda pair: pair[0] * 10.0 ** pair[1]
)


def column(draw, size: int, scale: str) -> np.ndarray:
    """``unit``: edge values in [0, 1]; ``signed``: the same mapped by
    ``2x - 1`` so the range is linear and often exactly ``[-1, 1]``,
    putting normalized values on bin edges; ``wide``: edge values mixed
    with magnitudes."""
    elements = st.one_of(special, magnitude) if scale == "wide" else special
    values = np.array(
        draw(st.lists(elements, min_size=size, max_size=size)), dtype=float
    )
    return 2.0 * values - 1.0 if scale == "signed" else values


@st.composite
def corpora(draw):
    scales = {
        name: draw(st.sampled_from(["unit", "signed", "wide"]))
        for name in FEATURES
    }
    experiments = []
    for index in range(draw(st.integers(1, 4))):
        n, m = draw(st.integers(1, 60)), draw(st.integers(1, 60))
        experiments.append(
            experiment(
                index,
                {
                    name: column(
                        draw, n if name in RESOURCE_FEATURES else m, scale
                    )
                    for name, scale in scales.items()
                },
            )
        )
    return experiments


# -- the suite --------------------------------------------------------------------
class TestAgainstReference:
    # Samples far outside a tiny fitted range (an experiment with NaN
    # does not widen it) overflow the normalizing division, on the
    # reference path as on the batched one.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(experiments=corpora(), n_bins=st.integers(2, 20))
    @settings(max_examples=120, deadline=None)
    def test_fit_and_fingerprints(self, experiments, n_bins):
        builder = RepresentationBuilder(FEATURES, n_bins=n_bins).fit(experiments)
        ranges, floors = reference_fit(experiments, FEATURES)
        assert builder._ranges == ranges
        assert builder._log_floor == floors
        for cumulative in (True, False):
            batched = builder.hist_fps(experiments, cumulative=cumulative)
            assert batched.shape == (len(experiments), n_bins, len(FEATURES))
            for i, result in enumerate(experiments):
                expected = reference_hist(builder, result, FEATURES, cumulative)
                assert batched[i].tobytes() == expected.tobytes()
                single = builder.hist_fp(result, cumulative=cumulative)
                assert single.tobytes() == expected.tobytes()

    @given(
        values=st.lists(st.one_of(special, magnitude), min_size=1, max_size=60),
        n_bins=st.integers(1, 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_helper_on_the_unit_range(self, values, n_bins):
        values = np.array(values)
        assert (
            equi_width_cumulative_histogram(values, n_bins, low=0.0, high=1.0)
            .tobytes()
            == reference_cumulative(values, n_bins, 0.0, 1.0).tobytes()
        )

    @pytest.mark.parametrize("n_bins", range(2, 21))
    def test_every_bin_edge(self, n_bins):
        """Values on and one ulp beside every ``k/n`` edge, for builder
        input on an exact ``[-1, 1]`` linear range and for the helper
        on ``[0, 1]``; the one-step edge corrections decide them."""
        edges = np.array([k / n for n in range(1, 21) for k in range(n + 1)])
        grid = np.concatenate(
            [edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
        )
        assert (
            equi_width_cumulative_histogram(grid, n_bins, low=0.0, high=1.0)
            .tobytes()
            == reference_cumulative(grid, n_bins, 0.0, 1.0).tobytes()
        )
        inside = grid[(grid >= 0.0) & (grid <= 1.0)]
        parts = np.array_split(2.0 * inside - 1.0, 7)
        experiments = [
            experiment(i, {name: part for name in FEATURES})
            for i, part in enumerate(parts)
        ]
        builder = RepresentationBuilder(FEATURES, n_bins=n_bins).fit(experiments)
        assert builder._ranges[FEATURES[0]] == (-1.0, 1.0)
        assert builder._log_floor[FEATURES[0]] is None
        batched = builder.hist_fps(experiments)
        for i, result in enumerate(experiments):
            expected = reference_hist(builder, result, FEATURES, True)
            assert batched[i].tobytes() == expected.tobytes()


class TestSemantics:
    def test_matrices_are_contiguous_float64_slices(self):
        rng = np.random.default_rng(0)
        experiments = [
            experiment(i, {name: rng.random(5 + 7 * i) for name in FEATURES})
            for i in range(4)
        ]
        builder = RepresentationBuilder(FEATURES).fit(experiments)
        matrices = representation_matrices(experiments, builder, "hist")
        assert len(matrices) == 4
        for matrix, result in zip(matrices, experiments):
            assert matrix.shape == (10, len(FEATURES))
            assert matrix.dtype == np.float64
            assert matrix.flags.c_contiguous
            assert matrix.tobytes() == builder.hist_fp(result).tobytes()

    def test_feature_subset_order(self):
        rng = np.random.default_rng(1)
        experiments = [
            experiment(i, {name: rng.random(9 + i) for name in FEATURES})
            for i in range(3)
        ]
        builder = RepresentationBuilder(FEATURES).fit(experiments)
        subset = (FEATURES[2], FEATURES[0])
        batched = builder.hist_fps(experiments, features=subset)
        full = builder.hist_fps(experiments)
        assert batched.tobytes() == np.ascontiguousarray(full[:, :, [2, 0]]).tobytes()

    def test_nan_experiment_adds_nothing_to_the_range(self):
        clean = {name: np.array([1.0, 2.0, 3.0]) for name in FEATURES}
        dirty = {name: np.array([0.5, np.nan, 90.0]) for name in FEATURES}
        builder = RepresentationBuilder(FEATURES).fit(
            [experiment(0, clean), experiment(1, dirty)]
        )
        assert builder._ranges[FEATURES[0]] == (1.0, 3.0)

    def test_nan_samples_stay_in_the_denominator(self):
        columns = {name: np.array([1.0, 2.0, 3.0, 2.0]) for name in FEATURES}
        columns[FEATURES[0]] = np.array([1.0, np.nan, 3.0, 2.0])
        result = experiment(0, columns)
        builder = RepresentationBuilder(FEATURES, n_bins=2).fit(
            [experiment(1, {name: np.array([1.0, 3.0]) for name in FEATURES})]
        )
        fingerprint = builder.hist_fps([result], cumulative=False)[0]
        assert fingerprint[:, 0].tolist() == [0.25, 0.5]

    def test_all_nan_feature(self):
        columns = {name: np.array([1.0, 2.0]) for name in FEATURES}
        columns[FEATURES[1]] = np.array([np.nan, np.nan])
        experiments = [experiment(0, columns), experiment(1, columns)]
        builder = RepresentationBuilder(FEATURES).fit(experiments)
        assert builder._ranges[FEATURES[1]] == (np.inf, -np.inf)
        assert builder._ranges == reference_fit(experiments, FEATURES)[0]

    def test_empty_segment_between_others_is_rejected(self):
        """A zero-length segment must not borrow its neighbour's samples."""
        rng = np.random.default_rng(2)
        full = {name: rng.random(4) for name in FEATURES}
        planless = dict(full)
        planless[PLAN_FEATURES[1]] = np.empty(0)
        planless[PLAN_FEATURES[4]] = np.empty(0)
        experiments = [
            experiment(0, full),
            experiment(1, planless),
            experiment(2, full),
        ]
        builder = RepresentationBuilder(FEATURES).fit([experiments[0]])
        for call in (
            lambda: RepresentationBuilder(FEATURES).fit(experiments),
            lambda: builder.hist_fps(experiments),
            lambda: builder.hist_fps(experiments, cumulative=False),
        ):
            with pytest.raises(ValidationError, match="has no samples") as error:
                call()
            assert experiments[1].experiment_id in str(error.value)
            assert repr(PLAN_FEATURES[1]) in str(error.value)

    def test_no_experiments_rejected(self):
        experiments = [experiment(0, {name: np.ones(3) for name in FEATURES})]
        builder = RepresentationBuilder(FEATURES).fit(experiments)
        with pytest.raises(ValidationError):
            builder.hist_fps([])

    def test_helper_rejects_unusable_ranges(self):
        with pytest.raises(ValidationError, match="not finite"):
            equi_width_cumulative_histogram([1.0, np.inf], 3)
        with pytest.raises(ValidationError, match="not finite"):
            equi_width_cumulative_histogram([1.0, np.nan], 3)
        with pytest.raises(ValidationError, match="finite-sized bins"):
            equi_width_cumulative_histogram(
                [0.0, 5e-324], 4, low=0.0, high=5e-324
            )
