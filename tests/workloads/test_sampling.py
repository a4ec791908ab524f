import functools
import zlib

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.workloads import SKU, ExperimentRunner, workload_by_name
from repro.workloads.catalog import WORKLOAD_NAMES
from repro.workloads.sampling import (
    PER_TXN_WINDOW_SIGMA,
    WORKLOAD_WINDOW_SIGMA,
    augmented_throughputs,
    random_downsample,
    systematic_subexperiments,
)


class TestSystematicSubexperiments:
    def test_count_and_indices(self, tpcc_run):
        subs = systematic_subexperiments(tpcc_run, n_subexperiments=10)
        assert len(subs) == 10
        assert [s.subsample_index for s in subs] == list(range(10))

    def test_resource_samples_partitioned(self, tpcc_run):
        subs = systematic_subexperiments(tpcc_run, n_subexperiments=10)
        total = sum(s.n_samples for s in subs)
        assert total == tpcc_run.n_samples
        reassembled = np.concatenate(
            [s.resource_series[:, 0] for s in subs]
        )
        assert sorted(reassembled) == sorted(tpcc_run.resource_series[:, 0])

    def test_each_subexperiment_sees_every_query_once(self, tpcc_run):
        subs = systematic_subexperiments(tpcc_run)
        for sub in subs:
            assert sorted(sub.plan_txn_names) == sorted(
                set(tpcc_run.plan_txn_names)
            )
            assert sub.plan_matrix.shape[0] == 5

    def test_throughput_near_parent(self, tpcc_run):
        subs = systematic_subexperiments(tpcc_run)
        for sub in subs:
            assert sub.throughput == pytest.approx(tpcc_run.throughput, rel=0.3)

    def test_subexperiments_differ(self, tpcc_run):
        subs = systematic_subexperiments(tpcc_run)
        throughputs = {round(s.throughput, 6) for s in subs}
        assert len(throughputs) > 1

    def test_deterministic(self, tpcc_run):
        a = systematic_subexperiments(tpcc_run)
        b = systematic_subexperiments(tpcc_run)
        for sub_a, sub_b in zip(a, b):
            assert sub_a.latency_ms == sub_b.latency_ms
            assert sub_a.per_txn_latency_ms == sub_b.per_txn_latency_ms

    def test_per_txn_latency_noisier_than_workload(self, tpcc_run):
        """The Figure 1 asymmetry: per-type estimates vary more."""
        subs = systematic_subexperiments(tpcc_run)
        workload_cv = np.std([s.latency_ms for s in subs]) / np.mean(
            [s.latency_ms for s in subs]
        )
        name = tpcc_run.plan_txn_names[0]
        txn_cv = np.std(
            [s.per_txn_latency_ms[name] for s in subs]
        ) / np.mean([s.per_txn_latency_ms[name] for s in subs])
        assert txn_cv > workload_cv

    def test_too_many_subexperiments(self, tpcc_run):
        with pytest.raises(ValidationError):
            systematic_subexperiments(tpcc_run, n_subexperiments=10**6)

    def test_invalid_count(self, tpcc_run):
        with pytest.raises(ValidationError):
            systematic_subexperiments(tpcc_run, n_subexperiments=0)


@functools.lru_cache(maxsize=None)
def short_run(name: str, seed: int):
    """One ten-minute run of a catalog workload (60 samples)."""
    runner = ExperimentRunner(workload_by_name(name), random_state=seed)
    return runner.run(
        SKU(cpus=4, memory_gb=16.0), terminals=4, duration_s=600.0
    )


def window_noise_one_draw_at_a_time(result, n_subexperiments):
    """The reference: one ``normal`` draw, ``np.exp`` and ``float`` per
    value, as each window's noise was drawn before it was batched."""
    noise = []
    for offset in range(n_subexperiments):
        seed = zlib.crc32(f"{result.experiment_id}#{offset}".encode())
        window_rng = np.random.default_rng(seed)
        latency_ms = result.latency_ms * float(
            np.exp(window_rng.normal(0.0, WORKLOAD_WINDOW_SIGMA))
        )
        per_txn = {
            name: value
            * float(np.exp(window_rng.normal(0.0, PER_TXN_WINDOW_SIGMA)))
            for name, value in result.per_txn_latency_ms.items()
        }
        noise.append((latency_ms, per_txn))
    return noise


class TestWindowNoise:
    @pytest.mark.parametrize("n_subexperiments", [1, 3, 10])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_equals_one_draw_at_a_time(self, name, seed, n_subexperiments):
        result = short_run(name, seed)
        subs = systematic_subexperiments(
            result, n_subexperiments=n_subexperiments
        )
        expected = window_noise_one_draw_at_a_time(result, n_subexperiments)
        assert len(subs) == len(expected)
        for sub, (latency_ms, per_txn) in zip(subs, expected):
            assert repr(sub.latency_ms) == repr(latency_ms)
            assert list(sub.per_txn_latency_ms) == list(per_txn)
            assert [repr(v) for v in sub.per_txn_latency_ms.values()] == [
                repr(v) for v in per_txn.values()
            ]


class TestRandomDownsample:
    def test_series_count_and_size(self, tpcc_run):
        series = random_downsample(
            tpcc_run, n_series=10, fraction=0.1, random_state=0
        )
        assert len(series) == 10
        assert all(s.size == 36 for s in series)

    def test_values_come_from_parent(self, tpcc_run):
        series = random_downsample(tpcc_run, random_state=0)
        parent = set(tpcc_run.throughput_series.tolist())
        for s in series:
            assert set(s.tolist()) <= parent

    def test_without_replacement(self, tpcc_run):
        series = random_downsample(
            tpcc_run, n_series=1, fraction=0.5, random_state=0
        )[0]
        assert len(series) == len(set(series.tolist()))

    def test_invalid_fraction(self, tpcc_run):
        with pytest.raises(ValidationError):
            random_downsample(tpcc_run, fraction=0.0)

    def test_full_fraction_is_whole_series(self, tpcc_run):
        series = random_downsample(
            tpcc_run, n_series=1, fraction=1.0, random_state=0
        )[0]
        assert series.size == tpcc_run.throughput_series.size


class TestAugmentedThroughputs:
    def test_thirty_points_from_three_runs(self, tpcc_run):
        values = augmented_throughputs(tpcc_run, n_series=10, random_state=0)
        assert values.shape == (10,)

    def test_centered_on_run_throughput(self, tpcc_run):
        values = augmented_throughputs(tpcc_run, random_state=0)
        assert values.mean() == pytest.approx(tpcc_run.throughput, rel=0.15)

    def test_observations_spread(self, tpcc_run):
        values = augmented_throughputs(tpcc_run, random_state=0)
        assert values.std() / values.mean() > 0.01

    def test_seed_controls_augmentation(self, tpcc_run):
        a = augmented_throughputs(tpcc_run, random_state=1)
        b = augmented_throughputs(tpcc_run, random_state=1)
        np.testing.assert_array_equal(a, b)
        c = augmented_throughputs(tpcc_run, random_state=2)
        assert not np.array_equal(a, c)
