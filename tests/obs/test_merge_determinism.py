"""The worker-telemetry merge contract: serial == jobs=N telemetry.

Every parallel engine captures worker-side metrics and spans and merges
them back in submission order, so after stripping the explicitly
volatile content (worker-count gauge/attrs, histogram timings — see
:mod:`repro.obs.telemetry`) the telemetry of a run is identical at any
worker count.  These tests enforce that per executor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.fitexec import run_units
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.telemetry import comparable_snapshot, tree_shape
from repro.obs.tracing import Tracer, set_tracer
from repro.similarity.evaluation import distance_matrix
from repro.similarity.measures import get_measure
from repro.workloads import SKU, run_experiments, workload_by_name

JOBS = [None, 1, 4]


class _Observed:
    """Run a callable under a fresh registry + enabled tracer."""

    def __call__(self, fn):
        registry, tracer = MetricsRegistry(), Tracer(enabled=True)
        previous_registry = set_metrics(registry)
        previous_tracer = set_tracer(tracer)
        try:
            result = fn()
        finally:
            set_metrics(previous_registry)
            set_tracer(previous_tracer)
        return (
            result,
            comparable_snapshot(registry.snapshot()),
            tree_shape(tracer.to_tree()),
        )


@pytest.fixture
def observed():
    return _Observed()


def _square(unit):
    from repro.obs.metrics import get_metrics
    from repro.obs.tracing import span

    with span("test.square", attrs={"unit": unit}):
        get_metrics().counter("test.squares_total").inc()
    return unit * unit


class TestGridExecutor:
    def test_metrics_and_spans_match_across_jobs(self, observed):
        def build(jobs):
            return run_experiments(
                [workload_by_name("tpcc")],
                [SKU(cpus=4, memory_gb=32.0)],
                terminals_for=lambda w: (2,),
                n_runs=2,
                duration_s=120.0,
                random_state=5,
                jobs=jobs,
            )

        outcomes = [observed(lambda j=jobs: build(j)) for jobs in JOBS]
        _, baseline_metrics, baseline_shape = outcomes[0]
        assert baseline_metrics["runner.experiments_total"]["value"] == 2.0
        for _, metrics, shape in outcomes[1:]:
            assert metrics == baseline_metrics
            assert shape == baseline_shape


class TestDistanceMatrix:
    def test_metrics_and_spans_match_across_jobs(self, observed):
        rng = np.random.default_rng(11)
        matrices = [rng.normal(size=(20, 4)) for _ in range(8)]
        # L2,1 and L1,1 run in process; Fro still goes through the pool.
        measure = get_measure("Fro")

        outcomes = [
            observed(
                lambda j=jobs: distance_matrix(matrices, measure, jobs=j)
            )
            for jobs in JOBS
        ]
        D0, baseline_metrics, baseline_shape = outcomes[0]
        assert baseline_metrics["similarity.pairs_computed"]["value"] == 28.0
        # The per-pair histogram survives as a deterministic count.
        assert baseline_metrics["similarity.pair_seconds"]["count"] == 28
        names = {node["name"] for node in baseline_shape[0]["children"]}
        assert "similarity.pair_chunk" in names
        for D, metrics, shape in outcomes[1:]:
            np.testing.assert_array_equal(D, D0)
            assert metrics == baseline_metrics
            assert shape == baseline_shape


class TestFitExecutor:
    def test_worker_metrics_and_spans_survive_the_pool(self, observed):
        units = list(range(6))
        outcomes = [
            observed(lambda j=jobs: run_units(_square, units, jobs=j))
            for jobs in JOBS
        ]
        results0, baseline_metrics, baseline_shape = outcomes[0]
        assert results0 == [u * u for u in units]
        # Counters incremented inside workers come back via snapshots.
        assert baseline_metrics["test.squares_total"]["value"] == 6.0
        unit_spans = [
            node
            for node in baseline_shape[0]["children"]
            if node["name"] == "ml.fitexec.unit"
        ]
        assert [node["attrs"]["unit"] for node in unit_spans] == units
        assert [
            child["name"]
            for node in unit_spans
            for child in node["children"]
        ] == ["test.square"] * 6
        for results, metrics, shape in outcomes[1:]:
            assert results == results0
            assert metrics == baseline_metrics
            assert shape == baseline_shape


class TestForest:
    def test_batches_and_telemetry_independent_of_workers(self, observed):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 5))
        y = rng.normal(size=50)

        def fit(jobs):
            model = RandomForestRegressor(
                n_estimators=8, random_state=7, jobs=jobs
            ).fit(X, y)
            return model.predict(X[:10])

        outcomes = [observed(lambda j=jobs: fit(j)) for jobs in JOBS]
        preds0, baseline_metrics, baseline_shape = outcomes[0]
        assert baseline_metrics["ml.trees_fit_total"]["value"] == 8.0
        batches = [
            node
            for node in baseline_shape[0]["children"]
            if node["name"] == "ml.fit_tree_batch"
        ]
        # Batch layout is a pure function of n_estimators (8 -> 8
        # batches under FOREST_BATCH_TARGET=16), never of jobs.
        assert [node["attrs"]["batch"] for node in batches] == list(range(8))
        for preds, metrics, shape in outcomes[1:]:
            np.testing.assert_array_equal(preds, preds0)
            assert metrics == baseline_metrics
            assert shape == baseline_shape
