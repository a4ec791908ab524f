"""Pool-unavailable fallback: identical behavior across every engine.

When no ``ProcessPoolExecutor`` can be created at all (fork limits,
sandboxed CI, exhausted file descriptors), every parallel engine must
fall back to serial execution with one increment of
``<label>.pool_fallback_total`` and produce results bit-identical to a
serial run.  Historically gridexec and fitexec disagreed on both points;
all engines now route through :mod:`repro.exec.engine`, and this file
injects the fault against each public entry point to keep them aligned.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.fitexec import run_units
from repro.ml.forest import RandomForestRegressor
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.similarity.evaluation import distance_matrix
from repro.similarity.measures import get_measure
from repro.workloads import SKU, enumerate_grid, execute_grid, workload_by_name


class _NoPool:
    """Stands in for ``ProcessPoolExecutor``; construction always fails."""

    def __init__(self, *args, **kwargs):
        raise OSError("fork refused by test")


@pytest.fixture
def no_pool(monkeypatch):
    monkeypatch.setattr(
        "repro.exec.engine.ProcessPoolExecutor", _NoPool
    )


@pytest.fixture
def fresh_metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _fallbacks(registry, label):
    return registry.counter(f"{label}.pool_fallback_total").value


def _square(unit):
    return unit * unit


class TestGridexecFallback:
    def test_serial_fallback_with_metric(self, no_pool, fresh_metrics):
        tasks = enumerate_grid(
            [workload_by_name("tpcc")],
            [SKU(cpus=4, memory_gb=32.0)],
            terminals_for=lambda w: (2,),
            n_runs=2,
            duration_s=120.0,
            sample_interval_s=10.0,
            random_state=3,
        )
        baseline = execute_grid(tasks)
        results = execute_grid(tasks, jobs=2)
        assert _fallbacks(fresh_metrics, "gridexec") == 1
        assert results.report.n_quarantined == 0
        for a, b in zip(baseline, results):
            assert np.array_equal(a.throughput_series, b.throughput_series)


class TestFitexecFallback:
    def test_serial_fallback_with_metric(self, no_pool, fresh_metrics):
        units = list(range(6))
        results = run_units(_square, units, jobs=2)
        assert results == [u * u for u in units]
        assert _fallbacks(fresh_metrics, "ml.fitexec") == 1


class TestSimilarityFallback:
    def test_serial_fallback_with_metric(self, no_pool, fresh_metrics):
        rng = np.random.default_rng(5)
        matrices = [rng.normal(size=(12, 3)) for _ in range(8)]
        # L2,1 and L1,1 run in process; Fro still asks for a pool.
        measure = get_measure("Fro")
        baseline = distance_matrix(matrices, measure)
        D = distance_matrix(matrices, measure, jobs=2)
        assert _fallbacks(fresh_metrics, "similarity") == 1
        np.testing.assert_array_equal(D, baseline)


class TestForestFallback:
    def test_serial_fallback_with_metric(self, no_pool, fresh_metrics):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        serial = RandomForestRegressor(
            n_estimators=8, random_state=7, jobs=1
        ).fit(X, y)
        fallen = RandomForestRegressor(
            n_estimators=8, random_state=7, jobs=2
        ).fit(X, y)
        assert _fallbacks(fresh_metrics, "ml.forest") == 1
        np.testing.assert_array_equal(
            serial.predict(X), fallen.predict(X)
        )
