"""Analysis-path benchmarks: parallel distances, cache, ensembles.

Not a paper figure — this bench guards the fast analysis path layered on
top of the corpus machinery (see ``docs/performance.md``):

- the parallel pairwise-distance engine must return the bit-identical
  matrix at any worker count, and beat serial when real cores exist;
- a warm distance cache must recompute zero pairs;
- parallel random-forest fits must reproduce the serial trees exactly.

Timings and speedups are written to ``BENCH_analysis.json`` (path
overridable via ``REPRO_BENCH_OUT``) so the scheduled CI job can archive
them as an artifact.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import print_header, scaling_record
from repro.ml import RandomForestRegressor
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.similarity import (
    DistanceCache,
    RepresentationBuilder,
    distance_matrix,
)
from repro.similarity.evaluation import representation_matrices
from repro.similarity.measures import get_measure

pytestmark = pytest.mark.slow

#: Pairwise work is quadratic; a 30-experiment slice (435 DTW programs)
#: keeps serial baselines tractable while still dominating pool overhead.
N_MATRICES = 30

RESULTS: dict[str, dict] = {}


def bench_out() -> str:
    return os.environ.get("REPRO_BENCH_OUT", "BENCH_analysis.json")


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    if RESULTS:
        with open(bench_out(), "w") as handle:
            json.dump(RESULTS, handle, indent=2, sort_keys=True)
        print(f"\nwrote {bench_out()}")


@pytest.fixture(scope="module")
def analysis_matrices(table4_corpus):
    corpus = list(table4_corpus)[:N_MATRICES]
    builder = RepresentationBuilder().fit(table4_corpus)
    matrices = representation_matrices(
        type(table4_corpus)(corpus), builder, "mts"
    )
    labels = [r.workload_name for r in corpus]
    return matrices, labels


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_parallel_distance_engine(analysis_matrices):
    """jobs=4 matches serial bit-for-bit; faster when cores exist."""
    matrices, _ = analysis_matrices
    measure = get_measure("Dependent-DTW")
    serial, serial_s = timed(lambda: distance_matrix(matrices, measure))
    parallel, parallel_s = timed(
        lambda: distance_matrix(matrices, measure, jobs=4)
    )
    record = scaling_record(serial_s, parallel_s, jobs=4)
    cores = record["cpu_count"]

    print_header("Analysis path: parallel pairwise distances (Dep-DTW)")
    n = len(matrices)
    print(f"pairs     : {n * (n - 1) // 2}")
    print(f"serial    : {serial_s:7.2f}s")
    if "speedup" in record:
        print(f"4 workers : {parallel_s:7.2f}s   "
              f"speedup x{record['speedup']:.2f}   ({cores} cores)")
    else:
        print(f"4 workers : {parallel_s:7.2f}s   "
              f"(insufficient cores for a speedup: {cores})")
    RESULTS["parallel_distance"] = {
        "n_matrices": n,
        "n_pairs": n * (n - 1) // 2,
        "bit_identical": bool(np.array_equal(serial, parallel)),
        **record,
    }
    assert np.array_equal(serial, parallel), (
        "parallel distance matrix diverged from serial"
    )
    if cores >= 4:
        assert record["speedup"] >= 3.0, (
            f"expected >=3x speedup on {cores} cores, "
            f"got x{record['speedup']:.2f}"
        )


def test_distance_cache_cold_vs_warm(analysis_matrices, tmp_path_factory):
    """A warm cache recomputes zero pairs and returns the same matrix."""
    matrices, _ = analysis_matrices
    # L2,1 and L1,1 skip the distance cache; Fro still reads it.
    measure = get_measure("Fro")
    cache_dir = tmp_path_factory.mktemp("distcache")
    previous = set_metrics(MetricsRegistry())
    try:
        cold, cold_s = timed(
            lambda: distance_matrix(
                matrices, measure, cache=DistanceCache(cache_dir)
            )
        )
        set_metrics(registry := MetricsRegistry())
        warm, warm_s = timed(
            lambda: distance_matrix(
                matrices, measure, cache=DistanceCache(cache_dir)
            )
        )
        warm_computed = registry.counter("similarity.pairs_computed").value
        warm_hits = registry.counter("distance_cache.hits_total").value
    finally:
        set_metrics(previous)

    print_header("Analysis path: distance cache cold vs warm (Fro)")
    print(f"cold          : {cold_s:7.3f}s")
    print(f"warm          : {warm_s:7.3f}s")
    print(f"warm computes : {int(warm_computed)} (want 0)")
    print(f"warm hits     : {int(warm_hits)}")
    RESULTS["distance_cache"] = {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_pairs_computed": int(warm_computed),
        "warm_hits": int(warm_hits),
    }
    assert warm_computed == 0, "warm cache recomputed pairs"
    n = len(matrices)
    assert warm_hits == n * (n - 1) // 2
    assert np.array_equal(cold, warm), "cache hit path diverged"


def test_parallel_forest_fit(table4_corpus):
    """Parallel forest fit reproduces the serial model exactly."""
    X = table4_corpus.feature_matrix()
    y = X[:, 0] * 2.0 + X[:, 1]

    def fit(jobs):
        return RandomForestRegressor(
            200, random_state=0, jobs=jobs
        ).fit(X, y)

    serial, serial_s = timed(lambda: fit(None))
    parallel, parallel_s = timed(lambda: fit(4))
    record = scaling_record(serial_s, parallel_s, jobs=4)
    cores = record["cpu_count"]

    print_header("Analysis path: parallel random-forest fit (200 trees)")
    print(f"serial    : {serial_s:7.2f}s")
    if "speedup" in record:
        print(f"4 workers : {parallel_s:7.2f}s   "
              f"speedup x{record['speedup']:.2f}   ({cores} cores)")
    else:
        print(f"4 workers : {parallel_s:7.2f}s   "
              f"(insufficient cores for a speedup: {cores})")
    RESULTS["parallel_forest"] = {"n_trees": 200, **record}
    np.testing.assert_array_equal(
        serial.predict(X), parallel.predict(X)
    )
    np.testing.assert_array_equal(
        serial.feature_importances_, parallel.feature_importances_
    )
