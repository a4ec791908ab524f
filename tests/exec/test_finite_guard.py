"""One non-finite rejection discipline across all three result caches.

Every cache — corpus, distance, fit — must refuse non-finite values on
**both** sides: a ``put`` never persists them, and a doctored or
bit-rotted on-disk entry carrying NaN/Inf surfaces as a corrupt-counted
miss on load, never as poisoned data.  The three caches historically
guarded different subsets of those four paths; this file pins all of
them.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.exceptions import RepositoryError
from repro.ml.fitexec import FitCache
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.similarity.distcache import DistanceCache
from repro.workloads import (
    SKU,
    CorpusCache,
    enumerate_grid,
    execute_grid,
    workload_by_name,
)


@pytest.fixture
def fresh_metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


class TestCorpusCache:
    @pytest.fixture
    def warm_cache(self, tmp_path):
        tasks = enumerate_grid(
            [workload_by_name("tpcc")],
            [SKU(cpus=4, memory_gb=32.0)],
            terminals_for=lambda w: (2,),
            n_runs=1,
            duration_s=120.0,
            sample_interval_s=10.0,
            random_state=23,
        )
        cache = CorpusCache(tmp_path)
        execute_grid(tasks, cache=cache)
        return cache, cache.task_key(tasks[0])

    def test_put_rejects_non_finite(self, warm_cache):
        cache, key = warm_cache
        result = cache.get(key)
        doctored = dataclasses.replace(
            result,
            throughput_series=np.full_like(
                result.throughput_series, np.nan
            ),
        )
        with pytest.raises(RepositoryError):
            cache.put("f" * 64, doctored)
        assert "f" * 64 not in cache

    def test_doctored_entry_is_a_corrupt_counted_miss(
        self, warm_cache, fresh_metrics
    ):
        cache, key = warm_cache
        npz_path, _ = cache.entry_paths(key)
        with np.load(npz_path, allow_pickle=False) as archive:
            arrays = {name: archive[name].copy() for name in archive.files}
        arrays["throughput_series"][0] = np.nan  # the bit rot
        with npz_path.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        assert cache.get(key) is None
        assert fresh_metrics.counter(
            "corpus_cache.corrupt_total"
        ).value == 1
        assert fresh_metrics.counter(
            "corpus_cache.misses_total"
        ).value == 1
        # verify() flags the same entry.
        outcome = cache.verify()
        assert outcome.corrupt == (key,)


class TestDistanceCache:
    @pytest.mark.parametrize(
        "bad",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            True,  # booleans are not distances
            "1.0",  # neither are strings
            [1.0],  # nor lists, which the fit cache keeps
        ],
    )
    def test_put_never_persists_non_finite(self, tmp_path, bad):
        cache = DistanceCache(tmp_path)
        cache.put("a" * 64, bad)
        assert len(cache) == 0
        assert not cache.path.exists()

    def test_doctored_line_is_a_corrupt_counted_miss(
        self, tmp_path, fresh_metrics
    ):
        cache = DistanceCache(tmp_path)
        cache.put("a" * 64, 1.5)
        # json.dumps spells non-finite floats NaN/Infinity, which the
        # stdlib loader happily round-trips — the guard must be
        # numeric, not rely on a parse failure.
        with cache.path.open("a") as handle:
            handle.write(
                json.dumps({"key": "b" * 64, "value": float("nan")}) + "\n"
            )
            handle.write(
                json.dumps({"key": "c" * 64, "value": float("inf")}) + "\n"
            )
        reloaded = DistanceCache(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.get("b" * 64) is None
        assert reloaded.get("c" * 64) is None
        assert reloaded.get("a" * 64) == 1.5
        assert fresh_metrics.counter(
            "distance_cache.corrupt_total"
        ).value == 2


class TestFitCache:
    @pytest.mark.parametrize(
        "bad",
        [
            float("nan"),
            [1.0, float("inf")],
            {"scores": [0.5, float("-inf")]},
            True,  # booleans are not scores
            "0.5",  # neither are strings
        ],
    )
    def test_put_never_persists_non_finite(self, tmp_path, bad):
        cache = FitCache(tmp_path)
        cache.put("a" * 64, bad)
        assert len(cache) == 0
        assert not cache.path.exists()

    def test_doctored_line_is_a_corrupt_counted_miss(
        self, tmp_path, fresh_metrics
    ):
        cache = FitCache(tmp_path)
        cache.put("a" * 64, {"scores": [0.25, 0.75]})
        with cache.path.open("a") as handle:
            handle.write(
                json.dumps(
                    {"key": "b" * 64, "value": [1.0, float("nan")]}
                )
                + "\n"
            )
        reloaded = FitCache(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.get("b" * 64) is None
        assert reloaded.get("a" * 64) == {"scores": [0.25, 0.75]}
        assert fresh_metrics.counter(
            "fit_cache.corrupt_total"
        ).value == 1

    def test_finite_values_round_trip_exactly(self, tmp_path):
        cache = FitCache(tmp_path)
        value = {"scores": [0.1 + 0.2, 1e-300], "n": 3}
        cache.put("a" * 64, value)
        assert FitCache(tmp_path).get("a" * 64) == value
        assert all(
            math.isfinite(v) for v in FitCache(tmp_path).get("a" * 64)[
                "scores"
            ]
        )
