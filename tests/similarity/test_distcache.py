"""The content-addressed pairwise-distance cache."""

import json

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.similarity.distcache import DistanceCache, matrix_digest, pair_key


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


class TestKeys:
    def test_digest_is_content_addressed(self):
        a = np.arange(12.0).reshape(4, 3)
        assert matrix_digest(a) == matrix_digest(a.copy())
        assert matrix_digest(a) == matrix_digest(np.asfortranarray(a))
        assert matrix_digest(a) != matrix_digest(a + 1.0)

    def test_digest_separates_shapes(self):
        a = np.arange(12.0)
        assert matrix_digest(a.reshape(4, 3)) != matrix_digest(
            a.reshape(3, 4)
        )

    def test_digest_is_pinned(self):
        # Existing on-disk caches stay addressable only while this holds.
        assert matrix_digest(np.arange(6.0).reshape(2, 3)) == (
            "4d3cd88d15068443d79721efe52afe7434a70bbcecefbb2b142e1e3a259ed10a"
        )

    def test_pair_key_is_symmetric(self):
        da = matrix_digest(np.ones((2, 2)))
        db = matrix_digest(np.zeros((2, 2)))
        assert pair_key(da, db, "L2,1") == pair_key(db, da, "L2,1")

    def test_pair_key_depends_on_measure(self):
        da = matrix_digest(np.ones((2, 2)))
        db = matrix_digest(np.zeros((2, 2)))
        assert pair_key(da, db, "L2,1") != pair_key(da, db, "Dependent-DTW")


class TestRoundTrip:
    def test_put_get_persists_across_instances(self, tmp_path, metrics):
        cache = DistanceCache(tmp_path)
        cache.put("k1", 1.5)
        cache.put("k1", 1.5)  # idempotent: one line
        assert cache.get("k1") == 1.5
        reopened = DistanceCache(tmp_path)
        assert len(reopened) == 1
        assert reopened.get("k1") == 1.5
        assert len(cache.path.read_text().splitlines()) == 1

    def test_miss_returns_none_and_counts(self, tmp_path, metrics):
        cache = DistanceCache(tmp_path)
        assert cache.get("absent") is None
        assert metrics.counter("distance_cache.misses_total").value == 1
        cache.put("k", 2.0)
        cache.get("k")
        assert metrics.counter("distance_cache.hits_total").value == 1

    def test_non_finite_values_never_persisted(self, tmp_path, metrics):
        cache = DistanceCache(tmp_path)
        cache.put("inf", np.inf)
        cache.put("nan", np.nan)
        assert len(cache) == 0
        assert cache.get("inf") is None

    def test_clear_removes_disk_state(self, tmp_path, metrics):
        cache = DistanceCache(tmp_path)
        cache.put("k", 3.0)
        cache.clear()
        assert len(cache) == 0
        assert not cache.path.exists()
        assert DistanceCache(tmp_path).get("k") is None
        cache.clear()  # clearing an absent file is fine


class TestCorruptTolerance:
    def test_torn_tail_is_skipped(self, tmp_path, metrics):
        cache = DistanceCache(tmp_path)
        cache.put("good", 1.0)
        with cache.path.open("a") as handle:
            handle.write('{"key": "torn", "val')  # no newline, no close
        reopened = DistanceCache(tmp_path)
        assert reopened.get("good") == 1.0
        assert reopened.get("torn") is None
        assert metrics.counter("distance_cache.corrupt_total").value == 1

    def test_append_heals_torn_tail(self, tmp_path, metrics):
        cache = DistanceCache(tmp_path)
        cache.put("good", 1.0)
        with cache.path.open("a") as handle:
            handle.write('{"key": "torn"')
        reopened = DistanceCache(tmp_path)
        reopened.put("after", 2.0)
        final = DistanceCache(tmp_path)
        assert final.get("good") == 1.0
        assert final.get("after") == 2.0

    def test_garbage_entries_counted_not_fatal(self, tmp_path, metrics):
        path = tmp_path / "distances.jsonl"
        path.write_text(
            "not json at all\n"
            + json.dumps({"key": "bool", "value": True}) + "\n"
            + json.dumps({"key": "string", "value": "x"}) + "\n"
            + json.dumps({"key": "list", "value": [1.0]}) + "\n"
            + json.dumps({"key": "ok", "value": 4.0}) + "\n"
            + json.dumps({"no_key": 1}) + "\n"
        )
        cache = DistanceCache(tmp_path)
        assert len(cache) == 1
        assert cache.get("ok") == 4.0
        assert metrics.counter("distance_cache.corrupt_total").value == 5


class TestNormalization:
    """``DistanceCache.coerce``: the one way a ``distance_cache=``
    argument opens."""

    def test_coerce_accepts_paths_and_none(self, tmp_path):
        assert DistanceCache.coerce(None) is None
        for path in (str(tmp_path), tmp_path):
            cache = DistanceCache.coerce(path)
            assert isinstance(cache, DistanceCache)
            assert cache.path == tmp_path / "distances.jsonl"
        assert DistanceCache.coerce(cache) is cache

    def test_coerce_rejects_other_types(self):
        with pytest.raises(TypeError, match="DistanceCache"):
            DistanceCache.coerce(42)
