"""Content-addressed corpus cache: keys, hit/miss paths, invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import RepositoryError
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.workloads import (
    SKU,
    CorpusCache,
    enumerate_grid,
    execute_grid,
    paper_corpus,
    repositories_equal,
    results_equal,
    run_experiments,
    task_fingerprint,
    workload_by_name,
)
from repro.workloads.cache import as_cache
from repro.workloads.runner import clone_with


@pytest.fixture
def fresh_metrics():
    """Install an isolated registry; restore the previous one after."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def tiny_tasks(random_state=5, duration_s=120.0):
    return enumerate_grid(
        [workload_by_name("tpcc")],
        [SKU(cpus=4, memory_gb=32.0)],
        terminals_for=lambda w: (2,),
        n_runs=2,
        duration_s=duration_s,
        sample_interval_s=10.0,
        random_state=random_state,
    )


class TestTaskFingerprint:
    def test_stable_across_calls(self):
        a, b = tiny_tasks(), tiny_tasks()
        assert [task_fingerprint(t) for t in a] == [
            task_fingerprint(t) for t in b
        ]

    def test_sensitive_to_every_input(self):
        task = tiny_tasks()[0]
        base = task_fingerprint(task)
        from dataclasses import replace

        assert task_fingerprint(replace(task, seed=task.seed + 1)) != base
        assert task_fingerprint(replace(task, terminals=9)) != base
        assert task_fingerprint(replace(task, duration_s=999.0)) != base
        assert (
            task_fingerprint(replace(task, sku=SKU(cpus=2, memory_gb=32.0)))
            != base
        )
        assert (
            task_fingerprint(
                replace(task, workload=workload_by_name("ycsb"))
            )
            != base
        )

    def test_insensitive_to_grid_position(self):
        task = tiny_tasks()[0]
        from dataclasses import replace

        assert task_fingerprint(replace(task, index=99)) == task_fingerprint(
            task
        )

    def test_engine_version_invalidates(self):
        task = tiny_tasks()[0]
        assert task_fingerprint(task, version="1.0.0") != task_fingerprint(
            task, version="1.0.1"
        )


class TestCorpusCache:
    def test_roundtrip_single_result(self, tmp_path):
        cache = CorpusCache(tmp_path)
        task = tiny_tasks()[0]
        result = execute_grid([task])[0]
        key = cache.task_key(task)
        assert key not in cache
        cache.put(key, result)
        assert key in cache
        assert len(cache) == 1
        assert results_equal(cache.get(key), result)

    def test_miss_returns_none(self, tmp_path, fresh_metrics):
        cache = CorpusCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert fresh_metrics.counter("corpus_cache.misses_total").value == 1

    def test_corrupt_npz_is_a_miss(self, tmp_path, fresh_metrics):
        cache = CorpusCache(tmp_path)
        task = tiny_tasks()[0]
        result = execute_grid([task])[0]
        key = cache.task_key(task)
        cache.put(key, result)
        npz_path, _ = cache._paths(key)
        npz_path.write_bytes(b"not a zip archive")
        assert cache.get(key) is None
        assert fresh_metrics.counter("corpus_cache.corrupt_total").value == 1

    def test_corrupt_sidecar_is_a_miss(self, tmp_path):
        cache = CorpusCache(tmp_path)
        task = tiny_tasks()[0]
        result = execute_grid([task])[0]
        key = cache.task_key(task)
        cache.put(key, result)
        _, json_path = cache._paths(key)
        json_path.write_text("{truncated")
        assert cache.get(key) is None

    def test_put_rejects_non_finite(self, tmp_path):
        cache = CorpusCache(tmp_path)
        task = tiny_tasks()[0]
        result = execute_grid([task])[0]
        series = result.resource_series.copy()
        series[0, 0] = np.nan
        bad = clone_with(result, resource_series=series)
        with pytest.raises(RepositoryError, match="non-finite"):
            cache.put(cache.task_key(task), bad)

    def test_clear(self, tmp_path):
        cache = CorpusCache(tmp_path)
        tasks = tiny_tasks()
        for task, result in zip(tasks, execute_grid(tasks)):
            cache.put(cache.task_key(task), result)
        assert len(cache) == len(tasks)
        assert cache.clear() == len(tasks)
        assert len(cache) == 0

    def test_put_writes_payload_before_sidecar(self, tmp_path, monkeypatch):
        """Regression for the sidecar-first write-ordering bug.

        A crash between the two writes of ``put`` must leave an orphaned
        *payload* (invisible to lookups, swept by ``clear``), never an
        orphaned sidecar that ``clear()`` and ``__len__`` — which used to
        glob only ``*.npz`` — could not see.
        """
        cache = CorpusCache(tmp_path)
        task = tiny_tasks()[0]
        result = execute_grid([task])[0]
        key = cache.task_key(task)

        import repro.workloads.cache as cache_module

        def crash(path, data):
            raise KeyboardInterrupt("simulated kill between the two writes")

        monkeypatch.setattr(cache_module, "_atomic_write_bytes", crash)
        with pytest.raises(KeyboardInterrupt):
            cache.put(key, result)
        npz_path, json_path = cache.entry_paths(key)
        assert npz_path.exists() and not json_path.exists()
        # The torn entry is a miss, not a visible entry...
        assert key not in cache
        assert len(cache) == 0
        assert cache.get(key) is None
        # ...and clear() sweeps it rather than leaking it.
        assert cache.clear() == 1
        assert not npz_path.exists()

    def test_clear_sweeps_orphaned_sidecars_too(self, tmp_path):
        cache = CorpusCache(tmp_path)
        tasks = tiny_tasks()
        for task, result in zip(tasks, execute_grid(tasks)):
            cache.put(cache.task_key(task), result)
        npz_path, _ = cache.entry_paths(cache.task_key(tasks[0]))
        npz_path.unlink()  # leaves an orphaned sidecar
        assert len(cache) == len(tasks) - 1
        assert cache.clear() == len(tasks)
        assert list(tmp_path.glob("??/*")) == []

    def test_as_cache_normalization(self, tmp_path):
        assert as_cache(None) is None
        cache = CorpusCache(tmp_path)
        assert as_cache(cache) is cache
        assert isinstance(as_cache(tmp_path), CorpusCache)
        assert isinstance(as_cache(str(tmp_path)), CorpusCache)
        with pytest.raises(TypeError):
            as_cache(42)


class TestCacheVerify:
    def populate(self, tmp_path):
        cache = CorpusCache(tmp_path)
        tasks = tiny_tasks()
        for task, result in zip(tasks, execute_grid(tasks)):
            cache.put(cache.task_key(task), result)
        return cache, tasks

    def test_clean_store_verifies_clean(self, tmp_path):
        cache, tasks = self.populate(tmp_path)
        outcome = cache.verify()
        assert outcome.clean
        assert outcome.n_entries == outcome.n_ok == len(tasks)
        assert not outcome.repaired
        assert outcome.to_dict()["corrupt"] == []

    def test_verify_classifies_damage(self, tmp_path, fresh_metrics):
        cache, tasks = self.populate(tmp_path)
        keys = [cache.task_key(t) for t in tasks]
        corrupt_npz, _ = cache.entry_paths(keys[0])
        corrupt_npz.write_bytes(b"not a zip archive")
        orphan_npz, orphan_json = cache.entry_paths(keys[1])
        orphan_json.unlink()  # orphaned payload
        outcome = cache.verify()
        assert outcome.corrupt == (keys[0],)
        assert [path.split("/")[-1] for path in outcome.orphaned] == [
            f"{keys[1]}.npz"
        ]
        # The orphan is not an entry; the corrupt one is, and is not ok.
        assert outcome.n_entries == len(tasks) - 1
        assert outcome.n_ok == len(tasks) - 2
        assert not outcome.clean
        assert (
            fresh_metrics.counter("corpus_cache.verify_corrupt_total").value
            == 1
        )
        assert (
            fresh_metrics.counter("corpus_cache.verify_orphans_total").value
            == 1
        )
        # Without repair nothing is deleted.
        assert corrupt_npz.exists() and orphan_npz.exists()

    def test_verify_flags_mismatched_sidecar_key(self, tmp_path):
        cache, tasks = self.populate(tmp_path)
        key_a, key_b = (cache.task_key(t) for t in tasks[:2])
        # Swap entry A's files under entry B's name: each deserializes
        # fine but the sidecar no longer matches its address.
        for src, dst in zip(cache.entry_paths(key_a), cache.entry_paths(key_b)):
            dst.write_bytes(src.read_bytes())
        outcome = cache.verify()
        assert key_b in outcome.corrupt

    def test_verify_flags_leftover_tempfiles(self, tmp_path):
        cache, tasks = self.populate(tmp_path)
        shard = next(p for p in tmp_path.iterdir() if p.is_dir())
        stray = shard / ".tmp-abandoned.npz"
        stray.write_bytes(b"half a write")
        outcome = cache.verify()
        assert any(".tmp-" in path for path in outcome.orphaned)
        cache.verify(repair=True)
        assert not stray.exists()

    def test_repair_deletes_only_the_damage(self, tmp_path):
        cache, tasks = self.populate(tmp_path)
        keys = [cache.task_key(t) for t in tasks]
        npz_path, json_path = cache.entry_paths(keys[0])
        json_path.write_text("{torn")
        outcome = cache.verify(repair=True)
        assert outcome.repaired
        assert outcome.corrupt == (keys[0],)
        assert not npz_path.exists() and not json_path.exists()
        assert len(cache) == len(tasks) - 1
        assert cache.verify().clean

    def test_empty_cache_is_clean(self, tmp_path):
        assert CorpusCache(tmp_path).verify().clean


class TestCachedGridExecution:
    def build(self, cache=None, jobs=None, **kw):
        return run_experiments(
            [workload_by_name("tpcc"), workload_by_name("twitter")],
            [SKU(cpus=4, memory_gb=32.0)],
            terminals_for=lambda w: (2,),
            n_runs=2,
            duration_s=120.0,
            random_state=11,
            cache=cache,
            jobs=jobs,
            **kw,
        )

    def test_warm_rebuild_executes_nothing(self, tmp_path, fresh_metrics):
        cold = self.build(cache=tmp_path)
        assert fresh_metrics.counter("runner.experiments_total").value == 4
        set_metrics(MetricsRegistry())
        from repro.obs.metrics import get_metrics

        warm = self.build(cache=tmp_path)
        registry = get_metrics()
        assert registry.counter("runner.experiments_total").value == 0
        assert registry.counter("corpus_cache.hits_total").value == 4
        assert repositories_equal(cold, warm)

    def test_cache_path_equals_no_cache_path(self, tmp_path):
        assert repositories_equal(self.build(cache=tmp_path), self.build())

    def test_warm_parallel_rebuild_equal(self, tmp_path):
        cold = self.build(cache=tmp_path)
        warm = self.build(cache=tmp_path, jobs=3)
        assert repositories_equal(cold, warm)

    def test_partial_cache_fills_missing_tasks(self, tmp_path, fresh_metrics):
        cache = CorpusCache(tmp_path)
        cold = self.build(cache=cache)
        # Evict half the entries; the rebuild recomputes exactly those.
        tasks = enumerate_grid(
            [workload_by_name("tpcc"), workload_by_name("twitter")],
            [SKU(cpus=4, memory_gb=32.0)],
            terminals_for=lambda w: (2,),
            n_runs=2,
            duration_s=120.0,
            sample_interval_s=10.0,
            random_state=11,
        )
        for task in tasks[::2]:
            npz_path, json_path = cache._paths(cache.task_key(task))
            npz_path.unlink()
            json_path.unlink()
        set_metrics(MetricsRegistry())
        from repro.obs.metrics import get_metrics

        rebuilt = self.build(cache=cache)
        assert get_metrics().counter("runner.experiments_total").value == 2
        assert repositories_equal(cold, rebuilt)

    def test_warm_paper_corpus_rebuild_executes_nothing(
        self, tmp_path, fresh_metrics
    ):
        """The ISSUE acceptance criterion, on a scaled-down paper corpus."""
        kw = dict(
            n_runs=1, n_subexperiments=5, duration_s=300.0,
            random_state=0, cache=tmp_path,
        )
        cold = paper_corpus(**kw)
        assert fresh_metrics.counter("runner.experiments_total").value > 0
        set_metrics(MetricsRegistry())
        from repro.obs.metrics import get_metrics

        warm = paper_corpus(**kw)
        assert get_metrics().counter("runner.experiments_total").value == 0
        assert repositories_equal(cold, warm)
