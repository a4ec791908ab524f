"""Crash-safety of the grid executor under deterministic fault injection.

Every failure mode an hours-long corpus build meets — transient task
exceptions, dying worker processes, poisoned telemetry, torn cache
writes, and a SIGKILL of the build itself — is injected here through
:mod:`repro.workloads.faults` and must leave the build either complete
and **bit-identical** to an undisturbed one, or incomplete with the
failed tasks quarantined on the report; never aborted, never silently
wrong.

The CI fault matrix replays this file once per injector class by setting
``REPRO_FAULT_CLASS``; tests for other classes skip, the harness and
resume tests run in every leg.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.workloads import (
    SKU,
    CorpusCache,
    FaultPlan,
    KillSwitch,
    RetryPolicy,
    TaskExceptionInjector,
    TelemetryFaultInjector,
    TornWriteInjector,
    WorkerDeathInjector,
    enumerate_grid,
    execute_grid,
    repositories_equal,
    run_experiments,
    workload_by_name,
)
from repro.workloads.faults import (
    INJECTOR_CLASSES,
    InjectedKill,
    InjectedTaskError,
    InjectedWorkerDeath,
)
from repro.workloads.gridexec import as_retry_policy

#: Set by the CI fault-matrix job to run one injector class per leg.
FAULT_CLASS = os.environ.get("REPRO_FAULT_CLASS")

#: Retries without sleeping — the backoff schedule is tested separately.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.0)


def fault_class(name):
    """Skip unless this matrix leg (if any) selects injector ``name``."""
    return pytest.mark.skipif(
        FAULT_CLASS is not None and FAULT_CLASS != name,
        reason=f"REPRO_FAULT_CLASS={FAULT_CLASS} selects another injector",
    )


@pytest.fixture
def fresh_metrics():
    """Install an isolated registry; restore the previous one after."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def tiny_tasks(random_state=17, n_runs=2):
    return enumerate_grid(
        [workload_by_name("tpcc"), workload_by_name("twitter")],
        [SKU(cpus=4, memory_gb=32.0)],
        terminals_for=lambda w: (2,),
        n_runs=n_runs,
        duration_s=120.0,
        sample_interval_s=10.0,
        random_state=random_state,
    )


@pytest.fixture(scope="module")
def clean_results():
    """An undisturbed serial build, the bit-identical reference."""
    return list(execute_grid(tiny_tasks()))


class TestRetryPolicy:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)

    def test_rejects_negative_backoff(self):
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_base_s=-1.0)

    def test_exponential_and_capped(self):
        policy = RetryPolicy(backoff_base_s=0.5, backoff_cap_s=3.0)
        assert policy.delay_s(1) == 0.5
        assert policy.delay_s(2) == 1.0
        assert policy.delay_s(3) == 2.0
        assert policy.delay_s(4) == 3.0  # capped
        assert policy.delay_s(10) == 3.0

    def test_zero_base_never_sleeps(self):
        assert RetryPolicy(backoff_base_s=0.0).delay_s(5) == 0.0

    def test_as_retry_policy(self):
        assert as_retry_policy(None) == RetryPolicy()
        assert as_retry_policy(5).max_attempts == 5
        policy = RetryPolicy(max_attempts=2)
        assert as_retry_policy(policy) is policy
        with pytest.raises(TypeError):
            as_retry_policy("twice")


class TestInjectorDeterminism:
    @pytest.mark.parametrize("name", sorted(INJECTOR_CLASSES))
    def test_selection_is_stable_and_seeded(self, name):
        cls = INJECTOR_CLASSES[name]
        tasks = tiny_tasks()
        chosen = [cls(0.5, seed=1).selects(t) for t in tasks]
        assert chosen == [cls(0.5, seed=1).selects(t) for t in tasks]
        assert chosen != [cls(0.5, seed=2).selects(t) for t in tasks]
        assert all(cls(1.0).selects(t) for t in tasks)
        assert not any(cls(0.0).selects(t) for t in tasks)

    def test_max_failures_bounds_attempts(self):
        task = tiny_tasks()[0]
        injector = TaskExceptionInjector(1.0, max_failures=2)
        assert injector.fires(task, 0)
        assert injector.fires(task, 1)
        assert not injector.fires(task, 2)

    def test_injection_is_counted(self, fresh_metrics):
        TaskExceptionInjector(1.0).fires(tiny_tasks()[0], 0)
        assert fresh_metrics.counter("faults.injected_total").value == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TaskExceptionInjector(1.5)
        with pytest.raises(ValueError):
            TaskExceptionInjector(1.0, max_failures=-1)
        with pytest.raises(ValueError):
            TelemetryFaultInjector(mode="flip")
        with pytest.raises(ValueError):
            TornWriteInjector(mode="shred")
        with pytest.raises(ValueError):
            KillSwitch(-1)


@fault_class("task-exception")
class TestTaskExceptionFaults:
    def test_transient_failures_are_retried(
        self, clean_results, fresh_metrics
    ):
        faults = FaultPlan(TaskExceptionInjector(1.0, max_failures=1))
        results = execute_grid(
            tiny_tasks(), retry=FAST_RETRY, faults=faults
        )
        report = results.report
        assert report.n_quarantined == 0
        assert report.n_retried == len(results)
        assert fresh_metrics.counter("gridexec.retries_total").value == len(
            results
        )
        for clean, faulted in zip(clean_results, results):
            assert np.array_equal(
                clean.throughput_series, faulted.throughput_series
            )

    def test_persistent_failures_are_quarantined_not_fatal(
        self, fresh_metrics
    ):
        tasks = tiny_tasks()
        faults = FaultPlan(
            TaskExceptionInjector(0.5, seed=7, max_failures=99)
        )
        doomed = {t.task_id for t in tasks if faults.injectors[0].selects(t)}
        assert 0 < len(doomed) < len(tasks)  # the rate splits this grid
        results = execute_grid(
            tasks, retry=FAST_RETRY, faults=faults
        )
        report = results.report
        assert {task_id for task_id, _ in report.quarantined} == doomed
        assert report.n_quarantined == len(doomed)
        assert report.n_executed == len(tasks) - len(doomed)
        for task, result in zip(tasks, results):
            assert (result is None) == (task.task_id in doomed)
        for _, reason in report.quarantined:
            assert InjectedTaskError.__name__ in reason
        assert fresh_metrics.counter(
            "gridexec.quarantined_total"
        ).value == len(doomed)

    def test_run_experiments_drops_quarantined(self):
        faults = FaultPlan(
            TaskExceptionInjector(0.5, seed=7, max_failures=99)
        )
        repository = run_experiments(
            [workload_by_name("tpcc"), workload_by_name("twitter")],
            [SKU(cpus=4, memory_gb=32.0)],
            terminals_for=lambda w: (2,),
            n_runs=2,
            duration_s=120.0,
            random_state=17,
            retry=FAST_RETRY,
            faults=faults,
        )
        assert 0 < len(repository) < 4

    def test_parallel_retry_matches_clean_build(self, clean_results):
        faults = FaultPlan(TaskExceptionInjector(1.0, max_failures=1))
        results = execute_grid(
            tiny_tasks(), jobs=2, retry=FAST_RETRY, faults=faults,
        )
        assert results.report.n_quarantined == 0
        assert results.report.n_retried == len(results)
        for clean, faulted in zip(clean_results, results):
            assert np.array_equal(
                clean.resource_series, faulted.resource_series
            )


@fault_class("worker-death")
class TestWorkerDeathFaults:
    def test_serial_death_is_retried(self, clean_results):
        faults = FaultPlan(WorkerDeathInjector(1.0, max_failures=1))
        results = execute_grid(
            tiny_tasks(), retry=FAST_RETRY, faults=faults
        )
        assert results.report.n_quarantined == 0
        assert results.report.n_retried == len(results)
        for clean, faulted in zip(clean_results, results):
            assert np.array_equal(
                clean.throughput_series, faulted.throughput_series
            )

    def test_dead_workers_never_abort_parallel_build(
        self, clean_results, fresh_metrics
    ):
        """A worker hard-exiting breaks the pool; the build rebuilds it."""
        faults = FaultPlan(WorkerDeathInjector(0.5, seed=5, max_failures=1))
        results = execute_grid(
            tiny_tasks(), jobs=2, retry=FAST_RETRY, faults=faults,
        )
        report = results.report
        assert report.n_quarantined == 0
        assert report.n_executed == len(results)
        assert report.n_retried > 0
        assert (
            fresh_metrics.counter("gridexec.pool_rebuilds_total").value > 0
        )
        for clean, faulted in zip(clean_results, results):
            assert np.array_equal(
                clean.throughput_series, faulted.throughput_series
            )

    def test_every_worker_dying_still_completes(self, clean_results):
        faults = FaultPlan(WorkerDeathInjector(1.0, max_failures=1))
        results = execute_grid(
            tiny_tasks(), jobs=2, retry=FAST_RETRY, faults=faults,
        )
        assert results.report.n_quarantined == 0
        for clean, faulted in zip(clean_results, results):
            assert np.array_equal(
                clean.throughput_series, faulted.throughput_series
            )

    def test_serial_mode_raises_instead_of_exiting(self):
        injector = WorkerDeathInjector(1.0, max_failures=1)
        with pytest.raises(InjectedWorkerDeath):
            injector.before_run(tiny_tasks()[0], 0, in_worker=False)


@fault_class("telemetry")
class TestTelemetryFaults:
    def test_nan_window_is_caught_and_retried(self, clean_results):
        """NaN telemetry must never reach the repository or the cache."""
        faults = FaultPlan(TelemetryFaultInjector(1.0, max_failures=1))
        results = execute_grid(
            tiny_tasks(), retry=FAST_RETRY, faults=faults
        )
        assert results.report.n_quarantined == 0
        assert results.report.n_retried == len(results)
        for clean, faulted in zip(clean_results, results):
            assert np.isfinite(faulted.throughput_series).all()
            assert np.array_equal(
                clean.throughput_series, faulted.throughput_series
            )

    def test_nan_never_lands_in_the_cache(self, tmp_path):
        faults = FaultPlan(TelemetryFaultInjector(1.0, max_failures=99))
        cache = CorpusCache(tmp_path)
        results = execute_grid(
            tiny_tasks(), cache=cache, retry=FAST_RETRY, faults=faults
        )
        assert results.report.n_quarantined == len(results)
        assert len(cache) == 0

    def test_zero_window_survives_as_finite_data(self):
        """All-zero windows are valid telemetry, not an execution fault."""
        faults = FaultPlan(
            TelemetryFaultInjector(1.0, max_failures=1, mode="zero")
        )
        results = execute_grid(
            tiny_tasks(), retry=FAST_RETRY, faults=faults
        )
        report = results.report
        assert report.n_quarantined == 0
        assert report.n_retried == 0
        for result in results:
            window = max(1, result.throughput_series.size // 10)
            assert (result.throughput_series[:window] == 0.0).all()


@fault_class("torn-write")
class TestTornWriteFaults:
    @pytest.mark.parametrize("mode", TornWriteInjector.MODES)
    def test_torn_entries_miss_and_rebuild_recomputes(
        self, tmp_path, mode, fresh_metrics
    ):
        """The regression test for the sidecar-first write-ordering bug."""
        tasks = tiny_tasks()
        cache = CorpusCache(tmp_path)
        faults = FaultPlan(TornWriteInjector(1.0, mode=mode))
        cold = execute_grid(tasks, cache=cache, faults=faults)
        assert cold.report.n_quarantined == 0
        set_metrics(MetricsRegistry())
        warm = execute_grid(tasks, cache=cache)
        registry = get_metrics()
        assert registry.counter("corpus_cache.hits_total").value == 0
        assert warm.report.n_executed == len(tasks)
        for a, b in zip(cold, warm):
            assert np.array_equal(a.throughput_series, b.throughput_series)

    @pytest.mark.parametrize("mode", TornWriteInjector.MODES)
    def test_verify_finds_exactly_the_torn_entries(self, tmp_path, mode):
        tasks = tiny_tasks()
        cache = CorpusCache(tmp_path)
        injector = TornWriteInjector(0.5, seed=11, mode=mode)
        torn = {cache.task_key(t) for t in tasks if injector.selects(t)}
        assert 0 < len(torn) < len(tasks)
        execute_grid(tasks, cache=cache, faults=FaultPlan(injector))
        outcome = cache.verify()
        assert not outcome.clean
        if mode == "drop-sidecar":
            flagged = {
                path.split("/")[-1].split(".")[0]
                for path in outcome.orphaned
            }
        else:
            flagged = set(outcome.corrupt)
        assert flagged == torn

    def test_repair_restores_a_clean_cache(self, tmp_path):
        tasks = tiny_tasks()
        cache = CorpusCache(tmp_path)
        faults = FaultPlan(TornWriteInjector(1.0, mode="truncate-npz"))
        execute_grid(tasks, cache=cache, faults=faults)
        assert not cache.verify().clean
        repaired = cache.verify(repair=True)
        assert repaired.repaired
        assert cache.verify().clean
        assert len(cache) == 0


class TestKillAndResume:
    """The ISSUE acceptance criterion: kill mid-build, resume for free."""

    def kill_then_resume(self, tmp_path, *, jobs=None, kill_after=2):
        tasks = tiny_tasks()
        clean = execute_grid(tasks)
        cache = CorpusCache(tmp_path)
        with pytest.raises(InjectedKill):
            execute_grid(
                tasks, jobs=jobs, cache=cache,
                faults=FaultPlan(KillSwitch(kill_after)),
            )
        # The cache is the record of finished tasks.
        assert len(CorpusCache(tmp_path)) == kill_after
        set_metrics(MetricsRegistry())
        resumed = execute_grid(tasks, jobs=jobs, cache=cache)
        return tasks, clean, resumed, get_metrics()

    def test_resume_recomputes_nothing_completed(
        self, tmp_path, fresh_metrics
    ):
        tasks, clean, resumed, registry = self.kill_then_resume(tmp_path)
        report = resumed.report
        assert report.cache_hits == 2
        assert report.n_executed == len(tasks) - 2
        assert registry.counter("runner.experiments_total").value == (
            len(tasks) - 2
        )
        from repro.workloads.repository import results_equal

        for a, b in zip(clean, resumed):
            assert results_equal(a, b)

    def test_parallel_resume_matches_clean_build(
        self, tmp_path, fresh_metrics
    ):
        tasks, clean, resumed, registry = self.kill_then_resume(
            tmp_path, jobs=2
        )
        assert resumed.report.cache_hits == 2
        assert registry.counter("runner.experiments_total").value == (
            len(tasks) - 2
        )
        from repro.workloads.repository import results_equal

        for a, b in zip(clean, resumed):
            assert results_equal(a, b)

    def test_resume_through_run_experiments(self, tmp_path, fresh_metrics):
        """End to end: a killed corpus build resumes bit-identically."""
        grid = dict(
            workloads=[workload_by_name("tpcc"),
                       workload_by_name("twitter")],
            skus=[SKU(cpus=4, memory_gb=32.0)],
        )
        kw = dict(
            terminals_for=lambda w: (2,),
            n_runs=2,
            duration_s=120.0,
            random_state=17,
        )
        clean = run_experiments(grid["workloads"], grid["skus"], **kw)
        with pytest.raises(InjectedKill):
            run_experiments(
                grid["workloads"], grid["skus"], cache=tmp_path,
                faults=FaultPlan(KillSwitch(2)), **kw,
            )
        set_metrics(MetricsRegistry())
        resumed = run_experiments(
            grid["workloads"], grid["skus"], cache=tmp_path, **kw
        )
        assert get_metrics().counter("runner.experiments_total").value == 2
        assert repositories_equal(clean, resumed)
