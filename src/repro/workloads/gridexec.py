"""Deterministic parallel execution of experiment grids.

:func:`repro.workloads.corpus.run_experiments` used to walk the
(workload x SKU x terminals x run) grid serially, one simulator call at a
time — the dominant wall-clock cost of every benchmark figure.  This
module splits that walk into two phases so the second can be distributed:

1. :func:`enumerate_grid` materializes the full grid as
   :class:`GridTask` values **and pre-draws every task's RNG seed** in
   the exact order the serial loop would have drawn them (one
   ``integers(0, 2**62)`` call per task from the workload's spawned
   generator).  Seed derivation is therefore a pure function of the
   corpus-level ``random_state`` and the grid shape.
2. :func:`execute_grid` runs the tasks on the shared
   :func:`repro.exec.engine.run_tasks` engine — in-process, or fanned
   out over a ``ProcessPoolExecutor`` — and reassembles results in grid
   order.

Because each task carries its own pre-drawn seed and the simulator
components (engine, telemetry sampler, planner) keep no mutable state
between runs, a parallel build is **bit-identical** to a serial one: the
determinism suite (``tests/workloads/test_gridexec.py``) asserts exact
array equality between ``jobs=1`` and ``jobs=4`` builds.

Telemetry follows the same contract: every task runs under
:func:`repro.obs.telemetry.capture_telemetry` on the serial and the
parallel path alike, and the parent merges the per-task snapshots in
task order — so metric totals, gauge values, and grafted span subtrees
match a serial run at any worker count (the engine/runner series are no
longer lost with worker processes).

An optional content-addressed :class:`repro.workloads.cache.CorpusCache`
short-circuits tasks whose results are already on disk; only cache
misses are executed.  The cache is also the only record of which tasks
finished: a result is written the moment its task is accepted, so a
build killed mid-flight resumes with zero re-simulation, every finished
task a cache hit.

Execution is crash-safe (``tests/workloads/test_faults.py``); the
mechanics — :class:`RetryPolicy` attempts with capped backoff,
quarantine on exhaustion, broken-pool rebuild with a last-chance serial
attempt, and the serial fallback when no pool can be created — now live
in :mod:`repro.exec.engine` and are shared by every parallel stage.
What stays here is the grid-specific layer: cache scanning, cache
writes, and the fault hooks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.exec.engine import ExecTask, RetryPolicy, as_retry_policy, run_tasks
from repro.obs.logging import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.tracing import span
from repro.utils.parallel import resolve_jobs
from repro.utils.rng import RandomState, spawn_generators
from repro.workloads.repository import ensure_finite
from repro.workloads.runner import ExperimentResult, ExperimentRunner
from repro.workloads.sku import SKU
from repro.workloads.spec import WorkloadSpec

logger = get_logger(__name__)

#: Seeds are drawn uniformly from ``[0, 2**62)`` — the same range the
#: runner itself uses when no explicit seed is supplied.
SEED_BOUND = 2**62


@dataclass(frozen=True)
class GridTask:
    """One fully specified experiment of a grid, with its RNG seed.

    A task is self-contained and picklable: a worker process needs
    nothing beyond the task to reproduce the experiment bit-exactly.
    ``index`` is the task's position in serial grid order, which is also
    the order results are returned in.
    """

    index: int
    workload: WorkloadSpec
    sku: SKU
    terminals: int
    run_index: int
    data_group: int
    duration_s: float
    sample_interval_s: float
    plan_observations: int
    seed: int

    @property
    def task_id(self) -> str:
        """Human-readable identity (mirrors ``experiment_id``)."""
        return (
            f"{self.workload.name}@{self.sku.name}"
            f"x{self.terminals}t-r{self.run_index}g{self.data_group}"
        )


@dataclass(frozen=True)
class GridReport:
    """What one :func:`execute_grid` call actually did."""

    n_tasks: int
    n_workers: int
    n_executed: int
    cache_hits: int
    cache_misses: int
    elapsed_s: float
    n_retried: int = 0
    n_quarantined: int = 0
    #: ``(task_id, reason)`` pairs for tasks that exhausted their retries.
    quarantined: tuple = ()

    def to_dict(self) -> dict:
        return {
            "n_tasks": self.n_tasks,
            "n_workers": self.n_workers,
            "n_executed": self.n_executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "elapsed_s": self.elapsed_s,
            "n_retried": self.n_retried,
            "n_quarantined": self.n_quarantined,
            "quarantined": [list(item) for item in self.quarantined],
        }


class GridResults(list):
    """Results in grid order, carrying the :class:`GridReport`.

    Positions of quarantined tasks hold ``None``; consumers that need a
    dense collection (e.g. ``run_experiments``) drop them and surface
    the quarantine list from the report.
    """

    report: GridReport | None = None


def enumerate_grid(
    workloads: list[WorkloadSpec],
    skus: list[SKU],
    *,
    terminals_for,
    n_runs: int,
    duration_s: float,
    sample_interval_s: float,
    random_state: RandomState,
    plan_observations: int = 3,
) -> list[GridTask]:
    """Materialize the (workload x SKU x terminals x run) grid.

    Per-task seeds reproduce the serial draw order exactly: each workload
    gets one spawned generator, and tasks consume one ``integers`` draw
    each in (SKU, terminals, run) nested-loop order.
    """
    if n_runs < 1:
        raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
    tasks: list[GridTask] = []
    generators = spawn_generators(random_state, len(workloads))
    for workload, rng in zip(workloads, generators):
        for sku in skus:
            for terminals in terminals_for(workload):
                for run in range(n_runs):
                    tasks.append(
                        GridTask(
                            index=len(tasks),
                            workload=workload,
                            sku=sku,
                            terminals=terminals,
                            run_index=run,
                            data_group=run,
                            duration_s=duration_s,
                            sample_interval_s=sample_interval_s,
                            plan_observations=plan_observations,
                            seed=int(rng.integers(0, SEED_BOUND)),
                        )
                    )
    return tasks


__all__ = [  # RetryPolicy/as_retry_policy live in repro.exec.engine now
    "GridTask", "RetryPolicy", "GridReport", "GridResults",
    "enumerate_grid", "execute_grid", "resolve_jobs", "as_retry_policy",
]


def _run_task(task: GridTask) -> ExperimentResult:
    """Execute one grid task; the unit of work shipped to workers."""
    runner = ExperimentRunner(task.workload)
    return runner.run(
        task.sku,
        terminals=task.terminals,
        run_index=task.run_index,
        data_group=task.data_group,
        duration_s=task.duration_s,
        sample_interval_s=task.sample_interval_s,
        plan_observations=task.plan_observations,
        seed=task.seed,
    )


def _run_task_faulted(task: GridTask, attempt: int, faults,
                      in_worker: bool) -> ExperimentResult:
    """Execute one task with fault hooks; ships to workers when parallel."""
    if faults is not None:
        faults.before_run(task, attempt, in_worker=in_worker)
    result = _run_task(task)
    if faults is not None:
        result = faults.mutate_result(task, attempt, result)
    return result


def _task_body(task: GridTask, attempt: int, faults, in_worker: bool):
    with span(
        "gridexec.task", attrs={"task": task.task_id, "attempt": attempt}
    ):
        return _run_task_faulted(task, attempt, faults, in_worker)


def _grid_unit(payload, attempt: int, in_worker: bool):
    """Engine adapter: unpack ``(task, faults)`` into the task body."""
    task, faults = payload
    return _task_body(task, attempt, faults, in_worker)


class _GridHooks:
    """Parent-side engine hooks: cache writes, fault taps, accounting."""

    def __init__(self, cache, faults):
        self.cache = cache
        self.faults = faults

    def on_result(self, exec_task: ExecTask, attempt: int, result) -> None:
        """Persist an accepted result to the cache.

        A failed cache write is logged and counted, never fatal — the
        result is already in memory and the cache is only an
        optimization.
        """
        task, _ = exec_task.payload
        if self.cache is not None and exec_task.key is not None:
            try:
                self.cache.put(exec_task.key, result)
            except Exception as exc:
                logger.warning(
                    "cache write failed for %s: %s", task.task_id, exc
                )
                get_metrics().counter("corpus_cache.write_errors_total").inc()
            else:
                if self.faults is not None:
                    self.faults.after_put(
                        self.cache, exec_task.key, task, attempt
                    )

    def after_task(self, exec_task: ExecTask) -> None:
        if self.faults is not None:
            task, _ = exec_task.payload
            self.faults.after_task(task)


def execute_grid(
    tasks: list[GridTask],
    *,
    jobs: int | None = None,
    cache=None,
    retry: "RetryPolicy | int | None" = None,
    faults=None,
) -> GridResults:
    """Run every task and return results in task order.

    ``cache`` is anything implementing the
    :class:`~repro.workloads.cache.CorpusCache` protocol (``task_key`` /
    ``get`` / ``put``); hits skip execution entirely.  With ``jobs > 1``
    the cache misses are fanned out over a ``ProcessPoolExecutor``; if
    the pool cannot be created (restricted environments) execution falls
    back to serial with a warning and one increment of
    ``gridexec.pool_fallback_total`` rather than failing the build.

    ``retry`` (a :class:`RetryPolicy`, an attempt count, or ``None`` for
    the defaults) bounds per-task attempts; tasks that keep failing are
    quarantined on the report, with ``None`` at their result position.
    ``faults`` (a :class:`~repro.workloads.faults.FaultPlan`) injects
    deterministic failures for testing.

    A task whose result is in the cache is a hit and never runs again,
    so re-running a killed build against its cache resumes it:
    ``cache_hits`` on the report counts the tasks already finished.
    """
    metrics = get_metrics()
    retry = as_retry_policy(retry)
    n_workers = resolve_jobs(jobs)
    results: GridResults = GridResults([None] * len(tasks))
    pending: list[tuple[int, GridTask, str | None]] = []
    hits = 0
    start = time.perf_counter()
    with span(
        "gridexec.grid",
        attrs={"tasks": len(tasks), "workers": n_workers},
    ):
        if cache is None:
            pending = [(position, task, None)
                       for position, task in enumerate(tasks)]
        else:
            for position, task in enumerate(tasks):
                key = cache.task_key(task)
                cached = cache.get(key)
                if cached is None:
                    pending.append((position, task, key))
                else:
                    results[position] = cached
                    hits += 1
        hooks = _GridHooks(cache, faults)
        outputs = run_tasks(
            [
                ExecTask(
                    index=ordinal,
                    fn=_grid_unit,
                    payload=(task, faults),
                    key=key,
                    task_id=task.task_id,
                )
                for ordinal, (position, task, key) in enumerate(pending)
            ],
            jobs=jobs,
            retry=retry,
            label="gridexec",
            on_error="quarantine",
            validate=ensure_finite,
            on_result=hooks.on_result,
            after_task=hooks.after_task,
        )
        for (position, task, key), result in zip(pending, outputs):
            results[position] = result
    report = outputs.report
    n_workers = report.n_workers
    metrics.gauge("gridexec.workers").set(n_workers)
    metrics.counter("gridexec.tasks_total").inc(len(tasks))
    elapsed = time.perf_counter() - start
    results.report = GridReport(
        n_tasks=len(tasks),
        n_workers=n_workers,
        n_executed=report.n_executed,
        cache_hits=hits,
        cache_misses=len(pending),
        elapsed_s=elapsed,
        n_retried=report.n_retried,
        n_quarantined=report.n_quarantined,
        quarantined=report.quarantined,
    )
    logger.debug(
        "grid: %d tasks, %d workers, %d hits, %d executed, "
        "%d retried, %d quarantined in %.2fs",
        len(tasks), n_workers, hits, report.n_executed,
        report.n_retried, report.n_quarantined, elapsed,
    )
    return results
