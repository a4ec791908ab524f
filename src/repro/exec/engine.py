"""One task engine behind every parallel stage of the pipeline.

Historically each stage grew its own executor — gridexec (the richest:
retry, quarantine, broken-pool rebuild), fitexec,
distance-matrix chunks, and forest tree batches (each a bare
submit-and-consume loop with a serial fallback).  :func:`run_tasks` is
the single engine all four now share, generalized from the gridexec
semantics so every stage gets the full treatment:

- every task gets up to :attr:`RetryPolicy.max_attempts` attempts with
  capped exponential backoff;
- exhausted tasks are **quarantined** (``on_error="quarantine"``:
  recorded on the report with ``None`` at their result position) or
  **fatal** (``on_error="raise"``: the error propagates, as the
  fit/distance/forest engines have always behaved);
- a dead worker (broken pool) triggers a pool rebuild and resubmission,
  with one final attributable serial attempt before giving up on tasks
  whose budget was exhausted *by breakage*;
- when no pool can be created at all
  (:data:`~repro.utils.parallel.POOL_UNAVAILABLE_ERRORS`), execution
  falls back to serial with a warning and one increment of
  ``<label>.pool_fallback_total`` — identical behavior and metric
  across every engine (this used to differ between gridexec and
  fitexec);
- task payloads, arrays included, are handed to the pool as they are
  and pickled into its IPC pipe; the serial path passes the very same
  objects to the same task function.

The determinism contract is inherited unchanged: task functions are
pure, every task runs under
:func:`~repro.obs.telemetry.capture_telemetry` on both paths, and the
parent merges snapshots in task-index (submission) order — so results
*and* merged telemetry are bit-identical at any worker count.

A task function must be module-level (picklable) with the signature
``fn(payload, attempt, in_worker)``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import ValidationError
from repro.obs.logging import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.telemetry import capture_telemetry, merge_snapshot
from repro.obs.tracing import get_tracer
from repro.utils.parallel import POOL_UNAVAILABLE_ERRORS, resolve_jobs

logger = get_logger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task retry budget with capped exponential backoff.

    ``max_attempts`` counts attempts, not retries: the default of 3
    means one initial attempt plus up to two retries.  The ``n``-th
    retry sleeps ``min(backoff_cap_s, backoff_base_s * 2**(n-1))``;
    a zero base disables sleeping entirely (what tests use).
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 5.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValidationError("backoff durations must be >= 0")

    def delay_s(self, retry_number: int) -> float:
        """Seconds to sleep before retry ``retry_number`` (1-based)."""
        if self.backoff_base_s <= 0:
            return 0.0
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * 2 ** (max(retry_number, 1) - 1),
        )


def as_retry_policy(retry: "RetryPolicy | int | None") -> RetryPolicy:
    """Normalize a retry argument: ``None``, an attempt count, or a policy."""
    if retry is None:
        return RetryPolicy()
    if isinstance(retry, RetryPolicy):
        return retry
    if isinstance(retry, int):
        return RetryPolicy(max_attempts=retry)
    raise TypeError(
        "retry must be None, an int, or a RetryPolicy, "
        f"got {type(retry).__name__}"
    )


@dataclass(frozen=True)
class ExecTask:
    """One schedulable unit: a picklable function and its payload.

    ``index`` is the task's submission position — the order results are
    returned and telemetry snapshots are merged in.  ``key`` is an
    optional content-address fingerprint (the corpus cache key gridexec
    writes an accepted result under); ``task_id`` names the task in
    logs and quarantine records.
    """

    index: int
    fn: Callable
    payload: object = ()
    key: str | None = None
    task_id: str = ""

    @property
    def name(self) -> str:
        return self.task_id or f"task-{self.index}"


@dataclass(frozen=True)
class ExecReport:
    """What one :func:`run_tasks` call actually did."""

    n_tasks: int
    n_workers: int
    n_executed: int
    elapsed_s: float
    n_retried: int = 0
    n_quarantined: int = 0
    #: ``(task_id, reason)`` pairs for tasks that exhausted their retries.
    quarantined: tuple = ()
    pool_fallbacks: int = 0
    pool_rebuilds: int = 0


class ExecResults(list):
    """Results in task-index order, carrying the :class:`ExecReport`.

    Positions of quarantined tasks hold ``None``.
    """

    report: ExecReport | None = None


class PersistentPool:
    """A long-lived worker pool reused across :func:`run_tasks` calls.

    A batch CLI run amortizes pool spin-up over thousands of tasks; a
    server answering one request at a time cannot — forking workers and
    re-importing numpy per request would dwarf the work itself.  While a
    persistent pool is installed (:func:`set_persistent_pool`, or the
    :func:`persistent_pool` context manager), every parallel
    :func:`run_tasks` call borrows its executor instead of building one,
    and leaves it running afterwards.

    The pool is created lazily, recreated after breakage (a dead worker
    renders a ``ProcessPoolExecutor`` unusable), and thread-safe: server
    threads may run tasks through it concurrently —
    ``ProcessPoolExecutor.submit`` is thread-safe, and each
    :func:`run_tasks` call keeps its own future bookkeeping.  Worker
    recycling is delegated to ``max_tasks_per_child``-free semantics:
    tasks are pure, so workers live as long as the pool does.
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ValidationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = int(max_workers)
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self.rebuilds = 0

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def acquire(self) -> ProcessPoolExecutor:
        """The live executor, created on first use.

        Raises the usual :data:`~repro.utils.parallel.POOL_UNAVAILABLE_ERRORS`
        when no pool can be created; callers fall back to serial exactly
        as they would for a private pool.
        """
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers
                )
            return self._pool

    def invalidate(self, pool: ProcessPoolExecutor) -> None:
        """Discard ``pool`` after breakage so the next acquire rebuilds.

        Idempotent and race-tolerant: two concurrent runs observing the
        same breakage both call this, the second is a no-op.
        """
        with self._lock:
            if self._pool is not pool:
                return
            self._pool = None
            self.rebuilds += 1
        get_metrics().counter("exec.persistent_pool_rebuilds_total").inc()
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken-pool teardown
            pass

    def close(self) -> None:
        """Shut the executor down; the next acquire would recreate it."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


_persistent_pool: PersistentPool | None = None


def set_persistent_pool(
    pool: PersistentPool | None,
) -> PersistentPool | None:
    """Install ``pool`` for every parallel :func:`run_tasks` call.

    The installer owns the pool's lifetime (it is *not* closed when
    replaced).  Returns the previously installed pool.
    """
    global _persistent_pool
    previous = _persistent_pool
    _persistent_pool = pool
    return previous


def get_persistent_pool() -> PersistentPool | None:
    """The installed persistent pool, or ``None``."""
    return _persistent_pool


class persistent_pool:
    """Context manager: install (and own) a :class:`PersistentPool`::

        with persistent_pool(max_workers=4):
            run_tasks(...)   # borrows the shared executor
            run_tasks(...)   # no second pool spin-up
    """

    def __init__(self, max_workers: int):
        self.pool = PersistentPool(max_workers)
        self._previous: PersistentPool | None = None

    def __enter__(self) -> PersistentPool:
        self._previous = set_persistent_pool(self.pool)
        return self.pool

    def __exit__(self, *exc_info) -> None:
        set_persistent_pool(self._previous)
        self.pool.close()


class _Run:
    """Mutable state of one :func:`run_tasks` invocation."""

    def __init__(self, results, retry, label, on_error, validate,
                 on_result, after_task):
        self.results = results
        self.retry = retry
        self.label = label
        self.on_error = on_error
        self.validate = validate
        self.on_result = on_result
        self.after_task = after_task
        self.executed = 0
        self.retried = 0
        self.quarantined: list = []
        self.pool_fallbacks = 0
        self.pool_rebuilds = 0
        self.tracing = get_tracer().enabled

    def accept(self, task: ExecTask, attempt: int, result) -> None:
        """Bookkeeping for an accepted attempt (telemetry already held)."""
        if self.on_result is not None:
            self.on_result(task, attempt, result)
        self.results[task.index] = result
        self.executed += 1
        if self.after_task is not None:
            self.after_task(task)

    def count_retry(self, task: ExecTask, attempt: int,
                    exc: BaseException) -> None:
        self.retried += 1
        get_metrics().counter(f"{self.label}.retries_total").inc()
        logger.warning(
            "task %s attempt %d failed (%s: %s); retrying",
            task.name, attempt, type(exc).__name__, exc,
        )

    def give_up(self, task: ExecTask, exc: BaseException) -> None:
        """Quarantine or raise, per ``on_error``."""
        if self.on_error == "raise":
            raise exc
        reason = f"{type(exc).__name__}: {exc}"
        self.quarantined.append((task.task_id or task.name, reason))
        get_metrics().counter(f"{self.label}.quarantined_total").inc()
        logger.error(
            "task %s quarantined after exhausting retries: %s",
            task.name, reason,
        )


def _sleep_backoff(retry: RetryPolicy, retry_number: int) -> None:
    delay = retry.delay_s(retry_number)
    if delay > 0:
        time.sleep(delay)


def _merge_indexed_snapshots(snapshots: dict) -> None:
    """Merge collected worker snapshots in task-index order."""
    for index in sorted(snapshots):
        merge_snapshot(snapshots[index])
    snapshots.clear()


def _run_serial(run: _Run, items, retry: RetryPolicy) -> None:
    """Run ``(task, first_attempt)`` items in-process."""
    for task, first_attempt in items:
        attempt = first_attempt
        while True:
            try:
                result, telemetry = capture_telemetry(
                    task.fn, task.payload, attempt, False,
                    tracing=run.tracing,
                )
                if run.validate is not None:
                    run.validate(result)
            except Exception as exc:
                attempt += 1
                if attempt < retry.max_attempts:
                    run.count_retry(task, attempt - 1, exc)
                    _sleep_backoff(retry, attempt - first_attempt)
                    continue
                run.give_up(task, exc)
                break
            # Telemetry is merged only for accepted attempts, right when
            # the result is accepted — index order, same as parallel.
            merge_snapshot(telemetry)
            run.accept(task, attempt, result)
            break


def _run_parallel(run: _Run, tasks, n_workers: int) -> None:
    """Fan tasks out over a process pool (full gridexec semantics).

    The pool is rebuilt when a worker dies (the pool object is unusable
    after a ``BrokenProcessPool``); unfinished tasks are resubmitted
    with an incremented attempt.  Because pool breakage cannot be
    attributed to a single task, tasks whose attempts are exhausted *by
    breakage* get one final serial attempt — in-process, where a
    crashing task can be identified — before quarantine.  If no pool
    can be created at all, everything runs serially with a warning and
    one ``<label>.pool_fallback_total`` increment.
    """
    retry = run.retry
    queue = [(task, 0) for task in tasks]
    last_chance: list = []  # exhausted by pool breakage; retried serially
    #: Snapshot of the accepted attempt per task index; merged in index
    #: order at the end so telemetry matches a serial run regardless of
    #: the order futures completed in.
    snapshots: dict[int, object] = {}

    persistent = get_persistent_pool()
    while queue:
        try:
            if persistent is not None:
                pool = persistent.acquire()
            else:
                pool = ProcessPoolExecutor(max_workers=n_workers)
        except POOL_UNAVAILABLE_ERRORS as exc:
            logger.warning(
                "process pool unavailable (%s); %s falling back to serial",
                exc, run.label,
            )
            run.pool_fallbacks += 1
            get_metrics().counter(f"{run.label}.pool_fallback_total").inc()
            _merge_indexed_snapshots(snapshots)
            _run_serial(run, queue, retry)
            return
        broken = False
        futures: dict = {}
        handled: set = set()
        requeue: list = []
        try:
            try:
                for item in queue:
                    task, attempt = item
                    futures[pool.submit(
                        capture_telemetry, task.fn, task.payload, attempt,
                        True, tracing=run.tracing,
                    )] = item
            except BrokenExecutor:
                broken = True
            queue = []
            outstanding = set(futures)
            while outstanding and not broken:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    handled.add(future)
                    task, attempt = futures[future]
                    try:
                        result, telemetry = future.result()
                        if run.validate is not None:
                            run.validate(result)
                    except BrokenExecutor:
                        # The worker executing *some* task died; this
                        # future is collateral.  Requeue and rebuild.
                        broken = True
                        requeue.append((task, attempt + 1))
                        continue
                    except Exception as exc:
                        next_attempt = attempt + 1
                        if next_attempt < retry.max_attempts:
                            run.count_retry(task, attempt, exc)
                            _sleep_backoff(retry, next_attempt)
                            try:
                                new = pool.submit(
                                    capture_telemetry, task.fn,
                                    task.payload, next_attempt, True,
                                    tracing=run.tracing,
                                )
                            except BrokenExecutor:
                                broken = True
                                requeue.append((task, next_attempt))
                            else:
                                futures[new] = (task, next_attempt)
                                outstanding.add(new)
                        else:
                            if run.on_error == "raise":
                                # The error will propagate: flush the
                                # held snapshots first so completed
                                # tasks keep their telemetry.
                                _merge_indexed_snapshots(snapshots)
                            run.give_up(task, exc)
                        continue
                    # Worker-side metric/span increments come back in
                    # the snapshot; hold it for the index-ordered merge.
                    snapshots[task.index] = telemetry
                    run.accept(task, attempt, result)
        finally:
            if persistent is None:
                pool.shutdown(wait=True, cancel_futures=True)
            elif broken:
                persistent.invalidate(pool)
        if broken:
            run.pool_rebuilds += 1
            get_metrics().counter(f"{run.label}.pool_rebuilds_total").inc()
            for future, item in futures.items():
                if future in handled:
                    continue
                task, attempt = item
                requeue.append((task, attempt + 1))
            for task, attempt in requeue:
                run.retried += 1
                get_metrics().counter(f"{run.label}.retries_total").inc()
                if attempt < retry.max_attempts:
                    queue.append((task, attempt))
                else:
                    # Cannot know whether this task killed the pool;
                    # give it one attributable in-process attempt.
                    last_chance.append((task, attempt))
            if queue or last_chance:
                logger.warning(
                    "worker pool broke; rebuilding (%d tasks requeued, "
                    "%d falling back to serial)",
                    len(queue), len(last_chance),
                )

    _merge_indexed_snapshots(snapshots)
    if last_chance:
        final_policy = RetryPolicy(
            max_attempts=max(attempt for _, attempt in last_chance) + 1,
            backoff_base_s=0.0,
        )
        _run_serial(run, last_chance, final_policy)


def run_tasks(
    tasks,
    *,
    jobs: int | None = None,
    retry: "RetryPolicy | int | None" = None,
    label: str = "exec",
    on_error: str = "raise",
    validate: Callable | None = None,
    on_result: Callable | None = None,
    after_task: Callable | None = None,
) -> ExecResults:
    """Run every task and return results in task-index order.

    ``jobs`` follows the repo-wide convention (``None``/``1`` serial,
    ``0`` one worker per CPU).  ``validate`` runs on each result inside
    the retry loop (a validation failure consumes an attempt, exactly
    like a task exception).  ``on_result(task, attempt, result)`` runs
    on the parent for each accepted result *before* it is recorded
    (cache writes); ``after_task(task)`` runs after.

    ``on_error="raise"`` propagates the first exhausted failure;
    ``"quarantine"`` records it on the report with ``None`` at the
    task's result position.
    """
    tasks = list(tasks)
    retry = as_retry_policy(retry)
    if on_error not in ("raise", "quarantine"):
        raise ValidationError(
            f"on_error must be 'raise' or 'quarantine', got {on_error!r}"
        )
    n_workers = resolve_jobs(jobs)
    results = ExecResults([None] * len(tasks))
    run = _Run(
        results, retry, label, on_error, validate, on_result, after_task
    )
    start = time.perf_counter()
    if n_workers > 1 and len(tasks) > 1:
        _run_parallel(run, tasks, n_workers)
    else:
        n_workers = 1
        _run_serial(run, [(task, 0) for task in tasks], retry)
    results.report = ExecReport(
        n_tasks=len(tasks),
        n_workers=n_workers,
        n_executed=run.executed,
        elapsed_s=time.perf_counter() - start,
        n_retried=run.retried,
        n_quarantined=len(run.quarantined),
        quarantined=tuple(run.quarantined),
        pool_fallbacks=run.pool_fallbacks,
        pool_rebuilds=run.pool_rebuilds,
    )
    return results
