"""Deterministic fault injection for corpus builds.

An hours-long corpus build meets real failures: worker processes die,
tasks raise transient exceptions, cache writes are torn mid-flight by a
crash, and telemetry windows occasionally come back NaN or all-zero.
This module makes every one of those failure modes *reproducible* so the
execution layer (:mod:`repro.workloads.gridexec`) and the cache
(:mod:`repro.workloads.cache`) can be hardened against them and stay
hardened — the fault-matrix CI job replays each injector class against
the grid/cache suites on every change.

Injection is seedable and pure: whether an injector fires for a task is
a hash of ``(injector name, injector seed, task seed, rate)``, so the
same plan fires on the same tasks in any process, any worker count, and
any execution order.  ``max_failures`` bounds how many *attempts* of a
selected task fail, which separates transient faults (fail once, succeed
on retry) from persistent ones (fail every attempt, ending in
quarantine).

Injectors plug into four hook points of the executor:

- ``before_run(task, attempt, in_worker=...)`` — raise (or kill the
  worker process) before the simulator runs;
- ``mutate_result(task, attempt, result)`` — corrupt the result a run
  produced (NaN/zero telemetry windows);
- ``after_put(cache, key, task, attempt)`` — tear the on-disk cache
  entry a completed task just wrote;
- ``after_task(task)`` — fire in the coordinating process after a task
  completes (:class:`KillSwitch` simulates SIGKILL here).

A :class:`FaultPlan` bundles injectors and dispatches each hook; it is
picklable, so the same plan travels into worker processes.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro.exceptions import ReproError
from repro.obs.logging import get_logger
from repro.obs.metrics import get_metrics

logger = get_logger(__name__)


class FaultInjectionError(ReproError):
    """Base class for injected (simulated) failures."""


class InjectedTaskError(FaultInjectionError):
    """A transient task exception raised by :class:`TaskExceptionInjector`."""


class InjectedWorkerDeath(FaultInjectionError):
    """Serial-mode stand-in for a worker-process death."""


class InjectedKill(BaseException):
    """Simulated SIGKILL of the whole build process.

    Deliberately a :class:`BaseException`: nothing in the retry or
    quarantine machinery may catch it, exactly as nothing catches a real
    SIGKILL.  Tests catch it at the call site and then exercise the
    resume path.
    """


def _unit_hash(*parts) -> float:
    """Deterministic uniform value in ``[0, 1)`` from ``parts``."""
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultInjector:
    """Base class: seeded per-task selection with an attempt budget.

    ``rate`` is the fraction of tasks selected (1.0 = every task); a
    selected task fails on attempts ``0 .. max_failures - 1`` and
    behaves normally afterwards, so ``max_failures`` below the retry
    budget models a transient fault and above it a persistent one.
    """

    name = "fault"

    def __init__(self, rate: float = 1.0, *, seed: int = 0,
                 max_failures: int = 1):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if max_failures < 0:
            raise ValueError(
                f"max_failures must be >= 0, got {max_failures}"
            )
        self.rate = float(rate)
        self.seed = int(seed)
        self.max_failures = int(max_failures)

    def selects(self, task) -> bool:
        """Whether ``task`` is in this injector's deterministic fault set."""
        return _unit_hash(self.name, self.seed, task.seed) < self.rate

    def fires(self, task, attempt: int) -> bool:
        """Whether this injector faults ``attempt`` of ``task``."""
        if attempt >= self.max_failures:
            return False
        if not self.selects(task):
            return False
        get_metrics().counter("faults.injected_total").inc()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(rate={self.rate}, seed={self.seed}, "
            f"max_failures={self.max_failures})"
        )


class TaskExceptionInjector(FaultInjector):
    """Raise a transient exception before the simulator runs."""

    name = "task-exception"

    def before_run(self, task, attempt: int, *, in_worker: bool) -> None:
        if self.fires(task, attempt):
            raise InjectedTaskError(
                f"injected transient failure: {task.task_id} "
                f"(attempt {attempt})"
            )


class WorkerDeathInjector(FaultInjector):
    """Kill the worker process executing a task.

    In a pool worker this is a hard ``os._exit`` — the real thing: the
    executor sees a broken pool, not an exception.  In serial (in-process)
    execution a hard exit would kill the build itself, so the injector
    raises :class:`InjectedWorkerDeath` instead.
    """

    name = "worker-death"

    #: Exit status of killed workers (visible in pool diagnostics).
    EXIT_CODE = 87

    def before_run(self, task, attempt: int, *, in_worker: bool) -> None:
        if not self.fires(task, attempt):
            return
        if in_worker:
            os._exit(self.EXIT_CODE)
        raise InjectedWorkerDeath(
            f"injected worker death: {task.task_id} (attempt {attempt})"
        )


class TelemetryFaultInjector(FaultInjector):
    """Poison a result's telemetry with a NaN or all-zero window.

    ``mode="nan"`` models a telemetry collector dropping samples — the
    executor's finiteness validation must catch it and retry rather than
    let NaN reach the repository or cache.  ``mode="zero"`` models a
    zero-throughput window: finite, so it survives to downstream
    consumers, which is exactly the input the latency-conversion guard in
    :mod:`repro.prediction.evaluation` exists for.
    """

    name = "telemetry"

    def __init__(self, rate: float = 1.0, *, seed: int = 0,
                 max_failures: int = 1, mode: str = "nan"):
        super().__init__(rate, seed=seed, max_failures=max_failures)
        if mode not in ("nan", "zero"):
            raise ValueError(f"mode must be 'nan' or 'zero', got {mode!r}")
        self.mode = mode

    def mutate_result(self, task, attempt: int, result):
        if not self.fires(task, attempt):
            return result
        from repro.workloads.runner import clone_with

        series = np.array(result.throughput_series, dtype=float, copy=True)
        window = max(1, series.size // 10)
        series[:window] = np.nan if self.mode == "nan" else 0.0
        return clone_with(result, throughput_series=series)


class TornWriteInjector(FaultInjector):
    """Tear or corrupt the cache entry a task just wrote.

    Models a crash landing mid-write or a disk flipping bits under the
    entry.  The injected damage must never abort or poison a later
    build: a torn entry is a cache miss, and ``CorpusCache.verify()``
    must find every one of them.
    """

    name = "torn-write"

    MODES = ("truncate-npz", "corrupt-npz", "truncate-sidecar",
             "drop-sidecar")

    def __init__(self, rate: float = 1.0, *, seed: int = 0,
                 max_failures: int = 1, mode: str = "truncate-npz"):
        super().__init__(rate, seed=seed, max_failures=max_failures)
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode

    def after_put(self, cache, key: str, task, attempt: int) -> None:
        if not self.fires(task, attempt):
            return
        npz_path, json_path = cache.entry_paths(key)
        if self.mode == "truncate-npz":
            data = npz_path.read_bytes()
            npz_path.write_bytes(data[: max(1, len(data) // 2)])
        elif self.mode == "corrupt-npz":
            npz_path.write_bytes(b"\x00" * 64)
        elif self.mode == "truncate-sidecar":
            text = json_path.read_text()
            json_path.write_text(text[: max(1, len(text) // 2)])
        else:  # drop-sidecar
            json_path.unlink()
        logger.debug("injected %s on cache entry %s", self.mode, key)


class KillSwitch:
    """Simulate SIGKILL of the build after ``after_tasks`` completions.

    Unlike the rate-based injectors this is a one-shot, count-based
    trigger that fires in the *coordinating* process, at a task
    boundary — the point a real SIGKILL is most likely to land in an
    hours-long build.  Everything completed before the kill is already
    cached, which is what the resume path is tested against.
    """

    def __init__(self, after_tasks: int):
        if after_tasks < 0:
            raise ValueError(f"after_tasks must be >= 0, got {after_tasks}")
        self.after_tasks = int(after_tasks)
        self.completed = 0

    def after_task(self, task) -> None:
        self.completed += 1
        if self.completed >= self.after_tasks:
            raise InjectedKill(
                f"injected kill after {self.completed} completed tasks"
            )


class FaultPlan:
    """An ordered bundle of injectors, dispatched at each executor hook.

    Hooks are duck-typed: an injector participates in exactly the hooks
    it defines.  The plan is picklable and travels into pool workers, so
    worker-side hooks (``before_run``, ``mutate_result``) make the same
    deterministic decisions the coordinator would.
    """

    def __init__(self, *injectors):
        self.injectors = tuple(injectors)

    def before_run(self, task, attempt: int, *, in_worker: bool = False) -> None:
        for injector in self.injectors:
            hook = getattr(injector, "before_run", None)
            if hook is not None:
                hook(task, attempt, in_worker=in_worker)

    def mutate_result(self, task, attempt: int, result):
        for injector in self.injectors:
            hook = getattr(injector, "mutate_result", None)
            if hook is not None:
                result = hook(task, attempt, result)
        return result

    def after_put(self, cache, key: str, task, attempt: int) -> None:
        for injector in self.injectors:
            hook = getattr(injector, "after_put", None)
            if hook is not None:
                hook(cache, key, task, attempt)

    def after_task(self, task) -> None:
        for injector in self.injectors:
            hook = getattr(injector, "after_task", None)
            if hook is not None:
                hook(task)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(repr(i) for i in self.injectors)
        return f"FaultPlan({inner})"


#: Injector classes by the short names the fault-matrix CI job uses.
INJECTOR_CLASSES = {
    "task-exception": TaskExceptionInjector,
    "worker-death": WorkerDeathInjector,
    "telemetry": TelemetryFaultInjector,
    "torn-write": TornWriteInjector,
}
