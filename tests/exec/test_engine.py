"""The shared task engine: ordering, retries, quarantine, hooks."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.exec.engine import (
    ExecTask,
    RetryPolicy,
    as_retry_policy,
    run_tasks,
)
from repro.obs.metrics import MetricsRegistry, set_metrics

#: Retries without sleeping — the backoff schedule has its own tests.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.0)


@pytest.fixture
def fresh_metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _double(payload, attempt, in_worker):
    (value,) = payload
    return value * 2


def _fail_below_attempt(payload, attempt, in_worker):
    value, needed = payload
    if attempt < needed:
        raise RuntimeError(f"attempt {attempt} < {needed}")
    return value


def _explode(payload, attempt, in_worker):
    raise RuntimeError("always fails")


def tasks_for(values, fn=_double, extra=()):
    return [
        ExecTask(index=i, fn=fn, payload=(v, *extra), task_id=f"t{i}")
        for i, v in enumerate(values)
    ]


class TestOrderingAndParity:
    @pytest.mark.parametrize("jobs", [None, 1, 4])
    def test_results_in_submission_order(self, jobs):
        tasks = [
            ExecTask(index=i, fn=_double, payload=(v,))
            for i, v in enumerate([5, 3, 9, 1, 7])
        ]
        results = run_tasks(tasks, jobs=jobs)
        assert list(results) == [10, 6, 18, 2, 14]
        assert results.report.n_executed == 5
        assert results.report.n_tasks == 5

    def test_single_task_runs_serial_even_with_jobs(self):
        results = run_tasks(tasks_for([4]), jobs=8)
        assert results.report.n_workers == 1

    def test_empty_task_list(self):
        results = run_tasks([])
        assert list(results) == []
        assert results.report.n_tasks == 0


class TestRetryAndQuarantine:
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_transient_failures_are_retried(self, jobs, fresh_metrics):
        tasks = [
            ExecTask(
                index=i, fn=_fail_below_attempt, payload=(v, 1),
                task_id=f"t{i}",
            )
            for i, v in enumerate([1, 2, 3])
        ]
        results = run_tasks(tasks, jobs=jobs, retry=FAST_RETRY)
        assert list(results) == [1, 2, 3]
        assert results.report.n_retried == 3
        assert (
            fresh_metrics.counter("exec.retries_total").value == 3
        )

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_quarantine_records_none_and_reasons(self, jobs, fresh_metrics):
        tasks = tasks_for([1, 2]) + [
            ExecTask(index=2, fn=_explode, payload=(), task_id="doomed")
        ]
        results = run_tasks(
            tasks, jobs=jobs, retry=FAST_RETRY, on_error="quarantine"
        )
        assert list(results) == [2, 4, None]
        report = results.report
        assert report.n_quarantined == 1
        assert report.quarantined[0][0] == "doomed"
        assert "RuntimeError" in report.quarantined[0][1]
        assert (
            fresh_metrics.counter("exec.quarantined_total").value == 1
        )

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_on_error_raise_propagates(self, jobs):
        tasks = tasks_for([1, 2]) + [
            ExecTask(index=2, fn=_explode, payload=())
        ]
        with pytest.raises(RuntimeError, match="always fails"):
            run_tasks(tasks, jobs=jobs, retry=1, on_error="raise")

    def test_validate_failure_consumes_an_attempt(self, fresh_metrics):
        def reject_small(value):
            if value < 10:
                raise ValidationError(f"{value} too small")

        results = run_tasks(
            tasks_for([3]), retry=FAST_RETRY, on_error="quarantine",
            validate=reject_small,
        )
        assert list(results) == [None]
        assert results.report.n_retried == 2  # both retries burned

    def test_rejects_unknown_on_error(self):
        with pytest.raises(ValidationError):
            run_tasks([], on_error="shrug")

    def test_as_retry_policy(self):
        assert as_retry_policy(None) == RetryPolicy()
        assert as_retry_policy(5).max_attempts == 5
        policy = RetryPolicy(max_attempts=2)
        assert as_retry_policy(policy) is policy
        with pytest.raises(TypeError):
            as_retry_policy("twice")


class TestHooks:
    def test_hook_order_on_result_journal_after_task(self):
        events = []
        tasks = [
            ExecTask(
                index=i, fn=_double, payload=(v,), key=f"k{i}",
                task_id=f"t{i}",
            )
            for i, v in enumerate([1, 2])
        ]
        run_tasks(
            tasks,
            on_result=lambda t, a, r: events.append(("result", t.index, r)),
            after_task=lambda t: events.append(("after", t.index)),
        )
        assert events == [
            ("result", 0, 2), ("after", 0),
            ("result", 1, 4), ("after", 1),
        ]
