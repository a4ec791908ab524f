"""BatchScheduler admission, ordering, error isolation, lifecycle."""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import pytest

from repro.exceptions import ServeError, ShuttingDownError
from repro.serve.batcher import BatchScheduler


def echo_executor(batches):
    """Executor recording each batch and answering with its payload."""

    def execute(items):
        batches.append([item.digest for item in items])
        for item in items:
            item.result = {"echo": item.payload}

    return execute


def wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def in_background(call, *args):
    """Run ``call(*args)`` on a daemon thread; returns its future.

    A daemon thread, so a submit that is never answered fails the test
    at its ``result(timeout=...)`` instead of hanging the run.
    """
    future = Future()

    def run():
        try:
            future.set_result(call(*args))
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            future.set_exception(exc)

    threading.Thread(target=run, daemon=True).start()
    return future


def queue_behind_a_blocked_item(scheduler, started, bodies):
    """Submit ``d0``, wait until the executor holds it, then submit one
    item per entry of ``bodies``, each once the previous one is queued.

    Returns the futures of ``d0`` and of the queued items, in order.
    """
    futures = [in_background(scheduler.submit, "d0", "/v1/rank", {})]
    assert started.wait(5.0)
    for k, body in enumerate(bodies, start=1):
        futures.append(
            in_background(scheduler.submit, f"d{k}", "/v1/rank", body)
        )
        wait_for(lambda: len(scheduler._queue) == k)
    return futures


class TestOrdering:
    def test_single_submit_round_trips(self):
        batches = []
        scheduler = BatchScheduler(echo_executor(batches))
        try:
            result = scheduler.submit("d1", "/v1/rank", {"n": 1})
            assert result == {"echo": {"n": 1}}
            assert batches == [["d1"]]
        finally:
            scheduler.close()

    def test_concurrent_submits_reach_the_executor_alone_in_arrival_order(
        self,
    ):
        """Items queued while the executor is busy each get a turn of
        their own, oldest first."""
        batches = []
        started, release = threading.Event(), threading.Event()

        def execute(items):
            batches.append([item.digest for item in items])
            started.set()
            release.wait(5.0)
            for item in items:
                item.result = {"ok": item.digest}

        scheduler = BatchScheduler(execute)
        try:
            futures = queue_behind_a_blocked_item(scheduler, started, [{}] * 5)
            release.set()
            for k, future in enumerate(futures):
                assert future.result(timeout=5.0) == {"ok": f"d{k}"}
            assert batches == [[f"d{k}"] for k in range(6)]
        finally:
            scheduler.close()

    def test_every_turn_runs_on_the_one_scheduler_thread(self):
        """Compute never runs on a caller's thread: the engine's
        telemetry capture swaps the process-global metrics registry, and
        the traced serving benchmark subtracts scheduler-thread compute
        from the caller's submit time."""
        threads = []

        def execute(items):
            threads.append(threading.current_thread())
            for item in items:
                item.result = item.digest

        scheduler = BatchScheduler(execute)
        try:
            futures = [
                in_background(scheduler.submit, f"d{k}", "/v1/rank", {})
                for k in range(8)
            ]
            for k, future in enumerate(futures):
                assert future.result(timeout=5.0) == f"d{k}"
            assert scheduler.submit("main", "/v1/rank", {}) == "main"
        finally:
            scheduler.close()
        assert len(threads) == 9
        assert set(threads) == {scheduler._thread}
        assert scheduler._thread is not threading.main_thread()

    def test_turns_never_overlap_under_concurrent_submits(self):
        """Sixteen callers submit at once, with nothing queued first:
        the executor still gets one item per call and never runs two
        calls at a time."""
        lock = threading.Lock()
        active, peak, sizes = [0], [0], []

        def execute(items):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                sizes.append(len(items))
            time.sleep(0.002)
            for item in items:
                item.result = {"ok": item.digest}
            with lock:
                active[0] -= 1

        scheduler = BatchScheduler(execute)
        barrier = threading.Barrier(16)

        def submit(k):
            barrier.wait(5.0)
            return scheduler.submit(f"d{k}", "/v1/rank", {})

        try:
            futures = [in_background(submit, k) for k in range(16)]
            for k, future in enumerate(futures):
                assert future.result(timeout=10.0) == {"ok": f"d{k}"}
        finally:
            scheduler.close()
        assert sizes == [1] * 16
        assert peak[0] == 1


class TestErrorIsolation:
    def test_per_item_errors_stay_per_item(self):
        def execute(items):
            for item in items:
                if item.payload.get("bad"):
                    item.fail(ServeError("bad request"))
                else:
                    item.result = "ok"

        scheduler = BatchScheduler(execute)
        try:
            assert scheduler.submit("good", "/v1/rank", {}) == "ok"
            with pytest.raises(ServeError, match="bad request"):
                scheduler.submit("bad", "/v1/rank", {"bad": True})
            assert scheduler.submit("good2", "/v1/rank", {}) == "ok"
        finally:
            scheduler.close()

    def test_executor_raise_fails_unresolved_items_only(self):
        def execute(items):
            for item in items:
                if not item.payload.get("explode"):
                    item.result = "done"
            if any(item.payload.get("explode") for item in items):
                raise RuntimeError("executor blew up")

        scheduler = BatchScheduler(execute)
        try:
            assert scheduler.submit("ok", "/v1/rank", {}) == "done"
            with pytest.raises(RuntimeError, match="blew up"):
                scheduler.submit("boom", "/v1/rank", {"explode": True})
            # The scheduler thread survived the raise.
            assert scheduler.submit("ok2", "/v1/rank", {}) == "done"
        finally:
            scheduler.close()

    def test_executor_forgetting_an_item_errors_it(self):
        def execute(items):
            pass  # fills nothing

        scheduler = BatchScheduler(execute)
        try:
            with pytest.raises(ServeError, match="no result"):
                scheduler.submit("lost", "/v1/rank", {})
        finally:
            scheduler.close()

    def test_a_raise_leaves_the_items_queued_behind_it_answered(self):
        """The executor raising on one item fails that item alone; the
        items already queued behind it still get their own turns."""
        started, release = threading.Event(), threading.Event()

        def execute(items):
            started.set()
            release.wait(5.0)
            for item in items:
                if item.digest == "d0":
                    raise RuntimeError("d0 blew up")
                item.result = {"ok": item.digest}

        scheduler = BatchScheduler(execute)
        try:
            futures = queue_behind_a_blocked_item(scheduler, started, [{}] * 3)
            release.set()
            with pytest.raises(RuntimeError, match="d0 blew up"):
                futures[0].result(timeout=5.0)
            for k in (1, 2, 3):
                assert futures[k].result(timeout=5.0) == {"ok": f"d{k}"}
        finally:
            scheduler.close()


class TestLifecycle:
    def test_close_drains_then_rejects(self):
        batches = []
        scheduler = BatchScheduler(echo_executor(batches))
        scheduler.submit("d1", "/v1/rank", {})
        assert scheduler.close() is True
        assert scheduler.closed
        with pytest.raises(ServeError, match="closed"):
            scheduler.submit("d2", "/v1/rank", {})

    def test_only_the_closed_refusal_is_shutting_down(self):
        """The app answers ShuttingDownError with a 503 and any other
        ServeError with a 400, so a request's own failure must never
        carry the shutdown type."""

        def execute(items):
            items[0].fail(ServeError("bad request"))

        scheduler = BatchScheduler(execute)
        try:
            with pytest.raises(ServeError) as own:
                scheduler.submit("d1", "/v1/rank", {})
            assert not isinstance(own.value, ShuttingDownError)
        finally:
            assert scheduler.close() is True
        with pytest.raises(ShuttingDownError, match="closed"):
            scheduler.submit("d2", "/v1/rank", {})

    def test_close_is_idempotent(self):
        scheduler = BatchScheduler(echo_executor([]))
        assert scheduler.close() is True
        assert scheduler.close() is True

    def test_close_reports_a_turn_still_running_past_its_timeout(self):
        """``close(timeout=...)`` returns False while the executor still
        holds an item; the item keeps its answer, and a later close()
        returns True."""
        started, release = threading.Event(), threading.Event()

        def execute(items):
            started.set()
            release.wait(5.0)
            for item in items:
                item.result = "late"

        scheduler = BatchScheduler(execute)
        pending = in_background(scheduler.submit, "d0", "/v1/rank", {})
        assert started.wait(5.0)
        try:
            assert scheduler.close(timeout=0.05) is False
            assert scheduler.closed
        finally:
            release.set()
        assert pending.result(timeout=5.0) == "late"
        assert scheduler.close() is True

    def test_close_answers_every_queued_item(self):
        """Items queued behind a blocked one when close() begins still
        compute, each keeping its own result or error; close() returns
        True once they have."""
        started, release = threading.Event(), threading.Event()

        def execute(items):
            started.set()
            release.wait(5.0)
            for item in items:
                if item.payload.get("bad"):
                    item.fail(ServeError(f"bad {item.digest}"))
                else:
                    item.result = {"ok": item.digest}

        scheduler = BatchScheduler(execute)
        futures = queue_behind_a_blocked_item(
            scheduler, started, [{}, {"bad": True}, {}]
        )
        closing = in_background(scheduler.close)
        wait_for(lambda: scheduler.closed)
        with pytest.raises(ShuttingDownError, match="closed"):
            scheduler.submit("late", "/v1/rank", {})
        release.set()
        assert closing.result(timeout=5.0) is True
        assert futures[0].result(timeout=5.0) == {"ok": "d0"}
        assert futures[1].result(timeout=5.0) == {"ok": "d1"}
        with pytest.raises(ServeError, match="bad d2") as own:
            futures[2].result(timeout=5.0)
        assert not isinstance(own.value, ShuttingDownError)
        assert futures[3].result(timeout=5.0) == {"ok": "d3"}
