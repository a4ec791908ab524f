"""BatchScheduler admission, flushing, error isolation, lifecycle."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import ServeError, ShuttingDownError, ValidationError
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.serve.batcher import BatchScheduler


@pytest.fixture
def fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield get_metrics()
    set_metrics(previous)


def echo_executor(batches):
    """Executor recording each batch and answering with its payload."""

    def execute(items):
        batches.append([item.digest for item in items])
        for item in items:
            item.result = {"echo": item.payload}

    return execute


class TestBatching:
    def test_single_submit_round_trips(self, fresh_metrics):
        batches = []
        scheduler = BatchScheduler(
            echo_executor(batches), window_ms=1.0, max_batch=8
        )
        try:
            result = scheduler.submit("d1", "/v1/rank", {"n": 1})
            assert result == {"echo": {"n": 1}}
            assert batches == [["d1"]]
        finally:
            scheduler.close()

    def test_concurrent_submits_share_a_batch(self, fresh_metrics):
        """A slow first batch piles the rest of the submissions into the
        window; they must flush together, not one by one."""
        batches = []
        release = threading.Event()

        def execute(items):
            if not batches:
                release.wait(5.0)
            batches.append([item.digest for item in items])
            for item in items:
                item.result = {"ok": item.digest}

        scheduler = BatchScheduler(execute, window_ms=10.0, max_batch=8)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                first = pool.submit(scheduler.submit, "d0", "/v1/rank", {})
                time.sleep(0.1)  # d0's window expired; it is executing (blocked)
                rest = [
                    pool.submit(scheduler.submit, f"d{k}", "/v1/rank", {})
                    for k in range(1, 5)
                ]
                time.sleep(0.05)  # the rest are queued behind d0
                release.set()
                assert first.result(timeout=5.0) == {"ok": "d0"}
                for k, future in enumerate(rest, start=1):
                    assert future.result(timeout=5.0) == {"ok": f"d{k}"}
            assert batches[0] == ["d0"]
            # Everything queued while d0 executed flushes as one batch.
            assert sorted(batches[1]) == ["d1", "d2", "d3", "d4"]
            assert len(batches) == 2
        finally:
            scheduler.close()

    def test_max_batch_caps_flush_size(self, fresh_metrics):
        batches = []
        release = threading.Event()

        def execute(items):
            if not batches:
                release.wait(5.0)
            batches.append([item.digest for item in items])
            for item in items:
                item.result = True

        scheduler = BatchScheduler(execute, window_ms=50.0, max_batch=2)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(scheduler.submit, f"d{k}", "/v1/rank", {})
                    for k in range(7)
                ]
                time.sleep(0.1)
                release.set()
                for future in futures:
                    assert future.result(timeout=5.0) is True
            assert all(len(batch) <= 2 for batch in batches)
        finally:
            scheduler.close()

    def test_max_batch_one_serializes(self, fresh_metrics):
        batches = []
        scheduler = BatchScheduler(
            echo_executor(batches), window_ms=50.0, max_batch=1
        )
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(scheduler.submit, f"d{k}", "/v1/rank", {})
                    for k in range(4)
                ]
                for future in futures:
                    future.result(timeout=5.0)
            assert all(len(batch) == 1 for batch in batches)
            assert len(batches) == 4
        finally:
            scheduler.close()


class TestErrorIsolation:
    def test_per_item_errors_stay_per_item(self, fresh_metrics):
        def execute(items):
            for item in items:
                if item.payload.get("bad"):
                    item.fail(ServeError("bad request"))
                else:
                    item.result = "ok"

        scheduler = BatchScheduler(execute, window_ms=1.0, max_batch=8)
        try:
            assert scheduler.submit("good", "/v1/rank", {}) == "ok"
            with pytest.raises(ServeError, match="bad request"):
                scheduler.submit("bad", "/v1/rank", {"bad": True})
            assert scheduler.submit("good2", "/v1/rank", {}) == "ok"
        finally:
            scheduler.close()

    def test_executor_raise_fails_unresolved_items_only(self, fresh_metrics):
        def execute(items):
            for item in items:
                if not item.payload.get("explode"):
                    item.result = "done"
            if any(item.payload.get("explode") for item in items):
                raise RuntimeError("executor blew up")

        scheduler = BatchScheduler(execute, window_ms=1.0, max_batch=8)
        try:
            assert scheduler.submit("ok", "/v1/rank", {}) == "done"
            with pytest.raises(RuntimeError, match="blew up"):
                scheduler.submit("boom", "/v1/rank", {"explode": True})
            # The scheduler thread survived the raise.
            assert scheduler.submit("ok2", "/v1/rank", {}) == "done"
        finally:
            scheduler.close()

    def test_executor_forgetting_an_item_errors_it(self, fresh_metrics):
        def execute(items):
            pass  # fills nothing

        scheduler = BatchScheduler(execute, window_ms=1.0, max_batch=8)
        try:
            with pytest.raises(ServeError, match="no result"):
                scheduler.submit("lost", "/v1/rank", {})
        finally:
            scheduler.close()


class TestLifecycle:
    def test_close_drains_then_rejects(self, fresh_metrics):
        batches = []
        scheduler = BatchScheduler(
            echo_executor(batches), window_ms=1.0, max_batch=8
        )
        scheduler.submit("d1", "/v1/rank", {})
        assert scheduler.close() is True
        assert scheduler.closed
        with pytest.raises(ServeError, match="closed"):
            scheduler.submit("d2", "/v1/rank", {})

    def test_only_the_closed_refusal_is_shutting_down(self, fresh_metrics):
        """The app answers ShuttingDownError with a 503 and any other
        ServeError with a 400, so a request's own failure must never
        carry the shutdown type."""

        def execute(items):
            items[0].fail(ServeError("bad request"))

        scheduler = BatchScheduler(execute, window_ms=0.0, max_batch=1)
        try:
            with pytest.raises(ServeError) as own:
                scheduler.submit("d1", "/v1/rank", {})
            assert not isinstance(own.value, ShuttingDownError)
        finally:
            assert scheduler.close() is True
        with pytest.raises(ShuttingDownError, match="closed"):
            scheduler.submit("d2", "/v1/rank", {})

    def test_close_is_idempotent(self, fresh_metrics):
        scheduler = BatchScheduler(
            echo_executor([]), window_ms=1.0, max_batch=2
        )
        assert scheduler.close() is True
        assert scheduler.close() is True

    def test_validates_parameters(self):
        with pytest.raises(ValidationError):
            BatchScheduler(lambda items: None, window_ms=-1.0)
        with pytest.raises(ValidationError):
            BatchScheduler(lambda items: None, max_batch=0)


class TestMetrics:
    def test_flush_reasons_and_sizes_recorded(self, fresh_metrics):
        release = threading.Event()
        seen = []

        def execute(items):
            if not seen:
                release.wait(5.0)
            seen.append(len(items))
            for item in items:
                item.result = True

        scheduler = BatchScheduler(execute, window_ms=30.0, max_batch=2)
        with ThreadPoolExecutor(max_workers=5) as pool:
            futures = [
                pool.submit(scheduler.submit, f"d{k}", "/v1/rank", {})
                for k in range(5)
            ]
            time.sleep(0.1)
            release.set()
            for future in futures:
                future.result(timeout=5.0)
        scheduler.close()
        snapshot = fresh_metrics.snapshot()
        assert snapshot["serve.batch.size"]["count"] == len(seen)
        flushes = sum(
            snapshot.get(f"serve.batch.flush_{reason}_total", {}).get(
                "value", 0
            )
            for reason in ("window", "full", "drain")
        )
        assert flushes == len(seen)
