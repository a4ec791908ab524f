"""Micro-batch admission queue for the serving cold path.

PR 9 serialized every distinct cold request under one compute lock —
safe (the engine's telemetry capture swaps the process-global metrics
registry, which tolerates one computation at a time) but wasteful: ten
concurrent *distinct* requests paid ten sequential pipeline fan-outs.

:class:`BatchScheduler` keeps the safety property with one **scheduler
thread** instead of a lock, and buys throughput with admission
batching, the canonical inference-stack move: the first waiting request
opens a window of ``window_ms``; every distinct request arriving inside
it joins the batch; the batch flushes when the window closes, when it
reaches ``max_batch``, or on drain — and executes as **one** call, so a
batch of Q rank queries costs one multi-query kernel fan-out
(:func:`repro.similarity.evaluation.multi_query_cross_distances`)
instead of Q sequential ones.  A predict request ranks its target
alone, through the same kernel, before its model transfer.
``max_batch=1`` reproduces the old serialized behavior exactly, which
is what the cold-path benchmark uses as its baseline.

Batching never changes answers: the executor computes each item's
response with the same per-item math as the serial path (the
multi-query kernel is bit-identical per query), and per-item failures
are per-item — one bad request in a batch (an unknown SKU, say) 400s
alone.

Items arrive decoded: the app decodes and digests each target on the
caller's thread before admission (``BatchItem.target``), so the
scheduler thread, which every item of a batch waits on, runs only
preparation, the kernel and the model.

Observability: ``serve.batch.size`` histogram and
``serve.batch.flush_{window,full,drain}_total`` counters explain every
flush.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.exceptions import ServeError, ValidationError
from repro.obs.logging import get_logger
from repro.obs.metrics import BATCH_SIZE_BUCKETS, get_metrics

logger = get_logger(__name__)


class BatchItem:
    """One admitted request waiting for (or holding) its result.

    ``target`` is the request's target as the app decoded it at the
    edge, on the caller's thread; the executor reads it, so the
    scheduler thread never decodes.
    """

    __slots__ = (
        "digest", "endpoint", "payload", "target", "done", "result",
        "error", "extra",
    )

    def __init__(self, digest: str, endpoint: str, payload: dict, target):
        self.digest = digest
        self.endpoint = endpoint
        self.payload = payload
        self.target = target
        self.done = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        #: Scratch slot for the executor (prepared matrices) — never
        #: read by the scheduler.
        self.extra = None

    def fail(self, error: BaseException) -> None:
        if self.error is None:
            self.error = error


class BatchScheduler:
    """Admission queue + single scheduler thread executing batches.

    ``execute`` receives a non-empty ``list[BatchItem]`` and must fill
    ``item.result`` or ``item.error`` for every item; the scheduler
    marks items done afterwards (and converts an ``execute``-level
    raise into a per-item error so no submitter hangs).
    """

    def __init__(
        self,
        execute,
        *,
        window_ms: float = 4.0,
        max_batch: int = 8,
    ):
        if window_ms < 0:
            raise ValidationError(
                f"batch window must be >= 0 ms, got {window_ms}"
            )
        if max_batch < 1:
            raise ValidationError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        self._execute = execute
        self.window_s = window_ms / 1000.0
        self.max_batch = max_batch
        self._queue: deque[BatchItem] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="serve-batcher", daemon=True
        )
        self._thread.start()

    # -- submission ------------------------------------------------------------
    def submit(self, digest: str, endpoint: str, payload: dict, *, target=None):
        """Enqueue one request and block until its batch executed."""
        item = BatchItem(digest, endpoint, payload, target)
        with self._cond:
            if self._closed:
                raise ServeError("batch scheduler is closed")
            self._queue.append(item)
            self._cond.notify_all()
        item.done.wait()
        if item.error is not None:
            raise item.error
        return item.result

    # -- the scheduler thread --------------------------------------------------
    def _collect(self) -> tuple[list[BatchItem], str] | None:
        """Block for the next batch; ``None`` means closed and empty."""
        with self._cond:
            while not self._queue and not self._closed:
                self._cond.wait()
            if not self._queue:
                return None
            batch = [self._queue.popleft()]
            if self._closed:
                # Drain: flush everything queued, no window.
                while self._queue and len(batch) < self.max_batch:
                    batch.append(self._queue.popleft())
                return batch, "drain"
            deadline = time.monotonic() + self.window_s
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return batch, "window"
                if not self._queue:
                    self._cond.wait(timeout=remaining)
                if self._queue:
                    batch.append(self._queue.popleft())
                elif self._closed:
                    return batch, "drain"
            return batch, "full"

    def _run(self) -> None:
        while True:
            collected = self._collect()
            if collected is None:
                return
            batch, reason = collected
            metrics = get_metrics()
            metrics.histogram(
                "serve.batch.size", buckets=BATCH_SIZE_BUCKETS
            ).observe(float(len(batch)))
            metrics.counter(f"serve.batch.flush_{reason}_total").inc()
            try:
                self._execute(batch)
            except BaseException as exc:  # noqa: BLE001 - must not kill thread
                logger.exception("batch executor failed (%d items)", len(batch))
                for item in batch:
                    if item.result is None:
                        item.fail(exc)
            finally:
                for item in batch:
                    if item.result is None and item.error is None:
                        item.fail(
                            ServeError("batch executor produced no result")
                        )
                    item.done.set()

    # -- lifecycle -------------------------------------------------------------
    def close(self, *, timeout: float = 30.0) -> bool:
        """Stop admissions, drain queued items, join the thread."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=timeout)
        return not self._thread.is_alive()

    @property
    def closed(self) -> bool:
        return self._closed
