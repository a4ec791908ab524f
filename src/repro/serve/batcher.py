"""FIFO admission queue for the serving cold path.

The engine's telemetry capture swaps the process-global metrics
registry, which tolerates one computation at a time, not two
interleaved ones.  :class:`BatchScheduler` keeps that property with one
**scheduler thread**: admitted requests wait in a first-in, first-out
queue, and the thread hands its executor exactly one of them per turn,
in arrival order.  A request that finds the thread idle computes at
once.

It does not batch: executing the distinct requests that arrive within
a window as one call was no faster on ``serve_cold`` than one request
per turn, and a request that found the scheduler idle waited out the
whole window (``docs/serving.md``, "The cold path").

Items arrive decoded: the app decodes and digests each target on the
caller's thread before admission (``BatchItem.target``), so the
scheduler thread runs only preparation, the kernel and the model.  An
item's failure is its own: the executor's raise becomes the item's
error, and the thread goes on to the next item.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.exceptions import ServeError, ShuttingDownError


class BatchItem:
    """One admitted request waiting for (or holding) its result.

    ``target`` is the request's target as the app decoded it at the
    edge, on the caller's thread; the executor reads it, so the
    scheduler thread never decodes.
    """

    __slots__ = (
        "digest", "endpoint", "payload", "target", "done", "result", "error",
    )

    def __init__(self, digest: str, endpoint: str, payload: dict, target):
        self.digest = digest
        self.endpoint = endpoint
        self.payload = payload
        self.target = target
        self.done = threading.Event()
        self.result = None
        self.error: BaseException | None = None

    def fail(self, error: BaseException) -> None:
        if self.error is None:
            self.error = error


class BatchScheduler:
    """Admission queue + the single scheduler thread computing it.

    ``execute`` receives a one-item ``list[BatchItem]`` per turn and
    must fill the item's ``result`` or ``error``; a raise becomes the
    item's error, and an item left with neither gets one.
    """

    def __init__(self, execute):
        self._execute = execute
        self._queue: deque[BatchItem] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="serve-scheduler", daemon=True
        )
        self._thread.start()

    # -- submission ------------------------------------------------------------
    def submit(self, digest: str, endpoint: str, payload: dict, *, target=None):
        """Enqueue one request and block until it has been computed."""
        item = BatchItem(digest, endpoint, payload, target)
        with self._cond:
            if self._closed:
                raise ShuttingDownError("batch scheduler is closed")
            self._queue.append(item)
            self._cond.notify()
        item.done.wait()
        if item.error is not None:
            raise item.error
        return item.result

    # -- the scheduler thread --------------------------------------------------
    def _next(self) -> BatchItem | None:
        """Block for the oldest queued item; ``None`` means closed and empty."""
        with self._cond:
            while not self._queue and not self._closed:
                self._cond.wait()
            return self._queue.popleft() if self._queue else None

    def _run(self) -> None:
        while (item := self._next()) is not None:
            try:
                self._execute([item])
            except Exception as exc:  # the item's own failure; the app reports it
                item.fail(exc)
            finally:
                if item.result is None and item.error is None:
                    item.fail(ServeError("the executor produced no result"))
                item.done.set()

    # -- lifecycle -------------------------------------------------------------
    def close(self, *, timeout: float = 30.0) -> bool:
        """Stop admissions, compute the queued items, join the thread."""
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._thread.join(timeout=timeout)
        return not self._thread.is_alive()

    @property
    def closed(self) -> bool:
        return self._closed
