"""Benchmark-side layer timing: wrap calls into each layer, keep self time.

The program's own tracer is off in the serving path and its span names
are not yet one vocabulary, so the benchmark times layers itself: it
wraps the functions and methods that form each layer's entry point and
records, per layer, the wall time spent inside them minus the time spent
in nested wrapped calls (self time).  Wrapping happens only in traced
runs (``--trace 1``); untraced runs measure the unmodified program.

Work executed on the serving scheduler thread on behalf of a whole batch
is collected per batch and weighted by the batch size, because every
request of the batch waits for all of it.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class LayerClock:
    """Self time per layer, summed over the operations of one run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (start of the timed window)."""
        with self._lock:
            self.totals: dict[str, float] = defaultdict(float)
            self.batch_seconds = 0.0

    def _add(self, layer: str, seconds: float) -> None:
        sink = getattr(self._local, "sink", None)
        if sink is not None:
            sink[layer] += seconds
            return
        with self._lock:
            self.totals[layer] += seconds

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str):
        """Time the enclosed block as ``layer`` (self time only)."""
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
            self._add(layer, elapsed - nested)

    def wrap(self, layer: str, fn):
        """``fn`` wrapped in a :meth:`span` of ``layer``."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)

        return timed

    @contextmanager
    def batch(self, size: int):
        """Collect this thread's spans for one batch of ``size`` requests."""
        self._local.sink = sink = defaultdict(float)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._local.sink = None
            with self._lock:
                for layer, seconds in sink.items():
                    self.totals[layer] += size * seconds
                self.batch_seconds += size * elapsed


@contextmanager
def patched(targets):
    """Temporarily replace attributes: ``(owner, name, factory)`` triples.

    ``factory(original)`` returns the replacement.  A missing attribute
    raises ``AttributeError`` at once, so a renamed entry point fails
    the traced run loudly instead of silently dropping its layer.
    Owners may be modules, classes or instances; every attribute is
    restored exactly on exit.
    """
    saved = []
    try:
        for owner, name, factory in targets:
            original = getattr(owner, name)
            own = name in vars(owner)
            saved.append((owner, name, vars(owner).get(name), own))
            setattr(owner, name, factory(original))
        yield
    finally:
        for owner, name, value, own in reversed(saved):
            if own:
                setattr(owner, name, value)
            else:
                delattr(owner, name)


def timed_by(clock: LayerClock, layer: str):
    """A :func:`patched` factory wrapping the original in ``layer``."""
    return lambda original: clock.wrap(layer, original)
