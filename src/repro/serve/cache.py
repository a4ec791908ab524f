"""Tier 1 of the serving hot path: response cache and single-flight.

The response cache is a bounded, thread-safe LRU keyed by request
digest.  A hit answers in microseconds without touching the pipeline;
eviction is purely by recency, and because keys are content addresses
a stale entry is impossible — any change to the corpus, config, or
schema changes every key (see :mod:`repro.serve.protocol`).

Each entry may also carry one **alias**: the
:func:`~repro.serve.protocol.replay_key` of request bytes the full path
answered with that entry's digest, so a byte-identical repeat is
answered without being parsed (:meth:`ResponseCache.replay`).  Aliases
live under the same lock and the same bound as the entries, and leave
with the entry they name.

Single-flight closes the stampede window the cache alone leaves open:
N identical requests arriving while the answer is still being computed
would otherwise each run the pipeline.  :class:`SingleFlight` lets the
first request (the *leader*) compute while the other N-1 (*followers*)
block on an event and receive the leader's result — exactly one
pipeline execution per digest, which ``benchmarks/test_serve_scaling.py``
pins by counter.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict

from repro.exceptions import ValidationError
from repro.obs.metrics import get_metrics


def _entry_bytes(response) -> int:
    """Approximate retained size: the response's compact JSON length.

    Responses are JSON-ready dicts (that is what the wire sends), so
    the encoded length is the honest measure of what a client-visible
    entry costs; non-JSON values (tests cache sentinels) fall back to
    ``str`` so sizing never raises.
    """
    return len(
        json.dumps(response, separators=(",", ":"), default=str).encode()
    )


class ResponseCache:
    """Bounded thread-safe LRU mapping request digests to responses.

    Bounded by **entry count** and optionally by **total bytes**
    (``max_bytes``): a flood of distinct large responses — exactly what
    a unique-payload load profile produces — evicts by recency instead
    of growing without limit.  Every eviction, by either bound, bumps
    ``serve.response_cache.evictions_total``.

    An entry holds at most one alias, the latest recorded, and an
    eviction drops it, so there are never more aliases than entries and
    an alias never names an evicted digest.
    """

    def __init__(self, max_entries: int = 1024, *, max_bytes: int | None = None):
        if max_entries < 1:
            raise ValidationError(
                f"response cache needs max_entries >= 1, got {max_entries}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ValidationError(
                f"response cache needs max_bytes >= 1, got {max_bytes}"
            )
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, tuple[object, int]] = OrderedDict()
        self._total_bytes = 0
        # Replay key -> digest, and its inverse: one alias per entry.
        self._aliases: dict[str, str] = {}
        self._alias_of: dict[str, str] = {}
        self._lock = threading.Lock()

    def get(self, digest: str):
        """The cached response, or ``None``; a hit refreshes recency."""
        metrics = get_metrics()
        with self._lock:
            if digest in self._entries:
                self._entries.move_to_end(digest)
                metrics.counter("serve.response_cache.hits_total").inc()
                return self._entries[digest][0]
        metrics.counter("serve.response_cache.misses_total").inc()
        return None

    def put(self, digest: str, response) -> None:
        """Insert (or refresh) an entry, evicting the least recent."""
        size = _entry_bytes(response) if self.max_bytes is not None else 0
        with self._lock:
            previous = self._entries.pop(digest, None)
            if previous is not None:
                self._total_bytes -= previous[1]
            self._entries[digest] = (response, size)
            self._total_bytes += size
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None
                and self._total_bytes > self.max_bytes
                and len(self._entries) > 1
            ):
                evicted, (_, evicted_size) = self._entries.popitem(last=False)
                self._total_bytes -= evicted_size
                self._drop_alias(self._alias_of.get(evicted))
                get_metrics().counter(
                    "serve.response_cache.evictions_total"
                ).inc()

    def alias(self, key: str, digest: str) -> None:
        """Let replay key ``key`` name the live entry ``digest``.

        It replaces the entry's previous alias; without a live entry
        (evicted since it answered) nothing is recorded.
        """
        with self._lock:
            if digest not in self._entries:
                return
            self._drop_alias(self._alias_of.get(digest))
            self._drop_alias(key)
            self._aliases[key] = digest
            self._alias_of[digest] = key

    def replay(self, key: str):
        """``(digest, response)`` for an aliased key, or ``None``.

        A replay is a hit: it refreshes recency and counts in
        ``serve.response_cache.hits_total`` and ``replays_total``.  An
        unknown key counts nothing; the full path's lookup counts the
        request.
        """
        metrics = get_metrics()
        with self._lock:
            digest = self._aliases.get(key)
            if digest is None:
                return None
            self._entries.move_to_end(digest)
            metrics.counter("serve.response_cache.hits_total").inc()
            metrics.counter("serve.response_cache.replays_total").inc()
            return digest, self._entries[digest][0]

    def has_alias(self, key: str) -> bool:
        return key in self._aliases

    def _drop_alias(self, key: str | None) -> None:
        digest = self._aliases.pop(key, None)
        if digest is not None:
            del self._alias_of[digest]

    @property
    def total_bytes(self) -> int:
        """Approximate bytes retained (0 when no byte bound is set)."""
        return self._total_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries


class _Flight:
    """One in-progress computation awaited by followers."""

    __slots__ = ("done", "value", "error")

    def __init__(self):
        self.done = threading.Event()
        self.value = None
        self.error: BaseException | None = None


class SingleFlight:
    """Coalesce concurrent identical computations down to one.

    ``run(key, fn)`` returns ``(value, leader)``: the first caller for
    a live ``key`` executes ``fn`` and is the leader; every concurrent
    caller with the same key blocks until the leader finishes and gets
    the same value (or the same exception, re-raised).  The flight is
    forgotten once settled, so a *later* call with the same key
    computes again — permanent memoization is the response cache's job,
    not this class's.
    """

    def __init__(self):
        self._flights: dict[str, _Flight] = {}
        self._lock = threading.Lock()

    def run(self, key: str, fn):
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
            else:
                leader = False
        if not leader:
            get_metrics().counter("serve.singleflight.coalesced_total").inc()
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, False
        try:
            flight.value = fn()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._flights.pop(key, None)
            flight.done.set()
        return flight.value, True
