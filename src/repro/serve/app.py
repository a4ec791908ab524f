"""Transport-free request handling: routes, cache tiers, accounting.

:class:`ServeApp` is everything about the server except sockets — the
HTTP layer (:mod:`repro.serve.server`) reads the request and calls
:meth:`ServeApp.replay`, then, unless that answered, parses the body
and calls :meth:`ServeApp.handle`; tests call both directly.  The hot
path:

0. **replay** — before the body is parsed, its
   :func:`~repro.serve.protocol.replay_key` (a SHA-256 of the endpoint
   and the raw bytes) is looked up among the response cache's aliases;
   a key the full path answered with a 200 names that answer's
   digest, and the repeat gets the memory hit's envelope without a
   parse, a decode or a digest.  ``handle`` records the alias after
   each 200;
1. decode the target once, on the caller's thread
   (:func:`repro.serve.protocol.decode_experiments`; a malformed or
   non-finite target is a 400 here, and so, before the decode, is any
   ``mode`` but ``"sync"``), and digest the request with the target
   replaced by its decoded experiments' content addresses
   (:func:`~repro.serve.protocol.experiment_digest`, then
   :func:`~repro.serve.protocol.request_digest`);
2. **tier 1** — the in-process LRU :class:`ResponseCache`; a hit
   answers without touching the pipeline;
3. **single-flight** — concurrent identical misses coalesce onto one
   leader; followers are answered with the leader's result
   (``meta.cache_tier == "coalesced"``);
4. **tiers 2/3** — leaders submit to the
   :class:`~repro.serve.batcher.BatchScheduler`, whose one scheduler
   thread computes admitted requests one at a time, in arrival order:
   a rank target is ranked, a predict target ranked and its nearest
   reference's scaling model transferred, with persisted Distance/Fit
   caches absorbing repeated sub-work and the persistent worker pool
   running what remains.  The decoded target travels with the
   request, so the scheduler never decodes.

The single scheduler thread serializes engine work because the
engine's telemetry capture swaps the process-global metrics registry —
safe for one computation at a time, not for two interleaved ones.
Scale-out is horizontal: multiple server processes share the same
on-disk caches (safe under concurrent writers; pinned by
``tests/integration/test_concurrent_caches.py``).

Responses are enveloped as ``{"digest", "result", "meta"}`` — ``meta``
(cache tier, timing) varies per delivery, ``result`` is the cached,
bit-stable answer.  Once :meth:`ServeApp.shutdown` has begun, compute
gets a 503 (:class:`~repro.exceptions.ShuttingDownError`).

Every request records ``serve.request_ms``, per-endpoint counters, and
optionally one ledger row, so a serving process leaves the same audit
trail as a CLI run.
"""

from __future__ import annotations

import time

from repro.exceptions import ReproError, ServeError, ShuttingDownError
from repro.obs.ledger import RunLedger, build_row, resolve_ledger_path
from repro.obs.logging import get_logger
from repro.obs.metrics import LATENCY_MS_BUCKETS, get_metrics
from repro.obs.tracing import span
from repro.serve.batcher import BatchScheduler
from repro.serve.cache import ResponseCache, SingleFlight
from repro.serve.protocol import (
    SERVE_FORMAT_VERSION,
    app_identity,
    decode_experiments,
    endpoint_of,
    experiment_digest,
    request_digest,
)
from repro.workloads.repository import ExperimentRepository

logger = get_logger(__name__)

#: Endpoints that accept POSTed computation requests.
COMPUTE_ENDPOINTS = ("/v1/rank", "/v1/predict")

#: The error of every compute request answered once shutdown has begun.
SHUTTING_DOWN = "server is shutting down"


class ServeApp:
    """The server's request handler, independent of any socket."""

    def __init__(
        self,
        service,
        *,
        references_digest: str = "",
        response_cache_size: int = 1024,
        response_cache_bytes: int | None = None,
        ledger=None,
    ):
        self.service = service
        self.identity = app_identity(
            _config_dict(service.config), references_digest
        )
        self.response_cache = ResponseCache(
            response_cache_size, max_bytes=response_cache_bytes
        )
        self.single_flight = SingleFlight()
        self.batcher = BatchScheduler(self._execute_batch)
        self._ledger = (
            RunLedger(resolve_ledger_path(ledger)) if ledger else None
        )
        self._started = time.time()
        self._shutdown = False

    # -- routing ---------------------------------------------------------------
    def replay(self, path: str, key: str):
        """Answer a byte-identical repeat without parsing it, or ``None``.

        ``key`` is the POSTed body's
        :func:`~repro.serve.protocol.replay_key`.  When an alias names a
        live response-cache entry, the answer is exactly the memory
        hit's: the same envelope (tier ``"memory"``), counters and
        ``serve.request_ms``; once shutdown has begun, the 503.  It is
        exact because the same bytes at the same endpoint parse, decode,
        validate and digest alike under one server identity.  ``None``
        sends the request down the full path (:meth:`handle`).
        """
        started = time.perf_counter()
        if self._shutdown:
            if not self.response_cache.has_alias(key):
                return None
            status, body = 503, {"error": SHUTTING_DOWN}
        else:
            hit = self.response_cache.replay(key)
            if hit is None:
                return None
            digest, result = hit
            status, body = 200, _envelope(
                digest, result, "memory", endpoint_of(path)
            )
        self._account(started, status)
        return status, body, "application/json"

    def handle(
        self, method: str, path: str, payload, key: str | None = None
    ) -> tuple[int, dict, str]:
        """Serve one request; returns ``(status, body, content_type)``.

        A 200 from a compute endpoint records ``key``, the body's replay
        key, as an alias of its digest, so :meth:`replay` answers the
        same bytes next time.
        """
        started = time.perf_counter()
        metrics = get_metrics()
        endpoint = endpoint_of(path)
        try:
            if method == "GET" and endpoint == "/healthz":
                status, body, ctype = 200, self._healthz(), "application/json"
            elif method == "GET" and endpoint == "/metrics":
                status, body, ctype = (
                    200, metrics.to_prometheus(), "text/plain; version=0.0.4",
                )
            elif method == "POST" and endpoint in COMPUTE_ENDPOINTS:
                body = self._compute_request(endpoint, payload, key)
                status, ctype = 200, "application/json"
            else:
                status, body, ctype = (
                    404,
                    {"error": f"no route for {method} {endpoint}"},
                    "application/json",
                )
        except ShuttingDownError:
            status, body, ctype = (
                503, {"error": SHUTTING_DOWN}, "application/json",
            )
        except ServeError as exc:
            status, body, ctype = 400, {"error": str(exc)}, "application/json"
        except ReproError as exc:
            status, body, ctype = (
                400,
                {"error": f"{type(exc).__name__}: {exc}"},
                "application/json",
            )
        except Exception as exc:  # pragma: no cover - defensive 500
            logger.exception("unhandled error serving %s %s", method, path)
            status, body, ctype = (
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
                "application/json",
            )
        self._account(started, status)
        return status, body, ctype

    @staticmethod
    def _account(started: float, status: int) -> None:
        """The latency and counters every answered request records."""
        metrics = get_metrics()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        metrics.histogram(
            "serve.request_ms", buckets=LATENCY_MS_BUCKETS
        ).observe(elapsed_ms)
        metrics.counter("serve.requests_total").inc()
        metrics.counter(f"serve.responses.{status // 100}xx_total").inc()

    # -- endpoints -------------------------------------------------------------
    def _healthz(self) -> dict:
        return {
            "status": "ok",
            "format_version": SERVE_FORMAT_VERSION,
            "identity": self.identity,
            "uptime_s": time.time() - self._started,
            "references": {
                "workloads": sorted(self.service.references.workload_names()),
                "n_experiments": len(self.service.references),
            },
            "config": _config_dict(self.service.config),
            "response_cache_entries": len(self.response_cache),
        }

    def _compute_request(self, endpoint: str, payload, key: str | None) -> dict:
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        if self._shutdown:
            raise ShuttingDownError(SHUTTING_DOWN)
        if payload.get("mode", "sync") != "sync":
            raise ServeError(
                f"mode {payload['mode']!r} is not served: the async mode "
                'was removed; omit "mode" or send "sync"'
            )
        target, digest = self._address(endpoint, payload)
        result, tier = self._cached_compute(digest, endpoint, payload, target)
        if key is not None:
            self.response_cache.alias(key, digest)
        return _envelope(digest, result, tier, endpoint)

    # -- the hot path ----------------------------------------------------------
    def _address(self, endpoint: str, payload: dict) -> tuple[list, str]:
        """Decode the target; digest the request by the decoded content.

        The target's JSON is replaced by one content address per decoded
        experiment, so the digest never re-encodes the samples; the
        other keys are hashed as canonical JSON.
        """
        target = decode_experiments(payload.get("target"), what="target")
        addressed = {
            **payload,
            "target": [experiment_digest(result) for result in target],
        }
        return target, request_digest(self.identity, endpoint, addressed)

    def _cached_compute(
        self, digest, endpoint, payload, target
    ) -> tuple[dict, str]:
        """Tiered lookup; returns ``(result, cache_tier)``."""
        cached = self.response_cache.get(digest)
        if cached is not None:
            return cached, "memory"
        result, leader = self.single_flight.run(
            digest, lambda: self._compute(digest, endpoint, payload, target)
        )
        return result, "compute" if leader else "coalesced"

    def _compute(
        self, digest: str, endpoint: str, payload: dict, target: list
    ) -> dict:
        """Tier 2/3: admit to the scheduler, then populate tier 1."""
        started = time.perf_counter()
        get_metrics().counter("serve.pipeline_executions_total").inc()
        result = self.batcher.submit(digest, endpoint, payload, target=target)
        self.response_cache.put(digest, result)
        self._ledger_row(endpoint, digest, time.perf_counter() - started)
        return result

    def _execute_batch(self, items) -> None:
        """Compute one admitted request, on the scheduler thread.

        The scheduler hands over a one-item list.  The item arrives
        with its target decoded; a raise here is that item's error.
        """
        for item in items:
            with span(
                "serve.compute",
                attrs={"endpoint": item.endpoint, "digest": item.digest[:12]},
            ):
                target = ExperimentRepository(item.target)
                if item.endpoint == "/v1/rank":
                    item.result = self.service.rank_response(target)
                else:
                    item.result = self.service.predict(
                        target,
                        _require_str(item.payload, "source_sku"),
                        _require_str(item.payload, "target_sku"),
                    )

    def _ledger_row(self, endpoint, digest, elapsed_s: float) -> None:
        if self._ledger is None:
            return
        row = build_row(
            command=f"serve{endpoint.replace('/', '.')}",
            argv=[],
            options={"endpoint": endpoint, "identity": self.identity},
            exit_code=0,
            elapsed_s=elapsed_s,
            cpu_s=0.0,
        )
        row["digest"] = digest
        self._ledger.append(row)

    # -- lifecycle -------------------------------------------------------------
    def shutdown(self, *, drain_timeout: float = 30.0) -> bool:
        """Stop admitting compute, drain the scheduler; True when clean."""
        self._shutdown = True
        closed = self.batcher.close(timeout=drain_timeout)
        if not closed:
            logger.warning(
                "scheduler did not drain within %.1fs", drain_timeout
            )
        return closed


def _envelope(digest: str, result, tier: str, endpoint: str) -> dict:
    """A synchronous answer: the cached result and how it was delivered."""
    return {
        "digest": digest,
        "result": result,
        "meta": {"cache_tier": tier, "endpoint": endpoint},
    }


def _config_dict(config) -> dict:
    from dataclasses import asdict

    return asdict(config)


def _require_str(payload: dict, key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise ServeError(f"request needs a non-empty string {key!r}")
    return value
