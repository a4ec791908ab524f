"""Transport-free request handling: routes, cache tiers, accounting.

:class:`ServeApp` is everything about the server except sockets — the
HTTP layer (:mod:`repro.serve.server`) reads the request and calls
:meth:`ServeApp.replay`, then, unless that answered, parses the body
and calls :meth:`ServeApp.handle`; tests call both directly.  The hot
path:

0. **replay** — before the body is parsed, its
   :func:`~repro.serve.protocol.replay_key` (a SHA-256 of the endpoint
   and the raw bytes) is looked up among the response cache's aliases;
   a key the full path answered with a synchronous 200 names that
   answer's digest, and the repeat gets the memory hit's envelope
   without a parse, a decode or a digest.  ``handle`` records the
   alias after each synchronous 200;
1. decode the target once, on the caller's thread
   (:func:`repro.serve.protocol.decode_experiments`; a malformed or
   non-finite target is a 400 here, sync or async), and digest the
   request with the target replaced by its decoded experiments'
   content addresses (:func:`~repro.serve.protocol.experiment_digest`,
   then :func:`~repro.serve.protocol.request_digest`);
2. **tier 1** — the in-process LRU :class:`ResponseCache`; a hit
   answers without touching the pipeline;
3. **single-flight** — concurrent identical misses coalesce onto one
   leader; followers are answered with the leader's result
   (``meta.cache_tier == "coalesced"``);
4. **tiers 2/3** — leaders submit to the
   :class:`~repro.serve.batcher.BatchScheduler`: concurrent *distinct*
   cold requests admitted within one batch window execute as **one**
   batch on the scheduler thread — rank targets share a single
   multi-query kernel fan-out, each predict target is ranked alone and
   transfers from its nearest reference — with persisted Distance/Fit
   caches absorbing repeated sub-work and the persistent worker pool
   running what remains.  The decoded target travels with the
   request, so the scheduler never decodes.

The single scheduler thread serializes engine work because the
engine's telemetry capture swaps the process-global metrics registry —
safe for one computation at a time, not for two interleaved ones; it
replaces PR 9's compute lock, which had the same safety property but
none of the batching throughput.  Scale-out is horizontal: multiple
server processes share the same on-disk caches (safe under concurrent
writers; pinned by ``tests/integration/test_concurrent_caches.py``).

Responses are enveloped as ``{"digest", "result", "meta"}`` — ``meta``
(cache tier, timing) varies per delivery, ``result`` is the cached,
bit-stable answer.  Async submissions (``{"mode": "async"}``) return
``202`` with a job id; the job queue computes through this same method,
so async work populates the same caches.

Every request records ``serve.request_ms``, per-endpoint counters, and
optionally one ledger row, so a serving process leaves the same audit
trail as a CLI run.
"""

from __future__ import annotations

import time

from repro.exceptions import ReproError, ServeError, ValidationError
from repro.obs.ledger import RunLedger, build_row, resolve_ledger_path
from repro.obs.logging import get_logger
from repro.obs.metrics import LATENCY_MS_BUCKETS, get_metrics
from repro.obs.tracing import span
from repro.serve.batcher import BatchScheduler
from repro.serve.cache import ResponseCache, SingleFlight
from repro.serve.jobs import JobQueue
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


class ServeApp:
    """The server's request handler, independent of any socket."""

    def __init__(
        self,
        service,
        *,
        references_digest: str = "",
        response_cache_size: int = 1024,
        response_cache_bytes: int | None = None,
        state_dir=None,
        job_workers: int = 1,
        ledger=None,
        batch_window_ms: float = 4.0,
        max_batch: int = 8,
    ):
        self.service = service
        self.identity = app_identity(
            _config_dict(service.config), references_digest
        )
        self.response_cache = ResponseCache(
            response_cache_size, max_bytes=response_cache_bytes
        )
        self.single_flight = SingleFlight()
        self.jobs = JobQueue(
            self._compute_for_job, state_dir=state_dir, workers=job_workers
        )
        self.batcher = BatchScheduler(
            self._execute_batch,
            window_ms=batch_window_ms,
            max_batch=max_batch,
        )
        self._ledger = (
            RunLedger(resolve_ledger_path(ledger)) if ledger else None
        )
        self._started = time.time()
        self._shutdown = False

    def recover_jobs(self) -> int:
        """Replay the job journal (call once, after construction)."""
        return self.jobs.recover()

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
            status, body = 503, {"error": "server is shutting down"}
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

        A synchronous 200 from a compute endpoint records ``key``, the
        body's replay key, as an alias of its digest, so :meth:`replay`
        answers the same bytes next time.
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
            elif method == "GET" and endpoint.startswith("/v1/jobs/"):
                status, body = self._job_status(endpoint[len("/v1/jobs/"):])
                ctype = "application/json"
            elif method == "POST" and endpoint in COMPUTE_ENDPOINTS:
                status, body = self._compute_request(endpoint, payload, key)
                ctype = "application/json"
            else:
                status, body, ctype = (
                    404,
                    {"error": f"no route for {method} {endpoint}"},
                    "application/json",
                )
        except ServeError as exc:
            status, body, ctype = 400, {"error": str(exc)}, "application/json"
        except (ValidationError, ReproError) as exc:
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
            "jobs": len(self.jobs),
            "response_cache_entries": len(self.response_cache),
            "batch": {
                "window_ms": self.batcher.window_s * 1000.0,
                "max_batch": self.batcher.max_batch,
            },
        }

    def _job_status(self, job_id: str) -> tuple[int, dict]:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, job.to_dict()

    def _compute_request(
        self, endpoint: str, payload, key: str | None
    ) -> tuple[int, dict]:
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        if self._shutdown:
            return 503, {"error": "server is shutting down"}
        target, digest = self._address(endpoint, payload)
        if payload.get("mode") == "async":
            job = self.jobs.submit(digest, endpoint, payload)
            get_metrics().counter("serve.async_submissions_total").inc()
            return 202, {
                "digest": digest,
                "job_id": job.job_id,
                "status": job.status,
            }
        result, tier = self._cached_compute(digest, endpoint, payload, target)
        if key is not None:
            self.response_cache.alias(key, digest)
        return 200, _envelope(digest, result, tier, endpoint)

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
        """Tier 2/3: admit to the batch scheduler, then populate tier 1."""
        started = time.perf_counter()
        get_metrics().counter("serve.pipeline_executions_total").inc()
        result = self.batcher.submit(digest, endpoint, payload, target=target)
        self.response_cache.put(digest, result)
        self._ledger_row(endpoint, digest, time.perf_counter() - started)
        return result

    def _execute_batch(self, items) -> None:
        """One admitted batch, on the scheduler thread.

        Each item arrives with its target decoded; preparation and
        validation run per item — a bad request in a batch fails alone,
        exactly as it would have serially.  The surviving rank targets
        share **one** multi-query kernel fan-out
        (:meth:`~repro.serve.service.PredictionService.rank_prepared`,
        bit-identical per target to ranking it alone); each predict
        target is ranked alone, and its nearest reference's scaling
        model transferred, per item.
        """
        with span("serve.batch", attrs={"size": len(items)}):
            rank_items = []
            for item in items:
                with span(
                    "serve.compute",
                    attrs={
                        "endpoint": item.endpoint,
                        "digest": item.digest[:12],
                    },
                ):
                    try:
                        target = ExperimentRepository(item.target)
                        if item.endpoint == "/v1/rank":
                            item.extra = self.service.prepare_target(target)
                            rank_items.append(item)
                        else:
                            item.result = self.service.predict(
                                target,
                                _require_str(item.payload, "source_sku"),
                                _require_str(item.payload, "target_sku"),
                            )
                    except Exception as exc:
                        item.fail(exc)
            if rank_items:
                try:
                    rankings = self.service.rank_prepared(
                        [item.extra for item in rank_items]
                    )
                except Exception as exc:
                    for item in rank_items:
                        item.fail(exc)
                else:
                    for item, ranking in zip(rank_items, rankings):
                        item.result = self.service.rank_response_from(ranking)

    def _compute_for_job(self, endpoint: str, payload: dict) -> dict:
        """The job queue's compute hook — same tiers as sync requests."""
        target, digest = self._address(endpoint, payload)
        result, _tier = self._cached_compute(digest, endpoint, payload, target)
        return result

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
        """Stop accepting compute, drain queued jobs; True when clean."""
        self._shutdown = True
        drained = self.jobs.drain(timeout=drain_timeout)
        if not drained:
            logger.warning("job queue did not drain within %.1fs", drain_timeout)
        # Jobs drain first — queued jobs still compute through the
        # batcher, so it must outlive them; then flush anything admitted.
        closed = self.batcher.close(timeout=drain_timeout)
        if not closed:
            logger.warning(
                "batch scheduler did not drain within %.1fs", drain_timeout
            )
        return drained and closed


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
