"""A stdlib load generator for the serving benchmark and CI smoke job.

:func:`http_json` is the single-request client (urllib, no external
deps); :class:`LoadGenerator` drives ``threads x requests_per_thread``
concurrent POSTs at one endpoint and reports latency percentiles and
throughput — the numbers ``benchmarks/test_serve_scaling.py`` writes to
``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np

from repro.exceptions import ServeError, ValidationError


def http_json(
    method: str, url: str, payload=None, *, timeout: float = 60.0
) -> tuple[int, dict]:
    """One HTTP request with a JSON body; returns ``(status, body)``.

    Error statuses (4xx/5xx) are returned, not raised — callers assert
    on status codes.  Transport-level failures raise
    :class:`~repro.exceptions.ServeError`.
    """
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=data, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
            status = response.status
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        status = exc.code
    except urllib.error.URLError as exc:
        raise ServeError(f"request to {url} failed: {exc.reason}")
    try:
        body = json.loads(raw) if raw else {}
    except json.JSONDecodeError:
        body = {"raw": raw.decode(errors="replace")}
    return status, body


class LoadGenerator:
    """Concurrent fixed-count load against one endpoint.

    Every thread sends ``requests_per_thread`` sequential POSTs;
    per-request wall latencies are collected across threads and
    summarized by :meth:`run`.

    ``unique_fraction`` mixes distinct and repeated payloads: that
    fraction of each thread's requests carries a deterministic
    ``loadgen_nonce`` (unique per thread x request), which changes the
    request digest — a guaranteed response-cache miss — without
    changing the computation the server performs.  ``0.0`` (default)
    reproduces the old single-payload profile that measures the warm
    path; ``1.0`` makes every request a cold one, the profile the
    cold-path benchmark drives.  The nonce schedule depends
    only on ``(seed, thread, request index)``, so a run is exactly
    repeatable.
    """

    def __init__(
        self,
        base_url: str,
        *,
        threads: int = 4,
        requests_per_thread: int = 10,
        timeout: float = 60.0,
        unique_fraction: float = 0.0,
        seed: int = 0,
    ):
        if threads < 1 or requests_per_thread < 1:
            raise ValidationError(
                "load generator needs threads >= 1 and "
                "requests_per_thread >= 1"
            )
        if not 0.0 <= unique_fraction <= 1.0:
            raise ValidationError(
                f"unique_fraction must be in [0, 1], got {unique_fraction}"
            )
        self.base_url = base_url.rstrip("/")
        self.threads = threads
        self.requests_per_thread = requests_per_thread
        self.timeout = timeout
        self.unique_fraction = unique_fraction
        self.seed = seed

    def _payload_for(self, payload: dict, thread: int, index: int) -> dict:
        """The payload one request sends — nonced when it drew 'unique'."""
        if self.unique_fraction <= 0.0:
            return payload
        # Threshold draw from a per-request generator: deterministic,
        # order-independent across threads.
        draw = np.random.default_rng(
            (self.seed, thread, index)
        ).random()
        if draw >= self.unique_fraction:
            return payload
        nonced = dict(payload)
        nonced["loadgen_nonce"] = f"{self.seed}-{thread}-{index}"
        return nonced

    def run(self, endpoint: str, payload: dict) -> dict:
        """Drive the load; returns the latency/throughput summary."""
        url = f"{self.base_url}{endpoint}"
        latencies_ms: list[float] = []
        statuses: list[int] = []
        errors: list[str] = []
        lock = threading.Lock()

        def _drive(thread: int):
            local_lat, local_status = [], []
            for index in range(self.requests_per_thread):
                body = self._payload_for(payload, thread, index)
                started = time.perf_counter()
                try:
                    status, _body = http_json(
                        "POST", url, body, timeout=self.timeout
                    )
                except ServeError as exc:
                    with lock:
                        errors.append(str(exc))
                    continue
                local_lat.append((time.perf_counter() - started) * 1000.0)
                local_status.append(status)
            with lock:
                latencies_ms.extend(local_lat)
                statuses.extend(local_status)

        workers = [
            threading.Thread(target=_drive, args=(thread,), daemon=True)
            for thread in range(self.threads)
        ]
        started = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        elapsed = time.perf_counter() - started
        n_ok = sum(1 for status in statuses if status == 200)
        lat = np.asarray(latencies_ms, dtype=float)
        return {
            "requests": len(statuses),
            "ok": n_ok,
            "errors": len(errors),
            "elapsed_s": elapsed,
            "requests_per_s": (
                len(statuses) / elapsed if elapsed > 0 else 0.0
            ),
            "p50_ms": float(np.percentile(lat, 50)) if lat.size else None,
            "p99_ms": float(np.percentile(lat, 99)) if lat.size else None,
            "mean_ms": float(lat.mean()) if lat.size else None,
        }
