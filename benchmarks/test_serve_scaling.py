"""Serving-path benchmarks: hot-path latency, coalescing, parity.

Not a paper figure — this bench guards the prediction service
(``repro.serve``, see ``docs/serving.md``):

- a **warm** request (response-cache hit) must be at least 10x faster
  at the median than the **cold** request that populated the cache;
- N identical concurrent cold requests must coalesce onto exactly one
  pipeline execution (single-flight);
- responses must be bit-identical whether the service computes with
  ``jobs=1`` or ``jobs=2`` — worker count is an operational knob, not
  a result parameter;
- the load generator reports sustained warm throughput and tail
  latency over real HTTP, and the same for a fully distinct cold load,
  every request computed alone, in arrival order, on the scheduler
  thread.

Numbers are written to ``BENCH_serve.json`` (path overridable via
``REPRO_BENCH_SERVE_OUT``) so the scheduled CI job can archive them and
``repro obs check-bench`` can guard them.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

from benchmarks.conftest import print_header
from repro.core.config import PipelineConfig
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.serve.app import ServeApp
from repro.serve.loadgen import LoadGenerator
from repro.serve.server import make_server
from repro.serve.service import PredictionService
from repro.workloads import SKU, run_experiments, tpcc, twitter, ycsb
from repro.workloads.repository import result_to_dict

pytestmark = pytest.mark.slow

RESULTS: dict[str, dict] = {}

#: Warm requests timed for the latency distribution.
N_WARM = 200
#: Concurrent identical cold requests for the coalescing section.
N_CONCURRENT = 8
#: Cold-path load shape: threads x requests, every request distinct.
COLD_THREADS = 4
COLD_REQUESTS = 10


def bench_out() -> str:
    return os.environ.get("REPRO_BENCH_SERVE_OUT", "BENCH_serve.json")


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    if RESULTS:
        with open(bench_out(), "w") as handle:
            json.dump(RESULTS, handle, indent=2, sort_keys=True)
        print(f"\nwrote {bench_out()}")


@pytest.fixture(scope="module")
def references():
    """TPC-C + Twitter on two SKUs — the served reference corpus."""
    return run_experiments(
        [tpcc(), twitter()],
        [
            SKU(cpus=4, memory_gb=16.0, name="s4"),
            SKU(cpus=8, memory_gb=32.0, name="s8"),
        ],
        terminals_for=lambda w: (4,),
        n_runs=2,
        duration_s=600.0,
        random_state=0,
    )


@pytest.fixture(scope="module")
def rank_payload(references):
    target = run_experiments(
        [ycsb()],
        [SKU(cpus=4, memory_gb=16.0, name="s4")],
        terminals_for=lambda w: (4,),
        n_runs=1,
        duration_s=600.0,
        random_state=1,
    )
    return {"target": [result_to_dict(result) for result in target]}


def warm_app(references, *, jobs=None, tag="bench"):
    service = PredictionService(references, PipelineConfig(jobs=jobs))
    service.warmup()
    return ServeApp(service, references_digest=tag)


def test_cold_vs_warm_latency(references, rank_payload):
    """The response cache must buy >= 10x at the warm median."""
    app = warm_app(references, tag="cold-vs-warm")
    try:
        start = time.perf_counter()
        status, cold, _ = app.handle("POST", "/v1/rank", rank_payload)
        cold_ms = (time.perf_counter() - start) * 1000.0
        assert status == 200
        assert cold["meta"]["cache_tier"] == "compute"

        warm_ms = []
        for _ in range(N_WARM):
            start = time.perf_counter()
            status, warm, _ = app.handle("POST", "/v1/rank", rank_payload)
            warm_ms.append((time.perf_counter() - start) * 1000.0)
            assert status == 200
            assert warm["meta"]["cache_tier"] == "memory"
            assert warm["result"] == cold["result"]
        p50 = float(np.percentile(warm_ms, 50))
        p99 = float(np.percentile(warm_ms, 99))
        speedup = cold_ms / p50

        print_header("Serving: cold vs warm /v1/rank")
        print(f"cold (pipeline)  : {cold_ms:8.2f} ms")
        print(f"warm p50         : {p50:8.3f} ms")
        print(f"warm p99         : {p99:8.3f} ms")
        print(f"cold/warm        : x{speedup:.0f}")
        RESULTS["cold_vs_warm"] = {
            "cold_ms": cold_ms,
            "warm_p50_ms": p50,
            "warm_p99_ms": p99,
            "cold_over_warm_speedup": speedup,
            "n_warm_requests": N_WARM,
        }
        assert speedup >= 10.0, (
            f"warm p50 {p50:.3f}ms is not >= 10x faster than the "
            f"cold request ({cold_ms:.1f}ms)"
        )
    finally:
        app.shutdown(drain_timeout=10.0)


def test_single_flight_coalescing(references, rank_payload):
    """N identical concurrent cold requests -> one pipeline execution."""
    app = warm_app(references, tag="single-flight")
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        responses = []

        def drive():
            responses.append(app.handle("POST", "/v1/rank", rank_payload))

        threads = [
            threading.Thread(target=drive) for _ in range(N_CONCURRENT)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        executions = registry.counter(
            "serve.pipeline_executions_total"
        ).value
        bodies = [body["result"] for _, body, _ in responses]
        identical = all(body == bodies[0] for body in bodies)

        print_header("Serving: single-flight coalescing")
        print(f"concurrent requests : {N_CONCURRENT}")
        print(f"pipeline executions : {executions:.0f}")
        RESULTS["single_flight"] = {
            "n_concurrent": N_CONCURRENT,
            "pipeline_executions": executions,
            "coalesced_to_one": bool(executions == 1.0),
            "responses_identical": identical,
        }
        assert executions == 1.0, (
            f"{executions:.0f} pipeline executions for "
            f"{N_CONCURRENT} identical requests"
        )
        assert identical
    finally:
        set_metrics(previous)
        app.shutdown(drain_timeout=10.0)


def test_worker_count_parity(references, rank_payload):
    """jobs=1 and jobs=2 must produce byte-identical response bodies."""
    responses = {}
    for jobs in (1, 2):
        app = warm_app(references, jobs=jobs, tag="parity")
        try:
            status, body, _ = app.handle("POST", "/v1/rank", rank_payload)
            assert status == 200
            responses[jobs] = json.dumps(body["result"], sort_keys=True)
        finally:
            app.shutdown(drain_timeout=10.0)
    identical = responses[1] == responses[2]
    cores = os.cpu_count() or 1

    print_header("Serving: worker-count parity")
    print(f"jobs=1 == jobs=2 : {identical}  ({cores} cores)")
    RESULTS["worker_parity"] = {
        "bit_identical": identical,
        "cpu_count": cores,
    }
    assert identical, "response bodies diverged between jobs=1 and jobs=2"


def test_cold_path_distinct_load(references, rank_payload):
    """Distinct-request throughput and latency of the cold path.

    Every request carries a unique nonce (``unique_fraction=1.0``), so
    none hits the response cache and none coalesces: each one is real
    pipeline work, computed alone, in arrival order, on the scheduler
    thread, with one engine worker per CPU (``jobs=0``).  A single-core
    host flags the section ``insufficient_cores``, and ``repro obs
    check-bench`` skips its timings.
    """
    cores = os.cpu_count() or 1
    n_requests = COLD_THREADS * COLD_REQUESTS
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    app = warm_app(references, jobs=0, tag="cold-path")
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        generator = LoadGenerator(
            f"http://127.0.0.1:{server.port}",
            threads=COLD_THREADS,
            requests_per_thread=COLD_REQUESTS,
            unique_fraction=1.0,
            seed=0,
        )
        stats = generator.run("/v1/rank", rank_payload)
        misses = registry.counter("serve.response_cache.misses_total").value
        executions = registry.counter(
            "serve.pipeline_executions_total"
        ).value
    finally:
        set_metrics(previous)
        server.shutdown()
        app.shutdown(drain_timeout=30.0)
        server.server_close()
        thread.join(timeout=10.0)
    record = {
        "cpu_count": cores,
        "n_requests": n_requests,
        "requests": stats["requests"],
        "errors": stats["errors"],
        "requests_per_s": stats["requests_per_s"],
        "p50_ms": stats["p50_ms"],
        "p99_ms": stats["p99_ms"],
    }
    if cores < 2:
        record["insufficient_cores"] = True

    print_header("Serving: cold path, every request distinct")
    print(
        f"{stats['requests_per_s']:7.1f} req/s   "
        f"p50 {stats['p50_ms']:7.2f} ms   p99 {stats['p99_ms']:7.2f} ms"
        f"   ({cores} cores)"
    )
    RESULTS["cold_path"] = record
    assert stats["errors"] == 0
    assert stats["requests"] == n_requests
    # Every nonced request must be a genuine cache miss, and compute.
    assert misses == stats["requests"]
    assert executions == stats["requests"]


def test_loadgen_warm_throughput(references, rank_payload):
    """Sustained warm throughput and tail latency over real HTTP."""
    app = warm_app(references, tag="loadgen")
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        base = f"http://127.0.0.1:{server.port}"
        # Prime the cache so the load-gen window measures the hot path.
        status, _, _ = app.handle("POST", "/v1/rank", rank_payload)
        assert status == 200
        generator = LoadGenerator(base, threads=4, requests_per_thread=50)
        stats = generator.run("/v1/rank", rank_payload)
        hits = registry.counter("serve.response_cache.hits_total").value
        misses = registry.counter("serve.response_cache.misses_total").value
        hit_rate = hits / (hits + misses)

        print_header("Serving: load generator (4 threads, warm cache)")
        print(f"requests   : {stats['requests']}  (errors: {stats['errors']})")
        print(f"throughput : {stats['requests_per_s']:8.0f} req/s")
        print(f"p50 / p99  : {stats['p50_ms']:.2f} / {stats['p99_ms']:.2f} ms")
        record = {
            "requests": stats["requests"],
            "errors": stats["errors"],
            "requests_per_s": stats["requests_per_s"],
            "p50_ms": stats["p50_ms"],
            "p99_ms": stats["p99_ms"],
            "response_cache_entries": len(app.response_cache),
            "hit_rate": hit_rate,
            "cpu_count": os.cpu_count() or 1,
        }
        if (os.cpu_count() or 1) < 2:
            record["insufficient_cores"] = True
        RESULTS["loadgen"] = record
        assert stats["errors"] == 0
        assert stats["requests_per_s"] > 0
        assert hit_rate > 0.9
    finally:
        set_metrics(previous)
        server.shutdown()
        app.shutdown(drain_timeout=10.0)
        server.server_close()
        thread.join(timeout=10.0)
