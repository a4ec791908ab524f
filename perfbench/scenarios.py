"""The benchmark's workloads: inputs from a seed, one operation, checks.

Every workload times a system set-up (decode the reference corpus, build
the system, answer once), then repeats one user-visible operation:

``predict``
    The paper's end-to-end prediction (Figures 10/11): observe YCSB on
    the 2-CPU SKU, select features, rank the TPC-C / Twitter / TPC-H
    references by Hist-FP + L2,1, transfer the nearest reference's
    pairwise SVM scaling model to 8 CPUs.  One caller, closed loop.
``serve_cold``
    ``repro serve`` over HTTP with every request distinct (a nonce per
    request, as ``unique_fraction=1.0`` in the serving benchmark), so
    each one misses the response cache and goes through admission,
    batching and compute.  Requests alternate ``/v1/rank`` (batched
    kernel) and ``/v1/predict`` (pruned 1-NN and the scaling model), so
    one workload reaches every server layer; the 1:1 mix is that choice,
    not a measured traffic shape.
``serve_warm``
    The same server repeating one primed ``/v1/rank`` request, as the
    serving benchmark's warm load does, so every timed request is
    answered from the response cache.

Both serving workloads are closed loops of :data:`CLIENTS` concurrent
clients holding keep-alive connections (4, as ``COLD_THREADS`` and the
warm load generator in ``benchmarks/test_serve_scaling.py``).

The reference corpora play the deployed catalog and are fixed; ``--seed``
draws the queries and targets.  Fixed references keep the selected
features, and with them the kernel's matrix shapes, the same across
seeds, so the seed varies the data and not the amount of work.
"""

from __future__ import annotations

import gc
import http.client
import json
import threading
import time
from contextlib import nullcontext

import numpy as np

import repro.core.pipeline as pipeline_module
from repro.core.config import PipelineConfig
from repro.core.pipeline import WorkloadPredictionPipeline
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.prediction.context import PairwiseScalingModel
from repro.serve import app as serve_app
from repro.serve import server as serve_server
from repro.serve import service as serve_service
from repro.serve.batcher import BatchScheduler
from repro.serve.cache import ResponseCache
from repro.similarity.representations import RepresentationBuilder
from repro.workloads import SKU, run_experiments, workload_by_name
from repro.workloads.repository import (
    ExperimentRepository,
    result_from_dict,
    result_to_dict,
)

import hostspeed
from layers import timed_by

#: Migration the prediction workloads answer (Figure 11, suite 1).
SOURCE = SKU(cpus=2, memory_gb=32.0)
TARGET = SKU(cpus=8, memory_gb=32.0)
#: Reference workloads, and the seed of every reference corpus.
REFERENCES = ("tpcc", "twitter", "tpch")
REFERENCE_STATE = 42
#: Query workloads, cycled per operation so every run has the same mix.
QUERY_CYCLE = ("ycsb", "tpcc", "twitter", "tpch", "tpcds")
#: Concurrent clients of the serving workloads.
CLIENTS = 4
#: Before and again after the timed window, the set-up is repeated at
#: least :data:`SETUP_REPEATS` times, and more (up to four times as many)
#: until :data:`SETUP_SECONDS` of set-up were timed.  ``setup_s`` is the
#: median of both batches, so a host slowdown at one moment of the run
#: does not set it alone.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0


def derive_seed(seed: int, *key: int) -> int:
    """A 32-bit seed for one input, a pure function of ``(seed, key)``."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def serial_terminals(workload) -> tuple[int, ...]:
    """One concurrency level: serial analytics at 1, the rest at 8."""
    return (1,) if workload.name in ("tpch", "tpcds") else (8,)


def simulate_references() -> list[dict]:
    """The reference corpus on both SKUs, as wire-format dicts."""
    corpus = run_experiments(
        [workload_by_name(name) for name in REFERENCES],
        [SOURCE, TARGET],
        random_state=REFERENCE_STATE,
    )
    return [result_to_dict(result) for result in corpus]


def decode_corpus(entries: list[dict]) -> ExperimentRepository:
    return ExperimentRepository([result_from_dict(entry) for entry in entries])


class Window:
    """What the timed window observed.

    ``latencies`` and ``elapsed`` are wall times; ``scaled`` and
    ``scaled_elapsed`` are the same times at the nominal host speed
    (``hostspeed``), each slice multiplied by its own factor, which
    ``factors`` keeps.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.elapsed = 0.0
        self.scaled_elapsed = 0.0
        self.probes: list[float] = []
        self.factors: list[float] = []
        self.counters: dict[str, float] = {}
        self.batch_count = 0
        self.batch_items = 0.0

    def add(self, latencies: list[float], elapsed: float, scale: float) -> None:
        """One slice's operation latencies and wall time."""
        self.factors.append(scale)
        self.latencies += latencies
        self.scaled += [latency * scale for latency in latencies]
        self.elapsed += elapsed
        self.scaled_elapsed += elapsed * scale

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def read(self, registry: MetricsRegistry) -> None:
        """Take the work counters the program recorded in the window."""
        for name in (
            "similarity.pairs_computed",
            "similarity.pairs_pruned_total",
            "serve.response_cache.hits_total",
            "serve.response_cache.misses_total",
        ):
            self.counters[name] = (
                registry.counter(name).value if name in registry else 0.0
            )
        if "serve.batch.size" in registry:
            sizes = registry.histogram("serve.batch.size")
            self.batch_count = sizes.count
            self.batch_items = sizes.sum


class Scenario:
    """Inputs in ``__init__``; then set-up, the timed window, checks."""

    #: Wall seconds of load between two host speed probes.
    slice_seconds = 1.0

    def __init__(self, seed: int, clock=None):
        self.seed = seed
        self.clock = clock
        self.problems: list[str] = []

    def span(self, layer: str):
        return self.clock.span(layer) if self.clock else nullcontext()

    def instrument(self) -> list:
        """``layers.patched`` targets for a traced run."""
        return []

    def setup_times(self) -> list[float]:
        """Run one batch of set-ups; the last one stays up.

        Returns each set-up's time at the nominal host speed.
        """
        times, wall = [], 0.0
        before = hostspeed.probe()
        while len(times) < SETUP_REPEATS or (
            wall < SETUP_SECONDS and len(times) < 4 * SETUP_REPEATS
        ):
            self.teardown()
            # Each set-up starts with no garbage pending, so a collection
            # the previous one left due does not land in its time.
            gc.collect()
            started = time.perf_counter()
            cpu_started = time.process_time()
            self.setup()
            took = time.perf_counter() - started
            cpu = time.process_time() - cpu_started
            after = hostspeed.probe()
            wall += took
            times.append(took * hostspeed.scale(took, cpu, before, after))
            before = after
        return times

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def measure(self, seconds: float) -> Window:
        """Run the load in slices, probing the host between slices.

        The load pauses while the probe runs, so the probe sees the host
        and not the program; every slice is scaled by the probes before
        and after it and the processor time it used
        (:func:`hostspeed.scale`).
        """
        window = Window()
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            self.open_window()
            deadline = time.perf_counter() + seconds
            before = hostspeed.probe()
            window.probes.append(before)
            while time.perf_counter() < deadline:
                started = time.perf_counter()
                cpu_started = time.process_time()
                latencies = self.run_slice(
                    window, min(deadline, started + self.slice_seconds)
                )
                elapsed = time.perf_counter() - started
                cpu = time.process_time() - cpu_started
                after = hostspeed.probe()
                window.probes.append(after)
                window.add(
                    latencies,
                    elapsed,
                    hostspeed.scale(elapsed, cpu, before, after),
                )
                before = after
        finally:
            self.close_window()
            set_metrics(previous)
        window.read(registry)
        return window

    def open_window(self) -> None:
        pass

    def run_slice(self, window: Window, until: float) -> list[float]:
        """Run the load until ``until``; return the latencies observed."""
        raise NotImplementedError

    def close_window(self) -> None:
        pass

    def verify(self) -> None:
        """Checks after the window; findings go to ``self.problems``."""


class Sequential(Scenario):
    """One caller repeating :meth:`op` until the window closes.

    Subclasses give ``op(index)``, ``check(outcome)`` returning a problem
    or ``None``, and ``same(a, b)``: every set-up answers operation 0,
    so the repeats double as a determinism check.
    """

    def setup(self) -> None:
        self.references = decode_corpus(self.reference_entries)
        first = self.op(0)
        problem = self.check(first)
        if problem:
            self.problems.append(f"set-up operation: {problem}")
        previous = getattr(self, "first", None)
        if previous is not None and not self.same(previous, first):
            self.problems.append("repeated set-up answered differently")
        self.first = first

    def run_slice(self, window: Window, until: float) -> list[float]:
        latencies = []
        while time.perf_counter() < until:
            window.attempted += 1
            index = window.attempted
            op_started = time.perf_counter()
            try:
                outcome = self.op(index)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                window.fail(f"op {index}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - op_started)
            problem = self.check(outcome)
            if problem:
                window.fail(f"op {index}: {problem}")
        return latencies


class PaperPrediction(Sequential):
    # One operation per slice: each is probed on both sides.
    slice_seconds = 0.1

    def __init__(self, seed: int, clock=None):
        super().__init__(seed, clock)
        self.reference_entries = simulate_references()
        self.pipeline = WorkloadPredictionPipeline(PipelineConfig())

    def instrument(self) -> list:
        clock = self.clock
        return [
            (pipeline_module, "expand_subexperiments", timed_by(clock, "prepare")),
            (pipeline_module, "representation_matrices", timed_by(clock, "prepare")),
            (RepresentationBuilder, "fit", timed_by(clock, "prepare")),
            (WorkloadPredictionPipeline, "select_features", timed_by(clock, "select")),
            (pipeline_module, "distance_matrix", timed_by(clock, "kernel")),
            (
                WorkloadPredictionPipeline,
                "_reference_scaling_model",
                timed_by(clock, "fit"),
            ),
            (pipeline_module, "augmented_throughputs", timed_by(clock, "predict")),
            (PairwiseScalingModel, "transfer", timed_by(clock, "predict")),
        ]

    def op(self, index: int):
        with self.span("simulate"):
            target = run_experiments(
                [workload_by_name("ycsb")],
                [SOURCE],
                terminals_for=lambda workload: (32,),
                random_state=derive_seed(self.seed, 1, index),
            )
        return self.pipeline.predict_scaling(
            self.references, target, SOURCE, TARGET
        )

    @staticmethod
    def check(report) -> str | None:
        predicted = np.asarray(report.predicted_throughput)
        if predicted.size == 0 or not np.all(np.isfinite(predicted)):
            return "prediction is empty or not finite"
        if not np.all(predicted > 0):
            return "prediction has non-positive throughput"
        if set(report.similarity.distances) != set(REFERENCES):
            return f"ranking covers {sorted(report.similarity.distances)}"
        if report.reference_workload != report.similarity.nearest:
            return "prediction did not use the nearest reference"
        ordered = [name for name, _ in report.similarity.ordered]
        if ordered[0] != "tpcc" or ordered[-1] != "tpch":
            # Figure 10: YCSB is nearest to TPC-C and farthest from TPC-H.
            return f"YCSB similarity order {ordered} contradicts Figure 10"
        return None

    @staticmethod
    def same(a, b) -> bool:
        return (
            a.reference_workload == b.reference_workload
            and a.similarity.distances == b.similarity.distances
            and np.array_equal(a.predicted_throughput, b.predicted_throughput)
        )


class Serving(Scenario):
    """An in-process ``repro serve`` HTTP server and concurrent clients."""

    def __init__(self, seed: int, clock=None, *, cold: bool):
        super().__init__(seed, clock)
        self.cold = cold
        self.reference_entries = simulate_references()
        # Cold traffic cycles a pool of targets, four of each query
        # workload, and adds a unique nonce to every request; warm
        # traffic repeats one.
        n_targets = 4 * len(QUERY_CYCLE) if cold else 1
        self.targets = []
        for k in range(n_targets):
            runs = run_experiments(
                [workload_by_name(QUERY_CYCLE[k % len(QUERY_CYCLE)])],
                [SOURCE],
                terminals_for=serial_terminals,
                n_runs=1,
                random_state=derive_seed(seed, 2, k),
            )
            self.targets.append([result_to_dict(r) for r in runs])
        # Payload 2k ranks target k; cold payload 2k + 1 predicts it.
        self.payloads = []
        for entries in self.targets:
            self.payloads.append(("/v1/rank", {"target": entries}))
            if cold:
                self.payloads.append(
                    (
                        "/v1/predict",
                        {
                            "target": entries,
                            "source_sku": SOURCE.name,
                            "target_sku": TARGET.name,
                        },
                    )
                )
        self.encoded = [
            json.dumps(payload).encode() for _, payload in self.payloads
        ]
        self.server = None
        self.primed = None
        self.conns = []

    def instrument(self) -> list:
        clock = self.clock
        Service = serve_service.PredictionService

        def batch_timer(original):
            def execute(app, items):
                with clock.batch(len(items)):
                    return original(app, items)

            return execute

        return [
            (serve_server._Handler, "_read_payload", timed_by(clock, "decode")),
            (serve_app, "decode_experiments", timed_by(clock, "decode")),
            (serve_app, "request_digest", timed_by(clock, "digest")),
            (ResponseCache, "get", timed_by(clock, "cache")),
            (ResponseCache, "put", timed_by(clock, "cache")),
            (BatchScheduler, "submit", timed_by(clock, "submit")),
            # Patched on the class before the app exists: the scheduler
            # keeps the bound method it is constructed with.
            (serve_app.ServeApp, "_execute_batch", batch_timer),
            (Service, "prepare_target", timed_by(clock, "prepare")),
            (
                serve_service,
                "multi_query_cross_distances",
                timed_by(clock, "kernel"),
            ),
            (Service, "nearest_reference", timed_by(clock, "prune")),
            (Service, "_scaling_model", timed_by(clock, "fit")),
            (
                WorkloadPredictionPipeline,
                "_reference_scaling_model",
                timed_by(clock, "fit"),
            ),
            (serve_service, "augmented_throughputs", timed_by(clock, "predict")),
            (PairwiseScalingModel, "transfer", timed_by(clock, "predict")),
            (serve_server._Handler, "_respond", timed_by(clock, "encode")),
        ]

    # -- wire ------------------------------------------------------------------
    def post(self, conn, position: int, nonce: str | None):
        body = self.encoded[position]
        if nonce is not None:
            body = body[:-1] + b', "nonce": "' + nonce.encode() + b'"}'
        conn.request(
            "POST",
            self.payloads[position][0],
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()

    def connect(self):
        return http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=120
        )

    # -- lifecycle -------------------------------------------------------------
    def setup(self) -> None:
        self.service = serve_service.PredictionService(
            decode_corpus(self.reference_entries), PipelineConfig()
        )
        self.service.warmup()
        self.app = serve_app.ServeApp(
            self.service, references_digest=f"perfbench-{self.seed}"
        )
        self.server = serve_server.make_server(self.app, port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        conn = self.connect()
        try:
            if self.cold:
                # Fit the scaling models the first predict of each
                # target workload needs, as a server in steady state has.
                answers = [
                    self.post(conn, position, "warmup")
                    for position in [*range(1, 2 * len(QUERY_CYCLE), 2), 0]
                ]
            else:
                # The first request computes, the second is the cache hit
                # every timed response must repeat byte for byte.
                self.post(conn, 0, None)
                answers = [self.post(conn, 0, None)]
                self.expected = answers[0][1]
        finally:
            conn.close()
        for answer in answers:
            self.expect_ok(*answer)
        # Repeated set-ups double as a determinism check.
        primed = [json.loads(raw).get("result") for _, raw in answers]
        if self.primed is not None and primed != self.primed:
            self.problems.append("repeated set-up answered differently")
        self.primed = primed

    def expect_ok(self, status: int, raw: bytes) -> None:
        if status != 200:
            self.problems.append(
                f"set-up request answered {status}: {raw[:200]!r}"
            )

    def teardown(self) -> None:
        if self.server is None:
            return
        self.server.shutdown()
        self.app.shutdown(drain_timeout=30.0)
        self.server.server_close()
        self.thread.join(timeout=30.0)
        if self.thread.is_alive():
            self.problems.append("server thread did not stop")
        self.server = None

    # -- the timed window ------------------------------------------------------
    def schedule(self, client: int, k: int) -> tuple[int, str | None]:
        """Payload position and nonce of request ``k`` of ``client``."""
        if self.cold:
            target = (client * 7 + k) % len(self.targets)
            return 2 * target + (client + k) % 2, f"{client}-{k}"
        return 0, None

    def open_window(self) -> None:
        # The first answer served for each payload; every later one
        # must equal it, and ``verify`` recomputes it directly.
        self.served: dict[int, dict] = {}
        # Each client keeps its connection and request count across
        # slices.
        self.conns = [self.connect() for _ in range(CLIENTS)]
        self.sent = [0] * CLIENTS

    def close_window(self) -> None:
        for conn in self.conns:
            conn.close()

    def run_slice(self, window: Window, until: float) -> list[float]:
        lock = threading.Lock()
        latencies: list[float] = []

        def client(index: int) -> None:
            mine, attempted = [], 0
            try:
                while time.perf_counter() < until:
                    position, nonce = self.schedule(index, self.sent[index])
                    self.sent[index] += 1
                    attempted += 1
                    op_started = time.perf_counter()
                    try:
                        status, raw = self.post(
                            self.conns[index], position, nonce
                        )
                    except (OSError, http.client.HTTPException) as exc:
                        with lock:
                            window.fail(f"client {index}: {exc!r}")
                        self.conns[index].close()
                        self.conns[index] = self.connect()
                        continue
                    mine.append(time.perf_counter() - op_started)
                    problem = self.check(position, status, raw)
                    if problem:
                        with lock:
                            window.fail(f"client {index}: {problem}")
            finally:
                with lock:
                    latencies.extend(mine)
                    window.attempted += attempted

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=until - time.perf_counter() + 150.0)
        if any(thread.is_alive() for thread in threads):
            window.fail("a client did not finish")
        return latencies

    def check(self, position: int, status: int, raw: bytes) -> str | None:
        if status != 200:
            return f"status {status}: {raw[:200]!r}"
        if not self.cold:
            if raw != self.expected:
                return "warm response changed"
            return None
        response = json.loads(raw)
        tier = response.get("meta", {}).get("cache_tier")
        if tier != "compute":
            return f"distinct request served from tier {tier!r}"
        # dict.setdefault is atomic under the GIL.
        if self.served.setdefault(position, response["result"]) != response[
            "result"
        ]:
            return f"payload {position} answered differently than before"
        return None

    def verify(self) -> None:
        """Served answers equal the service computing each request alone."""
        if self.cold:
            checks = sorted(self.served.items())
            if not checks:
                self.problems.append("no cold response was checked")
        else:
            checks = [(0, json.loads(self.expected)["result"])]
        for position, served in checks:
            path, payload = self.payloads[position]
            target = decode_corpus(payload["target"])
            if path == "/v1/rank":
                direct = self.service.rank_response(target)
            else:
                direct = self.service.predict(
                    target, payload["source_sku"], payload["target_sku"]
                )
            if json.loads(json.dumps(direct)) != served:
                self.problems.append(
                    f"served {path} answer for payload {position} differs "
                    f"from the direct computation"
                )


WORKLOADS = {
    "predict": PaperPrediction,
    "serve_cold": lambda seed, clock=None: Serving(seed, clock, cold=True),
    "serve_warm": lambda seed, clock=None: Serving(seed, clock, cold=False),
}
