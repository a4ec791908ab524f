"""ServeApp routing, cache tiers, delivery mode, single-flight, shutdown."""

from __future__ import annotations

import copy
import json
import math
import re
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import WorkloadPredictionPipeline
from repro.exceptions import RepositoryError
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.prediction.context import PairwiseScalingModel
from repro.serve import app as app_module
from repro.serve import server as server_module
from repro.serve import service as service_module
from repro.serve.app import ServeApp
from repro.serve.batcher import BatchScheduler
from repro.serve.cache import ResponseCache
from repro.serve.protocol import replay_key
from repro.serve.service import PredictionService
from repro.workloads import ExperimentRepository, run_experiments, twitter
from repro.workloads.repository import result_from_dict, result_to_dict
from tests.serve.test_protocol import respelled


@pytest.fixture
def fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield get_metrics()
    set_metrics(previous)


@pytest.fixture
def app(warm_service, fresh_metrics):
    application = ServeApp(warm_service, references_digest="refs-digest")
    yield application
    application.shutdown(drain_timeout=10.0)


def rank_payload(target_payload, **extra):
    return {"target": target_payload, **extra}


def predict_payload(target_payload, **extra):
    return {
        "target": target_payload,
        "source_sku": "s4",
        "target_sku": "s8",
        **extra,
    }


def wait_for(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestRoutes:
    def test_healthz(self, app):
        status, body, ctype = app.handle("GET", "/healthz", None)
        assert status == 200
        assert ctype == "application/json"
        assert body["status"] == "ok"
        assert body["identity"] == app.identity
        assert set(body["references"]["workloads"]) == {"tpcc", "twitter"}
        assert "jobs" not in body
        assert "batch" not in body

    def test_metrics_is_prometheus_text(self, app):
        app.handle("GET", "/healthz", None)
        status, body, ctype = app.handle("GET", "/metrics", None)
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "serve_requests_total" in body

    @pytest.mark.parametrize("path", ["/v1/nope", "/v1/jobs/job-missing"])
    def test_unknown_route_404(self, app, path):
        status, body, _ = app.handle("GET", path, None)
        assert status == 404
        assert "no route" in body["error"]

    def test_non_dict_body_400(self, app):
        status, body, _ = app.handle("POST", "/v1/rank", [1, 2, 3])
        assert status == 400
        assert "JSON object" in body["error"]

    def test_malformed_target_400(self, app):
        status, body, _ = app.handle("POST", "/v1/rank", {"target": "nope"})
        assert status == 400

    def test_unknown_sku_400(self, app, target_payload):
        payload = rank_payload(
            target_payload, source_sku="s4", target_sku="s4096"
        )
        status, body, _ = app.handle("POST", "/v1/predict", payload)
        assert status == 400
        assert "s4096" in body["error"]

    def test_status_counters_recorded(self, app, fresh_metrics):
        app.handle("GET", "/healthz", None)
        app.handle("GET", "/v1/nope", None)
        snap = fresh_metrics.snapshot()
        assert snap["serve.requests_total"]["value"] == 2
        assert snap["serve.responses.2xx_total"]["value"] == 1
        assert snap["serve.responses.4xx_total"]["value"] == 1
        assert snap["serve.request_ms"]["count"] == 2


class TestCacheTiers:
    def test_cold_then_warm_rank(self, app, target_payload):
        payload = rank_payload(target_payload)
        status, cold, _ = app.handle("POST", "/v1/rank", payload)
        assert status == 200
        assert cold["meta"]["cache_tier"] == "compute"
        assert cold["result"]["target_workload"] == "ycsb"
        assert cold["result"]["ranking"]

        status, warm, _ = app.handle("POST", "/v1/rank", payload)
        assert status == 200
        assert warm["meta"]["cache_tier"] == "memory"
        assert warm["digest"] == cold["digest"]
        assert warm["result"] == cold["result"]

    def test_predict_sync(self, app, target_payload):
        status, body, _ = app.handle(
            "POST", "/v1/predict", predict_payload(target_payload)
        )
        assert status == 200
        result = body["result"]
        assert result["source_sku"] == "s4"
        assert result["target_sku"] == "s8"
        predicted = result["predicted_throughput"]
        assert predicted["n"] > 0
        assert predicted["p50"] > 0

    def test_identity_changes_digest(
        self, warm_service, tmp_path, target_payload, fresh_metrics
    ):
        payload = rank_payload(target_payload)
        a = ServeApp(warm_service, references_digest="corpus-a")
        b = ServeApp(warm_service, references_digest="corpus-b")
        try:
            _, body_a, _ = a.handle("POST", "/v1/rank", payload)
            _, body_b, _ = b.handle("POST", "/v1/rank", payload)
            assert body_a["digest"] != body_b["digest"]
            assert body_a["result"] == body_b["result"]
        finally:
            a.shutdown(drain_timeout=10.0)
            b.shutdown(drain_timeout=10.0)


class TestDecodedTargets:
    def test_decoded_once_per_post_on_the_callers_thread(
        self, app, target_payload, monkeypatch
    ):
        threads = []
        decode = app_module.decode_experiments

        def recording_decode(*args, **kwargs):
            threads.append(threading.current_thread())
            return decode(*args, **kwargs)

        monkeypatch.setattr(app_module, "decode_experiments", recording_decode)
        tiers = []
        for endpoint, payload in (
            ("/v1/rank", rank_payload(target_payload)),
            ("/v1/rank", rank_payload(target_payload)),
            ("/v1/predict", predict_payload(target_payload)),
        ):
            status, body, _ = app.handle("POST", endpoint, payload)
            assert status == 200
            tiers.append(body["meta"]["cache_tier"])
        assert tiers == ["compute", "memory", "compute"]
        assert threads == [threading.current_thread()] * 3

    def test_respelled_target_is_a_memory_hit(self, app, target_payload):
        status, cold, _ = app.handle(
            "POST", "/v1/rank", rank_payload(target_payload)
        )
        assert status == 200
        assert cold["meta"]["cache_tier"] == "compute"
        entries = json.loads(respelled(target_payload))
        status, warm, _ = app.handle("POST", "/v1/rank", rank_payload(entries))
        assert status == 200
        assert warm["meta"]["cache_tier"] == "memory"
        assert warm["digest"] == cold["digest"]
        assert warm["result"] == cold["result"]

    def test_one_ulp_apart_is_two_computations(self, app, target_payload):
        entries = copy.deepcopy(target_payload)
        value = entries[0]["plan_matrix"][2][5]
        entries[0]["plan_matrix"][2][5] = math.nextafter(value, math.inf)
        bodies = []
        for target in (target_payload, entries):
            status, body, _ = app.handle(
                "POST", "/v1/rank", rank_payload(target)
            )
            assert status == 200
            assert body["meta"]["cache_tier"] == "compute"
            bodies.append(body)
        assert bodies[0]["digest"] != bodies[1]["digest"]

    def test_integer_per_type_latencies_are_a_memory_hit(
        self, app, target_payload
    ):
        """Per-type latencies decode as floats, so ``2`` and ``2.0``
        address one target."""
        bodies = []
        for value in (2.0, 2):
            entries = copy.deepcopy(target_payload)
            for entry in entries:
                entry["per_txn_latency_ms"] = dict.fromkeys(
                    entry["per_txn_latency_ms"], value
                )
            status, body, _ = app.handle(
                "POST", "/v1/rank", rank_payload(entries)
            )
            assert status == 200
            bodies.append(body)
        cold, warm = bodies
        assert [cold["meta"]["cache_tier"], warm["meta"]["cache_tier"]] == [
            "compute", "memory",
        ]
        assert warm["digest"] == cold["digest"]
        assert warm["result"] == cold["result"]

    @pytest.mark.parametrize("metadata", ["x", [1, 2]])
    def test_metadata_that_is_not_an_object_is_400(
        self, app, target_payload, metadata
    ):
        """The digest re-encodes each decoded experiment's scalar fields,
        so the decoder must refuse what that encoding cannot take."""
        entries = copy.deepcopy(target_payload)
        entries[0]["metadata"] = metadata
        status, body, _ = app.handle("POST", "/v1/rank", rank_payload(entries))
        assert status == 400
        assert body["error"].startswith("target[0] is malformed")


class TestSingleFlight:
    def test_concurrent_identical_requests_one_execution(
        self, app, target_payload, fresh_metrics
    ):
        payload = rank_payload(target_payload)
        responses = []

        def drive():
            responses.append(app.handle("POST", "/v1/rank", payload))

        threads = [threading.Thread(target=drive) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert len(responses) == 6
        assert all(status == 200 for status, _, _ in responses)
        bodies = [body["result"] for _, body, _ in responses]
        assert all(body == bodies[0] for body in bodies)
        snap = fresh_metrics.snapshot()
        assert snap["serve.pipeline_executions_total"]["value"] == 1


class TestDeliveryMode:
    @pytest.mark.parametrize("endpoint", ["/v1/rank", "/v1/predict"])
    def test_only_sync_is_served(
        self, app, target_payload, endpoint, monkeypatch
    ):
        """Any ``mode`` but ``"sync"`` is refused before the target is
        decoded; ``"sync"`` is stripped from the digest, so it is the
        bare request."""
        make = rank_payload if endpoint == "/v1/rank" else predict_payload
        decoded = []
        decode = app_module.decode_experiments

        def spy(*args, **kwargs):
            decoded.append(args)
            return decode(*args, **kwargs)

        monkeypatch.setattr(app_module, "decode_experiments", spy)
        for mode in ("async", "batch"):
            status, body, _ = app.handle(
                "POST", endpoint, make(target_payload, mode=mode)
            )
            assert status == 400
            assert f"mode {mode!r}" in body["error"]
            assert "async mode was removed" in body["error"]
        assert decoded == []
        assert len(app.response_cache) == 0

        status, bare, _ = app.handle("POST", endpoint, make(target_payload))
        assert status == 200
        status, sync, _ = app.handle(
            "POST", endpoint, make(target_payload, mode="sync")
        )
        assert status == 200
        assert sync["meta"]["cache_tier"] == "memory"
        assert sync["digest"] == bare["digest"]
        assert sync["result"] == bare["result"]

    @pytest.mark.parametrize(
        "mode",
        [None, 1, "SYNC", ["sync"]],
        ids=["null", "number", "upper", "list"],
    )
    def test_mode_must_be_the_string_sync(self, app, target_payload, mode):
        """Only an absent ``mode`` means sync: ``null``, another type or
        another spelling is refused, never served as the bare request."""
        status, body, _ = app.handle(
            "POST", "/v1/rank", rank_payload(target_payload, mode=mode)
        )
        assert status == 400
        assert body["error"].startswith(f"mode {mode!r} is not served")
        assert len(app.response_cache) == 0


class TestShutdown:
    def test_compute_rejected_after_shutdown(self, app, target_payload):
        assert app.shutdown(drain_timeout=10.0)
        status, body, _ = app.handle(
            "POST", "/v1/rank", rank_payload(target_payload)
        )
        assert status == 503
        # Health stays up for orchestrators during drain.
        status, _, _ = app.handle("GET", "/healthz", None)
        assert status == 200

    def test_a_request_in_flight_at_shutdown_gets_the_503(
        self, app, target_payload, fresh_metrics, monkeypatch
    ):
        """A leader and its coalesced follower pass the shutdown check,
        then shutdown runs while they decode: the leader reaches the
        closed scheduler, and both are answered as shutting down, not
        with a 400 that blames the request."""
        payload = rank_payload(target_payload)
        key = replay_key("/v1/rank", json.dumps(payload).encode())
        decode = app_module.decode_experiments
        # The barrier's action runs once both requests are decoding,
        # before either goes on.
        both_decoding = threading.Barrier(
            2, action=lambda: app.shutdown(drain_timeout=10.0), timeout=30.0
        )

        def decode_during_shutdown(*args, **kwargs):
            both_decoding.wait()
            return decode(*args, **kwargs)

        monkeypatch.setattr(
            app_module, "decode_experiments", decode_during_shutdown
        )
        coalesced = fresh_metrics.counter("serve.singleflight.coalesced_total")
        submit = app.batcher.submit

        def submit_once_followed(*args, **kwargs):
            wait_for(lambda: coalesced.value == 1)
            return submit(*args, **kwargs)

        monkeypatch.setattr(app.batcher, "submit", submit_once_followed)
        answers = []
        threads = [
            threading.Thread(
                target=lambda: answers.append(
                    app.handle("POST", "/v1/rank", payload, key)
                )
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [
            (503, {"error": "server is shutting down"}, "application/json")
        ] * 2
        assert coalesced.value == 1
        assert not app.response_cache.has_alias(key)
        assert len(app.response_cache) == 0

    def test_an_admitted_request_keeps_its_own_400(
        self, app, target_payload, monkeypatch
    ):
        """Shutdown closes the scheduler while it runs an admitted
        request; that request fails on its own, with an unknown SKU,
        and the drain answers it with its 400."""
        predict = app.service.predict
        closing = threading.Thread(
            target=app.shutdown, kwargs={"drain_timeout": 30.0}
        )

        def predict_while_closing(*args, **kwargs):
            closing.start()
            wait_for(lambda: app.batcher.closed)
            return predict(*args, **kwargs)

        monkeypatch.setattr(app.service, "predict", predict_while_closing)
        status, body, _ = app.handle(
            "POST",
            "/v1/predict",
            predict_payload(target_payload, target_sku="s4096"),
        )
        closing.join(timeout=30.0)
        assert not closing.is_alive()
        assert status == 400
        assert "s4096" in body["error"]

    def test_a_removed_mode_after_shutdown_gets_the_503(
        self, app, target_payload
    ):
        """Once shutdown has begun every compute request is told so,
        before its mode is looked at."""
        assert app.shutdown(drain_timeout=10.0)
        status, body, _ = app.handle(
            "POST", "/v1/rank", rank_payload(target_payload, mode="async")
        )
        assert (status, body) == (503, {"error": "server is shutting down"})

    def test_shutdown_reports_a_scheduler_that_did_not_drain(
        self, app, target_payload, monkeypatch
    ):
        """A batch still running past ``drain_timeout`` makes shutdown
        return False; the admitted request still gets its answer."""
        predict = app.service.predict
        running, release = threading.Event(), threading.Event()

        def predict_until_released(*args, **kwargs):
            running.set()
            assert release.wait(timeout=30.0)
            return predict(*args, **kwargs)

        monkeypatch.setattr(app.service, "predict", predict_until_released)
        payload = predict_payload(target_payload)
        answers = []
        request = threading.Thread(
            target=lambda: answers.append(
                app.handle("POST", "/v1/predict", payload)
            )
        )
        request.start()
        try:
            assert running.wait(timeout=30.0)
            assert app.shutdown(drain_timeout=0.05) is False
        finally:
            release.set()
            request.join(timeout=30.0)
        assert not request.is_alive()
        [(status, body, _)] = answers
        assert status == 200
        assert "predicted_throughput" in body["result"]
        assert app.shutdown(drain_timeout=10.0) is True


class TestPredictErrors:
    def test_nearest_reference_missing_the_target_sku_400(
        self, serve_references, serve_skus, fresh_metrics
    ):
        """Twitter lacks s8, which TPC-C has: predicting a Twitter target
        to s8 names the reference and the SKU instead of failing 500."""
        references = serve_references.filter(
            lambda r: not (r.workload_name == "twitter" and r.sku.name == "s8")
        )
        service = PredictionService(references, PipelineConfig())
        service.warmup()
        target = run_experiments(
            [twitter()],
            [serve_skus[0]],
            terminals_for=lambda w: (4,),
            n_runs=1,
            duration_s=600.0,
            random_state=5,
        )
        application = ServeApp(service, references_digest="no-twitter-s8")
        try:
            status, body, _ = application.handle(
                "POST",
                "/v1/predict",
                predict_payload([result_to_dict(r) for r in target]),
            )
        finally:
            application.shutdown(drain_timeout=10.0)
        assert status == 400
        assert "reference 'twitter' has no runs on SKU 's8'" in body["error"]


NON_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"]
)


class TestNonFiniteTargets:
    @NON_FINITE
    @pytest.mark.parametrize("endpoint", ["/v1/rank", "/v1/predict"])
    def test_answered_400(self, app, target_payload, endpoint, value):
        entries = copy.deepcopy(target_payload)
        entries[0]["resource_series"][3][1] = value
        payload = (
            rank_payload(entries) if endpoint == "/v1/rank"
            else predict_payload(entries)
        )
        status, body, _ = app.handle("POST", endpoint, payload)
        assert status == 400
        assert "error" in body

    @NON_FINITE
    @pytest.mark.parametrize("endpoint", ["/v1/rank", "/v1/predict"])
    def test_error_names_experiment_field_and_position(
        self, app, target_payload, endpoint, value
    ):
        """The app decodes the target before it digests anything, and
        the decoder's message names the experiment, field and
        position."""
        entries = copy.deepcopy(target_payload)
        entries[0]["resource_series"][3][1] = value
        payload = (
            rank_payload(entries) if endpoint == "/v1/rank"
            else predict_payload(entries)
        )
        status, body, _ = app.handle("POST", endpoint, payload)
        experiment = result_from_dict(target_payload[0]).experiment_id
        assert status == 400
        assert body["error"] == (
            f"target[0] is malformed: experiment {experiment}: "
            f"non-finite value {value} in resource_series[3, 1]"
        )

    def test_non_finite_outside_the_target_keeps_the_digest_error(
        self, app, target_payload
    ):
        status, body, _ = app.handle(
            "POST", "/v1/rank", rank_payload(target_payload, note=math.inf)
        )
        assert status == 400
        assert body["error"].startswith(
            "payload is not canonical-JSON-encodable"
        )

    @NON_FINITE
    def test_prepare_target_rejects(self, warm_service, target_payload, value):
        entries = copy.deepcopy(target_payload)
        entries[0]["resource_series"][3][1] = value
        target = ExperimentRepository([result_from_dict(e) for e in entries])
        message = f"non-finite value {value} in resource_series[3, 1]"
        with pytest.raises(RepositoryError, match=re.escape(message)):
            warm_service.prepare_target(target)


class TestDiskCaches:
    def test_rank_requests_read_the_distance_cache_once(
        self, serve_references, target_payload, tmp_path, fresh_metrics,
        monkeypatch,
    ):
        """The service opens its distance cache at construction; rank
        requests use the open store instead of re-reading a file that
        grows with every distinct request."""
        cache_dir = tmp_path / "distances"
        cache_dir.mkdir()
        path = cache_dir / "distances.jsonl"
        path.write_text(json.dumps({"key": "0" * 64, "value": 1.0}) + "\n")
        reads = []
        read_text = Path.read_text

        def counting_read_text(self, *args, **kwargs):
            if self == path:
                reads.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        # L2,1 and L1,1 skip the distance cache; Fro still reads it.
        service = PredictionService(
            serve_references,
            PipelineConfig(measure="Fro", distance_cache=str(cache_dir)),
        )
        service.warmup()
        application = ServeApp(service, references_digest="refs-digest")
        try:
            for n in range(6):
                status, body, _ = application.handle(
                    "POST", "/v1/rank", rank_payload(target_payload, nonce=n)
                )
                assert status == 200
                assert body["meta"]["cache_tier"] == "compute"
        finally:
            application.shutdown(drain_timeout=10.0)
        assert len(reads) == 1
        # Later requests answer from entries the first one appended.
        assert fresh_metrics.counter("distance_cache.hits_total").value > 0


class TestBenchmarkHooks:
    def test_the_names_the_traced_serving_benchmark_wraps_resolve(self):
        """A traced ``serve_*`` run of ``perfbench/run.py`` wraps these
        attributes by name to time each layer; one that is missing
        fails the run before it measures anything."""
        hooks = [
            (server_module._Handler, "_read_payload"),
            (app_module, "decode_experiments"),
            (app_module, "request_digest"),
            (ResponseCache, "get"),
            (ResponseCache, "put"),
            (BatchScheduler, "submit"),
            (ServeApp, "_execute_batch"),
            (PredictionService, "prepare_target"),
            (service_module, "multi_query_cross_distances"),
            (PredictionService, "nearest_reference"),
            (PredictionService, "_scaling_model"),
            (WorkloadPredictionPipeline, "_reference_scaling_model"),
            (service_module, "augmented_throughputs"),
            (PairwiseScalingModel, "transfer"),
            (server_module._Handler, "_respond"),
        ]
        missing = [
            f"{owner.__name__}.{name}"
            for owner, name in hooks
            if not callable(getattr(owner, name, None))
        ]
        assert missing == []
