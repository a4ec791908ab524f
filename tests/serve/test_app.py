"""ServeApp routing, cache tiers, async jobs, single-flight, shutdown."""

from __future__ import annotations

import copy
import json
import math
import re
import threading
from pathlib import Path

import pytest

from repro.core.config import PipelineConfig
from repro.exceptions import RepositoryError
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.serve.app import ServeApp
from repro.serve.service import PredictionService
from repro.workloads import ExperimentRepository, run_experiments, twitter
from repro.workloads.repository import result_from_dict, result_to_dict


@pytest.fixture
def fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield get_metrics()
    set_metrics(previous)


@pytest.fixture
def app(warm_service, tmp_path, fresh_metrics):
    application = ServeApp(
        warm_service, references_digest="refs-digest", state_dir=tmp_path
    )
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


def poll_job(app, job_id, tries=200):
    for _ in range(tries):
        status, body, _ = app.handle("GET", f"/v1/jobs/{job_id}", None)
        assert status == 200
        if body["status"] in ("done", "failed"):
            return body
        threading.Event().wait(0.05)
    raise AssertionError(f"job {job_id} never settled")


class TestRoutes:
    def test_healthz(self, app):
        status, body, ctype = app.handle("GET", "/healthz", None)
        assert status == 200
        assert ctype == "application/json"
        assert body["status"] == "ok"
        assert body["identity"] == app.identity
        assert set(body["references"]["workloads"]) == {"tpcc", "twitter"}

    def test_metrics_is_prometheus_text(self, app):
        app.handle("GET", "/healthz", None)
        status, body, ctype = app.handle("GET", "/metrics", None)
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "serve_requests_total" in body

    def test_unknown_route_404(self, app):
        status, body, _ = app.handle("GET", "/v1/nope", None)
        assert status == 404
        assert "no route" in body["error"]

    def test_unknown_job_404(self, app):
        status, body, _ = app.handle("GET", "/v1/jobs/job-missing", None)
        assert status == 404

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


class TestAsyncJobs:
    def test_async_202_then_result_matches_sync(self, app, target_payload):
        sync_payload = rank_payload(target_payload)
        async_payload = rank_payload(target_payload, mode="async")

        status, accepted, _ = app.handle("POST", "/v1/rank", async_payload)
        assert status == 202
        assert accepted["status"] in ("pending", "running", "done")
        job = poll_job(app, accepted["job_id"])
        assert job["status"] == "done"

        status, sync, _ = app.handle("POST", "/v1/rank", sync_payload)
        assert status == 200
        # mode is volatile: the async job computed under the same digest,
        # so the sync request was a pure response-cache hit.
        assert sync["digest"] == accepted["digest"]
        assert sync["meta"]["cache_tier"] == "memory"
        assert job["result"] == sync["result"]


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
        """The canonical-JSON request digest refuses the payload before
        any decoding; the answer still carries the decoder's message."""
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
