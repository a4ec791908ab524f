"""The PR's determinism contract: batching never changes an answer.

Three layers, matching how a request actually flows:

- ``rank_batch`` == per-request ``rank``, bit for bit, across batch
  sizes {1, 3, 8} x jobs {1, 4};
- predict's reference == the rank's nearest on every catalog workload,
  and a tie resolves to the reference listed first in the corpus;
- a batching :class:`ServeApp` returns byte-identical bodies to a
  serialized (``max_batch=1``) one for the same distinct requests.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import PipelineConfig
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.serve.app import ServeApp
from repro.serve.protocol import canonical_json
from repro.serve.service import PredictionService
from repro.workloads import ExperimentRepository
from repro.workloads.repository import result_to_dict

BATCH_SIZES = (1, 3, 8)


@pytest.fixture(scope="module")
def parallel_service(serve_references):
    """The same corpus warmed with a 4-worker engine config."""
    service = PredictionService(serve_references, PipelineConfig(jobs=4))
    service.warmup()
    return service


def batch_of(targets, size):
    """Cycle the catalog targets up to ``size`` distinct-ish entries."""
    ordered = list(targets.values())
    return [ordered[k % len(ordered)] for k in range(size)]


class TestRankBatchParity:
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_batch_equals_serial_rank(self, warm_service, catalog_targets, size):
        batch = batch_of(catalog_targets, size)
        rankings = warm_service.rank_batch(batch)
        assert len(rankings) == size
        for target, ranking in zip(batch, rankings):
            alone = warm_service.rank(target)
            assert ranking.target == alone.target
            assert ranking.distances == alone.distances

    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_parallel_service_matches_serial_service(
        self, warm_service, parallel_service, catalog_targets, size
    ):
        batch = batch_of(catalog_targets, size)
        serial = warm_service.rank_batch(batch)
        parallel = parallel_service.rank_batch(batch)
        for a, b in zip(serial, parallel):
            assert a.target == b.target
            assert a.distances == b.distances

    def test_empty_batch_is_empty(self, warm_service):
        assert warm_service.rank_batch([]) == []


class TestPredictParity:
    def test_predict_uses_rank_nearest(self, warm_service, catalog_targets):
        for name, target in catalog_targets.items():
            response = warm_service.predict(target, "s4", "s8")
            assert (
                response["reference_workload"]
                == warm_service.rank(target).nearest
            ), name
            assert "ranking" not in response
            assert response["target_workload"] == name

    def test_tied_references_resolve_in_corpus_order(
        self, serve_references, catalog_targets
    ):
        """The TPC-C runs again, renamed to a name that sorts first and
        listed after the originals: the two groups tie, and both
        endpoints name the one the corpus lists first."""
        copies = [
            dataclasses.replace(run, workload_name="clone-of-tpcc")
            for run in serve_references.by_workload("tpcc")
        ]
        service = PredictionService(
            ExperimentRepository(list(serve_references) + copies),
            PipelineConfig(),
        )
        service.warmup()
        app = ServeApp(service, references_digest="tpcc-twice")
        target = [result_to_dict(r) for r in catalog_targets["tpcc"]]
        try:
            answers = [
                app.handle("POST", "/v1/rank", {"target": target}),
                app.handle(
                    "POST",
                    "/v1/predict",
                    {"target": target, "source_sku": "s4", "target_sku": "s8"},
                ),
            ]
        finally:
            app.shutdown(drain_timeout=10.0)
        assert [status for status, _, _ in answers] == [200, 200]
        (_, ranked, _), (_, predicted, _) = answers
        ranking = ranked["result"]["ranking"]
        assert list(ranking)[:2] == ["tpcc", "clone-of-tpcc"]
        assert ranking["tpcc"] == ranking["clone-of-tpcc"]
        assert ranked["result"]["nearest"] == "tpcc"
        assert predicted["result"]["reference_workload"] == "tpcc"

    def test_parallel_service_predicts_identically(
        self, warm_service, parallel_service, catalog_targets
    ):
        for target in catalog_targets.values():
            a = warm_service.predict(target, "s4", "s8")
            b = parallel_service.predict(target, "s4", "s8")
            assert canonical_json(a) == canonical_json(b)


class TestAppLevelParity:
    @pytest.fixture()
    def payloads(self, catalog_targets):
        bodies = []
        for name, target in catalog_targets.items():
            bodies.append(
                {"target": [result_to_dict(r) for r in target]}
            )
        return bodies

    def _collect(self, app, payloads, concurrent):
        results = {}
        if concurrent:
            with ThreadPoolExecutor(max_workers=len(payloads)) as pool:
                futures = [
                    pool.submit(app.handle, "POST", "/v1/rank", body)
                    for body in payloads
                ]
                responses = [future.result() for future in futures]
        else:
            responses = [
                app.handle("POST", "/v1/rank", body) for body in payloads
            ]
        for status, body, _ in responses:
            assert status == 200
            results[body["digest"]] = body["result"]
        return results

    def test_batched_app_matches_serialized_app(self, warm_service, payloads):
        serialized = ServeApp(
            warm_service,
            references_digest="refs",
            batch_window_ms=0.0,
            max_batch=1,
        )
        batched = ServeApp(
            warm_service,
            references_digest="refs",
            batch_window_ms=25.0,
            max_batch=8,
        )
        try:
            baseline = self._collect(serialized, payloads, concurrent=False)
            concurrent = self._collect(batched, payloads, concurrent=True)
            assert set(baseline) == set(concurrent)
            for digest, result in baseline.items():
                assert canonical_json(result) == canonical_json(
                    concurrent[digest]
                ), digest
        finally:
            serialized.shutdown(drain_timeout=10.0)
            batched.shutdown(drain_timeout=10.0)

    def test_mixed_batch_isolates_bad_requests(self, warm_service, payloads):
        app = ServeApp(
            warm_service,
            references_digest="refs",
            batch_window_ms=25.0,
            max_batch=8,
        )
        try:
            bodies = [
                payloads[0],
                {"target": [{"nonsense": True}]},
                payloads[1],
            ]
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [
                    pool.submit(app.handle, "POST", "/v1/rank", body)
                    for body in bodies
                ]
                statuses = [future.result()[0] for future in futures]
            assert sorted(statuses) == [200, 200, 400]
        finally:
            app.shutdown(drain_timeout=10.0)

    def test_mixed_batch_isolates_a_request_failing_in_the_batch(
        self, warm_service, payloads
    ):
        """A malformed target is refused before admission; an unknown
        SKU is not, and must fail alone inside a batch it shares."""
        previous = set_metrics(MetricsRegistry())
        # The batch flushes when the third request joins it.
        app = ServeApp(
            warm_service,
            references_digest="refs",
            batch_window_ms=30_000.0,
            max_batch=3,
        )
        try:
            requests = [
                ("/v1/rank", payloads[0]),
                (
                    "/v1/predict",
                    {**payloads[0], "source_sku": "s4", "target_sku": "s1024"},
                ),
                ("/v1/rank", payloads[1]),
            ]
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [
                    pool.submit(app.handle, "POST", endpoint, body)
                    for endpoint, body in requests
                ]
                answers = [future.result() for future in futures]
            batches = get_metrics().snapshot()["serve.batch.size"]
        finally:
            app.shutdown(drain_timeout=10.0)
            set_metrics(previous)
        assert [status for status, _, _ in answers] == [200, 400, 200]
        assert "s1024" in answers[1][1]["error"]
        assert (batches["count"], batches["sum"]) == (1, 3.0)
