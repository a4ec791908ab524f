"""The serving determinism contract: scheduling never changes an answer.

Three layers, matching how a request actually flows:

- predict's reference == the rank's nearest on every catalog workload,
  and a tie resolves to the reference listed first in the corpus;
- a 4-worker service ranks and predicts each target exactly as a
  serial one does, and a target's answer does not depend on which
  targets were computed before it;
- one :class:`ServeApp` answers requests sent concurrently with the
  bytes it answers them with one at a time, and a request that fails
  on the scheduler thread fails alone.
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


@pytest.fixture(scope="module")
def parallel_service(serve_references):
    """The same corpus warmed with a 4-worker engine config."""
    service = PredictionService(serve_references, PipelineConfig(jobs=4))
    service.warmup()
    return service


class TestWorkerCountParity:
    def test_parallel_service_ranks_identically(
        self, warm_service, parallel_service, catalog_targets
    ):
        for target in catalog_targets.values():
            a = warm_service.rank(target)
            b = parallel_service.rank(target)
            assert a.target == b.target
            assert a.distances == b.distances


class TestArrivalOrderParity:
    """Requests compute one at a time in arrival order, so a target's
    answer must not depend on what came before it: two services warmed
    alike see the catalog in opposite orders."""

    @staticmethod
    def warmed_twice(references):
        services = []
        for _ in range(2):
            service = PredictionService(references, PipelineConfig())
            service.warmup()
            services.append(service)
        return services

    def test_rankings_do_not_depend_on_arrival_order(
        self, serve_references, catalog_targets
    ):
        names = list(catalog_targets)
        first, second = self.warmed_twice(serve_references)
        forward = {
            name: first.rank(catalog_targets[name]) for name in names
        }
        backward = {
            name: second.rank(catalog_targets[name])
            for name in reversed(names)
        }
        for name in names:
            assert forward[name].target == backward[name].target, name
            assert forward[name].distances == backward[name].distances, name

    def test_predictions_do_not_depend_on_arrival_order(
        self, serve_references, catalog_targets
    ):
        names = list(catalog_targets)
        first, second = self.warmed_twice(serve_references)

        def predicted(service, order):
            return {
                name: canonical_json(
                    service.predict(catalog_targets[name], "s4", "s8")
                )
                for name in order
            }

        assert predicted(first, names) == predicted(second, reversed(names))


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

    def test_concurrent_requests_match_sequential_ones(
        self, warm_service, catalog_targets, payloads
    ):
        """Every catalog target, ranked and predicted, once one request
        at a time and once all at once.  The passes differ only by a
        nonce, which keeps the second pass out of the response cache
        and does not change the computation."""
        requests = []
        for body in payloads:
            requests.append(("/v1/rank", body))
            requests.append(
                (
                    "/v1/predict",
                    {**body, "source_sku": "s4", "target_sku": "s8"},
                )
            )

        def nonced(tag):
            return [
                (endpoint, {**body, "nonce": f"{tag}-{k}"})
                for k, (endpoint, body) in enumerate(requests)
            ]

        app = ServeApp(warm_service, references_digest="refs")
        try:
            sequential = [
                app.handle("POST", endpoint, body)
                for endpoint, body in nonced("sequential")
            ]
            with ThreadPoolExecutor(max_workers=len(requests)) as pool:
                futures = [
                    pool.submit(app.handle, "POST", endpoint, body)
                    for endpoint, body in nonced("concurrent")
                ]
                concurrent = [future.result() for future in futures]
        finally:
            app.shutdown(drain_timeout=10.0)
        assert len(requests) == 2 * len(catalog_targets)
        for (endpoint, _), alone, together in zip(
            requests, sequential, concurrent
        ):
            for status, body, _ in (alone, together):
                assert status == 200, body
                assert body["meta"]["cache_tier"] == "compute"
            assert canonical_json(alone[1]["result"]) == canonical_json(
                together[1]["result"]
            ), endpoint

    def test_each_request_reaches_the_executor_alone(
        self, warm_service, payloads, monkeypatch
    ):
        """Distinct requests sent together reach ``_execute_batch`` one
        per call, each as a one-item list (the traced serving benchmark
        wraps the method under that name), and compute once each; no
        ``serve.batch`` series is recorded."""
        sizes = []
        execute = ServeApp._execute_batch

        def recording(app, items):
            sizes.append(len(items))
            return execute(app, items)

        # On the class, before the app exists: the scheduler keeps the
        # bound method it is constructed with.
        monkeypatch.setattr(ServeApp, "_execute_batch", recording)
        previous = set_metrics(MetricsRegistry())
        app = ServeApp(warm_service, references_digest="refs")
        try:
            with ThreadPoolExecutor(max_workers=len(payloads)) as pool:
                futures = [
                    pool.submit(app.handle, "POST", "/v1/rank", body)
                    for body in payloads
                ]
                statuses = [future.result()[0] for future in futures]
            registry = get_metrics()
            executions = registry.counter(
                "serve.pipeline_executions_total"
            ).value
            names = registry.names()
        finally:
            app.shutdown(drain_timeout=10.0)
            set_metrics(previous)
        assert statuses == [200] * len(payloads)
        assert sizes == [1] * len(payloads)
        assert executions == len(payloads)
        assert not [name for name in names if name.startswith("serve.batch")]

    def test_concurrent_requests_isolate_bad_requests(
        self, warm_service, payloads
    ):
        app = ServeApp(warm_service, references_digest="refs")
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

    def test_an_unknown_sku_fails_alone_among_concurrent_ranks(
        self, warm_service, payloads
    ):
        """A malformed target is refused before admission; an unknown
        SKU is not, and must fail alone on the scheduler thread."""
        previous = set_metrics(MetricsRegistry())
        app = ServeApp(warm_service, references_digest="refs")
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
            executions = get_metrics().counter(
                "serve.pipeline_executions_total"
            ).value
        finally:
            app.shutdown(drain_timeout=10.0)
            set_metrics(previous)
        assert [status for status, _, _ in answers] == [200, 400, 200]
        assert "s1024" in answers[1][1]["error"]
        # All three were admitted: the 400 came from the scheduler.
        assert executions == 3
