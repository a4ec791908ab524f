"""Shared serving fixtures: a small two-SKU corpus, targets, a warm service.

Session-scoped because warmup (feature selection + builder fit +
reference matrices) is the expensive part and every test treats the
service as read-only warm state — exactly how the server uses it.
"""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig
from repro.serve.service import PredictionService
from repro.workloads import SKU, run_experiments, tpcc, twitter, ycsb
from repro.workloads.catalog import production_workload, standard_workloads
from repro.workloads.repository import result_to_dict


@pytest.fixture(scope="session")
def serve_skus():
    return [
        SKU(cpus=4, memory_gb=16.0, name="s4"),
        SKU(cpus=8, memory_gb=32.0, name="s8"),
    ]


@pytest.fixture(scope="session")
def serve_references(serve_skus):
    """TPC-C + Twitter on both SKUs — the server's reference corpus."""
    return run_experiments(
        [tpcc(), twitter()],
        serve_skus,
        terminals_for=lambda w: (4,),
        n_runs=2,
        duration_s=600.0,
        random_state=0,
    )


@pytest.fixture(scope="session")
def serve_target(serve_skus):
    """A YCSB run on the source SKU — the workload clients submit."""
    return run_experiments(
        [ycsb()],
        [serve_skus[0]],
        terminals_for=lambda w: (4,),
        n_runs=1,
        duration_s=600.0,
        random_state=1,
    )


@pytest.fixture(scope="session")
def catalog_targets(serve_skus):
    """One single-workload target corpus per catalog workload."""
    targets = {}
    for spec in list(standard_workloads()) + [production_workload()]:
        targets[spec.name] = run_experiments(
            [spec],
            [serve_skus[0]],
            terminals_for=lambda w: (4,),
            n_runs=1,
            duration_s=600.0,
            random_state=2,
        )
    return targets


@pytest.fixture(scope="session")
def target_payload(serve_target):
    """The wire form of the target corpus (request ``target`` field)."""
    return [result_to_dict(result) for result in serve_target]


@pytest.fixture(scope="session")
def warm_service(serve_references):
    """A warmed-up :class:`PredictionService` (no disk caches)."""
    service = PredictionService(serve_references, PipelineConfig())
    service.warmup()
    return service
