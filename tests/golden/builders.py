"""Builders for the golden-regression fixtures under ``tests/golden/``.

Each builder runs a small, fully seeded slice of the pipeline and
returns a JSON-serializable summary of numbers the paper's figures and
tables are derived from: per-experiment feature vectors and throughput,
the NRMSE of a seeded mini prediction pipeline, and what the paper's
pipeline and the server answer for five seeded targets (selected
features, similarity distances, nearest reference, predicted
throughput, and the rank and predict bodies).  The committed JSON
files pin those numbers; ``tests/test_golden_regression.py`` asserts the
current engine still produces them to within 1e-12 (exactly, for
integers and strings).

Regenerate after an *intentional* engine change with::

    PYTHONPATH=src python tests/golden/regenerate.py

and review the diff like any other behavioural change — a golden shift
means every previously produced corpus and paper number shifts with it.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import WorkloadPredictionPipeline
from repro.prediction.evaluation import (
    build_scaling_dataset,
    evaluate_baseline,
    evaluate_pairwise_strategy,
)
from repro.serve.service import PredictionService
from repro.workloads import (
    SKU,
    ExperimentRunner,
    run_experiments,
    workload_by_name,
)

GOLDEN_DIR = Path(__file__).resolve().parent

#: The prediction goldens' catalog, the same as ``perfbench``'s: TPC-C,
#: Twitter and TPC-H references on the 2- and 8-CPU SKUs, and one
#: seeded target of each query workload on the 2-CPU SKU.
PREDICTION_SOURCE = SKU(cpus=2, memory_gb=32.0)
PREDICTION_TARGET = SKU(cpus=8, memory_gb=32.0)
PREDICTION_REFERENCES = ("tpcc", "twitter", "tpch")
PREDICTION_REFERENCE_STATE = 42
PREDICTION_QUERIES = ("ycsb", "tpcc", "twitter", "tpch", "tpcds")
#: Target ``k`` is simulated with ``random_state=PREDICTION_TARGET_STATE + k``.
PREDICTION_TARGET_STATE = 1000


def _experiment_summary(result) -> dict:
    return {
        "experiment_id": result.experiment_id,
        "seed": result.metadata["seed"],
        "throughput": result.throughput,
        "latency_ms": result.latency_ms,
        "bottleneck": result.bottleneck,
        "n_samples": result.n_samples,
        "feature_vector": result.feature_vector().tolist(),
    }


def tpcc_run_summary() -> dict:
    """One fully seeded TPC-C experiment (runner-level golden)."""
    runner = ExperimentRunner(workload_by_name("tpcc"), random_state=3)
    result = runner.run(
        SKU(cpus=8, memory_gb=32.0), terminals=8, duration_s=600.0
    )
    return _experiment_summary(result)


def mini_corpus_summary() -> dict:
    """A small two-workload grid (corpus-level golden).

    Covers the seed-derivation scheme end to end: any change to
    ``spawn_generators``, grid enumeration order, or per-task seeding
    shifts these numbers.
    """
    repository = run_experiments(
        [workload_by_name("tpcc"), workload_by_name("tpch")],
        [SKU(cpus=4, memory_gb=32.0)],
        terminals_for=lambda w: (1,) if w.name == "tpch" else (2,),
        n_runs=2,
        duration_s=300.0,
        random_state=123,
    )
    return {"experiments": [_experiment_summary(r) for r in repository]}


def mini_pipeline_nrmse() -> dict:
    """NRMSE of a seeded mini scaling-prediction pipeline (Table 6 path)."""
    repository = run_experiments(
        [workload_by_name("tpcc")],
        [SKU(cpus=2, memory_gb=32.0), SKU(cpus=4, memory_gb=32.0)],
        terminals_for=lambda w: (4,),
        n_runs=3,
        duration_s=600.0,
        random_state=7,
    )
    dataset = build_scaling_dataset(
        repository, "tpcc", 4, n_series=5, random_state=0
    )
    score = evaluate_pairwise_strategy(
        dataset, "Regression", cv=3, random_state=0
    )
    return {
        "workload": "tpcc",
        "strategy": score.strategy,
        "context": score.context,
        "mean_nrmse": score.mean_nrmse,
        "baseline_nrmse": evaluate_baseline(dataset),
    }


@functools.lru_cache(maxsize=1)
def prediction_references():
    """The reference corpus of the prediction goldens.

    Simulated once per process and shared, so no caller may mutate it.
    """
    return run_experiments(
        [workload_by_name(name) for name in PREDICTION_REFERENCES],
        [PREDICTION_SOURCE, PREDICTION_TARGET],
        random_state=PREDICTION_REFERENCE_STATE,
    )


@functools.lru_cache(maxsize=1)
def prediction_targets() -> tuple:
    """One seeded target per query workload, 32 terminals, source SKU.

    Simulated once per process and shared, like the references.
    """
    return tuple(
        run_experiments(
            [workload_by_name(name)],
            [PREDICTION_SOURCE],
            terminals_for=lambda workload: (32,),
            random_state=PREDICTION_TARGET_STATE + k,
        )
        for k, name in enumerate(PREDICTION_QUERIES)
    )


def _throughput_summary(predicted) -> dict:
    predicted = np.asarray(predicted)
    return {
        "n": int(predicted.size),
        "mean": float(predicted.mean()),
        "std": float(predicted.std()),
        "p50": float(np.percentile(predicted, 50)),
        "p90": float(np.percentile(predicted, 90)),
        "p99": float(np.percentile(predicted, 99)),
    }


def pipeline_predictions(config: PipelineConfig | None = None) -> dict:
    """What ``predict_scaling`` answers for each catalog target.

    ``config`` defaults to the paper's :class:`PipelineConfig`; the
    cache test passes one with cache directories to show the caches
    change no answer.
    """
    pipeline = WorkloadPredictionPipeline(config)
    predictions = []
    for target in prediction_targets():
        report = pipeline.predict_scaling(
            prediction_references(),
            target,
            PREDICTION_SOURCE,
            PREDICTION_TARGET,
        )
        predictions.append(
            {
                "target_workload": report.target_workload,
                "selected_features": list(report.selected_features),
                "distances": dict(report.similarity.distances),
                "nearest": report.similarity.nearest,
                "reference_workload": report.reference_workload,
                "predicted_throughput": _throughput_summary(
                    report.predicted_throughput
                ),
            }
        )
    return {"predictions": predictions}


def serve_bodies() -> dict:
    """The ``PredictionService`` rank and predict body for each target."""
    service = PredictionService(prediction_references(), PipelineConfig())
    service.warmup()
    bodies = []
    for target in prediction_targets():
        bodies.append(
            {
                "rank": service.rank_response(target),
                "predict": service.predict(
                    target, PREDICTION_SOURCE.name, PREDICTION_TARGET.name
                ),
            }
        )
    return {"bodies": bodies}


#: Golden file name -> builder.
BUILDERS = {
    "tpcc_run_summary.json": tpcc_run_summary,
    "mini_corpus_summary.json": mini_corpus_summary,
    "mini_pipeline_nrmse.json": mini_pipeline_nrmse,
    "pipeline_predictions.json": pipeline_predictions,
    "serve_bodies.json": serve_bodies,
}


def regenerate(directory: Path | None = None) -> list[Path]:
    """Write every golden file; returns the paths written."""
    directory = directory or GOLDEN_DIR
    written = []
    for name, builder in BUILDERS.items():
        path = directory / name
        path.write_text(json.dumps(builder(), indent=2, sort_keys=True))
        written.append(path)
    return written
