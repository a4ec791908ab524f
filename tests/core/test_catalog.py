"""The reference catalog: fit once, predict many, with the same answers.

The catalog behind ``predict_scaling`` holds what the reference corpus
and the config determine (expanded references, selected features,
scaling models).  These tests pin its contract on the golden catalog:
reuse runs selection once and one fit per nearest reference, changes no
answer, and is keyed by content, so an equal copy hits and a change in
place misses.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro.core import PipelineConfig, WorkloadPredictionPipeline
from repro.exceptions import PipelineError
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.workloads import run_experiments, workload_by_name
from repro.workloads.repository import (
    ARRAY_FIELDS,
    ExperimentRepository,
    result_from_dict,
    result_to_dict,
)
from repro.workloads.runner import ExperimentResult
from tests.golden.builders import (
    PREDICTION_QUERIES,
    PREDICTION_SOURCE,
    PREDICTION_TARGET,
    PREDICTION_TARGET_STATE,
    prediction_references,
    prediction_targets,
)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


def copy_of(repository) -> ExperimentRepository:
    """A content-equal copy through the wire format (no shared objects)."""
    return ExperimentRepository(
        [result_from_dict(result_to_dict(result)) for result in repository]
    )


def predict(pipeline, references, target, **kwargs):
    return pipeline.predict_scaling(
        references, target, PREDICTION_SOURCE, PREDICTION_TARGET, **kwargs
    )


@pytest.fixture(scope="module")
def validations():
    """Each golden target's workload observed on the target SKU."""
    return [
        run_experiments(
            [workload_by_name(name)],
            [PREDICTION_TARGET],
            terminals_for=lambda workload: (32,),
            random_state=PREDICTION_TARGET_STATE + 100 + k,
        )
        for k, name in enumerate(PREDICTION_QUERIES)
    ]


def test_selection_runs_once_and_fits_once_per_nearest(registry, monkeypatch):
    fits = []
    fit = WorkloadPredictionPipeline._reference_scaling_model

    def counting_fit(self, references, reference_name, *skus):
        fits.append(reference_name)
        return fit(self, references, reference_name, *skus)

    monkeypatch.setattr(
        WorkloadPredictionPipeline, "_reference_scaling_model", counting_fit
    )
    pipeline = WorkloadPredictionPipeline()
    nearest = [
        predict(pipeline, prediction_references(), target).reference_workload
        for target in prediction_targets()
    ]
    assert registry.histogram("features.selector.fit_seconds").count == 1
    assert len(set(nearest)) == 3
    assert sorted(fits) == sorted(set(nearest))


def test_reused_pipeline_answers_like_fresh_pipelines(validations):
    reused = WorkloadPredictionPipeline()
    for target, validation in zip(prediction_targets(), validations):
        kept = predict(
            reused, prediction_references(), target,
            target_validation=validation,
        )
        fresh = predict(
            WorkloadPredictionPipeline(), prediction_references(), target,
            target_validation=validation,
        )
        assert kept.selected_features == fresh.selected_features
        assert kept.similarity.distances == fresh.similarity.distances
        assert kept.similarity.nearest == fresh.similarity.nearest
        assert kept.reference_workload == fresh.reference_workload
        assert np.array_equal(
            kept.predicted_throughput, fresh.predicted_throughput
        )
        assert np.array_equal(kept.actual_throughput, fresh.actual_throughput)


def test_catalog_miss_then_hit_is_reported(registry):
    pipeline = WorkloadPredictionPipeline()
    target = prediction_targets()[0]
    first = predict(pipeline, prediction_references(), target)
    second = predict(pipeline, prediction_references(), target)
    assert first.manifest.extra["catalog"] == "miss"
    assert second.manifest.extra["catalog"] == "hit"
    assert registry.counter("pipeline.catalog.misses_total").value == 1
    assert registry.counter("pipeline.catalog.hits_total").value == 1


def test_content_equal_copy_hits_the_catalog(registry):
    pipeline = WorkloadPredictionPipeline()
    target = prediction_targets()[0]
    first = predict(pipeline, prediction_references(), target)
    second = predict(pipeline, copy_of(prediction_references()), target)
    assert second.manifest.extra["catalog"] == "hit"
    assert registry.counter("pipeline.catalog.hits_total").value == 1
    assert registry.histogram("features.selector.fit_seconds").count == 1
    assert second.similarity.distances == first.similarity.distances
    assert np.array_equal(
        second.predicted_throughput, first.predicted_throughput
    )


def test_change_in_place_misses_and_answers_for_the_new_corpus():
    references = copy_of(prediction_references())
    target = prediction_targets()[0]
    pipeline = WorkloadPredictionPipeline()
    before = predict(pipeline, references, target)
    # One throughput sample of a run the nearest reference's scaling
    # model is fitted on (target SKU, most terminals).
    run = max(
        (
            r for r in references
            if r.workload_name == before.reference_workload
            and r.sku.name == PREDICTION_TARGET.name
        ),
        key=lambda r: r.terminals,
    )
    run.throughput_series[100] *= 3.0
    after = predict(pipeline, references, target)
    fresh = predict(WorkloadPredictionPipeline(), references, target)
    assert after.manifest.extra["catalog"] == "miss"
    assert not np.array_equal(
        after.predicted_throughput, before.predicted_throughput
    )
    assert after.similarity.distances == fresh.similarity.distances
    assert np.array_equal(
        after.predicted_throughput, fresh.predicted_throughput
    )


def test_second_prediction_walks_only_its_target(monkeypatch):
    """After the first prediction on a corpus, ranking reads the
    references' samples from the catalog: no reference sub-experiment
    is asked for a feature's samples again, and each samples entry is
    gathered once."""
    pipeline = WorkloadPredictionPipeline()
    references = prediction_references()
    targets = prediction_targets()
    gathers = []
    gather = pipeline_module.gather_samples

    def counting_gather(results, features):
        gathers.append((len(results), tuple(features)))
        return gather(results, features)

    monkeypatch.setattr(pipeline_module, "gather_samples", counting_gather)
    first = predict(pipeline, references, targets[0])
    catalog, _ = pipeline.reference_catalog(references)
    expanded = catalog.expanded(PREDICTION_SOURCE, 10)
    entry = catalog.samples(PREDICTION_SOURCE, 10, first.selected_features)

    walked = []
    feature_samples = ExperimentResult.feature_samples

    def recording(self, name):
        walked.append(self)
        return feature_samples(self, name)

    monkeypatch.setattr(ExperimentResult, "feature_samples", recording)
    second = predict(pipeline, references, targets[1])
    assert second.manifest.extra["catalog"] == "hit"
    reference_ids = {id(run) for run in expanded}
    assert walked and not any(id(run) in reference_ids for run in walked)
    # Ten sub-experiments per target run, once per selected feature.
    assert len(walked) == 10 * len(targets[1]) * len(first.selected_features)
    assert catalog.samples(
        PREDICTION_SOURCE, 10, first.selected_features
    ) is entry
    reference_gathers = [g for g in gathers if g[0] == len(expanded)]
    assert reference_gathers == [(len(expanded), first.selected_features)]


def test_change_in_place_gathers_the_new_samples():
    """Telemetry changed in place misses the catalog, and the new
    catalog's samples answer like a fresh pipeline's."""
    references = copy_of(prediction_references())
    target = prediction_targets()[0]
    pipeline = WorkloadPredictionPipeline()
    before = predict(pipeline, references, target)
    old_catalog, _ = pipeline.reference_catalog(references)
    old_entry = old_catalog.samples(
        PREDICTION_SOURCE, 10, before.selected_features
    )
    for run in references.by_sku(PREDICTION_SOURCE):
        if run.workload_name == "tpcc":
            run.resource_series *= 1.5
            run.plan_matrix *= 1.5
    after = predict(pipeline, references, target)
    fresh = predict(WorkloadPredictionPipeline(), references, target)
    assert after.manifest.extra["catalog"] == "miss"
    catalog, _ = pipeline.reference_catalog(references)
    assert catalog is not old_catalog
    entry = catalog.samples(PREDICTION_SOURCE, 10, after.selected_features)
    assert entry is not old_entry
    assert after.similarity.distances != before.similarity.distances
    assert after.similarity.distances == fresh.similarity.distances
    assert after.reference_workload == fresh.reference_workload
    assert np.array_equal(
        after.predicted_throughput, fresh.predicted_throughput
    )


def test_samples_entries_are_read_only():
    pipeline = WorkloadPredictionPipeline()
    catalog, _ = pipeline.reference_catalog(prediction_references())
    features = catalog.features(PREDICTION_SOURCE, 10)
    values, sizes = catalog.samples(PREDICTION_SOURCE, 10, features)[features[0]]
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        sizes[0] = 0


def test_float32_copy_misses_the_catalog():
    """The key compares array dtypes: a float32 copy holding the same
    values is another corpus."""
    references = copy_of(prediction_references())
    narrowed = copy_of(references)
    for wide, narrow in zip(references, narrowed):
        for name in ARRAY_FIELDS:
            values = getattr(wide, name).astype(np.float32)
            setattr(wide, name, values.astype(float))
            setattr(narrow, name, values)
    pipeline = WorkloadPredictionPipeline()
    pipeline.reference_catalog(references)
    assert pipeline.reference_catalog(copy_of(references))[1]
    assert not pipeline.reference_catalog(narrowed)[1]


def test_catalog_keeps_its_own_copy_of_the_references():
    """Sub-experiments are views into their runs, so a catalog sharing
    the caller's arrays would change with them.  Built from ``a``, hit
    by the equal ``b``, it must still answer for that content after
    ``a`` changes in place."""
    a, b = copy_of(prediction_references()), copy_of(prediction_references())
    target = prediction_targets()[0]
    pipeline = WorkloadPredictionPipeline()
    first = predict(pipeline, a, target)
    for run in a.by_sku(PREDICTION_SOURCE):
        run.resource_series *= 2.0
    second = predict(pipeline, b, target)
    assert second.manifest.extra["catalog"] == "hit"
    assert second.similarity.distances == first.similarity.distances
    assert np.array_equal(
        second.predicted_throughput, first.predicted_throughput
    )


def test_service_and_pipeline_select_on_different_references():
    """The service selects on all SKUs, the pipeline on the source SKU:
    two keys of one catalog, each built once."""
    pipeline = WorkloadPredictionPipeline(PipelineConfig())
    catalog, _ = pipeline.reference_catalog(prediction_references())
    source = catalog.features(PREDICTION_SOURCE, 10)
    every = catalog.features(None, 10)
    assert source != every
    assert len(catalog.expanded(None, 10)) == 2 * len(
        catalog.expanded(PREDICTION_SOURCE, 10)
    )
    assert catalog.features(PREDICTION_SOURCE, 10) is source
    assert catalog.features(None, 10) is every


def test_reference_missing_the_target_sku_is_a_pipeline_error():
    """The nearest reference lacks the target SKU another reference has."""
    references = prediction_references().filter(
        lambda r: not (
            r.workload_name == "twitter"
            and r.sku.name == PREDICTION_TARGET.name
        )
    )
    twitter = prediction_targets()[PREDICTION_QUERIES.index("twitter")]
    with pytest.raises(
        PipelineError, match="reference 'twitter' has no runs on SKU '8cpu-32gb'"
    ):
        predict(WorkloadPredictionPipeline(), references, twitter)
