import dataclasses
import re

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro.core import PipelineConfig, WorkloadPredictionPipeline
from repro.exceptions import PipelineError, RepositoryError, ValidationError
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.similarity.evaluation import (
    distance_matrix,
    normalized_distances,
    representation_matrices,
)
from repro.similarity.measures import get_measure
from repro.similarity.representations import RepresentationBuilder
from repro.workloads import SKU, run_experiments, workload_by_name
from repro.workloads.corpus import expand_subexperiments
from repro.workloads.features import PLAN_FEATURES
from repro.workloads.repository import ExperimentRepository, ensure_finite
from repro.workloads.runner import clone_with
from tests.golden.builders import (
    PREDICTION_QUERIES,
    PREDICTION_SOURCE,
    PREDICTION_TARGET,
    prediction_references,
    prediction_targets,
)


SOURCE = SKU(cpus=2, memory_gb=32.0)
TARGET = SKU(cpus=8, memory_gb=32.0)


@pytest.fixture(scope="module")
def ycsb_source():
    return run_experiments(
        [workload_by_name("ycsb")],
        [SOURCE],
        terminals_for=lambda w: (32,),
        duration_s=1800.0,
        random_state=77,
    )


@pytest.fixture(scope="module")
def ycsb_target():
    return run_experiments(
        [workload_by_name("ycsb")],
        [TARGET],
        terminals_for=lambda w: (32,),
        duration_s=1800.0,
        random_state=78,
    )


class TestFeatureSelectionStage:
    def test_top_k_names_returned(self, two_sku_references):
        pipeline = WorkloadPredictionPipeline()
        subexp = expand_subexperiments(two_sku_references.by_sku(SOURCE))
        features = pipeline.select_features(subexp)
        assert len(features) == 7
        assert len(set(features)) == 7

    def test_plan_scope_restricts(self, two_sku_references):
        config = PipelineConfig(feature_scope="plan")
        pipeline = WorkloadPredictionPipeline(config)
        subexp = expand_subexperiments(two_sku_references.by_sku(SOURCE))
        features = pipeline.select_features(subexp)
        assert all(name in PLAN_FEATURES for name in features)

    def test_unknown_strategy_fails_cleanly(self, two_sku_references):
        # Bypass config validation to exercise the pipeline-level error.
        config = PipelineConfig()
        object.__setattr__(config, "selection_strategy", "Made Up")
        pipeline = WorkloadPredictionPipeline(config)
        subexp = expand_subexperiments(two_sku_references.by_sku(SOURCE))
        with pytest.raises(PipelineError, match="unknown selection"):
            pipeline.select_features(subexp)


class TestSimilarityStage:
    def test_ycsb_nearest_is_tpcc(self, two_sku_references, ycsb_source):
        """Figure 10: YCSB -> TPC-C, then Twitter, with TPC-H far away."""
        pipeline = WorkloadPredictionPipeline()
        refs = expand_subexperiments(two_sku_references.by_sku(SOURCE))
        target = expand_subexperiments(ycsb_source)
        features = pipeline.select_features(refs)
        ranking = pipeline.rank_similarity(refs, target, features)
        ordered = [name for name, _ in ranking.ordered]
        assert ordered[0] == "tpcc"
        assert ordered[-1] == "tpch"

    def test_target_named_like_a_reference_ranks_as_if_renamed(self):
        """Golden target 1 is a TPC-C run ranked against a TPC-C
        reference: only its own rows are target rows and the reference's
        columns are the reference's runs, exactly as under a new name."""
        target = prediction_targets()[PREDICTION_QUERIES.index("tpcc")]
        renamed = ExperimentRepository(
            [dataclasses.replace(r, workload_name="tpcc-new") for r in target]
        )
        pipeline = WorkloadPredictionPipeline()
        named, unnamed = (
            pipeline.predict_scaling(
                prediction_references(), runs,
                PREDICTION_SOURCE, PREDICTION_TARGET,
            )
            for runs in (target, renamed)
        )
        assert named.similarity.distances == unnamed.similarity.distances

    def test_golden_rank_distances_are_full_matrix_block_means(self):
        """Each golden target's distances equal, with ``==``, the block
        means of the full normalized matrix: the 1e-12 goldens cannot
        see a last-bit drift such as a block summed in Fortran order."""
        pipeline = WorkloadPredictionPipeline()
        config = pipeline.config
        catalog, _ = pipeline.reference_catalog(prediction_references())
        references = catalog.expanded(PREDICTION_SOURCE, 10)
        features = catalog.features(PREDICTION_SOURCE, 10)
        labels = np.asarray(references.labels())
        for target in prediction_targets():
            runs = expand_subexperiments(target)
            ranking = pipeline.rank_similarity(references, runs, features)
            combined = ExperimentRepository(list(references) + list(runs))
            matrices = representation_matrices(
                combined,
                RepresentationBuilder(features).fit(combined),
                config.representation,
                features=features,
            )
            D = normalized_distances(
                distance_matrix(matrices, get_measure(config.measure))
            )
            target_rows = np.arange(len(references), len(combined))
            expected = {
                name: float(
                    D[np.ix_(target_rows, np.flatnonzero(labels == name))].mean()
                )
                for name in references.workload_names()
            }
            assert ranking.distances == expected

    def test_target_must_be_single_workload(self, two_sku_references):
        pipeline = WorkloadPredictionPipeline()
        refs = expand_subexperiments(two_sku_references.by_sku(SOURCE))
        with pytest.raises(ValidationError, match="one workload"):
            pipeline.rank_similarity(refs, refs, ("AvgRowSize",))

    def test_unknown_feature_named_in_error(
        self, two_sku_references, ycsb_source
    ):
        pipeline = WorkloadPredictionPipeline()
        refs = expand_subexperiments(two_sku_references.by_sku(SOURCE))
        target = expand_subexperiments(ycsb_source)
        with pytest.raises(ValidationError, match="'NotAFeature'"):
            pipeline.rank_similarity(
                refs, target, ("AvgRowSize", "NotAFeature")
            )

    def test_empty_feature_selection_rejected(
        self, two_sku_references, ycsb_source
    ):
        pipeline = WorkloadPredictionPipeline()
        refs = expand_subexperiments(two_sku_references.by_sku(SOURCE))
        target = expand_subexperiments(ycsb_source)
        with pytest.raises(ValidationError, match="at least one feature"):
            pipeline.rank_similarity(refs, target, ())


class TestEndToEnd:
    def test_full_prediction_report(
        self, two_sku_references, ycsb_source, ycsb_target
    ):
        pipeline = WorkloadPredictionPipeline()
        report = pipeline.predict_scaling(
            two_sku_references,
            ycsb_source,
            SOURCE,
            TARGET,
            target_validation=ycsb_target,
        )
        assert report.target_workload == "ycsb"
        assert report.reference_workload == "tpcc"
        assert len(report.selected_features) == 7
        # The transferred TPC-C scaling model lands within ~30% of truth.
        assert report.mape() < 0.3
        # And predicts an improvement from 2 to 8 CPUs.
        source_mean = float(
            np.mean([r.throughput for r in ycsb_source])
        )
        assert report.predicted_mean > source_mean

    def test_prediction_without_validation(
        self, two_sku_references, ycsb_source
    ):
        pipeline = WorkloadPredictionPipeline()
        report = pipeline.predict_scaling(
            two_sku_references, ycsb_source, SOURCE, TARGET
        )
        assert report.actual_throughput is None
        assert report.predicted_mean > 0

    def test_single_context_pipeline(
        self, two_sku_references, ycsb_source, ycsb_target
    ):
        config = PipelineConfig(scaling_context="single")
        pipeline = WorkloadPredictionPipeline(config)
        report = pipeline.predict_scaling(
            two_sku_references,
            ycsb_source,
            SOURCE,
            TARGET,
            target_validation=ycsb_target,
        )
        assert report.mape() < 0.5

    def test_missing_source_runs_rejected(self, two_sku_references, ycsb_source):
        pipeline = WorkloadPredictionPipeline()
        with pytest.raises(PipelineError, match="source SKU"):
            pipeline.predict_scaling(
                two_sku_references,
                ycsb_source,
                SKU(cpus=64, memory_gb=32.0),
                TARGET,
            )


    def test_missing_target_runs_rejected_before_any_work(
        self, two_sku_references, ycsb_source
    ):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            with pytest.raises(PipelineError, match="target SKU '16cpu-32gb'"):
                WorkloadPredictionPipeline().predict_scaling(
                    two_sku_references,
                    ycsb_source,
                    SOURCE,
                    SKU(cpus=16, memory_gb=32.0),
                )
        finally:
            set_metrics(previous)
        assert "features.selector.fit_seconds" not in registry


def poisoned(runs, value):
    """``runs`` with resource sample ``[40, 2]`` of the second run set to
    ``value``, and the error that names it."""
    runs = list(runs)
    series = runs[1].resource_series.copy()
    series[40:, 2] = value
    runs[1] = clone_with(runs[1], resource_series=series)
    message = (
        f"experiment {runs[1].experiment_id}: non-finite value "
        f"{float(value)} in resource_series[40, 2]"
    )
    return ExperimentRepository(runs), re.escape(message)


NON_FINITE = pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"]
)


class TestNonFiniteInput:
    @NON_FINITE
    def test_target_is_rejected(
        self, two_sku_references, ycsb_source, ycsb_target, value
    ):
        pipeline = WorkloadPredictionPipeline()
        target, message = poisoned(ycsb_source, value)
        with pytest.raises(RepositoryError, match=message):
            pipeline.predict_scaling(two_sku_references, target, SOURCE, TARGET)
        validation, message = poisoned(ycsb_target, value)
        with pytest.raises(RepositoryError, match=message):
            pipeline.predict_scaling(
                two_sku_references, ycsb_source, SOURCE, TARGET,
                target_validation=validation,
            )

    @NON_FINITE
    def test_references_are_rejected(
        self, two_sku_references, ycsb_source, value
    ):
        references, message = poisoned(two_sku_references, value)
        with pytest.raises(RepositoryError, match=message):
            WorkloadPredictionPipeline().predict_scaling(
                references, ycsb_source, SOURCE, TARGET
            )

    def test_references_are_checked_once_per_catalog_build(
        self, two_sku_references, ycsb_source, monkeypatch
    ):
        checked = []

        def counting(result):
            checked.append(result)
            ensure_finite(result)

        monkeypatch.setattr(pipeline_module, "ensure_finite", counting)
        pipeline = WorkloadPredictionPipeline()
        for _ in range(2):
            pipeline.predict_scaling(
                two_sku_references, ycsb_source, SOURCE, TARGET
            )
        assert len(checked) == len(two_sku_references) + 2 * len(ycsb_source)


class TestProvenance:
    def test_report_carries_manifest(self, two_sku_references, ycsb_source):
        pipeline = WorkloadPredictionPipeline()
        report = pipeline.predict_scaling(
            two_sku_references, ycsb_source, SOURCE, TARGET
        )
        manifest = report.manifest
        assert manifest is not None
        assert manifest.selected_features == report.selected_features
        assert manifest.reference_workload == report.reference_workload
        assert manifest.similarity_ranking == report.similarity.distances
        assert set(manifest.stage_timings_s) == {
            "prepare", "select_features", "rank_similarity",
            "predict_scaling", "total",
        }
        assert all(t >= 0.0 for t in manifest.stage_timings_s.values())
        assert manifest.random_seed == pipeline.config.random_state
        assert manifest.pipeline_config["selection_strategy"] == "RFE LogReg"
        assert manifest.versions["repro"]
        assert manifest.extra["source_sku"] == SOURCE.name
        # Simulator provenance flows through into the manifest.
        assert all(
            meta["engine_version"]
            for meta in manifest.extra["experiment_metadata"]
        )

    def test_manifest_round_trips(self, two_sku_references, ycsb_source):
        from repro.obs import RunManifest

        pipeline = WorkloadPredictionPipeline()
        report = pipeline.predict_scaling(
            two_sku_references, ycsb_source, SOURCE, TARGET
        )
        restored = RunManifest.from_json(report.manifest.to_json())
        assert restored == report.manifest

    def test_pipeline_spans_nest_under_predict(
        self, two_sku_references, ycsb_source
    ):
        from repro.obs import Tracer, set_tracer

        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            WorkloadPredictionPipeline().predict_scaling(
                two_sku_references, ycsb_source, SOURCE, TARGET
            )
        finally:
            set_tracer(previous)
        (root,) = tracer.roots
        assert root.name == "pipeline.predict"
        stages = [child.name for child in root.children]
        assert stages == [
            "pipeline.stage.prepare",
            "pipeline.stage.select_features",
            "pipeline.stage.rank_similarity",
            "pipeline.stage.predict_scaling",
        ]
        assert root.wall_ms >= max(c.wall_ms for c in root.children)
