"""Gathered samples: gather once, read many times, same bytes.

:func:`gather_samples` puts each feature's samples of a corpus back to
back with one count per experiment.  The builder's fit, its Hist-FP pass
and ``representation_matrices`` read them through ``samples=``, and the
pipeline joins a catalog's reference samples to its target's.  Ranges
are exact minima and maxima and binning is per element, so any of these
must give the bytes of gathering the combined corpus alone; samples that
do not line up with the corpus they are passed with are refused.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PipelineConfig, WorkloadPredictionPipeline
from repro.exceptions import ValidationError
from repro.serve.service import PredictionService
from repro.similarity.evaluation import representation_matrices
from repro.similarity.representations import (
    RepresentationBuilder,
    gather_samples,
    join_samples,
)
from repro.workloads import ExperimentRepository
from repro.workloads.corpus import expand_subexperiments
from repro.workloads.features import PLAN_FEATURES, RESOURCE_FEATURES
from repro.workloads.repository import result_from_dict, result_to_dict
from repro.workloads.runner import ExperimentResult
from tests.golden.builders import (
    PREDICTION_SOURCE,
    prediction_references,
    prediction_targets,
)
from tests.similarity.test_batched_hist import FEATURES, corpora, experiment


@st.composite
def split_corpora(draw):
    """A ragged corpus (NaN samples, log-scaled features) split into
    references and a target; a one-experiment corpus is ranked against
    a renumbered copy of itself."""
    experiments = draw(corpora())
    if len(experiments) == 1:
        only = experiments[0]
        experiments.append(
            experiment(1, {name: only.feature_samples(name) for name in FEATURES})
        )
    split = draw(st.integers(1, len(experiments) - 1))
    return experiments[:split], experiments[split:]


def some_experiments(count: int = 3):
    rng = np.random.default_rng(7)
    return [
        experiment(i, {name: rng.random(4 + 3 * i) for name in FEATURES})
        for i in range(count)
    ]


class TestJoinedSamplesMatchOneGather:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(corpus=split_corpora(), n_bins=st.integers(2, 20))
    @settings(max_examples=80, deadline=None)
    def test_fit_and_fingerprints(self, corpus, n_bins):
        references, target = corpus
        combined = references + target
        samples = join_samples(
            gather_samples(references, FEATURES),
            gather_samples(target, FEATURES),
        )
        alone = RepresentationBuilder(FEATURES, n_bins=n_bins).fit(combined)
        joined = RepresentationBuilder(FEATURES, n_bins=n_bins).fit(
            combined, samples=samples
        )
        assert joined._ranges == alone._ranges
        assert joined._log_floor == alone._log_floor
        for cumulative in (True, False):
            expected = alone.hist_fps(combined, cumulative=cumulative)
            actual = joined.hist_fps(
                combined, cumulative=cumulative, samples=samples
            )
            assert actual.tobytes() == expected.tobytes()
        matrices = representation_matrices(
            combined, joined, "hist", samples=samples
        )
        assert np.stack(matrices).tobytes() == alone.hist_fps(combined).tobytes()

    def test_samples_of_more_features_than_selected(self):
        experiments = some_experiments()
        builder = RepresentationBuilder(FEATURES).fit(experiments)
        subset = (FEATURES[3], FEATURES[0])
        samples = gather_samples(experiments, FEATURES)
        assert (
            builder.hist_fps(experiments, features=subset, samples=samples)
            .tobytes()
            == builder.hist_fps(experiments, features=subset).tobytes()
        )

    def test_mts_and_phase_read_samples_only_in_the_fit(self):
        experiments = some_experiments()
        samples = gather_samples(experiments, FEATURES)
        builder = RepresentationBuilder(FEATURES).fit(
            experiments, samples=samples
        )
        for representation in ("mts", "phase"):
            with_samples = representation_matrices(
                experiments, builder, representation, samples=samples
            )
            without = representation_matrices(
                experiments, builder, representation
            )
            for a, b in zip(with_samples, without):
                assert a.tobytes() == b.tobytes()


class TestMisalignedSamples:
    def calls(self, experiments, samples):
        builder = RepresentationBuilder(FEATURES).fit(experiments)
        return [
            lambda: RepresentationBuilder(FEATURES).fit(
                experiments, samples=samples
            ),
            lambda: builder.hist_fps(experiments, samples=samples),
            lambda: representation_matrices(
                experiments, builder, "hist", samples=samples
            ),
        ]

    def test_samples_of_fewer_experiments(self):
        experiments = some_experiments()
        samples = gather_samples(experiments[:2], FEATURES)
        for call in self.calls(experiments, samples):
            with pytest.raises(ValidationError, match="do not match the 3"):
                call()

    def test_counts_that_do_not_sum_to_the_values(self):
        experiments = some_experiments()
        samples = gather_samples(experiments, FEATURES)
        values, sizes = samples[FEATURES[2]]
        samples[FEATURES[2]] = values, sizes + np.array([0, 1, 0])
        for call in self.calls(experiments, samples):
            with pytest.raises(ValidationError, match="do not match"):
                call()

    def test_a_zero_count_names_its_experiment(self):
        experiments = some_experiments()
        samples = gather_samples(experiments, FEATURES)
        values, sizes = samples[FEATURES[0]]
        samples[FEATURES[0]] = values, np.array([sizes[0] + sizes[1], 0, sizes[2]])
        for call in self.calls(experiments, samples):
            with pytest.raises(ValidationError, match="has no samples") as error:
                call()
            assert experiments[1].experiment_id in str(error.value)

    def test_a_missing_feature(self):
        experiments = some_experiments()
        samples = gather_samples(experiments, FEATURES[:2])
        for call in self.calls(experiments, samples):
            with pytest.raises(ValidationError, match="samples lack feature"):
                call()

    def test_joining_different_features(self):
        experiments = some_experiments()
        with pytest.raises(ValidationError, match="cannot join"):
            join_samples(
                gather_samples(experiments, FEATURES),
                gather_samples(experiments, FEATURES[:3]),
            )

    def test_no_experiments(self):
        with pytest.raises(ValidationError, match="no experiments"):
            gather_samples([], FEATURES)


def without_plan_rows(runs, index: int) -> ExperimentRepository:
    """A copy of ``runs`` whose run ``index`` has no plan rows left."""
    copies = [result_from_dict(result_to_dict(run)) for run in runs]
    copies[index].plan_matrix = copies[index].plan_matrix[:0]
    return ExperimentRepository(copies)


class TestEmptySamples:
    FEATURES = (PLAN_FEATURES[0], RESOURCE_FEATURES[0])

    def test_reference_fails_when_the_catalog_builds_the_entry(self):
        source_runs = [
            i for i, run in enumerate(prediction_references())
            if run.sku.name == PREDICTION_SOURCE.name
        ]
        references = without_plan_rows(prediction_references(), source_runs[1])
        catalog, _ = WorkloadPredictionPipeline().reference_catalog(references)
        empty = expand_subexperiments(
            ExperimentRepository([references[source_runs[1]]]),
            n_subexperiments=10,
        )[0]
        with pytest.raises(ValidationError, match="has no samples") as error:
            catalog.samples(PREDICTION_SOURCE, 10, self.FEATURES)
        assert f"experiment {empty.experiment_id} " in str(error.value)

    def test_target_fails_when_ranked(self):
        references = expand_subexperiments(
            prediction_references().by_sku(PREDICTION_SOURCE),
            n_subexperiments=10,
        )
        target = expand_subexperiments(
            without_plan_rows(prediction_targets()[0], 0), n_subexperiments=10
        )
        with pytest.raises(ValidationError, match="has no samples") as error:
            WorkloadPredictionPipeline().rank_similarity(
                references, target, self.FEATURES
            )
        assert f"experiment {target[0].experiment_id} " in str(error.value)


class TestServiceWarmup:
    def test_one_gather_feeds_the_frozen_builder(self, monkeypatch):
        """Warmup walks each reference sub-experiment once per selected
        feature, for the fit and the reference fingerprints together."""
        walked = []
        feature_samples = ExperimentResult.feature_samples

        def recording(self, name):
            walked.append((id(self), name))
            return feature_samples(self, name)

        monkeypatch.setattr(ExperimentResult, "feature_samples", recording)
        service = PredictionService(prediction_references(), PipelineConfig())
        service.warmup()
        assert sorted(walked) == sorted(
            (id(run), name)
            for run in service._ref_subexp
            for name in service.features
        )
        monkeypatch.undo()

        fresh = RepresentationBuilder(service.features).fit(service._ref_subexp)
        assert service._builder._ranges == fresh._ranges
        assert service._builder._log_floor == fresh._log_floor
        expected = fresh.hist_fps(service._ref_subexp)
        assert np.stack(service._ref_matrices).tobytes() == expected.tobytes()
