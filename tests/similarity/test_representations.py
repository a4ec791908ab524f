from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.similarity import RepresentationBuilder
from repro.workloads.features import PLAN_FEATURES, RESOURCE_FEATURES


@pytest.fixture(scope="module")
def builder(small_corpus):
    return RepresentationBuilder().fit(small_corpus)


@pytest.fixture(scope="module")
def sample_result(small_corpus):
    return small_corpus[0]


class TestFitAndNormalization:
    def test_requires_fit(self, sample_result):
        with pytest.raises(NotFittedError):
            RepresentationBuilder().hist_fp(sample_result)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            RepresentationBuilder().fit([])

    def test_unknown_feature_rejected(self, builder, sample_result):
        with pytest.raises(ValidationError):
            builder.hist_fp(sample_result, features=["Bogus"])

    def test_feature_without_samples_rejected(self, small_corpus):
        planless = replace(
            small_corpus[1],
            plan_matrix=np.empty((0, len(PLAN_FEATURES))),
            plan_txn_names=[],
        )
        with pytest.raises(ValidationError, match="has no samples") as error:
            RepresentationBuilder().fit([small_corpus[0], planless])
        assert repr(PLAN_FEATURES[0]) in str(error.value)
        assert planless.experiment_id in str(error.value)

    def test_subset_fit_restricts_features(self, small_corpus, sample_result):
        builder = RepresentationBuilder(("AvgRowSize",)).fit(small_corpus)
        with pytest.raises(ValidationError):
            builder.hist_fp(sample_result, features=["CachedPlanSize"])


class TestMTS:
    def test_shape_resource_features_only(self, builder, sample_result):
        matrix = builder.mts(sample_result)
        assert matrix.shape == (sample_result.n_samples, 7)

    def test_values_normalized(self, builder, sample_result):
        matrix = builder.mts(sample_result)
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0

    def test_plan_only_selection_rejected(self, builder, sample_result):
        with pytest.raises(ValidationError, match="resource feature"):
            builder.mts(sample_result, features=["AvgRowSize"])

    def test_mixed_selection_keeps_resource_part(self, builder, sample_result):
        matrix = builder.mts(
            sample_result, features=["AvgRowSize", "CPU_UTILIZATION"]
        )
        assert matrix.shape[1] == 1


class TestHistFP:
    def test_shape(self, builder, sample_result):
        fingerprint = builder.hist_fp(sample_result)
        assert fingerprint.shape == (10, 29)

    def test_cumulative_columns_monotone(self, builder, sample_result):
        fingerprint = builder.hist_fp(sample_result)
        diffs = np.diff(fingerprint, axis=0)
        assert np.all(diffs >= -1e-12)

    def test_cumulative_final_bin_is_one(self, builder, sample_result):
        fingerprint = builder.hist_fp(sample_result)
        np.testing.assert_allclose(fingerprint[-1], 1.0)

    def test_plain_frequency_mode(self, builder, sample_result):
        fingerprint = builder.hist_fp(sample_result, cumulative=False)
        np.testing.assert_allclose(fingerprint.sum(axis=0), 1.0)

    def test_custom_bin_count(self, small_corpus, sample_result):
        builder = RepresentationBuilder(n_bins=5).fit(small_corpus)
        assert builder.hist_fp(sample_result).shape == (5, 29)

    def test_feature_subset(self, builder, sample_result):
        fingerprint = builder.hist_fp(
            sample_result, features=["AvgRowSize", "IOPS_TOTAL"]
        )
        assert fingerprint.shape == (10, 2)

    def test_appendix_a_shape_example(self, builder, sample_result):
        """Cumulative representation distinguishes near from far shapes
        (the H1/H2/H3 example in Appendix A)."""
        h1 = np.array([1.0, 0, 0, 0, 0])
        h2 = np.array([0.0, 1, 0, 0, 0])
        h3 = np.array([0.0, 0, 0, 0, 1])
        c1, c2, c3 = np.cumsum(h1), np.cumsum(h2), np.cumsum(h3)
        near = np.abs(c1 - c2).sum()
        far = np.abs(c1 - c3).sum()
        assert near < far  # plain histograms cannot see this
        assert np.abs(h1 - h2).sum() == np.abs(h1 - h3).sum()


class TestPhaseFP:
    def test_shape(self, builder, sample_result):
        fingerprint = builder.phase_fp(sample_result)
        # 3 statistics x 4 phases rows, 29 feature columns.
        assert fingerprint.shape == (12, 29)

    def test_plan_features_single_phase(self, builder, sample_result):
        fingerprint = builder.phase_fp(sample_result)
        plan_columns = [
            29 - 22 + i for i in range(22)
        ]  # plan features follow the 7 resource ones
        # Phases beyond the first are zero-padded for plan features.
        later_phases = fingerprint[3:, :][:, plan_columns]
        np.testing.assert_allclose(later_phases, 0.0)

    def test_first_phase_statistics_populated(self, builder, sample_result):
        fingerprint = builder.phase_fp(sample_result)
        assert np.any(fingerprint[:3] != 0)

    def test_custom_statistics(self, small_corpus, sample_result):
        builder = RepresentationBuilder(
            phase_stats=("mean", "variance")
        ).fit(small_corpus)
        assert builder.phase_fp(sample_result).shape == (8, 29)

    def test_invalid_statistic(self):
        with pytest.raises(ValidationError):
            RepresentationBuilder(phase_stats=("mode",))


class TestDispatch:
    def test_build_dispatch(self, builder, sample_result):
        for name in ("mts", "hist", "phase"):
            matrix = builder.build(sample_result, name)
            assert matrix.ndim == 2

    def test_unknown_representation(self, builder, sample_result):
        with pytest.raises(ValidationError, match="representation"):
            builder.build(sample_result, "wavelet")
