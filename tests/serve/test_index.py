"""ReferenceIndex construction and its warmup integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.serve.index import ReferenceIndex
from repro.similarity.distcache import matrix_digest
from repro.similarity.dtw import keogh_envelope
from repro.similarity.measures import get_measure
from repro.similarity.pruning import measure_norm


@pytest.fixture()
def matrices():
    rng = np.random.default_rng(5)
    return [rng.normal(size=(8, 3)) for _ in range(4)]


LABELS = ["a", "a", "b", "b"]


class TestBuild:
    def test_digests_and_groups(self, matrices):
        index = ReferenceIndex.build(
            matrices, LABELS, ["a", "b"], get_measure("L2,1")
        )
        assert len(index) == 4
        assert index.digests == [matrix_digest(M) for M in matrices]
        assert index.groups == [("a", [0, 1]), ("b", [2, 3])]

    def test_norm_measure_precomputes_norms_not_envelopes(self, matrices):
        measure = get_measure("L2,1")
        index = ReferenceIndex.build(matrices, LABELS, ["a", "b"], measure)
        assert index.envelopes is None
        assert index.norms == [measure_norm(measure, M) for M in matrices]

    def test_dtw_measure_precomputes_envelopes_not_norms(self, matrices):
        measure = get_measure("Dependent-DTW")
        index = ReferenceIndex.build(matrices, LABELS, ["a", "b"], measure)
        assert index.norms is None
        assert index.envelopes is not None
        for (lower, upper), M in zip(index.envelopes, matrices):
            expected_lower, expected_upper = keogh_envelope(M)
            assert np.array_equal(lower, expected_lower)
            assert np.array_equal(upper, expected_upper)

    def test_group_order_follows_workload_order(self, matrices):
        index = ReferenceIndex.build(
            matrices, LABELS, ["b", "a"], get_measure("L2,1")
        )
        assert [name for name, _ in index.groups] == ["b", "a"]


class TestValidation:
    def test_rejects_empty_matrices(self):
        with pytest.raises(ValidationError):
            ReferenceIndex.build([], [], [], get_measure("L2,1"))

    def test_rejects_misaligned_labels(self, matrices):
        with pytest.raises(ValidationError):
            ReferenceIndex.build(
                matrices, ["a"], ["a"], get_measure("L2,1")
            )

    def test_rejects_unknown_workload(self, matrices):
        with pytest.raises(ValidationError):
            ReferenceIndex.build(
                matrices, LABELS, ["a", "b", "ghost"], get_measure("L2,1")
            )


class TestWarmupIntegration:
    def test_service_warmup_builds_index(self, warm_service):
        index = warm_service.index
        assert len(index) == len(warm_service._ref_matrices)
        assert index.digests == [
            matrix_digest(M) for M in warm_service._ref_matrices
        ]
        assert [name for name, _ in index.groups] == list(
            warm_service.references.workload_names()
        )
        # The default measure (L2,1) is norm-induced.
        assert index.norms is not None

    def test_group_members_match_label_masks(self, warm_service):
        labels = warm_service._ref_labels
        for name, members in warm_service.index.groups:
            assert members == [
                int(k) for k in np.flatnonzero(labels == name)
            ]
