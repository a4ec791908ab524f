"""The serving ranking against a per-pair full path, for every measure.

``/v1/rank`` answers with the ranking and ``/v1/predict`` transfers
the model of its nearest reference, so both endpoints stand on
:meth:`PredictionService.rank_prepared`.  These tests recompute that
ranking by hand, one ``measure(target, reference)`` call per pair —
peak normalization, mean per workload group, the first-listed group
winning a tie — and pin the service to it with ``==``.  They also pin
the warm state the ranking reads: the workload groups, in corpus order,
and the reference digests a distance cache needs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.exceptions import ServeError, ValidationError
from repro.serve import service as service_module
from repro.serve.service import PredictionService
from repro.similarity.distcache import matrix_digest
from repro.similarity.measures import get_measure, measure_registry
from repro.workloads import ExperimentRepository

MEASURES = list(measure_registry())

#: Sub-experiments per run: enough for several rows per target and
#: several members per group, few enough for the per-pair loops of the
#: elastic measures.
N_SUB = 3


def warmed(references, **config):
    service = PredictionService(
        references, PipelineConfig(**config), n_subexperiments=N_SUB
    )
    service.warmup()
    return service


def full_path_distances(service, target_matrices, measure_name):
    """The ranking's distances from one measure call per pair."""
    measure = get_measure(measure_name)
    C = np.array(
        [[measure(A, B) for B in service._ref_matrices]
         for A in target_matrices]
    )
    peak = float(C.max())
    if peak > 0:
        C = C / peak
    labels = [run.workload_name for run in service._ref_subexp]
    distances = {}
    for name in service.references.workload_names():
        members = [k for k, label in enumerate(labels) if label == name]
        distances[name] = float(C[:, members].mean())
    return distances


def first_minimum(distances):
    """The first name, in insertion order, with the smallest distance."""
    best = min(distances.values())
    return next(name for name, value in distances.items() if value == best)


@pytest.fixture(scope="module")
def tpcc_target(serve_references):
    """The TPC-C references of the source SKU, served back as a target."""
    return ExperimentRepository(
        [run for run in serve_references.by_workload("tpcc")
         if run.sku.name == "s4"]
    )


@pytest.fixture(scope="module")
def cloned_references(serve_references):
    """The corpus with its TPC-C runs again, listed last under a name
    that sorts before every other."""
    copies = [
        dataclasses.replace(run, workload_name="a-clone")
        for run in serve_references.by_workload("tpcc")
    ]
    return ExperimentRepository(list(serve_references) + copies)


class TestRankingMatchesPerPairPath:
    @pytest.mark.parametrize("measure", MEASURES)
    def test_distances_equal_the_per_pair_full_path(
        self, measure, serve_references, serve_target, tpcc_target
    ):
        service = warmed(serve_references, measure=measure)
        for target in (serve_target, tpcc_target):
            prepared = service.prepare_target(target)
            ranking = service.rank_prepared(prepared)
            expected = full_path_distances(service, prepared[1], measure)
            assert ranking.distances == expected
            assert ranking.nearest == first_minimum(expected)
            assert service.nearest_reference(prepared) == ranking.nearest

    def test_nearest_matches_the_full_path_on_every_catalog_workload(
        self, warm_service, catalog_targets
    ):
        measure = warm_service.config.measure
        for name, target in catalog_targets.items():
            prepared = warm_service.prepare_target(target)
            expected = full_path_distances(warm_service, prepared[1], measure)
            nearest = first_minimum(expected)
            assert warm_service.nearest_reference(prepared) == nearest, name
            assert warm_service.rank(target).nearest == nearest, name

    @pytest.mark.parametrize("measure", MEASURES)
    def test_cloned_group_ties_and_the_first_listed_wins(
        self, measure, cloned_references, tpcc_target
    ):
        service = warmed(cloned_references, measure=measure)
        prepared = service.prepare_target(tpcc_target)
        ranking = service.rank_prepared(prepared)
        assert ranking.distances["a-clone"] == ranking.distances["tpcc"]
        names = [name for name, _ in ranking.ordered]
        assert names.index("tpcc") < names.index("a-clone")
        assert ranking.nearest == first_minimum(ranking.distances) == "tpcc"
        assert service.nearest_reference(prepared) == ranking.nearest


    def test_a_ranking_is_one_single_query_kernel_call(
        self, warm_service, serve_target, monkeypatch
    ):
        """Each request computes alone, so the service hands the kernel
        exactly one query set, the prepared target's matrices, against
        every reference matrix."""
        calls = []
        kernel = service_module.multi_query_cross_distances

        def recording(query_sets, cols, *args, **kwargs):
            calls.append(([len(q) for q in query_sets], len(cols)))
            return kernel(query_sets, cols, *args, **kwargs)

        monkeypatch.setattr(
            service_module, "multi_query_cross_distances", recording
        )
        prepared = warm_service.prepare_target(serve_target)
        warm_service.rank_prepared(prepared)
        assert calls == [
            ([len(prepared[1])], len(warm_service._ref_matrices))
        ]


class TestWarmState:
    def test_groups_follow_the_corpus_workload_order(self, warm_service):
        assert [name for name, _ in warm_service._groups] == list(
            warm_service.references.workload_names()
        )

    def test_group_order_is_the_corpus_order_not_the_alphabet(
        self, serve_references
    ):
        twitter_first = ExperimentRepository(
            list(serve_references.by_workload("twitter"))
            + list(serve_references.by_workload("tpcc"))
        )
        service = warmed(twitter_first)
        assert [name for name, _ in service._groups] == ["twitter", "tpcc"]

    def test_group_members_match_the_reference_labels(self, warm_service):
        labels = [run.workload_name for run in warm_service._ref_subexp]
        for name, members in warm_service._groups:
            assert members == [
                k for k, label in enumerate(labels) if label == name
            ]

    def test_groups_cover_every_reference_matrix_once(self, warm_service):
        members = sorted(k for _, group in warm_service._groups for k in group)
        assert members == list(range(len(warm_service._ref_matrices)))

    def test_no_reference_digests_without_a_distance_cache(
        self, warm_service
    ):
        assert warm_service._ref_digests is None

    def test_a_distance_cache_gets_the_reference_digests(
        self, serve_references, tmp_path
    ):
        """Canb has no stacked form, so its pairs read the cache."""
        service = warmed(
            serve_references, measure="Canb", distance_cache=str(tmp_path)
        )
        assert service._ref_digests == [
            matrix_digest(M) for M in service._ref_matrices
        ]

    @pytest.mark.parametrize("measure", ["L2,1", "L1,1"])
    def test_stacked_norms_skip_the_reference_digests(
        self, serve_references, serve_target, tmp_path, measure
    ):
        """Hist-FP pairs under L2,1 or L1,1 all take the stacked path,
        which never reads the cache, so warmup hashes nothing."""
        plain = warmed(serve_references, measure=measure)
        cached = warmed(
            serve_references, measure=measure, distance_cache=str(tmp_path)
        )
        assert cached._ref_digests is None
        assert cached.rank(serve_target) == plain.rank(serve_target)
        assert not (tmp_path / "distances.jsonl").exists()

    def test_mts_gets_the_reference_digests_under_a_stacked_norm(
        self, serve_references, tmp_path
    ):
        """MTS windows can differ in length from a target's, and such a
        pair has no stacked form."""
        service = warmed(
            serve_references,
            representation="mts",
            feature_scope="resource",
            distance_cache=str(tmp_path),
        )
        assert service._ref_digests == [
            matrix_digest(M) for M in service._ref_matrices
        ]

    def test_a_distance_cache_keeps_the_ranking(
        self, serve_references, serve_target, tmp_path
    ):
        plain = warmed(serve_references, measure="Canb")
        cached = warmed(
            serve_references, measure="Canb", distance_cache=str(tmp_path)
        )
        journal = tmp_path / "distances.jsonl"
        cold = cached.rank(serve_target)
        entries = journal.read_text()
        assert entries
        # The second request reads every pair back and appends none.
        warm = cached.rank(serve_target)
        assert journal.read_text() == entries
        assert cold.distances == warm.distances
        assert cold.distances == plain.rank(serve_target).distances

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            PredictionService(ExperimentRepository([]), PipelineConfig())

    def test_ranking_needs_warmup(self, serve_references, serve_target):
        service = PredictionService(serve_references, PipelineConfig())
        with pytest.raises(ServeError):
            service.rank(serve_target)
        with pytest.raises(ServeError):
            service.rank_prepared(("ycsb", [np.zeros((10, 7))]))
