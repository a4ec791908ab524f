"""The warm pipeline: per-process state the serving hot path reuses.

:class:`PredictionService` answers rank and predict requests from the
:class:`~repro.core.pipeline.ReferenceCatalog` of its pipeline, taken
once at warmup, plus serving-only state:

- **features, expanded references and scaling models** come from the
  catalog, the same one the batch pipeline uses.  The one deliberate
  difference: the service selects features on the references on all
  SKUs, the batch pipeline on the source-SKU references.  Models are
  fitted the first time a (reference, source SKU, target SKU) is asked
  about, never again;
- the **representation builder is frozen on the references**.  The
  batch path refits normalization ranges on references+target per
  request, which would change every reference matrix with every target
  and defeat the distance cache; freezing on the (much larger)
  reference corpus keeps reference matrices — and their content
  digests — stable across requests, so cross-distance pairs hit the
  persisted :class:`~repro.similarity.distcache.DistanceCache`.
  Normalization is a monotone per-feature rescale, so the *ordering*
  the ranking reads off the distances is the paper's;
- **reference matrices** are built once and indexed
  (:class:`~repro.serve.index.ReferenceIndex`): content digests for
  the distance-cache pre-pass, workload groups, pruning bounds.

Prediction calls the batch pipeline's
:func:`~repro.core.pipeline.transfer` with a fresh seeded generator per
request, so serving the same request twice — or on servers with
different worker counts — produces bit-identical responses.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import WorkloadPredictionPipeline, transfer
from repro.core.report import SimilarityRanking
from repro.exceptions import ServeError, ValidationError
from repro.obs.logging import get_logger
from repro.obs.tracing import span
from repro.serve.index import ReferenceIndex
from repro.similarity.evaluation import (
    multi_query_cross_distances,
    representation_matrices,
)
from repro.similarity.measures import get_measure
from repro.similarity.pruning import nearest_group
from repro.similarity.representations import RepresentationBuilder
from repro.utils.rng import as_generator
from repro.workloads.corpus import expand_subexperiments
from repro.workloads.repository import ExperimentRepository, ensure_finite

# Nothing here calls it: perfbench's traced serving run patches this
# name, until the stage clock on ROADMAP.md replaces its patch lists.
from repro.workloads.sampling import augmented_throughputs  # noqa: F401

logger = get_logger(__name__)


class PredictionService:
    """Warm pipeline state answering rank and predict requests.

    The disk caches are the inner pipeline's stores, opened once at
    construction and shared by every request.
    """

    def __init__(
        self,
        references: ExperimentRepository,
        config: PipelineConfig | None = None,
        *,
        n_subexperiments: int = 10,
    ):
        if len(references) == 0:
            raise ValidationError("reference corpus must not be empty")
        self.config = config or PipelineConfig()
        self.references = references
        self.n_subexperiments = n_subexperiments
        self._pipeline = WorkloadPredictionPipeline(self.config)
        self._measure = get_measure(self.config.measure)
        self._warm = False

    # -- warmup ----------------------------------------------------------------
    def warmup(self) -> dict:
        """Run the target-independent pipeline work once.

        Returns a summary dict (feature names, corpus size) for the
        boot log and ``/healthz``.
        """
        with span("serve.warmup", attrs={"n_references": len(self.references)}):
            self.catalog, _ = self._pipeline.reference_catalog(self.references)
            self._ref_subexp = self.catalog.expanded(None, self.n_subexperiments)
            self.features = self.catalog.features(None, self.n_subexperiments)
            # One gather of the references feeds the fit and the Hist-FP
            # pass.
            samples = self.catalog.samples(
                None, self.n_subexperiments, self.features
            )
            self._builder = RepresentationBuilder(self.features).fit(
                self._ref_subexp, samples=samples
            )
            self._ref_matrices = representation_matrices(
                self._ref_subexp,
                self._builder,
                self.config.representation,
                features=self.features,
                samples=samples,
            )
            self._ref_labels = np.asarray(
                [r.workload_name for r in self._ref_subexp]
            )
            self._sku_by_name = {
                r.sku.name: r.sku for r in self.references
            }
            # Index the frozen reference side once: content digests for
            # the distance-cache pre-pass, workload groups in corpus
            # order, and pruning envelopes/norms.
            self.index = ReferenceIndex.build(
                self._ref_matrices,
                self._ref_labels,
                list(self.references.workload_names()),
                self._measure,
            )
        self._warm = True
        logger.info(
            "serve warmup: %d reference experiments (%d expanded), "
            "features: %s",
            len(self.references),
            len(self._ref_subexp),
            ", ".join(self.features),
        )
        return {
            "workloads": sorted(self.references.workload_names()),
            "skus": sorted(self._sku_by_name),
            "n_experiments": len(self.references),
            "n_expanded": len(self._ref_subexp),
            "features": list(self.features),
        }

    def _require_warm(self) -> None:
        if not self._warm:
            raise ServeError("service not warmed up; call warmup() first")

    # -- ranking ---------------------------------------------------------------
    def prepare_target(
        self, target: ExperimentRepository
    ) -> tuple[str, list[np.ndarray]]:
        """Validate and represent one target: ``(name, matrices)``.

        This is the per-request half of ranking — separated from the
        distance evaluation so the batch executor can validate each
        admitted request individually (a malformed target fails alone)
        before stitching the survivors into one multi-query fan-out.  A
        non-finite value in the target is a
        :class:`~repro.exceptions.RepositoryError`.
        """
        self._require_warm()
        if len(target) == 0:
            raise ServeError("target must contain at least one experiment")
        for run in target:
            ensure_finite(run)
        target_names = {r.workload_name for r in target}
        if len(target_names) != 1:
            raise ServeError(
                f"target must contain one workload, got {sorted(target_names)}"
            )
        target_name = target_names.pop()
        target_subexp = expand_subexperiments(
            target, n_subexperiments=self.n_subexperiments
        )
        target_matrices = representation_matrices(
            target_subexp,
            self._builder,
            self.config.representation,
            features=self.features,
        )
        return target_name, target_matrices

    def rank_prepared(
        self, prepared: list[tuple[str, list[np.ndarray]]]
    ) -> list[SimilarityRanking]:
        """Rankings for many prepared targets from one kernel fan-out.

        All queries go through
        :func:`~repro.similarity.evaluation.multi_query_cross_distances`
        — one chunked engine dispatch for the whole batch — and each
        query's cross block is then normalized and aggregated with
        exactly the arithmetic the single-target path used, so every
        ranking is **bit-identical to ranking that target alone**
        (pinned by ``tests/serve/test_batch_parity.py``).
        """
        self._require_warm()
        if not prepared:
            return []
        with span(
            "serve.rank_batch",
            attrs={
                "batch": len(prepared),
                "targets": ",".join(sorted({name for name, _ in prepared})),
            },
        ):
            blocks = multi_query_cross_distances(
                [matrices for _, matrices in prepared],
                self.index.matrices,
                self._measure,
                jobs=self.config.jobs,
                cache=self._pipeline.distance_cache,
                col_digests=self.index.digests,
            )
            rankings = []
            for (target_name, _), C in zip(prepared, blocks):
                # Mean cross distance per reference workload, scaled to
                # [0, 1] by the largest entry — the same monotone
                # normalization the batch ranking applies.
                peak = float(C.max())
                if peak > 0:
                    C = C / peak
                distances = {
                    reference: float(C[:, members].mean())
                    for reference, members in self.index.groups
                }
                rankings.append(
                    SimilarityRanking(target=target_name, distances=distances)
                )
        return rankings

    def rank_batch(
        self, targets: list[ExperimentRepository]
    ) -> list[SimilarityRanking]:
        """Rank many targets at once (validation is per target)."""
        return self.rank_prepared(
            [self.prepare_target(target) for target in targets]
        )

    def rank(self, target: ExperimentRepository) -> SimilarityRanking:
        """Rank reference workloads by mean distance to the target."""
        return self.rank_prepared([self.prepare_target(target)])[0]

    def nearest_reference(self, target_matrices: list[np.ndarray]) -> str:
        """Nearest reference workload via the pruned group cascade.

        Prediction needs only the *identity* of the nearest reference,
        so instead of the full cross-distance matrix this walks
        :func:`~repro.similarity.pruning.nearest_group` over the
        precomputed index: groups whose lower-bound mean (LB_Kim +
        precomputed LB_Keogh envelopes for Dependent-DTW, reverse
        triangle inequality over precomputed norms for norm-induced
        measures) already loses are skipped without one exact distance.
        The [0, 1] peak normalization the full ranking applies is a
        monotone rescale, so the nearest group is the same — ties
        included, because groups are scanned in the corpus's workload
        order with strict-improvement replacement, the same first-wins
        rule :meth:`~repro.core.report.SimilarityRanking.nearest`
        applies (pinned by ``tests/serve/test_index.py``).
        """
        self._require_warm()
        return nearest_group(
            target_matrices,
            self.index.matrices,
            self.index.groups,
            self._measure,
            envelopes=self.index.envelopes,
            norms=self.index.norms,
        )

    # -- prediction ------------------------------------------------------------
    def resolve_sku(self, name: str):
        """A reference-corpus SKU by name (400s map from ServeError)."""
        self._require_warm()
        try:
            return self._sku_by_name[name]
        except KeyError:
            raise ServeError(
                f"unknown SKU {name!r}; reference corpus has "
                f"{sorted(self._sku_by_name)}"
            ) from None

    def _scaling_model(self, reference_name: str, source_sku, target_sku):
        """The catalog's scaling model for one migration."""
        return self.catalog.model(reference_name, source_sku, target_sku)

    def predict(
        self,
        target: ExperimentRepository,
        source_sku_name: str,
        target_sku_name: str,
    ) -> dict:
        """Find the nearest reference (pruned), transfer its scaling model.

        Returns the JSON-ready response body.  The model comes from the
        catalog and the prediction from
        :func:`~repro.core.pipeline.transfer`, as in
        :meth:`~repro.core.pipeline.WorkloadPredictionPipeline.predict_scaling`.
        Unlike ``/v1/rank`` this never materializes the full
        cross-distance matrix — the pruned group cascade finds the same
        nearest reference while skipping most exact distances — so the
        response carries no ``"ranking"`` field (format version 2).
        """
        self._require_warm()
        source_sku = self.resolve_sku(source_sku_name)
        target_sku = self.resolve_sku(target_sku_name)
        target_name, target_matrices = self.prepare_target(target)
        reference_name = self.nearest_reference(target_matrices)
        with span(
            "serve.predict",
            attrs={
                "target": target_name,
                "reference": reference_name,
                "source_sku": source_sku.name,
                "target_sku": target_sku.name,
            },
        ):
            model = self._scaling_model(
                reference_name, source_sku, target_sku
            )
            predicted = transfer(
                model, target, target_sku,
                as_generator(self.config.random_state),
            )
        return {
            "target_workload": target_name,
            "reference_workload": reference_name,
            "source_sku": source_sku.name,
            "target_sku": target_sku.name,
            "features": list(self.features),
            "predicted_throughput": {
                "n": int(predicted.size),
                "mean": float(predicted.mean()),
                "std": float(predicted.std()),
                "p50": float(np.percentile(predicted, 50)),
                "p90": float(np.percentile(predicted, 90)),
                "p99": float(np.percentile(predicted, 99)),
            },
        }

    def rank_response_from(self, ranking: SimilarityRanking) -> dict:
        """Format one ranking as the JSON-ready ``/v1/rank`` body."""
        return {
            "target_workload": ranking.target,
            "nearest": ranking.nearest,
            "ranking": {name: value for name, value in ranking.ordered},
            "features": list(self.features),
        }

    def rank_response(self, target: ExperimentRepository) -> dict:
        """The JSON-ready ``/v1/rank`` response body."""
        return self.rank_response_from(self.rank(target))
