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
  persisted :class:`~repro.similarity.distcache.DistanceCache`.  The
  frozen ranges are not the paper's, which come from every experiment
  compared: a target value outside them clips, and a different range
  can move samples across histogram bins, so nothing guarantees the
  batch pipeline's ordering;
- **reference matrices** are built once, with their workload groups in
  corpus order (the order ties resolve in) and, when a request can
  read the distance cache, their content digests.

Both endpoints read one ranking: ``/v1/rank`` answers with it and
``/v1/predict`` transfers the scaling model of its nearest reference.
Each request ranks its own target alone, one cross block of the target
against the reference matrices.  Prediction calls the batch pipeline's
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
from repro.similarity.distcache import matrix_digest
from repro.similarity.evaluation import (
    multi_query_cross_distances,
    representation_matrices,
)
from repro.similarity.measures import get_measure
from repro.similarity.norms import BATCHED_NORMS
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
            self._sku_by_name = {
                r.sku.name: r.sku for r in self.references
            }
            # Workload groups in corpus order, the order ties resolve in.
            labels = np.asarray([r.workload_name for r in self._ref_subexp])
            self._groups = [
                (name, np.flatnonzero(labels == name).tolist())
                for name in self.references.workload_names()
            ]
            # Only the distance cache's pre-pass reads the digests, and
            # only pairs with no stacked norm reach it: a measure without
            # one, or MTS, whose windows can differ in length from a
            # target's.
            self._ref_digests = None
            if self._pipeline.distance_cache is not None and (
                self.config.representation == "mts"
                or self._measure.func not in BATCHED_NORMS
            ):
                self._ref_digests = [
                    matrix_digest(M) for M in self._ref_matrices
                ]
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

        The target's half of ranking; :meth:`rank_prepared` compares
        the result with the references.  A non-finite value in the
        target is a :class:`~repro.exceptions.RepositoryError`.
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
        self, prepared: tuple[str, list[np.ndarray]]
    ) -> SimilarityRanking:
        """The ranking of one prepared target.

        The target's cross block against the reference matrices comes
        from :func:`~repro.similarity.evaluation.multi_query_cross_distances`
        with the one query.  It is scaled to [0, 1] by its largest
        entry, the same monotone normalization the batch pipeline's
        ranking applies, and averaged per reference workload.
        """
        self._require_warm()
        target_name, matrices = prepared
        with span("serve.rank", attrs={"target": target_name}):
            (C,) = multi_query_cross_distances(
                [matrices],
                self._ref_matrices,
                self._measure,
                jobs=self.config.jobs,
                cache=self._pipeline.distance_cache,
                col_digests=self._ref_digests,
            )
            peak = float(C.max())
            if peak > 0:
                C = C / peak
            distances = {
                reference: float(C[:, members].mean())
                for reference, members in self._groups
            }
        return SimilarityRanking(target=target_name, distances=distances)

    def rank(self, target: ExperimentRepository) -> SimilarityRanking:
        """Rank reference workloads by mean distance to the target."""
        return self.rank_prepared(self.prepare_target(target))

    def nearest_reference(
        self, prepared: tuple[str, list[np.ndarray]]
    ) -> str:
        """Nearest reference workload of one prepared target.

        It is the nearest of the ranking ``/v1/rank`` answers with, so
        ties resolve first in corpus order, through
        :attr:`~repro.core.report.SimilarityRanking.nearest`.
        """
        return self.rank_prepared(prepared).nearest

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
        """Transfer the scaling model of the target's nearest reference.

        Returns the JSON-ready response body.  The nearest reference is
        the one ``/v1/rank`` ranks first for the same target
        (:meth:`nearest_reference`); the response names it but carries
        no ``"ranking"`` field (format version 2).  The model comes from
        the catalog and the prediction from
        :func:`~repro.core.pipeline.transfer`, as in
        :meth:`~repro.core.pipeline.WorkloadPredictionPipeline.predict_scaling`.
        """
        self._require_warm()
        source_sku = self.resolve_sku(source_sku_name)
        target_sku = self.resolve_sku(target_sku_name)
        prepared = self.prepare_target(target)
        target_name = prepared[0]
        reference_name = self.nearest_reference(prepared)
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

    def rank_response(self, target: ExperimentRepository) -> dict:
        """The JSON-ready ``/v1/rank`` response body."""
        ranking = self.rank(target)
        return {
            "target_workload": ranking.target,
            "nearest": ranking.nearest,
            "ranking": {name: value for name, value in ranking.ordered},
            "features": list(self.features),
        }
