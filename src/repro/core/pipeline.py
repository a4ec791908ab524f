"""The end-to-end workload prediction pipeline (Sections 2 and 6.2.3).

Given reference workloads observed on both the source and the target SKU,
and a *new* target workload observed only on the source SKU, the pipeline:

1. selects the top-k telemetry features on the reference corpus,
2. computes similarity between the target and each reference workload
   (Hist-FP + L2,1 by default) and picks the nearest reference,
3. fits that reference's pairwise scaling model (source -> target SKU) and
   transfers it to the target workload's source observations,
4. reports the predicted target-SKU performance (with error metrics when
   validation measurements are supplied).

Stage 1 and the reference side of stages 2 and 3 depend only on the
reference corpus and the config, so they live in a
:class:`ReferenceCatalog`: the expanded references, the selected
features and the fitted scaling models, each built on first use.  A
pipeline keeps the catalog of the last corpus it saw, reused while the
corpus it is given equals the catalog's own copy
(:func:`~repro.workloads.repository.repositories_equal`), and after the
first prediction runs only the per-target stages: expand the target,
rank, :func:`transfer`.  :class:`~repro.serve.service.PredictionService`
serves from its pipeline's catalog and calls the same :func:`transfer`.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import asdict

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.report import PredictionReport, SimilarityRanking
from repro.exceptions import PipelineError, ValidationError
from repro.features.evaluation import strategy_registry
from repro.ml.fitexec import FitCache
from repro.obs.logging import get_logger
from repro.obs.metrics import LATENCY_MS_BUCKETS, get_metrics
from repro.obs.provenance import RunManifest
from repro.obs.tracing import span
from repro.prediction.context import PairwiseScalingModel, SingleScalingModel
from repro.prediction.evaluation import build_scaling_dataset
from repro.similarity.distcache import DistanceCache
from repro.similarity.evaluation import (
    normalized_cross_block,
    representation_matrices,
)
from repro.similarity.measures import get_measure
from repro.similarity.representations import RepresentationBuilder
from repro.utils.rng import as_generator
from repro.workloads.corpus import expand_subexperiments
from repro.workloads.features import ALL_FEATURES, PLAN_FEATURES, RESOURCE_FEATURES
from repro.workloads.repository import (
    ExperimentRepository,
    ensure_finite,
    repositories_equal,
)
from repro.workloads.sampling import augmented_throughputs
from repro.workloads.sku import SKU

# Nothing here calls it: perfbench's traced ``predict`` run patches this
# name in instrument(), until the stage clock on ROADMAP.md replaces its
# patch lists.
from repro.similarity.evaluation import distance_matrix  # noqa: F401

logger = get_logger(__name__)


def transfer(
    model, target: ExperimentRepository, target_sku: SKU, rng
) -> np.ndarray:
    """Predicted target-SKU throughput of ``target`` under ``model``.

    Draws one augmentation seed per target run from ``rng``, so a
    caller drawing more from the same generator afterwards (validation
    observations) sees the same stream as before.  A pairwise model
    maps the observations directly; a single-context model scales their
    mean by its factor at the target's CPU count.
    """
    observations = np.concatenate(
        [
            augmented_throughputs(run, random_state=int(rng.integers(0, 2**62)))
            for run in target
        ]
    )
    if isinstance(model, PairwiseScalingModel):
        return model.transfer(observations)
    factors = model.predict(
        np.full(observations.size, float(target_sku.cpus)),
        groups=np.zeros(observations.size),
    )
    return factors * float(observations.mean())


class ReferenceCatalog:
    """What one reference corpus and one pipeline config determine.

    Each entry is built on first use and kept:

    - ``expanded(sku, n)``: the references on ``sku`` (all SKUs for
      ``None``) as ``n`` sub-experiments each;
    - ``features(sku, n)``: the features selected on those;
    - ``model(reference, source_sku, target_sku)``: the reference's
      scaling model.

    The batch pipeline selects on the source-SKU references, the
    paper's method; the server selects on all of them.  Both are keys of
    the one memo.  Every entry is a pure function of the corpus, the
    config, the SKUs and ``n``, so reusing one changes no answer.

    The catalog keeps its own copy of the corpus it was built for, so
    what it builds later cannot drift from that copy when the caller's
    objects change.  Building one checks every reference for non-finite
    values (:func:`~repro.workloads.repository.ensure_finite`), once per
    corpus instead of once per call.  Entries are built outside the
    lock and the first writer wins, so concurrent server threads may
    fit a model twice but all use one.  Misses call the pipeline's
    ``select_features`` and ``_reference_scaling_model``.
    """

    def __init__(
        self,
        pipeline: "WorkloadPredictionPipeline",
        references: ExperimentRepository,
    ):
        for result in references:
            ensure_finite(result)
        self.pipeline = pipeline
        self.references = ExperimentRepository(copy.deepcopy(list(references)))
        self._memo: dict = {}
        self._lock = threading.Lock()

    def _get(self, key: tuple, build):
        with self._lock:
            value = self._memo.get(key)
        if value is None:
            value = build()
            with self._lock:
                value = self._memo.setdefault(key, value)
        return value

    def expanded(
        self, sku: SKU | None, n_subexperiments: int
    ) -> ExperimentRepository:
        """The references on ``sku`` (or all) as sub-experiments."""

        def build():
            runs = self.references
            if sku is not None:
                runs = runs.by_sku(sku)
            return expand_subexperiments(runs, n_subexperiments=n_subexperiments)

        name = None if sku is None else sku.name
        return self._get(("expanded", name, n_subexperiments), build)

    def features(self, sku: SKU | None, n_subexperiments: int) -> tuple[str, ...]:
        """Features selected on :meth:`expanded` of the same key."""
        name = None if sku is None else sku.name
        return self._get(
            ("features", name, n_subexperiments),
            lambda: self.pipeline.select_features(
                self.expanded(sku, n_subexperiments)
            ),
        )

    def model(self, reference_name: str, source_sku: SKU, target_sku: SKU):
        """The scaling model of one reference for one migration."""
        return self._get(
            ("model", reference_name, source_sku, target_sku),
            lambda: self.pipeline._reference_scaling_model(
                self.references, reference_name, source_sku, target_sku
            ),
        )


class WorkloadPredictionPipeline:
    """Feature selection -> similarity -> scaling prediction.

    The config's cache directories are opened here, once: every
    prediction reuses the in-memory stores instead of re-reading their
    files.  The pipeline also keeps the :class:`ReferenceCatalog` of the
    last reference corpus it saw (:meth:`reference_catalog`).
    """

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.distance_cache = DistanceCache.coerce(self.config.distance_cache)
        self.fit_cache = FitCache.coerce(self.config.fit_cache)
        self._catalog: ReferenceCatalog | None = None

    def reference_catalog(
        self, references: ExperimentRepository
    ) -> tuple[ReferenceCatalog, bool]:
        """The catalog of ``references``, and whether it was reused.

        Keyed by content, not identity: an equal corpus decoded afresh
        reuses the catalog, one changed in place replaces it.
        """
        catalog = self._catalog
        hit = catalog is not None and repositories_equal(
            catalog.references, references
        )
        if not hit:
            catalog = self._catalog = ReferenceCatalog(self, references)
        get_metrics().counter(
            "pipeline.catalog.hits_total" if hit
            else "pipeline.catalog.misses_total"
        ).inc()
        return catalog, hit

    # -- feature selection stage -----------------------------------------------
    def _scope_indices(self) -> list[int]:
        scope = self.config.feature_scope
        if scope == "plan":
            names = PLAN_FEATURES
        elif scope == "resource":
            names = RESOURCE_FEATURES
        else:
            names = ALL_FEATURES
        return [ALL_FEATURES.index(name) for name in names]

    def select_features(
        self, references: ExperimentRepository
    ) -> tuple[str, ...]:
        """Top-k feature names chosen on the reference corpus."""
        registry = strategy_registry()
        try:
            factory = registry[self.config.selection_strategy]
        except KeyError:
            raise PipelineError(
                f"unknown selection strategy "
                f"{self.config.selection_strategy!r}"
            ) from None
        with span(
            "pipeline.select_features",
            attrs={
                "strategy": self.config.selection_strategy,
                "scope": self.config.feature_scope,
                "top_k": self.config.top_k,
            },
        ):
            scope = self._scope_indices()
            X = references.feature_matrix()[:, scope]
            labels = references.labels()
            selector = factory()
            # Wrapper selectors ride the evaluation fast path; filter and
            # embedded strategies have no such knobs and ignore them.
            if hasattr(selector, "jobs"):
                selector.jobs = self.config.jobs
            if hasattr(selector, "fit_cache"):
                selector.fit_cache = self.fit_cache
            started = time.perf_counter()
            with span("features.selector.fit", attrs={"n_rows": X.shape[0]}):
                selector.fit(X, labels)
            get_metrics().histogram("features.selector.fit_seconds").observe(
                time.perf_counter() - started
            )
            k = min(self.config.top_k, len(scope))
            chosen = selector.top_k(k)
        features = tuple(ALL_FEATURES[scope[i]] for i in chosen)
        logger.debug(
            "selected %d features with %s: %s",
            len(features),
            self.config.selection_strategy,
            ", ".join(features),
        )
        return features

    # -- similarity stage -----------------------------------------------------------
    def rank_similarity(
        self,
        references: ExperimentRepository,
        target: ExperimentRepository,
        features: tuple[str, ...],
    ) -> SimilarityRanking:
        """Rank reference workloads by mean distance to the target."""
        if len(target) == 0 or len(references) == 0:
            raise ValidationError("references and target must be non-empty")
        if not features:
            raise ValidationError("similarity needs at least one feature")
        missing = [name for name in features if name not in ALL_FEATURES]
        if missing:
            raise ValidationError(
                f"unknown feature(s) requested for similarity: "
                f"{', '.join(repr(name) for name in missing)}; "
                f"features must come from the telemetry registry "
                f"(repro.workloads.features.ALL_FEATURES)"
            )
        target_names = set(r.workload_name for r in target)
        if len(target_names) != 1:
            raise ValidationError(
                f"target must contain one workload, got {sorted(target_names)}"
            )
        target_name = target_names.pop()
        with span(
            "pipeline.rank_similarity",
            attrs={
                "target": target_name,
                "n_references": len(references),
                "n_features": len(features),
                "representation": self.config.representation,
                "measure": self.config.measure,
            },
        ):
            combined = ExperimentRepository(list(references) + list(target))
            builder = RepresentationBuilder(features).fit(combined)
            matrices = representation_matrices(
                combined, builder, self.config.representation,
                features=features,
            )
            # The target is the trailing rows of ``combined``, so the
            # cross block's rows are the target's runs and each
            # reference's columns are its own runs, even when the target
            # shares a reference's workload name.
            labels = np.asarray(references.labels())
            cross = normalized_cross_block(
                matrices,
                labels,
                get_measure(self.config.measure),
                jobs=self.config.jobs,
                cache=self.distance_cache,
            )
            target_rows = np.arange(len(target))
            distances: dict[str, float] = {}
            for reference in references.workload_names():
                columns = np.flatnonzero(labels == reference)
                # ``np.ix_`` gives a C-ordered block: ``mean`` sums in
                # memory order, and a Fortran-ordered block would round
                # differently from the full matrix's.
                block = cross[np.ix_(target_rows, columns)]
                distances[reference] = float(block.mean())
        get_metrics().counter("similarity.rankings_total").inc()
        ranking = SimilarityRanking(target=target_name, distances=distances)
        logger.debug(
            "similarity ranking for %s: %s",
            target_name,
            ", ".join(f"{n}={d:.3f}" for n, d in ranking.ordered),
        )
        return ranking

    # -- scaling stage ---------------------------------------------------------------
    def _reference_scaling_model(
        self,
        references: ExperimentRepository,
        reference_name: str,
        source_sku: SKU,
        target_sku: SKU,
    ):
        two_skus = references.by_workload(reference_name).filter(
            lambda r: r.sku.name in (source_sku.name, target_sku.name)
        )
        terminals = sorted({r.terminals for r in two_skus})
        if not terminals:
            raise PipelineError(
                f"reference {reference_name!r} has no runs on the "
                f"requested SKUs"
            )
        for sku in (source_sku, target_sku):
            if not any(
                r.sku.name == sku.name and r.terminals == terminals[-1]
                for r in two_skus
            ):
                raise PipelineError(
                    f"reference {reference_name!r} has no runs on SKU "
                    f"{sku.name!r} at {terminals[-1]} terminals"
                )
        dataset = build_scaling_dataset(
            two_skus,
            reference_name,
            terminals[-1],
            random_state=self.config.random_state,
        )
        y_source = dataset.observations[source_sku.name]
        y_target = dataset.observations[target_sku.name]
        groups = dataset.groups[source_sku.name]
        if self.config.scaling_context == "pairwise":
            model = PairwiseScalingModel(
                self.config.scaling_strategy,
                normalize=True,
                random_state=self.config.random_state,
            )
            model.fit(y_source, y_target, groups=groups)
            return model
        # Single context: model normalized throughput against CPU count and
        # read the scaling factor off the curve at the target CPU count.
        cpus = np.concatenate(
            [
                np.full(y_source.size, source_sku.cpus, dtype=float),
                np.full(y_target.size, target_sku.cpus, dtype=float),
            ]
        )
        normalized = np.concatenate([y_source, y_target]) / float(
            y_source.mean()
        )
        all_groups = np.concatenate([groups, dataset.groups[target_sku.name]])
        single = SingleScalingModel(
            self.config.scaling_strategy, random_state=self.config.random_state
        )
        single.fit(cpus, normalized, groups=all_groups)
        return single

    def predict_scaling(
        self,
        references: ExperimentRepository,
        target_source: ExperimentRepository,
        source_sku: SKU,
        target_sku: SKU,
        *,
        target_validation: ExperimentRepository | None = None,
        n_subexperiments: int = 10,
    ) -> PredictionReport:
        """Run the full pipeline for one migration.

        The reference-side work comes from the pipeline's
        :class:`ReferenceCatalog`, built by the first call on this
        corpus and reused by later ones.

        Parameters
        ----------
        references:
            Full experiments of the reference workloads on *both* SKUs.
        target_source:
            Full experiments of the target workload on the source SKU.
        target_validation:
            Optional target-workload experiments on the target SKU, used
            only to score the prediction.

        A non-finite value in the target's runs, validation included,
        is a :class:`~repro.exceptions.RepositoryError`; the references
        are checked when their catalog is built.
        """
        for run in [*target_source, *(target_validation or [])]:
            ensure_finite(run)
        for role, sku in (("source", source_sku), ("target", target_sku)):
            if len(references.by_sku(sku)) == 0:
                raise PipelineError(
                    f"references contain no runs on the {role} SKU "
                    f"{sku.name!r}"
                )
        started = time.perf_counter()
        timings: dict[str, float] = {}
        with span(
            "pipeline.predict",
            attrs={
                "source_sku": source_sku.name,
                "target_sku": target_sku.name,
                "n_references": len(references),
            },
        ):
            with span("pipeline.stage.prepare"):
                catalog, reused = self.reference_catalog(references)
                ref_subexp = catalog.expanded(source_sku, n_subexperiments)
                target_subexp = expand_subexperiments(
                    target_source, n_subexperiments=n_subexperiments
                )
            timings["prepare"] = time.perf_counter() - started

            stage_start = time.perf_counter()
            with span("pipeline.stage.select_features"):
                features = catalog.features(source_sku, n_subexperiments)
            timings["select_features"] = time.perf_counter() - stage_start

            stage_start = time.perf_counter()
            with span("pipeline.stage.rank_similarity"):
                ranking = self.rank_similarity(
                    ref_subexp, target_subexp, features
                )
                reference_name = ranking.nearest
            timings["rank_similarity"] = time.perf_counter() - stage_start

            stage_start = time.perf_counter()
            with span(
                "pipeline.stage.predict_scaling",
                attrs={
                    "reference": reference_name,
                    "strategy": self.config.scaling_strategy,
                    "context": self.config.scaling_context,
                },
            ):
                model = catalog.model(reference_name, source_sku, target_sku)
                rng = as_generator(self.config.random_state)
                predicted = transfer(model, target_source, target_sku, rng)
            timings["predict_scaling"] = time.perf_counter() - stage_start

            actual = None
            if target_validation is not None and len(target_validation) > 0:
                actual = np.concatenate(
                    [
                        augmented_throughputs(
                            run, random_state=int(rng.integers(0, 2**62))
                        )
                        for run in target_validation
                    ]
                )
        timings["total"] = time.perf_counter() - started

        metrics = get_metrics()
        metrics.counter("pipeline.predictions_total").inc()
        metrics.counter("pipeline.predicted_observations_total").inc(
            predicted.size
        )
        metrics.histogram(
            "pipeline.predict.latency_ms", buckets=LATENCY_MS_BUCKETS
        ).observe(timings["total"] * 1000.0)
        for stage in ("select_features", "rank_similarity", "predict_scaling"):
            metrics.histogram(f"pipeline.stage.{stage}.seconds").observe(
                timings[stage]
            )
        logger.info(
            "predicted %s on %s from %s via %s in %.2f s",
            ranking.target,
            target_sku.name,
            source_sku.name,
            reference_name,
            timings["total"],
        )
        manifest = RunManifest(
            pipeline_config=asdict(self.config),
            selected_features=features,
            similarity_ranking=dict(ranking.distances),
            reference_workload=reference_name,
            stage_timings_s=timings,
            metrics=metrics.snapshot(),
            random_seed=self.config.random_state,
            extra={
                "source_sku": source_sku.name,
                "target_sku": target_sku.name,
                "n_reference_experiments": len(references),
                "n_target_experiments": len(target_source),
                "n_subexperiments": n_subexperiments,
                "catalog": "hit" if reused else "miss",
                "experiment_metadata": [
                    dict(run.metadata) for run in target_source
                ],
            },
        )
        return PredictionReport(
            target_workload=ranking.target,
            source_sku=source_sku.name,
            target_sku=target_sku.name,
            selected_features=features,
            similarity=ranking,
            reference_workload=reference_name,
            predicted_throughput=predicted,
            actual_throughput=actual,
            details={
                "strategy": self.config.scaling_strategy,
                "context": self.config.scaling_context,
                "representation": self.config.representation,
                "measure": self.config.measure,
            },
            manifest=manifest,
        )
