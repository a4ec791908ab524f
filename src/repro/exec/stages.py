"""Ready-made DAG builders for the paper's pipeline stages.

The pipeline behind every benchmark figure is corpus simulation →
representations → pairwise distances → model fits.  Run stage-by-stage,
each stage is a barrier: the last straggling simulation holds up every
distance pair, the last distance chunk holds up every fit.  The builders
here express the same work as one :func:`repro.exec.dag.run_dag` graph,
so the scheduler interleaves tasks from *different* stages in a single
pool — and, because every task carries a content-address key and the
simulation tasks a :class:`~repro.workloads.cache.CorpusCache`, a warm
re-run short-circuits straight to the stages whose inputs changed.

Stage wiring (:func:`pipeline_dag`):

- one **simulation** task per :class:`~repro.workloads.gridexec.GridTask`
  (keyed by the corpus-cache fingerprint, validated by
  :func:`~repro.workloads.repository.ensure_finite`);
- one **representation** task depending on every simulation: fits the
  :class:`~repro.similarity.representations.RepresentationBuilder` on
  the corpus (normalization ranges are corpus-wide) and builds one
  matrix per experiment.  Flagged ``publish=True`` so the matrices land
  in the run's :class:`~repro.exec.arrays.ArrayStore` and downstream
  chunks receive zero-copy refs;
- one **distance chunk** task per deterministic slice of the
  upper-triangle ``(m, 2)`` pair array (layout mirrors
  :func:`repro.similarity.evaluation.distance_matrix`: a pure function
  of the pair count, never of the worker count);
- one **assemble** task folding the chunks into the symmetric matrix;
- one **fit** task per prediction target, depending only on the
  simulations — so fits interleave with distance chunks instead of
  waiting behind them.

Determinism is inherited from :func:`~repro.exec.dag.run_dag`: every
task body is pure, so results and merged telemetry are bit-identical at
any worker count (pinned by ``tests/exec/test_stages.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exec.arrays import acquire_store
from repro.exec.dag import DagResults, DagTask, Input, run_dag
from repro.ml.linear import Ridge
from repro.obs.tracing import span
from repro.similarity.evaluation import _chunk_payload, _pair_chunk_body
from repro.similarity.representations import RepresentationBuilder
from repro.utils.parallel import chunk_bounds
from repro.workloads.gridexec import _task_body
from repro.workloads.repository import ensure_finite

#: Mirrors ``repro.similarity.evaluation.PAIR_CHUNK_TARGET`` but kept
#: small enough that toy corpora still exercise multi-chunk scheduling.
DAG_PAIR_CHUNK_TARGET = 16

#: Default prediction targets for the fit stage: each becomes one DAG
#: task regressing the corpus feature vectors onto the attribute.
DEFAULT_FIT_TARGETS = ("throughput", "latency_ms")


def _sim_unit(payload, attempt: int, in_worker: bool):
    """One corpus simulation (the gridexec task body, no fault hooks)."""
    (task,) = payload
    return _task_body(task, attempt, None, in_worker)


def _rep_unit(payload, attempt: int, in_worker: bool):
    """Fit the builder on the corpus, build one matrix per experiment."""
    builder, corpus, representation, features = payload
    with span(
        "exec.stages.representations",
        attrs={"representation": representation, "n": len(corpus)},
    ):
        builder.fit(corpus)
        return [
            builder.build(result, representation, features=features)
            for result in corpus
        ]


def _chunk_unit(payload, attempt: int, in_worker: bool):
    """One distance chunk over the published representation matrices."""
    matrices, pairs, measure, chunk_index = payload
    sub, local_pairs = _chunk_payload(list(matrices), pairs)
    return _pair_chunk_body(sub, local_pairs, measure, chunk_index)


def _assemble_unit(payload, attempt: int, in_worker: bool):
    """Fold per-chunk distance values into the symmetric matrix."""
    n, chunks, outputs = payload
    with span("exec.stages.assemble", attrs={"n": n}):
        D = np.zeros((n, n))
        for chunk, (values, _seconds) in zip(chunks, outputs):
            D[chunk[:, 0], chunk[:, 1]] = values
            D[chunk[:, 1], chunk[:, 0]] = values
        return D


def _fit_unit(payload, attempt: int, in_worker: bool):
    """Ridge-regress corpus feature vectors onto one target attribute."""
    corpus, target = payload
    with span("exec.stages.fit", attrs={"target": target}):
        X = np.vstack([result.feature_vector() for result in corpus])
        y = np.array([float(getattr(result, target)) for result in corpus])
        model = Ridge().fit(X, y)
        return model.predict(X)


def simulation_tasks(grid_tasks, *, cache=None) -> list[DagTask]:
    """One DAG task per grid task, keyed by the corpus fingerprint."""
    tasks = []
    for grid_task in grid_tasks:
        key = (
            cache.task_key(grid_task)
            if cache is not None
            else f"sim:{grid_task.task_id}"
        )
        tasks.append(
            DagTask(
                key=key,
                fn=_sim_unit,
                payload=(grid_task,),
                task_id=grid_task.task_id,
                cache=cache,
                validate=ensure_finite,
            )
        )
    return tasks


def pipeline_dag(
    grid_tasks,
    *,
    measure,
    representation: str = "hist",
    builder=None,
    features=None,
    cache=None,
    fit_targets=DEFAULT_FIT_TARGETS,
    chunk_target: int = DAG_PAIR_CHUNK_TARGET,
) -> list[DagTask]:
    """Build the full mixed-stage DAG for one pipeline run.

    Returns the task list; run it with :func:`repro.exec.dag.run_dag`
    (or :func:`run_pipeline`, which also owns the array store).  The
    distance matrix lands under key ``"distances"``, each fit's
    in-sample predictions under ``"fit:<target>"``.
    """
    if builder is None:
        builder = RepresentationBuilder()
    sims = simulation_tasks(grid_tasks, cache=cache)
    sim_keys = [task.key for task in sims]
    rep_key = f"rep:{representation}"
    tasks = list(sims)
    tasks.append(
        DagTask(
            key=rep_key,
            fn=_rep_unit,
            payload=(
                builder,
                [Input(key) for key in sim_keys],
                representation,
                features,
            ),
            deps=tuple(sim_keys),
            publish=True,
        )
    )
    n = len(sims)
    pairs = np.column_stack(np.triu_indices(n, 1))
    chunk_size = max(1, math.ceil(len(pairs) / chunk_target))
    chunks = [
        pairs[start:stop]
        for start, stop in chunk_bounds(len(pairs), chunk_size)
    ]
    chunk_keys = []
    for index, chunk in enumerate(chunks):
        key = f"dist:{measure.name}:{index}"
        chunk_keys.append(key)
        tasks.append(
            DagTask(
                key=key,
                fn=_chunk_unit,
                payload=(Input(rep_key), chunk, measure, index),
                deps=(rep_key,),
            )
        )
    tasks.append(
        DagTask(
            key="distances",
            fn=_assemble_unit,
            payload=(n, chunks, [Input(key) for key in chunk_keys]),
            deps=tuple(chunk_keys),
        )
    )
    for target in fit_targets:
        tasks.append(
            DagTask(
                key=f"fit:{target}",
                fn=_fit_unit,
                payload=([Input(key) for key in sim_keys], target),
                deps=tuple(sim_keys),
            )
        )
    return tasks


def run_pipeline(
    grid_tasks,
    *,
    measure,
    jobs: int | None = None,
    representation: str = "hist",
    builder=None,
    features=None,
    cache=None,
    fit_targets=DEFAULT_FIT_TARGETS,
    chunk_target: int = DAG_PAIR_CHUNK_TARGET,
    journal=None,
) -> DagResults:
    """Run the full pipeline DAG, owning the array store's lifetime."""
    tasks = pipeline_dag(
        grid_tasks,
        measure=measure,
        representation=representation,
        builder=builder,
        features=features,
        cache=cache,
        fit_targets=fit_targets,
        chunk_target=chunk_target,
    )
    store, owned = acquire_store(True)
    try:
        return run_dag(
            tasks,
            jobs=jobs,
            label="exec.dag",
            store=store,
            journal=journal,
        )
    finally:
        if store is not None and owned:
            store.close()
