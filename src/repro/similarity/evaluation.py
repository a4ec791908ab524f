"""Similarity-method evaluation along the paper's three axes (Section 5.2).

- **Reliability** — does the method find the most similar workload run?
  Measured by 1-NN workload-identification accuracy and mean Average
  Precision over the per-experiment similarity rankings.
- **Discrimination power** — NDCG with graded relevance: another run of
  the same workload gains 2, a workload of the same type gains 1,
  anything else 0.
- **Robustness** — the spread (standard error) of normalized distances
  between repeated runs of the same workload pair; small bars in
  Figures 5/6 mean a robust method.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.exec.engine import ExecTask, run_tasks
from repro.ml.metrics import mean_average_precision, ndcg
from repro.obs.logging import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.tracing import span
from repro.similarity.distcache import DistanceCache, matrix_digest, pair_key
from repro.similarity.dtw import _dtw_from_cost, batch_dependent_costs
from repro.similarity.measures import MeasureSpec, _dtw_dependent
from repro.similarity.norms import BATCHED_NORMS, DIFFERENCE_NORMS
from repro.similarity.representations import RepresentationBuilder
from repro.utils.parallel import chunk_bounds, resolve_jobs

logger = get_logger(__name__)

#: Target number of chunks the miss list is split into.  The chunk
#: layout is a pure function of the miss count — never of the worker
#: count — so any ``jobs`` value walks identical chunks in identical
#: order and the assembled matrix is bit-identical to serial.
PAIR_CHUNK_TARGET = 64

#: Bytes of each gathered side of one slice of a stacked norm.  The
#: stacked form writes a difference of the same size, so a slice's three
#: buffers stay in cache: on ``(10, 7)`` Hist-FP matrices 128 KiB ran
#: fastest of 32 KiB to 1 MiB, and one gather of every pair was slower
#: than the chunked engine (``docs/performance.md``, "Norms in process").
NORM_SLICE_BYTES = 128 * 1024


def representation_matrices(
    corpus,
    builder: RepresentationBuilder,
    representation: str,
    *,
    features=None,
    samples=None,
) -> list[np.ndarray]:
    """Build one representation matrix per experiment in the corpus.

    Hist-FP fingerprints come from one batched pass over the whole corpus
    (:meth:`RepresentationBuilder.hist_fps`), reading ``samples``
    (:func:`~repro.similarity.representations.gather_samples` of
    ``corpus``) when the caller has gathered them already.  MTS and
    Phase-FP are built per experiment and do not read ``samples``.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValidationError("corpus must not be empty")
    if representation == "hist":
        return list(
            builder.hist_fps(corpus, features=features, samples=samples)
        )
    return [
        builder.build(result, representation, features=features)
        for result in corpus
    ]


def _is_elastic(measure: MeasureSpec) -> bool:
    return measure.name.endswith(("DTW", "LCSS"))


def _prepare_pair(
    A: np.ndarray, B: np.ndarray, elastic: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Align one pair for a measure that needs equal shapes.

    MTS windows can differ in length between experiments; norm measures
    need aligned shapes, so pairs are truncated to their common prefix.
    Elastic measures (DTW/LCSS) handle unequal lengths natively.
    """
    if not elastic and A.shape != B.shape:
        if A.shape[1] != B.shape[1]:
            raise ValidationError(
                "representations have different feature dimensions"
            )
        rows = min(A.shape[0], B.shape[0])
        A, B = A[:rows], B[:rows]
    return A, B


def _pair_values(
    matrices: list[np.ndarray], pairs: np.ndarray, measure: MeasureSpec
) -> np.ndarray:
    """Distances of ``pairs``, an ``(m, 2)`` index array into ``matrices``.

    Every value equals calling ``measure`` on its pair alone, aligned by
    :func:`_prepare_pair`.  Dependent-DTW over matrices of one shape
    builds every pair's local-cost matrix in one vectorized pass
    (:func:`~repro.similarity.dtw.batch_dependent_costs`) before the
    dynamic programs run, which is bit-identical per pair; everything
    else is evaluated pair by pair.  Callers take the stacked norm path
    (:func:`_stacked_form`) first.
    """
    same_shape = len({M.shape for M in matrices}) == 1
    if measure.func is _dtw_dependent and same_shape:
        costs = batch_dependent_costs(
            *_gather_pairs(np.array(matrices), pairs)
        )
        return np.array([_dtw_from_cost(cost, None) for cost in costs])
    elastic = _is_elastic(measure)
    return np.array(
        [
            float(measure(*_prepare_pair(matrices[i], matrices[j], elastic)))
            for i, j in pairs.tolist()
        ],
        dtype=float,
    )


def _gather_pairs(
    stack: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(m, r, c)`` left and right stacks of ``pairs`` in ``stack``."""
    # ``take`` gathers from the strided pair columns several times
    # faster than fancy indexing does.
    return (
        np.take(stack, pairs[:, 0], axis=0),
        np.take(stack, pairs[:, 1], axis=0),
    )


def _stacked_form(matrices: list[np.ndarray], measure: MeasureSpec):
    """The stacked norm that computes ``measure`` over ``matrices``, or
    ``None``.

    A norm in :data:`~repro.similarity.norms.BATCHED_NORMS` has one over
    C-contiguous 2-D matrices of one shape: the memory layout fixes the
    order numpy sums each pair in, so every value is bit-identical to
    the scalar function's.  Mixed shapes, which :func:`_prepare_pair`
    truncates pair by pair, and other layouts have none.
    """
    batched = BATCHED_NORMS.get(measure.func)
    if batched is None or not matrices:
        return None
    shape = matrices[0].shape
    if len(shape) != 2 or not all(
        M.shape == shape and M.flags.c_contiguous for M in matrices
    ):
        return None
    return batched


def _stacked_distances(
    batched, matrices: list[np.ndarray], pairs: np.ndarray
) -> np.ndarray:
    """``batched`` over ``pairs``, in process, in slices of
    :data:`NORM_SLICE_BYTES` per side.

    The matrices are stacked once; each slice gathers its two sides from
    the stack and contracts them.  One gather of every pair would be
    as large as the whole pair list, and its temporaries would fall out
    of cache.
    """
    stack = np.array(matrices)
    size = max(1, NORM_SLICE_BYTES // max(1, stack[0].nbytes))
    values = np.empty(len(pairs))
    for start in range(0, len(pairs), size):
        stop = start + size
        values[start:stop] = batched(
            *_gather_pairs(stack, pairs[start:stop])
        )
    return values


def _cross_pairs(n_rows: int, n_cols: int, col_offset: int) -> np.ndarray:
    """Row-major pairs ``(i, col_offset + j)`` of an ``n_rows x n_cols``
    block, as an ``(n_rows * n_cols, 2)`` index array."""
    return np.column_stack(
        (
            np.repeat(np.arange(n_rows), n_cols),
            col_offset + np.tile(np.arange(n_cols), n_rows),
        )
    )


def _pair_chunk_body(
    sub_matrices: list[np.ndarray],
    local_pairs: np.ndarray,
    measure: MeasureSpec,
    chunk_index: int,
) -> tuple[np.ndarray, float]:
    """Distances for one chunk of pairs, plus the chunk's compute seconds.

    This is the unit of work shipped to pool workers, and the exact same
    function the serial path calls — which is what makes parallel output
    bit-identical to serial.
    """
    with span(
        "similarity.pair_chunk",
        attrs={"chunk": chunk_index, "pairs": len(local_pairs)},
    ):
        start = time.perf_counter()
        values = _pair_values(sub_matrices, local_pairs, measure)
        return values, time.perf_counter() - start


def _pair_chunk_unit(payload, attempt: int, in_worker: bool):
    """Engine adapter: one pair chunk."""
    return _pair_chunk_body(*payload)


def _chunk_payload(
    matrices: list, pair_chunk: np.ndarray
) -> tuple[list, np.ndarray]:
    """Restrict ``matrices`` to the ones a chunk references.

    Workers receive only the matrices their pairs touch, with the pair
    indices remapped to positions in that list, so fan-out cost scales
    with the chunk, not the corpus.
    """
    ids, local = np.unique(pair_chunk, return_inverse=True)
    return [matrices[k] for k in ids.tolist()], local.reshape(pair_chunk.shape)


def _pair_distances(
    matrices: list[np.ndarray],
    pairs: np.ndarray,
    measure: MeasureSpec,
    n_workers: int,
    cache: DistanceCache | None,
    digests: list[str] | None = None,
) -> np.ndarray:
    """Distances of ``pairs``, an ``(m, 2)`` index array into ``matrices``.

    The one pair engine behind :func:`distance_matrix`,
    :func:`cross_distance_matrix`, :func:`multi_query_cross_distances`
    and :func:`normalized_cross_block`.  A measure with a stacked form
    over ``matrices`` (:func:`_stacked_form`) computes every pair in
    process (:func:`_stacked_distances`), with no chunk tasks or pool,
    whatever ``n_workers`` says, and no ``cache`` lookups: it computes
    faster than a warm cache answers.

    Other measures first look every pair up in the ``cache``, if any,
    under its content address (``digests`` may supply the matrix
    digests).  The misses are split into chunks of about
    ``len(misses) / PAIR_CHUNK_TARGET`` pairs — a pure function of the
    miss count, never of ``n_workers`` — run on the shared engine, and
    scattered back by position.  The compute time of the in-process
    pass, or of each chunk, divided evenly over its pairs, is one bulk
    observation of ``similarity.pair_seconds``.
    """
    metrics = get_metrics()
    histogram = metrics.histogram("similarity.pair_seconds")
    batched = _stacked_form(matrices, measure)
    if batched is not None:
        started = time.perf_counter()
        values = _stacked_distances(batched, matrices, pairs)
        if len(pairs):
            elapsed = time.perf_counter() - started
            histogram.observe(elapsed / len(pairs), count=len(pairs))
        metrics.counter("similarity.pairs_computed").inc(len(pairs))
        return values
    values = np.zeros(len(pairs))
    misses = np.arange(len(pairs))
    keys: list[str] = []
    if cache is not None and len(pairs):
        if digests is None:
            digests = [matrix_digest(M) for M in matrices]
        keys = [
            pair_key(digests[i], digests[j], measure.name)
            for i, j in pairs.tolist()
        ]
        cached = [cache.get(key) for key in keys]
        hit = np.array([value is not None for value in cached])
        values[hit] = [value for value in cached if value is not None]
        misses = np.flatnonzero(~hit)
    chunk_size = max(1, math.ceil(len(misses) / PAIR_CHUNK_TARGET))
    chunks = [
        misses[start:stop]
        for start, stop in chunk_bounds(len(misses), chunk_size)
    ]
    outputs = _run_pair_chunks(
        matrices, [pairs[chunk] for chunk in chunks], measure, n_workers
    )
    for chunk, (chunk_values, elapsed) in zip(chunks, outputs):
        values[chunk] = chunk_values
        histogram.observe(elapsed / len(chunk), count=len(chunk))
        if cache is not None:
            for position, value in zip(chunk.tolist(), chunk_values.tolist()):
                cache.put(keys[position], value)
    metrics.counter("similarity.pairs_computed").inc(len(misses))
    return values


def _run_pair_chunks(
    matrices: list[np.ndarray],
    chunks: list[np.ndarray],
    measure: MeasureSpec,
    n_workers: int,
) -> list[tuple[np.ndarray, float]]:
    """Run pair chunks on the shared engine; results in chunk order.

    Each chunk runs under telemetry capture and its snapshot is merged
    back in chunk order on both paths, so spans recorded inside workers
    match a serial run exactly.  A chunk's payload carries only the
    matrices its pairs touch (:func:`_chunk_payload`).
    """
    tasks = []
    for index, chunk in enumerate(chunks):
        sub, local_pairs = _chunk_payload(matrices, chunk)
        tasks.append(
            ExecTask(
                index=index,
                fn=_pair_chunk_unit,
                payload=(sub, local_pairs, measure, index),
                task_id=f"{measure.name}-chunk-{index}",
            )
        )
    return list(
        run_tasks(
            tasks,
            jobs=n_workers,
            retry=1,
            label="similarity",
            on_error="raise",
        )
    )


def distance_matrix(
    matrices: list[np.ndarray],
    measure: MeasureSpec,
    *,
    jobs: int | None = None,
    cache: "DistanceCache | str | None" = None,
) -> np.ndarray:
    """Symmetric pairwise distance matrix over representation matrices.

    L2,1 and L1,1 over C-contiguous matrices of one shape compute the
    upper-triangle pairs in process (:func:`_pair_distances`).  Other
    measures schedule them in deterministic chunks; ``jobs`` fans the
    chunks out over a ``ProcessPoolExecutor`` (``None``/``1`` serial,
    ``0`` one worker per CPU) with a serial fallback when no pool can be
    created.  Chunk layout depends only on the pair list, so **parallel
    output is bit-identical to serial** —
    ``tests/similarity/test_parallel_distance.py`` asserts exact array
    equality.

    ``cache`` (a :class:`~repro.similarity.distcache.DistanceCache` or a
    directory path) memoizes each pair under a content address — sweeps
    that share matrices (robustness levels, repeated sessions) only
    compute the pairs they have not seen.  The in-process norms skip it.
    """
    n = len(matrices)
    n_workers = resolve_jobs(jobs)
    upper = np.triu_indices(n, 1)
    with span(
        "similarity.distance_matrix",
        attrs={
            "n_experiments": n,
            "measure": measure.name,
            "workers": n_workers,
        },
    ):
        values = _pair_distances(
            matrices,
            np.column_stack(upper),
            measure,
            n_workers,
            DistanceCache.coerce(cache),
        )
    D = np.zeros((n, n))
    D[upper] = values
    D[upper[::-1]] = values
    return D


def cross_distance_matrix(
    rows: list[np.ndarray],
    cols: list[np.ndarray],
    measure: MeasureSpec,
    *,
    jobs: int | None = None,
    cache: "DistanceCache | str | None" = None,
) -> np.ndarray:
    """Distances between two matrix sets: ``C[i, j] = d(rows[i], cols[j])``.

    The serving hot path ranks a submitted target against a fixed
    reference corpus, which needs only the ``len(rows) x len(cols)``
    cross block — not the full symmetric matrix over the union that
    :func:`distance_matrix` computes.  The in-process norms, chunk
    layout, worker fan-out, and the content-addressed ``cache`` follow
    :func:`distance_matrix` exactly, so output is bit-identical at any
    worker count and cached pairs are shared with the batch path (the
    pair key is symmetric).
    """
    if not rows or not cols:
        raise ValidationError("cross_distance_matrix needs non-empty sets")
    n_workers = resolve_jobs(jobs)
    with span(
        "similarity.cross_distance_matrix",
        attrs={
            "n_rows": len(rows),
            "n_cols": len(cols),
            "measure": measure.name,
            "workers": n_workers,
        },
    ):
        values = _pair_distances(
            list(rows) + list(cols),
            _cross_pairs(len(rows), len(cols), len(rows)),
            measure,
            n_workers,
            DistanceCache.coerce(cache),
        )
    return values.reshape(len(rows), len(cols))


def multi_query_cross_distances(
    query_sets: list[list[np.ndarray]],
    cols: list[np.ndarray],
    measure: MeasureSpec,
    *,
    jobs: int | None = None,
    cache: "DistanceCache | str | None" = None,
    col_digests: list[str] | None = None,
) -> list[np.ndarray]:
    """Cross-distance blocks for many queries against one column set.

    ``result[q]`` is bit-identical to
    ``cross_distance_matrix(query_sets[q], cols, measure, ...)`` — each
    per-pair value is a pure function of the pair (the batched
    contractions are bit-identical per slice to the per-pair path), so
    stitching every query's pairs into **one** engine call cannot
    change any value, only the wall-clock cost: a batch of Q queries x
    R references is one engine dispatch instead of Q
    (``tests/similarity/test_multi_query.py`` pins the equality across
    batch sizes and worker counts).

    ``col_digests`` lets callers that froze ``cols`` ahead of time (the
    serving :class:`~repro.serve.index.ReferenceIndex`) skip re-hashing
    the reference matrices on every request; when given it must align
    with ``cols``.
    """
    if not query_sets:
        raise ValidationError(
            "multi_query_cross_distances needs at least one query"
        )
    if any(not query for query in query_sets) or not cols:
        raise ValidationError(
            "multi_query_cross_distances needs non-empty sets"
        )
    if col_digests is not None and len(col_digests) != len(cols):
        raise ValidationError("col_digests must align with cols")
    queries = [M for query in query_sets for M in query]
    matrices = queries + list(cols)
    cache = DistanceCache.coerce(cache)
    digests = None
    if (
        cache is not None
        and col_digests is not None
        and _stacked_form(matrices, measure) is None
    ):
        digests = [matrix_digest(M) for M in queries] + list(col_digests)
    n_workers = resolve_jobs(jobs)
    with span(
        "similarity.multi_query_cross_distances",
        attrs={
            "n_queries": len(query_sets),
            "n_cols": len(cols),
            "measure": measure.name,
            "workers": n_workers,
        },
    ):
        values = _pair_distances(
            matrices,
            _cross_pairs(len(queries), len(cols), len(queries)),
            measure,
            n_workers,
            cache,
            digests,
        )
    # Each query owns a contiguous run of rows of the stacked block.
    bounds = np.cumsum([len(query) for query in query_sets])[:-1]
    return np.vsplit(values.reshape(len(queries), len(cols)), bounds)


def normalized_distances(D: np.ndarray) -> np.ndarray:
    """Scale distances to [0, 1] by the largest off-diagonal entry."""
    D = np.asarray(D, dtype=float)
    off_diag = D[~np.eye(D.shape[0], dtype=bool)]
    peak = float(off_diag.max()) if off_diag.size else 0.0
    return D / peak if peak > 0 else D.copy()


def _widened(through_pivot, size: int):
    """A triangle bound on computed distances, from ``through_pivot``.

    ``through_pivot`` is a computed ``d~(i, p) + d~(p, j)`` (or its
    minimum over pivots ``p``), for a norm of the difference over
    matrices of one shape with ``size`` entries, ``m``.  A computed
    distance ``d~`` is within ``delta * d + tau`` of the exact ``d``:
    ``delta = gamma(m + 4)`` (``gamma(k) = k u / (1 - k u)``,
    ``u = 2**-53``) covers the rounding of the subtraction, the squares,
    at most ``m - 1`` additions in any order and the square root;
    ``tau = m * 2**-537`` covers squares that underflow (at most
    ``2**-1075`` each, which the square root raises to at most
    ``sqrt(m * 2**-1075)``).  The exact triangle inequality through
    ``p`` then gives, while ``delta <= 1/6`` (``m`` below 10**15)::

        d~(i, j) <= (1 + 3 delta) (d~(i, p) + d~(p, j)) + 4 tau

    and ``(d~(i, p) + d~(p, j)) * (1 + 4 delta) + 5 tau``, computed in
    floats, is at least the right-hand side: ``delta >= 5u`` leaves room
    for the roundings of that sum, the factor and the product, and the
    fifth ``tau`` for the last addition.  Every step is a monotone
    rounding, so a larger ``through_pivot`` never gives a smaller bound.
    """
    rounding = (size + 4) * np.finfo(float).eps / 2
    delta = rounding / (1 - rounding)
    return through_pivot * (1 + 4 * delta) + 5 * size * 2.0**-537


def _first_pairs(n: int, n_references: int, pivots: np.ndarray) -> np.ndarray:
    """Row-major pairs ``(i, j)``, ``i < j``, of the target-by-reference
    block and of every pair that touches a pivot, as an ``(m, 2)`` index
    array.

    ``pivots`` are sorted and end with the first target row,
    ``n_references``.  A pivot row pairs with every later matrix; another
    reference row with the later reference pivots and every target;
    another target row with nothing, because every pivot and reference
    comes before it.  Row ``i``'s columns are one run of ``source``:
    ``i + 1 .. n - 1`` of its first part for a pivot, a suffix of its
    second part for another reference.
    """
    source = np.concatenate(
        (np.arange(n), pivots[:-1], np.arange(n_references, n))
    )
    rows = np.arange(n_references + 1)
    is_pivot = np.isin(rows, pivots)
    starts = np.where(
        is_pivot, rows + 1, n + np.searchsorted(pivots[:-1], rows)
    )
    lengths = np.where(is_pivot, n, len(source)) - starts
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return np.column_stack(
        (
            np.repeat(rows, lengths),
            source[np.arange(len(offsets)) + offsets],
        )
    )


def _bounded_pairs(
    routes: np.ndarray, groups: list[np.ndarray], peak, size: int
) -> np.ndarray:
    """Pairs within and between ``groups`` whose bound reaches ``peak``.

    ``routes[k, i]`` is the computed distance from pivot ``k`` to matrix
    ``i``, and the ``groups`` are index arrays of matrices that are not
    pivots.  A pair's bound is ``_widened(min_k routes[k, i] +
    routes[k, j])``.  Two groups ``g`` and ``h`` are first bounded as a
    block by ``_widened(min_k max_g routes[k] + max_h routes[k])``,
    which is at least every member pair's bound, so the pairs' bounds
    are computed only in blocks whose bound reaches the peak.  ``max``
    and ``min`` propagate NaN, so a NaN route bounds nothing.  Pairs
    have their lower index first, in row-major order.
    """
    groups = [g for g in groups if len(g)]
    far = [routes[:, g].max(axis=1) for g in groups]
    pairs = [np.empty((0, 2), dtype=np.intp)]
    for a, g in enumerate(groups):
        for b in range(a, len(groups)):
            if _widened(np.min(far[a] + far[b]), size) < peak:
                continue
            h = groups[b]
            through = np.min(routes[:, g, None] + routes[:, None, h], axis=0)
            keep = ~(_widened(through, size) < peak)
            if a == b:
                keep = np.triu(keep, 1)
            i, j = np.nonzero(keep)
            pairs.append(np.column_stack((g[i], h[j])))
    pairs = np.sort(np.concatenate(pairs), axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def normalized_cross_block(
    matrices: list[np.ndarray],
    reference_labels,
    measure: MeasureSpec,
    *,
    jobs: int | None = None,
    cache: "DistanceCache | str | None" = None,
) -> np.ndarray:
    """Target-by-reference block of the normalized distance matrix.

    The first ``len(reference_labels)`` matrices are the references
    (``reference_labels`` names each one's workload), the rest are the
    target.  The result equals ``normalized_distances(distance_matrix(
    matrices, measure))[n_references:, :n_references]`` bit for bit, as
    a C-ordered array, from fewer pairs.  Each pair's value is a pure
    function of the pair, so only the normalization peak needs the
    other pairs:

    1. one pair-engine call computes the cross block and every pair
       that touches a pivot (the first run of each reference workload
       and the first target row), lower index first as in
       :func:`distance_matrix` (:func:`_first_pairs`);
    2. every other pair lies within one reference workload, between two
       of them, or within the target, and is bounded through the pivots
       by the triangle inequality, block by block and then pair by pair
       (:func:`_bounded_pairs`);
    3. a second call computes the pairs whose bound reaches the peak of
       the first, in row-major order; the rest are strictly below it and
       cannot be the peak.  With no such pair there is no second call.

    A measure that is not a norm of the difference, or matrices of mixed
    shape, bound nothing, so the second call computes the rest of the
    matrix.  ``jobs`` and ``cache`` act as in :func:`distance_matrix`;
    skipped pairs are counted in ``similarity.pairs_pruned_total``.
    """
    labels = np.asarray(reference_labels)
    n, n_references = len(matrices), len(labels)
    n_targets = n - n_references
    if n_references == 0 or n_targets < 1:
        raise ValidationError(
            "normalized_cross_block needs references and target matrices"
        )
    n_workers = resolve_jobs(jobs)
    cache = DistanceCache.coerce(cache)
    digests = None
    if cache is not None and _stacked_form(matrices, measure) is None:
        # Hashed once for both engine calls.
        digests = [matrix_digest(M) for M in matrices]
    names, firsts, workload = np.unique(
        labels, return_index=True, return_inverse=True
    )
    pivots = np.append(np.sort(firsts), n_references)
    first = _first_pairs(n, n_references, pivots)
    rows, cols = first.T
    with span(
        "similarity.normalized_cross_block",
        attrs={
            "n_references": n_references,
            "n_targets": n_targets,
            "measure": measure.name,
            "workers": n_workers,
        },
    ):
        known = _pair_distances(
            matrices, first, measure, n_workers, cache, digests
        )
        crossing = (rows < n_references) & (cols >= n_references)
        block = np.empty((n_targets, n_references))
        block[cols[crossing] - n_references, rows[crossing]] = known[crossing]
        # Other measures, and mixed shapes, have no triangle bound: every
        # route stays infinite, so every remaining pair is computed.
        routes = np.full((len(pivots), n), np.inf)
        if measure.func in DIFFERENCE_NORMS and len(
            {M.shape for M in matrices}
        ) == 1:
            slot = np.full(n, -1)
            slot[pivots] = np.arange(len(pivots))
            for end, other in ((rows, cols), (cols, rows)):
                at = slot[end] >= 0
                routes[slot[end[at]], other[at]] = known[at]
        # Each reference workload's runs after its first, and the target
        # rows after the first: no pair within one list is computed yet.
        # Every reference precedes every target, so the concatenated
        # pairs stay row-major.
        workloads = [
            np.flatnonzero(workload == k)[1:] for k in range(len(names))
        ]
        peak = known.max()
        size = matrices[0].size
        needed = np.concatenate(
            (
                _bounded_pairs(routes, workloads, peak, size),
                _bounded_pairs(
                    routes, [np.arange(n_references + 1, n)], peak, size
                ),
            )
        )
        if len(needed):
            unbounded = _pair_distances(
                matrices, needed, measure, n_workers, cache, digests
            )
            peak = np.max(np.append(peak, unbounded))
        peak = float(peak)
    pruned = n * (n - 1) // 2 - len(first) - len(needed)
    if pruned:
        get_metrics().counter("similarity.pairs_pruned_total").inc(pruned)
    return block / peak if peak > 0 else block


def knn_accuracy(D: np.ndarray, labels) -> float:
    """1-NN workload identification accuracy over the distance matrix."""
    labels = np.asarray(labels)
    n = D.shape[0]
    if n != labels.size:
        raise ValidationError("labels must align with the distance matrix")
    if n < 2:
        raise ValidationError("need at least two experiments for 1-NN")
    correct = 0
    masked = D.copy()
    np.fill_diagonal(masked, np.inf)
    nearest = np.argmin(masked, axis=1)
    correct = int(np.sum(labels[nearest] == labels))
    return correct / n


def _ranked_indices(D: np.ndarray, query: int) -> np.ndarray:
    order = np.argsort(D[query], kind="stable")
    return order[order != query]


def ranking_mean_average_precision(D: np.ndarray, labels) -> float:
    """mAP of per-experiment similarity rankings (relevant = same workload)."""
    labels = np.asarray(labels)
    relevance_lists = []
    for query in range(D.shape[0]):
        ranked = _ranked_indices(D, query)
        relevance_lists.append(labels[ranked] == labels[query])
    return mean_average_precision(relevance_lists)


def ranking_ndcg(D: np.ndarray, labels, types) -> float:
    """Mean NDCG with graded gains (same workload 2, same type 1, else 0)."""
    labels = np.asarray(labels)
    types = np.asarray(types)
    if labels.size != types.size or labels.size != D.shape[0]:
        raise ValidationError("labels/types must align with the distance matrix")
    scores = []
    for query in range(D.shape[0]):
        ranked = _ranked_indices(D, query)
        gains = np.where(
            labels[ranked] == labels[query],
            2.0,
            np.where(types[ranked] == types[query], 1.0, 0.0),
        )
        scores.append(ndcg(gains))
    return float(np.mean(scores))


def pairwise_workload_distances(
    D: np.ndarray, labels, *, normalize: bool = True
) -> dict[tuple[str, str], tuple[float, float]]:
    """Mean and std of (normalized) distances per workload pair.

    This is the data behind the similarity bar charts (Figures 5, 6, 7,
    and 10): for each ordered pair ``(a, b)`` the value aggregates all
    cross-run distances between experiments of workload ``a`` and ``b``
    (self-pairs exclude the zero diagonal).
    """
    labels = np.asarray(labels)
    matrix = normalized_distances(D) if normalize else np.asarray(D, float)
    names = list(dict.fromkeys(labels.tolist()))
    stats: dict[tuple[str, str], tuple[float, float]] = {}
    for a in names:
        rows = np.flatnonzero(labels == a)
        for b in names:
            cols = np.flatnonzero(labels == b)
            block = matrix[np.ix_(rows, cols)]
            if a == b:
                mask = ~np.eye(len(rows), dtype=bool)
                values = block[mask]
            else:
                values = block.ravel()
            if values.size == 0:
                continue
            stats[(a, b)] = (float(values.mean()), float(values.std()))
    return stats


@dataclass(frozen=True)
class SimilarityEvaluation:
    """Scores of one (representation, measure, feature-set) combination."""

    representation: str
    measure: str
    n_features: int
    knn_accuracy: float
    mean_average_precision: float
    ndcg: float

    @property
    def perfect_reliability(self) -> bool:
        """True when the method achieves perfect 1-NN prediction."""
        return self.knn_accuracy >= 1.0


def evaluate_measure(
    corpus,
    builder: RepresentationBuilder,
    representation: str,
    measure: MeasureSpec,
    *,
    features=None,
    jobs: int | None = None,
    cache: "DistanceCache | str | None" = None,
) -> SimilarityEvaluation:
    """Full evaluation of one method combination on a corpus.

    ``jobs`` and ``cache`` are forwarded to :func:`distance_matrix`.
    """
    if representation not in measure.representations:
        raise ValidationError(
            f"measure {measure.name!r} does not support representation "
            f"{representation!r}"
        )
    with span(
        "similarity.evaluate_measure",
        attrs={"representation": representation, "measure": measure.name},
    ):
        matrices = representation_matrices(
            corpus, builder, representation, features=features
        )
        D = distance_matrix(matrices, measure, jobs=jobs, cache=cache)
        labels = [r.workload_name for r in corpus]
        types = [r.workload_type for r in corpus]
        evaluation = SimilarityEvaluation(
            representation=representation,
            measure=measure.name,
            n_features=matrices[0].shape[1],
            knn_accuracy=knn_accuracy(D, labels),
            mean_average_precision=ranking_mean_average_precision(D, labels),
            ndcg=ranking_ndcg(D, labels, types),
        )
    return evaluation
