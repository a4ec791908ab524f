"""Bit-identity of the batched multi-query kernel to the serial path.

``multi_query_cross_distances`` stitches every query's pairs into one
chunked fan-out; these tests pin that the stitching changes nothing:
each query's block equals the query-by-column block of
``distance_matrix`` over that query and the columns alone, a different
engine call, bit for bit, across batch sizes {1, 3, 8} and worker
counts {1, 4} — the determinism contract the serving batch scheduler
relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.similarity.distcache import DistanceCache, matrix_digest
from repro.similarity.evaluation import (
    distance_matrix,
    multi_query_cross_distances,
)
from repro.similarity.measures import get_measure

BATCH_SIZES = (1, 3, 8)
JOB_COUNTS = (1, 4)


def cross_block(query, cols, measure, **kwargs):
    """``distance_matrix(query + cols)[:q, q:]``, with ``q = len(query)``."""
    q = len(query)
    return distance_matrix(list(query) + list(cols), measure, **kwargs)[:q, q:]


@pytest.fixture(scope="module")
def cols():
    rng = np.random.default_rng(7)
    return [rng.normal(size=(12, 3)) for _ in range(6)]


@pytest.fixture(scope="module")
def query_pool():
    """Queries with varying lengths and set sizes (unequal shapes hit
    the truncation path of norm measures and the per-pair DTW path)."""
    rng = np.random.default_rng(11)
    return [
        [
            rng.normal(size=(int(rng.integers(8, 14)), 3))
            for _ in range(int(rng.integers(1, 4)))
        ]
        for _ in range(8)
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("measure_name", ["Dependent-DTW", "L2,1", "Canb"])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_equals_serial_cross_distance(
        self, cols, query_pool, measure_name, batch, jobs
    ):
        measure = get_measure(measure_name)
        queries = query_pool[:batch]
        blocks = multi_query_cross_distances(
            queries, cols, measure, jobs=jobs
        )
        assert len(blocks) == len(queries)
        for query, block in zip(queries, blocks):
            serial = cross_block(query, cols, measure)
            assert np.array_equal(block, serial)

    def test_jobs_invariant(self, cols, query_pool):
        measure = get_measure("Dependent-DTW")
        serial = multi_query_cross_distances(
            query_pool, cols, measure, jobs=1
        )
        parallel = multi_query_cross_distances(
            query_pool, cols, measure, jobs=4
        )
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)


class TestCacheInterplay:
    """On Fro: L2,1 and L1,1 skip the cache."""

    def test_warm_cache_returns_identical_blocks(
        self, cols, query_pool, tmp_path
    ):
        measure = get_measure("Fro")
        cache = DistanceCache(tmp_path / "dist")
        queries = query_pool[:3]
        cold = multi_query_cross_distances(
            queries, cols, measure, cache=cache
        )
        warm = multi_query_cross_distances(
            queries, cols, measure, cache=cache
        )
        for a, b in zip(cold, warm):
            assert np.array_equal(a, b)

    def test_cache_shared_with_serial_path(self, cols, query_pool, tmp_path):
        measure = get_measure("Fro")
        cache = DistanceCache(tmp_path / "dist")
        queries = query_pool[:2]
        # The full-matrix path populates; the batched path must read
        # the same keys.
        for query in queries:
            cross_block(query, cols, measure, cache=cache)
        blocks = multi_query_cross_distances(
            queries, cols, measure, cache=cache
        )
        for query, block in zip(queries, blocks):
            assert np.array_equal(
                block, cross_block(query, cols, measure)
            )

    def test_precomputed_col_digests_match(self, cols, query_pool, tmp_path):
        measure = get_measure("Fro")
        digests = [matrix_digest(M) for M in cols]
        cache_a = DistanceCache(tmp_path / "a")
        cache_b = DistanceCache(tmp_path / "b")
        queries = query_pool[:2]
        with_digests = multi_query_cross_distances(
            queries, cols, measure, cache=cache_a, col_digests=digests
        )
        without = multi_query_cross_distances(
            queries, cols, measure, cache=cache_b
        )
        for a, b in zip(with_digests, without):
            assert np.array_equal(a, b)


class TestValidation:
    def test_rejects_empty_inputs(self, cols):
        measure = get_measure("L2,1")
        with pytest.raises(ValidationError):
            multi_query_cross_distances([], cols, measure)
        with pytest.raises(ValidationError):
            multi_query_cross_distances([[]], cols, measure)
        with pytest.raises(ValidationError):
            multi_query_cross_distances([[np.zeros((3, 2))]], [], measure)

    def test_rejects_misaligned_col_digests(self, cols):
        measure = get_measure("L2,1")
        with pytest.raises(ValidationError):
            multi_query_cross_distances(
                [[np.zeros((3, 3))]], cols, measure, col_digests=["x"]
            )
