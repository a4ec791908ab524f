import numpy as np
import pytest

from repro.workloads.catalog import (
    _FACTORIES,
    tpcc,
    tpch,
    twitter,
    workload_by_name,
    ycsb,
)
from repro.workloads.engine.planner import PAGE_KB, QueryPlanner
from repro.workloads.features import PLAN_FEATURES
from repro.workloads.sku import SKU


def planner_for(workload, cpus=16, memory_gb=32.0):
    return QueryPlanner(workload, SKU(cpus=cpus, memory_gb=memory_gb))


class TestPlanRows:
    def test_all_features_present(self, rng):
        workload = tpcc()
        row = planner_for(workload).plan_row(workload.transactions[0], rng)
        assert set(row) == set(PLAN_FEATURES)

    def test_values_non_negative(self, rng):
        workload = tpch()
        for txn in workload.transactions[:5]:
            row = planner_for(workload).plan_row(txn, rng)
            assert all(v >= 0 for v in row.values())

    def test_avg_row_size_tracks_profile(self, rng):
        workload = twitter()
        txn = workload.transaction("GetTweet")
        row = planner_for(workload).plan_row(txn, rng)
        assert row["AvgRowSize"] == pytest.approx(145, rel=0.3)

    def test_granted_memory_capped_by_available(self, rng):
        workload = tpch()  # grants in the GB range
        planner = planner_for(workload, memory_gb=8.0)
        for txn in workload.transactions[:8]:
            row = planner.plan_row(txn, rng)
            assert row["GrantedMemory"] <= row["EstimatedAvailableMemoryGrant"] * 1.1

    def test_dop_is_pure_hardware_property(self, rng):
        rows = {}
        for workload in (tpcc(), twitter()):
            planner = planner_for(workload, cpus=8)
            rows[workload.name] = planner.plan_row(
                workload.transactions[0], rng
            )["EstimatedAvailableDegreeOfParallelism"]
        # Identical across workloads on the same SKU: uninformative, as the
        # paper finds.
        assert rows["tpcc"] == rows["twitter"] == 8.0

    def test_dop_capped_at_eight(self, rng):
        workload = tpcc()
        row = planner_for(workload, cpus=64).plan_row(
            workload.transactions[0], rng
        )
        assert row["EstimatedAvailableDegreeOfParallelism"] == 8.0

    def test_rebinds_rewinds_tiny(self, rng):
        workload = tpcc()
        planner = planner_for(workload)
        values = [
            planner.plan_row(workload.transactions[0], rng)["EstimateRebinds"]
            for _ in range(50)
        ]
        assert np.mean(values) < 1.0


class TestObservePlans:
    def test_row_count(self):
        workload = tpcc()
        matrix, names = planner_for(workload).observe_plans(
            observations_per_query=3, random_state=0
        )
        assert matrix.shape == (15, 22)  # 5 transactions x 3 observations
        assert len(names) == 15

    def test_each_query_observed_equally(self):
        workload = ycsb()
        _, names = planner_for(workload).observe_plans(
            observations_per_query=3, random_state=0
        )
        from collections import Counter

        assert set(Counter(names).values()) == {3}

    def test_deterministic_with_seed(self):
        workload = twitter()
        a, _ = planner_for(workload).observe_plans(random_state=7)
        b, _ = planner_for(workload).observe_plans(random_state=7)
        np.testing.assert_array_equal(a, b)

    def test_workload_signatures_differ(self):
        """Plan features must separate analytic from point-lookup workloads."""
        idx = PLAN_FEATURES.index("EstimatedRowsRead")
        tpch_rows, _ = planner_for(tpch()).observe_plans(random_state=0)
        twitter_rows, _ = planner_for(twitter()).observe_plans(random_state=0)
        assert tpch_rows[:, idx].mean() > 1000 * twitter_rows[:, idx].mean()


def scalar_plan_row(planner, txn, rng):
    """``plan_row`` drawing one scalar at a time: each jitter is its own
    ``rng.normal(0.0, scale)`` call, in the order the row lists them."""

    def jitter(scale):
        return float(np.exp(rng.normal(0.0, scale)))

    workload, sku = planner.workload, planner.sku
    complexity = txn.plan_complexity
    desired_kb = txn.memory_grant_mb * 1024.0
    available_kb = planner._available_memory_grant_kb()
    granted_kb = min(desired_kb, available_kb) * jitter(0.03)
    compile_cpu_ms = 1.8 * complexity**1.7 * jitter(0.1)
    cached_pages = (workload.working_set_gb * 1024.0 * 1024.0 / PAGE_KB) * min(
        1.0, sku.memory_gb * 0.75 / workload.working_set_gb
    )
    est_io = 0.0008 * (txn.logical_reads + 2.0 * txn.logical_writes)
    est_cpu = 0.0012 * txn.cpu_ms * max(txn.rows_scanned, 1.0) ** 0.1
    return {
        "StatementEstRows": txn.rows_touched * jitter(0.12),
        "StatementSubTreeCost": (est_io + est_cpu) * jitter(0.08),
        "CompileCPU": compile_cpu_ms,
        "TableCardinality": txn.table_cardinality * jitter(0.02),
        "SerialDesiredMemory": desired_kb * jitter(0.05),
        "SerialRequiredMemory": 0.25 * desired_kb * jitter(0.05),
        "MaxCompileMemory": 180.0 * complexity * jitter(0.08),
        "EstimateRebinds": float(rng.poisson(0.15)),
        "EstimateRewinds": float(rng.poisson(0.1)),
        "EstimatedPagesCached": cached_pages * jitter(0.04),
        "EstimatedAvailableDegreeOfParallelism": float(min(sku.cpus, 8)),
        "EstimatedAvailableMemoryGrant": available_kb * jitter(0.02),
        "CachedPlanSize": (16.0 + 26.0 * complexity) * jitter(0.05),
        "AvgRowSize": txn.row_size_bytes * jitter(0.04),
        "CompileMemory": 110.0 * complexity * jitter(0.08),
        "EstimateRows": txn.rows_touched * jitter(0.1),
        "EstimateIO": est_io * jitter(0.08),
        "CompileTime": compile_cpu_ms * 1.25 * jitter(0.08),
        "GrantedMemory": granted_kb,
        "EstimateCPU": est_cpu * jitter(0.08),
        "MaxUsedMemory": 0.8 * granted_kb * jitter(0.06),
        "EstimatedRowsRead": txn.rows_scanned * jitter(0.1),
    }


class TestBatchedDraws:
    @pytest.mark.parametrize("name", sorted(_FACTORIES))
    @pytest.mark.parametrize(
        "cpus, memory_gb", [(2, 32.0), (16, 8.0)], ids=["2cpu", "16cpu-8gb"]
    )
    def test_plan_matrix_equals_one_draw_at_a_time(
        self, name, cpus, memory_gb
    ):
        # The two batches of standard normals take the generator through
        # the same values as one scalar draw per jitter, and numpy's
        # array exp rounds them as its scalar exp does: the bytes match,
        # and both generators end in the same state.
        workload = workload_by_name(name)
        planner = planner_for(workload, cpus=cpus, memory_gb=memory_gb)
        for seed in (0, 1, 7, 29):
            for observations in (1, 2, 3):
                rng = np.random.default_rng(seed)
                matrix, _ = planner.observe_plans(
                    observations_per_query=observations, random_state=rng
                )
                reference = np.random.default_rng(seed)
                rows = [
                    scalar_plan_row(planner, txn, reference)
                    for _ in range(observations)
                    for txn in workload.transactions
                ]
                expected = np.asarray(
                    [[row[f] for f in PLAN_FEATURES] for row in rows],
                    dtype=float,
                )
                assert matrix.tobytes() == expected.tobytes()
                assert (
                    rng.bit_generator.state == reference.bit_generator.state
                )
