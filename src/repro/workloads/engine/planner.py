"""Query planner: generates the 22 query-plan statistics of Table 2.

Each observed execution plan yields one row of statistics derived from the
transaction's cost profile, the schema, and the SKU, with small estimation
noise per observation (the optimizer re-estimates on each compile).  Two
design points mirror findings the paper reports:

- ``EstimatedAvailableDegreeOfParallelism`` and
  ``EstimatedAvailableMemoryGrant`` are functions of the *hardware*, so
  within one hardware setting they barely separate workloads (the paper
  finds them unimportant for identification) — except that memory-grant
  availability is slightly depressed under workload memory pressure, which
  is what makes it informative for the IO-hungry YCSB.
- ``EstimateRebinds`` / ``EstimateRewinds`` are near-constant small values:
  consistently unimportant, again matching the paper.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import get_metrics
from repro.obs.tracing import span
from repro.utils.rng import RandomState, as_generator
from repro.workloads.engine.bufferpool import BufferPoolModel
from repro.workloads.features import PLAN_FEATURES
from repro.workloads.spec import TransactionType, WorkloadSpec
from repro.workloads.sku import SKU

#: Page size used to convert working sets to page counts (8 KiB pages).
PAGE_KB = 8.0

#: Log-normal jitter scales of the estimates one plan row draws before
#: its two Poisson counts, in draw order.
SCALES_BEFORE_COUNTS = np.array(
    [
        0.03,  # GrantedMemory
        0.1,  # CompileCPU
        0.12,  # StatementEstRows
        0.08,  # StatementSubTreeCost
        0.02,  # TableCardinality
        0.05,  # SerialDesiredMemory
        0.05,  # SerialRequiredMemory
        0.08,  # MaxCompileMemory
    ]
)
#: Jitter scales of the estimates drawn after the counts, in draw order.
SCALES_AFTER_COUNTS = np.array(
    [
        0.04,  # EstimatedPagesCached
        0.02,  # EstimatedAvailableMemoryGrant
        0.05,  # CachedPlanSize
        0.04,  # AvgRowSize
        0.08,  # CompileMemory
        0.1,  # EstimateRows
        0.08,  # EstimateIO
        0.08,  # CompileTime
        0.08,  # EstimateCPU
        0.06,  # MaxUsedMemory
        0.1,  # EstimatedRowsRead
    ]
)


class QueryPlanner:
    """Plan-statistic generator for a workload on a given SKU."""

    def __init__(self, workload: WorkloadSpec, sku: SKU):
        self.workload = workload
        self.sku = sku
        self._buffer = BufferPoolModel(workload, sku)
        self._available_kb = self._available_memory_grant_kb()

    def _available_memory_grant_kb(self) -> float:
        """Workspace the engine advertises for a single grant (KB)."""
        workspace_kb = self.sku.memory_gb * 0.25 * 1024.0 * 1024.0
        # Advertised availability shrinks under concurrent grant pressure.
        pressure = min(self._buffer.grant_pressure(), 1.0)
        return workspace_kb * (1.0 - 0.5 * pressure)

    def _available_dop(self) -> float:
        """Advertised degree of parallelism: a pure hardware property."""
        return float(min(self.sku.cpus, 8))

    def plan_row(
        self, txn: TransactionType, rng: np.random.Generator
    ) -> dict[str, float]:
        """One observed plan for ``txn``; dict keyed by plan feature name.

        Each estimate carries a log-normal jitter ``exp(scale * z)``.  The
        standard normals ``z`` are drawn in two batches around the two
        Poisson counts, which takes the generator through the same
        values, in the same order, as one ``rng.normal(0.0, scale)`` per
        estimate.
        """
        early = np.exp(
            SCALES_BEFORE_COUNTS
            * rng.standard_normal(len(SCALES_BEFORE_COUNTS))
        ).tolist()
        rebinds = float(rng.poisson(0.15))
        rewinds = float(rng.poisson(0.1))
        late = np.exp(
            SCALES_AFTER_COUNTS * rng.standard_normal(len(SCALES_AFTER_COUNTS))
        ).tolist()

        complexity = txn.plan_complexity
        desired_kb = txn.memory_grant_mb * 1024.0
        available_kb = self._available_kb
        granted_kb = min(desired_kb, available_kb) * early[0]
        compile_cpu_ms = 1.8 * complexity**1.7 * early[1]
        cached_pages = (
            self.workload.working_set_gb * 1024.0 * 1024.0 / PAGE_KB
        ) * min(1.0, self.sku.memory_gb * 0.75 / self.workload.working_set_gb)
        est_io = 0.0008 * (txn.logical_reads + 2.0 * txn.logical_writes)
        est_cpu = 0.0012 * txn.cpu_ms * max(txn.rows_scanned, 1.0) ** 0.1
        row = {
            "StatementEstRows": txn.rows_touched * early[2],
            "StatementSubTreeCost": (est_io + est_cpu) * early[3],
            "CompileCPU": compile_cpu_ms,
            "TableCardinality": txn.table_cardinality * early[4],
            "SerialDesiredMemory": desired_kb * early[5],
            "SerialRequiredMemory": 0.25 * desired_kb * early[6],
            "MaxCompileMemory": 180.0 * complexity * early[7],
            "EstimateRebinds": rebinds,
            "EstimateRewinds": rewinds,
            "EstimatedPagesCached": cached_pages * late[0],
            "EstimatedAvailableDegreeOfParallelism": self._available_dop(),
            "EstimatedAvailableMemoryGrant": available_kb * late[1],
            "CachedPlanSize": (16.0 + 26.0 * complexity) * late[2],
            "AvgRowSize": txn.row_size_bytes * late[3],
            "CompileMemory": 110.0 * complexity * late[4],
            "EstimateRows": txn.rows_touched * late[5],
            "EstimateIO": est_io * late[6],
            "CompileTime": compile_cpu_ms * 1.25 * late[7],
            "GrantedMemory": granted_kb,
            "EstimateCPU": est_cpu * late[8],
            "MaxUsedMemory": 0.8 * granted_kb * late[9],
            "EstimatedRowsRead": txn.rows_scanned * late[10],
        }
        return row

    def observe_plans(
        self,
        *,
        observations_per_query: int = 3,
        random_state: RandomState = None,
    ) -> tuple[np.ndarray, list[str]]:
        """Observe every transaction's plan several times.

        Returns ``(matrix, names)``: the matrix has one row per observation
        ordered plan-feature-registry-wise in its columns; ``names`` gives
        the transaction name of each row (transactions cycle fastest).
        """
        rng = as_generator(random_state)
        rows = []
        names = []
        with span(
            "planner.observe_plans",
            attrs={
                "workload": self.workload.name,
                "observations_per_query": observations_per_query,
            },
        ):
            for _ in range(observations_per_query):
                for txn in self.workload.transactions:
                    observed = self.plan_row(txn, rng)
                    rows.append([observed[f] for f in PLAN_FEATURES])
                    names.append(txn.name)
        get_metrics().counter("engine.planner.plans_observed_total").inc(
            len(rows)
        )
        return np.asarray(rows, dtype=float), names
