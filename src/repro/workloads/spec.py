"""Workload and transaction-type specifications.

A :class:`WorkloadSpec` captures everything the simulator needs about a
benchmark: schema statistics (Table 1), the transaction mix with per-type
cost profiles, and the workload-level scalability/contention character.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from repro.exceptions import ValidationError

#: Non-negative finite cost fields shared by every transaction profile.
_COST_FIELDS = (
    "logical_reads",
    "logical_writes",
    "rows_touched",
    "rows_scanned",
    "row_size_bytes",
    "table_cardinality",
    "plan_complexity",
    "memory_grant_mb",
    "locks_acquired",
)


class WorkloadType(str, Enum):
    """Coarse workload categories used as ground truth in Section 5."""

    TRANSACTIONAL = "transactional"
    ANALYTICAL = "analytical"
    MIXED = "mixed"


@dataclass(frozen=True)
class TransactionType:
    """Cost profile of one transaction (or query template).

    Attributes
    ----------
    name:
        Template identifier (e.g. ``"NewOrder"`` or ``"Q6"``).
    weight:
        Relative frequency within the workload mix.
    read_only:
        Whether the transaction performs no writes.
    cpu_ms:
        CPU service demand per execution on a single core, in milliseconds.
    logical_reads / logical_writes:
        Logical page accesses per execution; physical IO is derived from
        these via the buffer-pool model.
    rows_touched:
        Result cardinality the optimizer estimates for the statement.
    rows_scanned:
        Rows read to produce the result (scan amplification).
    row_size_bytes:
        Average width of returned rows.
    table_cardinality:
        Cardinality of the largest base table the plan touches.
    plan_complexity:
        1 (trivial point lookup) .. 10 (deep analytical join tree); drives
        compile cost and cached-plan size.
    memory_grant_mb:
        Sort/hash workspace the plan requests.
    locks_acquired:
        Lock manager requests per execution.
    hot_spot_affinity:
        0..1 propensity to touch contended hot rows (drives lock waits and
        latch serialization under concurrency).
    """

    name: str
    weight: float
    read_only: bool
    cpu_ms: float
    logical_reads: float
    logical_writes: float
    rows_touched: float
    rows_scanned: float
    row_size_bytes: float
    table_cardinality: float
    plan_complexity: float
    memory_grant_mb: float
    locks_acquired: float
    hot_spot_affinity: float = 0.0

    def __post_init__(self):
        # NaN fails every comparison, so ``weight <= 0`` alone would let a
        # NaN (or inf) weight through silently; demand finiteness first.
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise ValidationError(
                f"transaction {self.name!r}: weight must be a positive finite"
                f" number, got {self.weight!r}"
            )
        if not math.isfinite(self.cpu_ms) or self.cpu_ms <= 0:
            raise ValidationError(
                f"transaction {self.name!r}: cpu_ms must be a positive finite"
                f" number, got {self.cpu_ms!r}"
            )
        for field in _COST_FIELDS:
            value = getattr(self, field)
            if not math.isfinite(value) or value < 0:
                raise ValidationError(
                    f"transaction {self.name!r}: {field} must be a"
                    f" non-negative finite number, got {value!r}"
                )
        if self.read_only and self.logical_writes > 0:
            raise ValidationError(
                f"transaction {self.name!r} is read_only but writes pages"
            )
        if not 0.0 <= self.hot_spot_affinity <= 1.0:
            raise ValidationError(
                f"transaction {self.name!r}: hot_spot_affinity must be in [0,1]"
            )

    def to_dict(self) -> dict:
        """JSON-safe mapping with exact float round-trip via ``from_dict``."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> TransactionType:
        """Inverse of :meth:`to_dict` (re-validating on construction)."""
        return cls(**payload)


@dataclass(frozen=True)
class WorkloadSpec:
    """Complete simulator-facing description of a benchmark workload.

    Attributes
    ----------
    name, workload_type:
        Identity and ground-truth category (Table 1).
    tables, columns, indexes:
        Schema statistics (Table 1), reported for documentation and used to
        scale compile-time statistics.
    transactions:
        The transaction mix.
    working_set_gb:
        Hot data volume; interacts with SKU memory through the buffer pool.
    parallel_fraction:
        Amdahl parallel fraction of the workload's aggregate CPU work: how
        much of the critical path benefits from added cores.
    contention_factor:
        Strength of data contention (lock/latch conflicts) as concurrency
        and parallelism grow; transactional and hot-spot workloads are high.
    checkpoint_intensity:
        Periodic write-burst amplitude in the IO time-series (phases for
        Phase-FP/BCPD to find).
    access_skew:
        0 (uniform access) .. 1 (extremely skewed, e.g. zipf 0.99); skewed
        workloads keep their hot set cached even when the working set
        exceeds memory.
    base_noise:
        Multiplicative run-to-run noise level of the measured performance.
    """

    name: str
    workload_type: WorkloadType
    tables: int
    columns: int
    indexes: int
    transactions: tuple[TransactionType, ...]
    working_set_gb: float
    parallel_fraction: float
    contention_factor: float
    checkpoint_intensity: float = 0.0
    access_skew: float = 0.0
    base_noise: float = 0.04

    def __post_init__(self):
        if not self.transactions:
            raise ValidationError(f"workload {self.name!r} has no transactions")
        if not 0.0 <= self.parallel_fraction < 1.0:
            raise ValidationError(
                f"workload {self.name!r}: parallel_fraction must be in [0, 1)"
            )
        if not math.isfinite(self.working_set_gb) or self.working_set_gb <= 0:
            raise ValidationError(
                f"workload {self.name!r}: working_set_gb must be a positive"
                f" finite number, got {self.working_set_gb!r}"
            )
        if not 0.0 <= self.access_skew <= 1.0:
            raise ValidationError(
                f"workload {self.name!r}: access_skew must be in [0, 1]"
            )
        for field in ("contention_factor", "checkpoint_intensity", "base_noise"):
            value = getattr(self, field)
            if not math.isfinite(value) or value < 0:
                raise ValidationError(
                    f"workload {self.name!r}: {field} must be a non-negative"
                    f" finite number, got {value!r}"
                )

    # -- mix aggregates ------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """Normalized transaction weights."""
        raw = np.array([t.weight for t in self.transactions])
        return raw / raw.sum()

    @property
    def n_transaction_types(self) -> int:
        return len(self.transactions)

    @property
    def read_only_fraction(self) -> float:
        """Weighted fraction of read-only transactions (Table 1 column)."""
        weights = self.weights
        flags = np.array([t.read_only for t in self.transactions], dtype=float)
        return float(weights @ flags)

    def mix_mean(self, attribute: str) -> float:
        """Weight-averaged value of a :class:`TransactionType` attribute.

        The spec is frozen, so each mean is computed once and kept in a
        per-instance memo outside the dataclass fields: equality, hash,
        ``repr`` and ``to_dict`` never see it, and pickles leave it out
        (:meth:`__getstate__`).  The engine's models ask for a few of
        these on every simulated run.
        """
        means = self.__dict__.setdefault("_mix_means", {})
        mean = means.get(attribute)
        if mean is None:
            values = np.array(
                [float(getattr(t, attribute)) for t in self.transactions]
            )
            mean = means[attribute] = float(self.weights @ values)
        return mean

    def __getstate__(self) -> dict:
        """The fields only: a pickle is the same with or without memos."""
        state = dict(self.__dict__)
        state.pop("_mix_means", None)
        return state

    def transaction(self, name: str) -> TransactionType:
        """Look up a transaction type by name."""
        for txn in self.transactions:
            if txn.name == name:
                return txn
        raise ValidationError(
            f"workload {self.name!r} has no transaction {name!r}"
        )

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe mapping with exact float round-trip via ``from_dict``.

        Floats survive ``json.dumps``/``loads`` bit-for-bit (repr round
        trip), so ``WorkloadSpec.from_dict(json.loads(json.dumps(
        spec.to_dict())))`` equals ``spec`` exactly.
        """
        payload = asdict(self)
        payload["workload_type"] = self.workload_type.value
        payload["transactions"] = [t.to_dict() for t in self.transactions]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> WorkloadSpec:
        """Inverse of :meth:`to_dict` (re-validating on construction)."""
        data = dict(payload)
        data["workload_type"] = WorkloadType(data["workload_type"])
        data["transactions"] = tuple(
            TransactionType.from_dict(t) for t in data["transactions"]
        )
        return cls(**data)
