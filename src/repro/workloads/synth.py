"""Trace-driven workload synthesis with property-matching verification.

The paper's studies run over a fixed catalog of six hand-built workloads,
which caps scenario diversity.  Following the PBench/Redbench direction
(PAPERS.md), this module turns the catalog into a *family*: it generates
unlimited valid :class:`~repro.workloads.spec.WorkloadSpec` objects whose
simulated telemetry matches declared **target summary statistics** —
read/write ratio, plan-feature marginals over the Table 2 feature space,
key skew, working-set size, and arrival (checkpoint burst) pattern.

Two synthesis paths share one verification contract:

- :func:`sample_specs` — a seeded spec-space sampler.  Each spec is drawn
  from :class:`SpecSpace` ranges by an index-keyed generator, so the output
  is bit-identical for a fixed seed regardless of batch size or worker
  count (the repo-wide determinism contract extended to synthesis).
- :func:`synthesize_clone` / :func:`spec_from_trace` — a trace-fitting
  path: given an exported telemetry corpus entry, extract its targets
  (:func:`extract_targets`), invert the planner/engine cost formulas into
  an initial spec, and run a bounded, seeded refinement loop
  (:func:`refine`) that adjusts mixer/sampling knobs until the simulated
  telemetry hits every target.

:func:`verify_synthesis` simulates a synthesized spec through the existing
engine (via :func:`~repro.workloads.gridexec.execute_grid`, so synthesized
corpora flow through the content-addressed corpus cache and ``jobs=``
fan-out like any other corpus) and asserts each property lands within its
declared tolerance, returning a structured :class:`SynthesisReport`.

Properties are compared in **log10 space**: a tolerance of ``0.2`` means
the achieved value may differ from the target by up to ``10**0.2 ≈ 1.6x``.
Decade tolerances compose naturally with the engine's multiplicative noise
(lognormal AR(1) telemetry noise, phase-profile mean shifts, optimizer
jitter) and keep one tolerance meaningful across channels whose magnitudes
span six orders.

``LOCK_WAIT_ABS`` is deliberately **not** a synthesis property: the channel
is dominated by the environment's calm-vs-stormy convoy lottery (see
:mod:`repro.workloads.telemetry`), so matching it would mean matching the
weather.  ``CPU_EFFECTIVE`` tracks ``CPU_UTILIZATION`` and is skipped as
redundant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ValidationError
from repro.obs.logging import get_logger
from repro.obs.metrics import get_metrics
from repro.obs.tracing import span
from repro.reporting import format_table
from repro.workloads.cache import as_cache
from repro.workloads.engine.bufferpool import (
    BUFFER_POOL_FRACTION,
    WRITE_BASE_FACTOR,
    WRITE_CHECKPOINT_FACTOR,
    BufferPoolModel,
)
from repro.workloads.engine.planner import PAGE_KB
from repro.workloads.features import PLAN_FEATURES, RESOURCE_FEATURES
from repro.workloads.gridexec import SEED_BOUND, GridTask, execute_grid
from repro.workloads.runner import ExperimentResult
from repro.workloads.sku import SKU
from repro.workloads.spec import TransactionType, WorkloadSpec, WorkloadType

logger = get_logger(__name__)

#: Guard against log of zero when converting means to decades.
_LOG_EPS = 1e-9

#: Resource channels that act as synthesis properties.  LOCK_WAIT_ABS is
#: excluded (environment-dominated), CPU_EFFECTIVE is excluded (tracks
#: CPU_UTILIZATION minus a contention term the lock knobs already cover).
RESOURCE_PROPERTIES = (
    "CPU_UTILIZATION",
    "MEM_UTILIZATION",
    "IOPS_TOTAL",
    "READ_WRITE_RATIO",
    "LOCK_REQ_ABS",
)

#: Plan-statistic marginals that act as synthesis properties.  These are
#: the near-invertible columns: each is a simple function of one
#: transaction cost field (see :mod:`repro.workloads.engine.planner`), so
#: the trace-fitting path can reconstruct the field and the refinement
#: loop can steer it precisely.
PLAN_PROPERTIES = (
    "StatementEstRows",
    "EstimatedRowsRead",
    "AvgRowSize",
    "TableCardinality",
    "SerialDesiredMemory",
    "CachedPlanSize",
    "EstimateIO",
    "EstimateCPU",
)

#: Steady-state performance properties.
PERF_PROPERTIES = ("throughput",)

#: Default per-property tolerance in log10 decades.  Resource channels and
#: throughput carry phase-profile shifts (sigma 0.12 mean multipliers),
#: AR(1) telemetry noise, and run noise; plan statistics only carry the
#: optimizer's per-observation jitter (sigma <= 0.12), so they are held to
#: a tighter band.
DEFAULT_RESOURCE_TOLERANCE = 0.22
DEFAULT_PLAN_TOLERANCE = 0.12
DEFAULT_PERF_TOLERANCE = 0.22

#: Seed-stream discriminators: each synthesis purpose derives its own
#: generator from ``(seed, purpose_id)`` so calibration, verification, and
#: sampling never share draws.
_STREAM_IDS = {"sample": 1, "calibration": 2, "verify": 3}


def default_properties() -> tuple[str, ...]:
    """All synthesis property names, in registry order."""
    return (
        tuple(f"resource:{name}" for name in RESOURCE_PROPERTIES)
        + tuple(f"plan:{name}" for name in PLAN_PROPERTIES)
        + tuple(f"perf:{name}" for name in PERF_PROPERTIES)
    )


def default_tolerance(name: str) -> float:
    """The default decade tolerance for a property name."""
    if name.startswith("resource:"):
        return DEFAULT_RESOURCE_TOLERANCE
    if name.startswith("plan:"):
        return DEFAULT_PLAN_TOLERANCE
    if name.startswith("perf:"):
        return DEFAULT_PERF_TOLERANCE
    raise ValidationError(f"unknown synthesis property {name!r}")


def _seed_stream(seed: int, purpose: str, count: int) -> list[int]:
    """``count`` engine seeds derived from ``(seed, purpose)``.

    Index-keyed seeding (rather than sequential draws from one generator)
    keeps every stream independent of how many seeds any other purpose
    consumed — the property behind the sampler's jobs-invariance.
    """
    if seed < 0:
        raise ValidationError(f"synthesis seed must be >= 0, got {seed}")
    rng = np.random.default_rng([int(seed), _STREAM_IDS[purpose]])
    return [int(s) for s in rng.integers(0, SEED_BOUND, size=count)]


# ---------------------------------------------------------------------------
# Property measurement
# ---------------------------------------------------------------------------
def measure_properties(
    results: list[ExperimentResult] | ExperimentResult,
    properties: tuple[str, ...] | None = None,
) -> dict[str, float]:
    """Measure each property from experiment telemetry, in log10 space.

    Resource properties are means of the pooled resource time-series,
    plan properties are means of the pooled plan-statistic rows, and
    ``perf:throughput`` is the mean steady-state throughput across runs.
    """
    if isinstance(results, ExperimentResult):
        results = [results]
    if not results:
        raise ValidationError("measure_properties needs at least one result")
    names = default_properties() if properties is None else properties
    resource = np.concatenate([r.resource_series for r in results], axis=0)
    plans = np.concatenate([r.plan_matrix for r in results], axis=0)
    throughput = float(np.mean([r.throughput for r in results]))
    measured: dict[str, float] = {}
    for name in names:
        kind, _, channel = name.partition(":")
        if kind == "resource" and channel in RESOURCE_FEATURES:
            value = float(resource[:, RESOURCE_FEATURES.index(channel)].mean())
        elif kind == "plan" and channel in PLAN_FEATURES:
            value = float(plans[:, PLAN_FEATURES.index(channel)].mean())
        elif kind == "perf" and channel == "throughput":
            value = throughput
        else:
            raise ValidationError(f"unknown synthesis property {name!r}")
        measured[name] = float(np.log10(max(value, 0.0) + _LOG_EPS))
    return measured


@dataclass(frozen=True)
class PropertyTarget:
    """One target summary statistic, in log10 space."""

    name: str
    target: float  # log10 of the target value
    tolerance: float  # allowed |achieved - target| in decades

    def __post_init__(self):
        if not math.isfinite(self.target):
            raise ValidationError(f"target for {self.name!r} must be finite")
        if not math.isfinite(self.tolerance) or self.tolerance <= 0:
            raise ValidationError(
                f"tolerance for {self.name!r} must be positive and finite"
            )


@dataclass(frozen=True)
class SynthesisTargets:
    """The full set of property targets one synthesis run must hit."""

    properties: tuple[PropertyTarget, ...]

    def __post_init__(self):
        names = [p.name for p in self.properties]
        if not names:
            raise ValidationError("synthesis needs at least one target")
        if len(set(names)) != len(names):
            raise ValidationError("duplicate property targets")

    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.properties)

    def get(self, name: str) -> PropertyTarget:
        for prop in self.properties:
            if prop.name == name:
                return prop
        raise ValidationError(f"no target for property {name!r}")

    def to_dict(self) -> dict:
        return {
            "properties": [
                {"name": p.name, "target": p.target, "tolerance": p.tolerance}
                for p in self.properties
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> SynthesisTargets:
        return cls(
            properties=tuple(
                PropertyTarget(**entry) for entry in payload["properties"]
            )
        )


def extract_targets(
    results: list[ExperimentResult] | ExperimentResult,
    *,
    properties: tuple[str, ...] | None = None,
    tolerances: dict[str, float] | None = None,
) -> SynthesisTargets:
    """Targets measured from a telemetry corpus entry (trace fitting).

    ``tolerances`` overrides the default decade tolerance per property.
    """
    measured = measure_properties(results, properties)
    overrides = tolerances or {}
    return SynthesisTargets(
        properties=tuple(
            PropertyTarget(
                name=name,
                target=value,
                tolerance=float(overrides.get(name, default_tolerance(name))),
            )
            for name, value in measured.items()
        )
    )


# ---------------------------------------------------------------------------
# Simulation context
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SynthesisContext:
    """The simulated environment synthesis verifies against.

    Clone synthesis must measure the clone under the *same* conditions the
    template ran under — same SKU, concurrency, and sampling cadence —
    otherwise property mismatches would conflate spec differences with
    environment differences.  ``data_group`` is pinned to 0 so time-of-day
    interference never enters the comparison.
    """

    sku: SKU
    terminals: int = 8
    duration_s: float = 600.0
    sample_interval_s: float = 10.0
    plan_observations: int = 3

    @classmethod
    def from_result(cls, result: ExperimentResult) -> SynthesisContext:
        """The context a template experiment was recorded under."""
        duration = result.metadata.get(
            "duration_s", result.n_samples * result.sample_interval_s
        )
        return cls(
            sku=result.sku,
            terminals=result.terminals,
            duration_s=float(duration),
            sample_interval_s=float(result.sample_interval_s),
            plan_observations=int(result.metadata.get("plan_observations", 3)),
        )


def simulate_spec(
    spec: WorkloadSpec,
    context: SynthesisContext,
    *,
    seeds: list[int],
    jobs: int | None = None,
    cache=None,
) -> list[ExperimentResult]:
    """Simulate ``spec`` once per seed through the grid executor.

    Routing through :func:`execute_grid` means synthesized corpora get the
    same content-addressed caching, fan-out, and retry semantics as the
    catalog corpora — a synthesized spec is just another workload.
    """
    tasks = [
        GridTask(
            index=i,
            workload=spec,
            sku=context.sku,
            terminals=context.terminals,
            run_index=i,
            data_group=0,
            duration_s=context.duration_s,
            sample_interval_s=context.sample_interval_s,
            plan_observations=context.plan_observations,
            seed=int(seed),
        )
        for i, seed in enumerate(seeds)
    ]
    results = execute_grid(tasks, jobs=jobs, cache=as_cache(cache))
    return [r for r in results if r is not None]


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PropertyCheck:
    """One verified property: target vs achieved, in log10 space."""

    name: str
    target: float
    achieved: float
    tolerance: float
    passed: bool

    @property
    def error(self) -> float:
        """Signed decade error (achieved minus target)."""
        return self.achieved - self.target

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "achieved": self.achieved,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> PropertyCheck:
        return cls(**payload)


@dataclass(frozen=True)
class SynthesisReport:
    """Structured outcome of :func:`verify_synthesis`."""

    workload: str
    checks: tuple[PropertyCheck, ...]
    n_runs: int
    passed: bool

    @property
    def failures(self) -> tuple[PropertyCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "checks": [check.to_dict() for check in self.checks],
            "n_runs": self.n_runs,
            "passed": self.passed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> SynthesisReport:
        return cls(
            workload=payload["workload"],
            checks=tuple(
                PropertyCheck.from_dict(c) for c in payload["checks"]
            ),
            n_runs=int(payload["n_runs"]),
            passed=bool(payload["passed"]),
        )

    def render(self) -> str:
        """Human-readable table: linear values, decade errors, verdicts."""
        rows = [
            [
                check.name,
                10.0**check.target,
                10.0**check.achieved,
                check.error,
                check.tolerance,
                "pass" if check.passed else "FAIL",
            ]
            for check in self.checks
        ]
        table = format_table(
            ["property", "target", "achieved", "err(dec)", "tol(dec)", ""],
            rows,
            float_format="{:.4g}",
        )
        verdict = "PASSED" if self.passed else "FAILED"
        return (
            f"synthesis verification for {self.workload!r} "
            f"({self.n_runs} runs): {verdict}\n{table}"
        )


def verify_synthesis(
    spec: WorkloadSpec,
    targets: SynthesisTargets,
    *,
    context: SynthesisContext,
    seed: int = 0,
    n_runs: int = 2,
    jobs: int | None = None,
    cache=None,
) -> SynthesisReport:
    """Simulate ``spec`` and check every target within its tolerance.

    The verification seeds are derived from a stream disjoint from the
    refinement loop's calibration stream, so passing verification means
    the spec's telemetry distribution — not one lucky noise draw — hits
    the targets.
    """
    if n_runs < 1:
        raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
    with span(
        "synth.verify",
        attrs={"workload": spec.name, "n_runs": n_runs, "seed": seed},
    ):
        results = simulate_spec(
            spec,
            context,
            seeds=_seed_stream(seed, "verify", n_runs),
            jobs=jobs,
            cache=cache,
        )
        achieved = measure_properties(results, targets.names())
        checks = tuple(
            PropertyCheck(
                name=prop.name,
                target=prop.target,
                achieved=achieved[prop.name],
                tolerance=prop.tolerance,
                passed=bool(
                    abs(achieved[prop.name] - prop.target) <= prop.tolerance
                ),
            )
            for prop in targets.properties
        )
    report = SynthesisReport(
        workload=spec.name,
        checks=checks,
        n_runs=len(results),
        passed=all(check.passed for check in checks),
    )
    failures = report.failures
    if failures:
        get_metrics().counter("synth.verify_failures_total").inc(len(failures))
        logger.debug(
            "synthesis verification for %s failed %d/%d properties: %s",
            spec.name,
            len(failures),
            len(checks),
            ", ".join(c.name for c in failures),
        )
    return report


# ---------------------------------------------------------------------------
# Spec-space sampler
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SpecSpace:
    """Sampling ranges over target summary statistics.

    Scale-type knobs (costs, volumes, cardinalities) are drawn
    log-uniformly over ``(log10 lo, log10 hi)`` decades; shape-type knobs
    (fractions, skew) uniformly over linear ranges.  The defaults bracket
    the six catalog workloads with room on both sides.
    """

    n_transaction_types: tuple[int, int] = (2, 10)
    read_fraction: tuple[float, float] = (0.0, 1.0)
    cpu_ms_log10: tuple[float, float] = (-0.8, 3.3)
    logical_reads_log10: tuple[float, float] = (0.5, 4.3)
    write_read_ratio: tuple[float, float] = (0.05, 0.6)
    rows_touched_log10: tuple[float, float] = (0.0, 5.5)
    scan_amplification_log10: tuple[float, float] = (0.0, 2.5)
    row_size_bytes_log10: tuple[float, float] = (1.3, 3.0)
    table_cardinality_log10: tuple[float, float] = (4.0, 9.0)
    plan_complexity: tuple[float, float] = (1.0, 10.0)
    memory_grant_mb_log10: tuple[float, float] = (0.0, 3.3)
    locks_acquired_log10: tuple[float, float] = (0.3, 3.5)
    working_set_gb_log10: tuple[float, float] = (0.0, 2.5)
    access_skew: tuple[float, float] = (0.0, 1.0)
    parallel_fraction: tuple[float, float] = (0.35, 0.97)
    contention_factor: tuple[float, float] = (0.0, 0.9)
    checkpoint_intensity: tuple[float, float] = (0.0, 0.8)
    hot_spot_affinity: tuple[float, float] = (0.0, 0.6)
    base_noise: tuple[float, float] = (0.02, 0.06)


DEFAULT_SPEC_SPACE = SpecSpace()


def _uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    return float(rng.uniform(bounds[0], bounds[1]))


def _log_uniform(rng: np.random.Generator, decades: tuple[float, float]) -> float:
    return float(10.0 ** rng.uniform(decades[0], decades[1]))


def sample_spec(
    index: int,
    *,
    seed: int = 0,
    space: SpecSpace = DEFAULT_SPEC_SPACE,
) -> WorkloadSpec:
    """Draw the ``index``-th spec of the seeded spec-space stream.

    The generator is keyed by ``(seed, index)``, never by call order, so
    ``sample_spec(i, seed=s)`` equals ``sample_specs(n, seed=s)[i]`` for
    any ``n > i`` — and any parallel partitioning of the index range
    produces bit-identical specs.
    """
    if index < 0:
        raise ValidationError(f"index must be >= 0, got {index}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng([_STREAM_IDS["sample"], int(seed), int(index)])
    lo, hi = space.n_transaction_types
    n_txns = int(rng.integers(lo, hi + 1))
    read_fraction = _uniform(rng, space.read_fraction)
    weights = rng.gamma(1.5, size=n_txns) + 1e-3

    transactions = []
    for j in range(n_txns):
        read_only = bool(rng.random() < read_fraction)
        logical_reads = _log_uniform(rng, space.logical_reads_log10)
        logical_writes = (
            0.0
            if read_only
            else logical_reads * _uniform(rng, space.write_read_ratio)
        )
        rows_touched = _log_uniform(rng, space.rows_touched_log10)
        rows_scanned = rows_touched * _log_uniform(
            rng, space.scan_amplification_log10
        )
        transactions.append(
            TransactionType(
                name=f"txn{j:02d}",
                weight=float(weights[j]),
                read_only=read_only,
                cpu_ms=_log_uniform(rng, space.cpu_ms_log10),
                logical_reads=logical_reads,
                logical_writes=logical_writes,
                rows_touched=rows_touched,
                rows_scanned=rows_scanned,
                row_size_bytes=_log_uniform(rng, space.row_size_bytes_log10),
                table_cardinality=_log_uniform(
                    rng, space.table_cardinality_log10
                ),
                plan_complexity=_uniform(rng, space.plan_complexity),
                memory_grant_mb=_log_uniform(rng, space.memory_grant_mb_log10),
                locks_acquired=_log_uniform(rng, space.locks_acquired_log10),
                hot_spot_affinity=(
                    0.0 if read_only else _uniform(rng, space.hot_spot_affinity)
                ),
            )
        )
    has_writers = any(not t.read_only for t in transactions)
    spec = WorkloadSpec(
        name=f"synth-{seed}-{index:05d}",
        workload_type=_mix_type(transactions),
        tables=n_txns + int(rng.integers(1, 8)),
        columns=0,
        indexes=0,
        transactions=tuple(transactions),
        working_set_gb=_log_uniform(rng, space.working_set_gb_log10),
        parallel_fraction=_uniform(rng, space.parallel_fraction),
        contention_factor=(
            _uniform(rng, space.contention_factor) if has_writers else 0.0
        ),
        checkpoint_intensity=(
            _uniform(rng, space.checkpoint_intensity) if has_writers else 0.0
        ),
        access_skew=_uniform(rng, space.access_skew),
        base_noise=_uniform(rng, space.base_noise),
    )
    columns = spec.tables * int(rng.integers(6, 14))
    indexes = spec.tables * int(rng.integers(1, 4))
    return replace(spec, columns=columns, indexes=indexes)


def sample_specs(
    n: int,
    *,
    seed: int = 0,
    space: SpecSpace = DEFAULT_SPEC_SPACE,
    jobs: int | None = None,
) -> list[WorkloadSpec]:
    """``n`` specs from the seeded spec-space stream.

    ``jobs`` is accepted for signature symmetry with the corpus builders;
    sampling costs microseconds per spec, so it always runs in-process —
    the jobs-invariance contract holds because each spec depends only on
    ``(seed, index)``, never on worker scheduling.
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    del jobs  # index-keyed sampling is scheduling-independent by design
    with span("synth.sample", attrs={"n": n, "seed": seed}):
        specs = [sample_spec(i, seed=seed, space=space) for i in range(n)]
    get_metrics().counter("synth.specs_generated_total").inc(n)
    return specs


def _mix_type(transactions: list[TransactionType]) -> WorkloadType:
    """Section 2 category from the mix's read-only weight share."""
    total = sum(t.weight for t in transactions)
    read_share = sum(t.weight for t in transactions if t.read_only) / total
    if read_share >= 0.95:
        return WorkloadType.ANALYTICAL
    if read_share <= 0.2:
        return WorkloadType.TRANSACTIONAL
    return WorkloadType.MIXED


# ---------------------------------------------------------------------------
# Trace fitting: invert the planner/engine formulas into an initial spec
# ---------------------------------------------------------------------------
def _plan_medians(
    results: list[ExperimentResult],
) -> tuple[list[str], dict[str, dict[str, float]]]:
    """Per-transaction medians of the invertible plan columns.

    Returns transaction names in first-appearance order and, per name, the
    median of each ``PLAN_PROPERTIES`` column over that transaction's
    observed plan rows.  Medians cancel the planner's multiplicative
    lognormal jitter (median 1.0) where means would carry its bias.
    """
    order: list[str] = []
    rows_by_txn: dict[str, list[np.ndarray]] = {}
    for result in results:
        for row, name in zip(result.plan_matrix, result.plan_txn_names):
            if name not in rows_by_txn:
                order.append(name)
                rows_by_txn[name] = []
            rows_by_txn[name].append(row)
    medians: dict[str, dict[str, float]] = {}
    for name, rows in rows_by_txn.items():
        stacked = np.asarray(rows)
        medians[name] = {
            column: float(
                np.median(stacked[:, PLAN_FEATURES.index(column)])
            )
            for column in PLAN_PROPERTIES
        }
    return order, medians


def spec_from_trace(
    template: list[ExperimentResult] | ExperimentResult,
    *,
    name: str | None = None,
) -> WorkloadSpec:
    """Initial spec reconstructed from a template's telemetry.

    Per-transaction cost fields come from inverting the planner's
    plan-statistic formulas on per-transaction medians; workload-level
    knobs (working set, read/write split, lock footprint, checkpoint
    intensity, parallel fraction) come from inverting the engine's
    resource-channel formulas on the telemetry means.  Knobs the
    telemetry cannot identify (contention strength, hot-spot affinity,
    access skew) start at neutral values and are closed by
    :func:`refine`.
    """
    if isinstance(template, ExperimentResult):
        template = [template]
    if not template:
        raise ValidationError("spec_from_trace needs at least one result")
    first = template[0]
    sku = first.sku
    with span("synth.fit_trace", attrs={"template": first.workload_name}):
        order, medians = _plan_medians(template)
        weights = first.per_txn_weights
        resource = np.concatenate(
            [r.resource_series for r in template], axis=0
        )

        def channel_mean(channel: str) -> float:
            return float(resource[:, RESOURCE_FEATURES.index(channel)].mean())

        throughput = float(np.mean([r.throughput for r in template]))

        # -- per-transaction inversion (planner formulas) -------------------
        fields: dict[str, dict[str, float]] = {}
        for txn_name in order:
            med = medians[txn_name]
            rows_scanned = max(med["EstimatedRowsRead"], 0.0)
            complexity = float(
                np.clip((med["CachedPlanSize"] - 16.0) / 26.0, 1.0, 10.0)
            )
            fields[txn_name] = {
                "rows_touched": max(med["StatementEstRows"], 0.0),
                "rows_scanned": rows_scanned,
                "row_size_bytes": max(med["AvgRowSize"], 1.0),
                "table_cardinality": max(med["TableCardinality"], 1.0),
                "plan_complexity": complexity,
                "memory_grant_mb": max(med["SerialDesiredMemory"], 0.0) / 1024.0,
                "cpu_ms": max(
                    med["EstimateCPU"]
                    / (0.0012 * max(rows_scanned, 1.0) ** 0.1),
                    1e-3,
                ),
                # EstimateIO = 0.0008 * (reads + 2 * writes): the combined
                # IO volume; the read/write split is decided globally below.
                "io_units": max(med["EstimateIO"], 0.0) / 0.0008,
            }

        # -- read/write split from the READ_WRITE_RATIO channel -------------
        # With lw_j = beta * io_j / 2 and lr_j = (1 - beta) * io_j the mix
        # ratio R = tput*E[lr] / (tput*E[lw] + 1) is solved for beta.
        mix_io = sum(
            weights[n] * fields[n]["io_units"] for n in order
        )
        ratio = max(channel_mean("READ_WRITE_RATIO"), _LOG_EPS)
        volume = mix_io * throughput
        beta = 0.0
        if volume > 0:
            beta = (volume - ratio) / (volume * (ratio / 2.0 + 1.0))
        beta = float(np.clip(beta, 0.0, 0.95))
        # Only snap to a pure read-only mix when the observed ratio is
        # indistinguishable from the zero-write ratio tput*E[reads]: for
        # read-mostly workloads with large read volumes, even a tiny write
        # share shifts the ratio by decades and must be preserved.
        if ratio >= 0.98 * volume:
            beta = 0.0

        # -- lock footprint from LOCK_REQ_ABS -------------------------------
        locks_per_txn = channel_mean("LOCK_REQ_ABS") / max(throughput, _LOG_EPS)

        # -- working set and skew from memory/IO channels -------------------
        pool_gb = sku.memory_gb * BUFFER_POOL_FRACTION
        grant_gb = (
            sum(weights[n] * fields[n]["memory_grant_mb"] for n in order)
            / 1024.0
        )
        workspace_gb = sku.memory_gb * (1.0 - BUFFER_POOL_FRACTION)
        grant_pressure = min(4.0 * grant_gb / workspace_gb, 1.5)
        spill = 1.0 + max(0.0, grant_pressure - 1.0)
        checkpoint = _estimate_checkpoint_intensity(resource)
        write_factor = WRITE_BASE_FACTOR + WRITE_CHECKPOINT_FACTOR * checkpoint
        mix_reads = (1.0 - beta) * mix_io
        mix_writes = beta * mix_io / 2.0
        # EstimatedPagesCached reports min(ws, pool) directly; when it is
        # saturated the working set is instead recovered from the miss
        # ratio implied by the IOPS channel (at a neutral initial skew).
        cached_gb = (
            float(
                np.mean(
                    np.concatenate([r.plan_matrix for r in template], axis=0)[
                        :, PLAN_FEATURES.index("EstimatedPagesCached")
                    ]
                )
            )
            * PAGE_KB
            / (1024.0 * 1024.0)
        )
        access_skew = 0.3
        if cached_gb < 0.98 * pool_gb:
            working_set_gb = max(cached_gb, 1e-2)
            access_skew = 0.0
        else:
            iops_mean = channel_mean("IOPS_TOTAL")
            miss = 0.0
            if mix_reads > 0:
                miss = (
                    iops_mean / max(throughput, _LOG_EPS) / spill
                    - mix_writes * write_factor
                ) / mix_reads
            if miss <= 0.0045:
                working_set_gb = 1.05 * pool_gb
            else:
                exponent = 1.0 + 2.5 * access_skew
                shortfall = float(
                    np.clip(miss ** (1.0 / exponent), 0.0, 0.995)
                )
                working_set_gb = pool_gb / (1.0 - shortfall)

        # -- parallel fraction from CPU_UTILIZATION / throughput ------------
        cpu_seconds = (
            sum(weights[n] * fields[n]["cpu_ms"] for n in order) / 1000.0
        )
        speedup_needed = throughput * cpu_seconds
        if 1.01 <= speedup_needed <= sku.cpus * 0.999 and sku.cpus > 1:
            parallel = (1.0 - 1.0 / speedup_needed) / (1.0 - 1.0 / sku.cpus)
        else:
            parallel = 0.7
        parallel = float(np.clip(parallel, 0.3, 0.98))

        transactions = []
        for txn_name in order:
            f = fields[txn_name]
            io = f["io_units"]
            logical_writes = beta * io / 2.0
            transactions.append(
                TransactionType(
                    name=txn_name,
                    weight=float(weights[txn_name]),
                    read_only=logical_writes <= 0.0,
                    cpu_ms=f["cpu_ms"],
                    logical_reads=(1.0 - beta) * io,
                    logical_writes=logical_writes,
                    rows_touched=f["rows_touched"],
                    rows_scanned=f["rows_scanned"],
                    row_size_bytes=f["row_size_bytes"],
                    table_cardinality=f["table_cardinality"],
                    plan_complexity=f["plan_complexity"],
                    memory_grant_mb=f["memory_grant_mb"],
                    locks_acquired=(
                        locks_per_txn * io / mix_io
                        if mix_io > 0
                        else locks_per_txn
                    ),
                    hot_spot_affinity=0.0,
                )
            )
        spec = WorkloadSpec(
            name=name or f"{first.workload_name}-clone",
            workload_type=_mix_type(transactions),
            # Schema statistics are not observable from telemetry; the
            # placeholders scale with mix size and do not enter the engine.
            tables=len(transactions),
            columns=8 * len(transactions),
            indexes=2 * len(transactions),
            transactions=tuple(transactions),
            working_set_gb=float(working_set_gb),
            parallel_fraction=parallel,
            contention_factor=0.05 if beta > 0 else 0.0,
            checkpoint_intensity=float(checkpoint if beta > 0 else 0.0),
            access_skew=float(access_skew),
            base_noise=0.04,
        )
    get_metrics().counter("synth.specs_generated_total").inc()
    return spec


def _estimate_checkpoint_intensity(resource: np.ndarray) -> float:
    """Arrival-pattern knob from IOPS burstiness.

    Checkpoint waves lift roughly a fifth of the IOPS samples by
    ``1 + 1.6 * intensity``; the p90/median ratio recovers the amplitude
    after discounting the channel's baseline AR(1)/phase variation.
    """
    iops = resource[:, RESOURCE_FEATURES.index("IOPS_TOTAL")]
    med = float(np.median(iops))
    if med <= 0:
        return 0.0
    ratio = float(np.quantile(iops, 0.9)) / med
    return float(np.clip((ratio - 1.25) / 1.6, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RefineSettings:
    """Bounds and gains of the refinement loop."""

    max_iters: int = 8
    margin: float = 0.5  # stop when all |err| <= margin * tolerance
    damping: float = 0.7  # fraction of each computed correction applied
    ratio_clip: float = 4.0  # max per-iteration multiplicative field change

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValidationError("max_iters must be >= 0")
        if not 0.0 < self.margin <= 1.0:
            raise ValidationError("margin must be in (0, 1]")
        if not 0.0 < self.damping <= 1.0:
            raise ValidationError("damping must be in (0, 1]")


#: Plan property -> the transaction field it steers (linear response).
_PLAN_KNOBS = {
    "plan:StatementEstRows": "rows_touched",
    "plan:EstimatedRowsRead": "rows_scanned",
    "plan:AvgRowSize": "row_size_bytes",
    "plan:TableCardinality": "table_cardinality",
    "plan:SerialDesiredMemory": "memory_grant_mb",
    "plan:EstimateCPU": "cpu_ms",
}


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesized spec together with its provenance."""

    spec: WorkloadSpec
    targets: SynthesisTargets
    refine_iterations: int
    residual: float = math.nan  # max |error| / tolerance after refinement
    report: SynthesisReport | None = None


def refine(
    spec: WorkloadSpec,
    targets: SynthesisTargets,
    *,
    context: SynthesisContext,
    seed: int = 0,
    settings: RefineSettings | None = None,
    jobs: int | None = None,
    cache=None,
) -> tuple[WorkloadSpec, int, float]:
    """Iteratively adjust spec knobs until every property is in-margin.

    Each iteration simulates one calibration run (a fresh seed per
    iteration, all derived from ``seed``, so the loop never overfits one
    noise draw and remains deterministic end to end), measures the decade
    errors, and applies damped multiplicative corrections to the knob each
    property responds to.  Returns ``(best_spec, iterations, residual)``
    where ``best_spec`` minimizes the worst tolerance-normalized error
    seen and ``residual`` is that score.
    """
    settings = settings or RefineSettings()
    cal_seeds = _seed_stream(seed, "calibration", settings.max_iters + 1)
    metrics = get_metrics()
    best_spec, best_score = spec, math.inf
    iterations = 0
    with span(
        "synth.refine",
        attrs={"workload": spec.name, "max_iters": settings.max_iters},
    ):
        for iteration in range(settings.max_iters + 1):
            results = simulate_spec(
                spec,
                context,
                seeds=[cal_seeds[iteration]],
                jobs=jobs,
                cache=cache,
            )
            achieved = measure_properties(results, targets.names())
            errors = {
                prop.name: achieved[prop.name] - prop.target
                for prop in targets.properties
            }
            score = max(
                abs(errors[prop.name]) / prop.tolerance
                for prop in targets.properties
            )
            if score < best_score:
                best_spec, best_score = spec, score
            if score <= settings.margin or iteration == settings.max_iters:
                break
            iterations += 1
            metrics.counter("synth.refine_iters_total").inc()
            spec = _apply_refinements(
                spec, errors, targets, context, results, settings
            )
            logger.debug(
                "refine %s iter %d: worst normalized error %.2f",
                spec.name,
                iteration + 1,
                score,
            )
    return best_spec, iterations, best_score


def _scale_field(
    spec: WorkloadSpec, fields: tuple[str, ...], ratio: float
) -> WorkloadSpec:
    """Multiply transaction cost fields by ``ratio`` across the mix."""
    transactions = tuple(
        replace(
            txn,
            **{name: getattr(txn, name) * ratio for name in fields},
        )
        for txn in spec.transactions
    )
    return replace(spec, transactions=transactions)


def _apply_refinements(
    spec: WorkloadSpec,
    errors: dict[str, float],
    targets: SynthesisTargets,
    context: SynthesisContext,
    results: list[ExperimentResult],
    settings: RefineSettings,
) -> WorkloadSpec:
    """One damped correction step over every out-of-margin property."""

    def needs(name: str) -> bool:
        if name not in errors:
            return False
        prop = targets.get(name)
        return abs(errors[name]) > settings.margin * prop.tolerance

    def ratio_for(name: str, gain: float = 1.0) -> float:
        # A property that overshoots by ``err`` decades wants its field
        # scaled by 10**(-err); damping and clipping keep steps stable.
        raw = 10.0 ** (-errors[name] * settings.damping * gain)
        return float(np.clip(raw, 1.0 / settings.ratio_clip, settings.ratio_clip))

    # -- plan marginals: direct, near-linear field response -----------------
    for name, field_name in _PLAN_KNOBS.items():
        if needs(name):
            spec = _scale_field(spec, (field_name,), ratio_for(name))
    if needs("plan:EstimateIO"):
        spec = _scale_field(
            spec,
            ("logical_reads", "logical_writes"),
            ratio_for("plan:EstimateIO"),
        )
    if needs("plan:CachedPlanSize"):
        # CachedPlanSize = 16 + 26 * complexity: invert the affine map.
        ratio = ratio_for("plan:CachedPlanSize")
        transactions = tuple(
            replace(
                txn,
                plan_complexity=float(
                    np.clip(
                        ((16.0 + 26.0 * txn.plan_complexity) * ratio - 16.0)
                        / 26.0,
                        1.0,
                        10.0,
                    )
                ),
            )
            for txn in spec.transactions
        )
        spec = replace(spec, transactions=transactions)

    # -- read/write balance -------------------------------------------------
    has_writers = any(not t.read_only for t in spec.transactions)
    if needs("resource:READ_WRITE_RATIO") and has_writers:
        # Ratio too high (err > 0) means too few writes: scale writes up.
        raw = 10.0 ** (errors["resource:READ_WRITE_RATIO"] * settings.damping)
        ratio = float(
            np.clip(raw, 1.0 / settings.ratio_clip, settings.ratio_clip)
        )
        spec = _scale_field(spec, ("logical_writes",), ratio)

    # -- lock footprint -----------------------------------------------------
    if needs("resource:LOCK_REQ_ABS"):
        spec = _scale_field(
            spec, ("locks_acquired",), ratio_for("resource:LOCK_REQ_ABS")
        )

    # -- working set (memory residency) -------------------------------------
    if needs("resource:MEM_UTILIZATION"):
        # Residency contributes 75% of the channel and saturates at the
        # pool size, so the working set moves with extra gain.
        ratio = ratio_for("resource:MEM_UTILIZATION", gain=1.5)
        spec = replace(
            spec,
            working_set_gb=float(
                np.clip(spec.working_set_gb * ratio, 1e-2, 1e4)
            ),
        )

    # -- IO volume: access skew, falling back to checkpoint intensity -------
    if needs("resource:IOPS_TOTAL"):
        err = errors["resource:IOPS_TOTAL"]
        buffer_model = BufferPoolModel(spec, context.sku)
        shortfall = max(
            0.0, 1.0 - buffer_model.pool_gb() / spec.working_set_gb
        )
        if 0.0 < shortfall < 1.0 and spec.mix_mean("logical_reads") > 0:
            # log10(miss) = (1 + 2.5 * skew) * log10(shortfall): solve the
            # skew delta that cancels the decade error.
            log_shortfall = math.log10(shortfall)
            if log_shortfall < -1e-9:
                delta = err / (2.5 * abs(log_shortfall))
                delta = float(np.clip(delta * settings.damping, -0.2, 0.2))
                spec = replace(
                    spec,
                    access_skew=float(
                        np.clip(spec.access_skew + delta, 0.0, 1.0)
                    ),
                )
        elif spec.mix_mean("logical_writes") > 0:
            # Fully resident working set: reads sit at the miss floor, so
            # the write amortization factor is the only remaining IO knob.
            factor = WRITE_BASE_FACTOR + (
                WRITE_CHECKPOINT_FACTOR * spec.checkpoint_intensity
            )
            wanted = factor * 10.0 ** (-err * settings.damping)
            intensity = (wanted - WRITE_BASE_FACTOR) / WRITE_CHECKPOINT_FACTOR
            spec = replace(
                spec,
                checkpoint_intensity=float(np.clip(intensity, 0.0, 1.0)),
            )

    # -- throughput: contention or serial fraction, by binding bound --------
    if needs("perf:throughput"):
        err = errors["perf:throughput"]
        bottleneck = results[0].bottleneck if results else "concurrency"
        contended = (
            context.terminals > 1
            and spec.contention_factor > 0
            and has_writers
        )
        if bottleneck == "concurrency" and contended:
            # Too slow (err < 0): weaken contention-driven wait inflation.
            raw = 10.0 ** (err * settings.damping)
            ratio = float(
                np.clip(raw, 1.0 / settings.ratio_clip, settings.ratio_clip)
            )
            spec = replace(
                spec,
                contention_factor=float(
                    np.clip(max(spec.contention_factor, 1e-3) * ratio, 0.0, 3.0)
                ),
            )
        elif bottleneck in ("cpu", "concurrency"):
            # Amdahl: throughput scales like 1 / serial_fraction once cores
            # are plentiful, so the serial fraction moves with the error.
            serial = 1.0 - spec.parallel_fraction
            raw = 10.0 ** (err * settings.damping)
            serial = float(np.clip(serial * raw, 5e-3, 0.7))
            spec = replace(spec, parallel_fraction=1.0 - serial)
        # io/log-bound misses are handled by the IO property knobs above.

    return spec


# ---------------------------------------------------------------------------
# End-to-end drivers
# ---------------------------------------------------------------------------
def synthesize(
    targets: SynthesisTargets,
    *,
    initial_spec: WorkloadSpec,
    context: SynthesisContext,
    seed: int = 0,
    settings: RefineSettings | None = None,
    verify: bool = True,
    verify_runs: int = 2,
    jobs: int | None = None,
    cache=None,
) -> SynthesisResult:
    """Refine ``initial_spec`` toward ``targets`` and optionally verify."""
    spec, iterations, residual = refine(
        spec=initial_spec,
        targets=targets,
        context=context,
        seed=seed,
        settings=settings,
        jobs=jobs,
        cache=cache,
    )
    report = None
    if verify:
        report = verify_synthesis(
            spec,
            targets,
            context=context,
            seed=seed,
            n_runs=verify_runs,
            jobs=jobs,
            cache=cache,
        )
    return SynthesisResult(
        spec=spec,
        targets=targets,
        refine_iterations=iterations,
        residual=residual,
        report=report,
    )


def synthesize_clone(
    template: list[ExperimentResult] | ExperimentResult,
    *,
    name: str | None = None,
    context: SynthesisContext | None = None,
    seed: int = 0,
    settings: RefineSettings | None = None,
    tolerances: dict[str, float] | None = None,
    verify: bool = True,
    verify_runs: int = 2,
    jobs: int | None = None,
    cache=None,
) -> SynthesisResult:
    """Synthesize a workload that looks like the template's telemetry.

    The PBench-style contract: the returned spec's simulated telemetry
    matches the template's summary statistics within the declared
    tolerances, and the similarity pipeline ranks it closest to its
    template among the catalog references.
    """
    if isinstance(template, ExperimentResult):
        template = [template]
    if context is None:
        context = SynthesisContext.from_result(template[0])
    targets = extract_targets(template, tolerances=tolerances)
    initial = spec_from_trace(template, name=name)
    return synthesize(
        targets,
        initial_spec=initial,
        context=context,
        seed=seed,
        settings=settings,
        verify=verify,
        verify_runs=verify_runs,
        jobs=jobs,
        cache=cache,
    )


def calibration_targets(
    spec: WorkloadSpec,
    *,
    context: SynthesisContext,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
    jobs: int | None = None,
    cache=None,
) -> SynthesisTargets:
    """Targets measured from one calibration run of ``spec`` itself.

    For sampled specs the target statistics *are* the spec's own simulated
    summary statistics; verifying against them (with disjoint seeds) then
    asserts cross-seed stability of the synthesized workload's telemetry
    distribution.
    """
    results = simulate_spec(
        spec,
        context,
        seeds=_seed_stream(seed, "calibration", 1),
        jobs=jobs,
        cache=cache,
    )
    return extract_targets(results, tolerances=tolerances)
