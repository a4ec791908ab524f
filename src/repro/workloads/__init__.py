"""BenchBase-like workload execution and telemetry simulator.

This package stands in for the paper's testbed (BenchBase driving TPC-C,
TPC-H, TPC-DS, Twitter, and YCSB on SQL Server) and produces the exact data
the prediction pipeline consumes:

- per-experiment **resource-utilization time-series** (7 features sampled at
  a fixed interval, Table 2 left column),
- per-query **query-plan statistics** (22 features, Table 2 right column),
- **performance metrics** (throughput, overall and per-transaction latency).

The simulator is built from causal component models (CPU scalability,
buffer-pool hit ratios, lock contention, query planning) so that the
statistical structure the paper's conclusions rest on — workload-specific
feature signatures, sub-linear CPU scaling, time-of-day noise, memory
ceilings — emerges from the model rather than being painted on.
"""

from repro.workloads.features import (
    ALL_FEATURES,
    PLAN_FEATURES,
    RESOURCE_FEATURES,
    feature_index,
    feature_kind,
)
from repro.workloads.sku import SKU, paper_cpu_skus, sku_s1, sku_s2, production_sku
from repro.workloads.spec import TransactionType, WorkloadSpec, WorkloadType
from repro.workloads.catalog import (
    WORKLOAD_NAMES,
    production_workload,
    standard_workloads,
    tpcc,
    tpcds,
    tpch,
    twitter,
    workload_by_name,
    ycsb,
)
from repro.workloads.runner import ExperimentResult, ExperimentRunner
from repro.workloads.gridexec import (
    GridReport,
    GridTask,
    RetryPolicy,
    enumerate_grid,
    execute_grid,
)
from repro.workloads.cache import (
    CacheVerification,
    CorpusCache,
    task_fingerprint,
)
from repro.workloads.faults import (
    FaultPlan,
    KillSwitch,
    TaskExceptionInjector,
    TelemetryFaultInjector,
    TornWriteInjector,
    WorkerDeathInjector,
)
from repro.workloads.sampling import (
    augmented_throughputs,
    random_downsample,
    systematic_subexperiments,
)
from repro.workloads.repository import (
    ExperimentRepository,
    repositories_equal,
    result_from_dict,
    result_to_dict,
    results_equal,
)
from repro.workloads.corpus import (
    expand_subexperiments,
    paper_corpus,
    production_corpus,
    run_experiments,
    scaling_corpus,
)
from repro.workloads.traces import (
    experiment_from_traces,
    plan_rows_from_csv,
    plan_rows_to_csv,
    resource_series_from_csv,
    resource_series_to_csv,
)
from repro.workloads.mixer import blend_workloads, reweight_workload
from repro.workloads.synth import (
    DEFAULT_SPEC_SPACE,
    PropertyCheck,
    PropertyTarget,
    RefineSettings,
    SpecSpace,
    SynthesisContext,
    SynthesisReport,
    SynthesisResult,
    SynthesisTargets,
    calibration_targets,
    extract_targets,
    measure_properties,
    refine,
    sample_spec,
    sample_specs,
    simulate_spec,
    spec_from_trace,
    synthesize,
    synthesize_clone,
    verify_synthesis,
)

__all__ = [
    "ALL_FEATURES",
    "PLAN_FEATURES",
    "RESOURCE_FEATURES",
    "feature_index",
    "feature_kind",
    "SKU",
    "paper_cpu_skus",
    "sku_s1",
    "sku_s2",
    "production_sku",
    "TransactionType",
    "WorkloadSpec",
    "WorkloadType",
    "WORKLOAD_NAMES",
    "standard_workloads",
    "workload_by_name",
    "tpcc",
    "tpch",
    "tpcds",
    "twitter",
    "ycsb",
    "production_workload",
    "ExperimentResult",
    "ExperimentRunner",
    "GridReport",
    "GridTask",
    "RetryPolicy",
    "enumerate_grid",
    "execute_grid",
    "CacheVerification",
    "CorpusCache",
    "task_fingerprint",
    "FaultPlan",
    "KillSwitch",
    "TaskExceptionInjector",
    "TelemetryFaultInjector",
    "TornWriteInjector",
    "WorkerDeathInjector",
    "systematic_subexperiments",
    "random_downsample",
    "augmented_throughputs",
    "ExperimentRepository",
    "repositories_equal",
    "result_from_dict",
    "result_to_dict",
    "results_equal",
    "run_experiments",
    "expand_subexperiments",
    "paper_corpus",
    "scaling_corpus",
    "production_corpus",
    "experiment_from_traces",
    "resource_series_to_csv",
    "resource_series_from_csv",
    "plan_rows_to_csv",
    "plan_rows_from_csv",
    "blend_workloads",
    "reweight_workload",
    "DEFAULT_SPEC_SPACE",
    "PropertyCheck",
    "PropertyTarget",
    "RefineSettings",
    "SpecSpace",
    "SynthesisContext",
    "SynthesisReport",
    "SynthesisResult",
    "SynthesisTargets",
    "calibration_targets",
    "extract_targets",
    "measure_properties",
    "refine",
    "sample_spec",
    "sample_specs",
    "simulate_spec",
    "spec_from_trace",
    "synthesize",
    "synthesize_clone",
    "verify_synthesis",
]
