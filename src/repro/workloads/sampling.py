"""Sub-experiment generation: systematic sampling and random down-sampling.

The paper derives ten sub-experiments from every experiment by systematic
sampling (Section 2.1) — used throughout the feature-selection and
similarity studies — and separately augments the scaling-prediction data by
randomly down-sampling each run's time-series into ten smaller series
(Section 6.2), yielding 30 throughput observations per workload setting.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.rng import RandomState, as_generator
from repro.workloads.runner import ExperimentResult, clone_with

#: Sampling noise of latency estimates within one sub-experiment window.
#: Latency estimates average over every transaction completed in the
#: window (thousands), so the aggregate estimate is stable; per-type
#: estimates see only each type's share of executions and jitter far more
#: — the asymmetry behind Figure 1.
WORKLOAD_WINDOW_SIGMA = 0.03
PER_TXN_WINDOW_SIGMA = 0.06


def systematic_subexperiments(
    result: ExperimentResult, *, n_subexperiments: int = 10
) -> list[ExperimentResult]:
    """Split an experiment into ``n`` interleaved sub-experiments.

    Sub-experiment ``i`` receives every ``n``-th resource/throughput sample
    starting at offset ``i`` and the ``(i mod k)``-th plan observation of
    each query (where ``k`` is the number of plan observations per query),
    so every sub-experiment sees each query exactly once.
    """
    if n_subexperiments < 1:
        raise ValidationError(
            f"n_subexperiments must be >= 1, got {n_subexperiments}"
        )
    if result.n_samples < n_subexperiments:
        raise ValidationError(
            f"experiment has {result.n_samples} samples; cannot derive "
            f"{n_subexperiments} systematic sub-experiments"
        )
    names = result.plan_txn_names
    n_queries = len(set(names))
    if n_queries == 0:
        raise ValidationError("experiment has no plan observations")
    plan_obs = len(names) // n_queries
    # Window noise scales: the workload's latency first, then each
    # transaction type's in the result's order.
    scales = np.array(
        [WORKLOAD_WINDOW_SIGMA]
        + [PER_TXN_WINDOW_SIGMA] * len(result.per_txn_latency_ms)
    )
    subexperiments = []
    for offset in range(n_subexperiments):
        resource = result.resource_series[offset::n_subexperiments]
        throughput = result.throughput_series[offset::n_subexperiments]
        observation = offset % plan_obs
        start = observation * n_queries
        plan_rows = result.plan_matrix[start : start + n_queries]
        plan_names = names[start : start + n_queries]
        sub_throughput = float(throughput.mean())
        # Deterministic per-(experiment, offset) stream for the window
        # sampling noise, so sub-experiments are reproducible.  The
        # vector draw equals ``normal(0.0, sigma)`` drawn once per value.
        seed = zlib.crc32(f"{result.experiment_id}#{offset}".encode())
        window_rng = np.random.default_rng(seed)
        factors = np.exp(
            scales * window_rng.standard_normal(len(scales))
        ).tolist()
        latency_ms = result.latency_ms * factors[0]
        per_txn = {
            name: value * factor
            for (name, value), factor in zip(
                result.per_txn_latency_ms.items(), factors[1:]
            )
        }
        subexperiments.append(
            clone_with(
                result,
                resource_series=resource,
                throughput_series=throughput,
                plan_matrix=plan_rows,
                plan_txn_names=list(plan_names),
                throughput=sub_throughput,
                latency_ms=latency_ms,
                per_txn_latency_ms=per_txn,
                subsample_index=offset,
            )
        )
    return subexperiments


def random_downsample(
    result: ExperimentResult,
    *,
    n_series: int = 10,
    fraction: float = 0.1,
    random_state: RandomState = None,
) -> list[np.ndarray]:
    """Randomly down-sample the throughput series into smaller series.

    Each of the ``n_series`` outputs contains ``fraction`` of the original
    samples, drawn without replacement — the data-augmentation strategy of
    Section 6.2.  Returns the list of down-sampled throughput arrays.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must be in (0, 1], got {fraction}")
    if n_series < 1:
        raise ValidationError(f"n_series must be >= 1, got {n_series}")
    rng = as_generator(random_state)
    series = result.throughput_series
    size = max(1, int(round(series.size * fraction)))
    outputs = []
    for _ in range(n_series):
        rows = rng.choice(series.size, size=size, replace=False)
        outputs.append(series[np.sort(rows)])
    return outputs


def augmented_throughputs(
    result: ExperimentResult,
    *,
    n_series: int = 10,
    fraction: float = 0.1,
    random_state: RandomState = None,
) -> np.ndarray:
    """Throughput observations from the down-sampling augmentation.

    The mean of each down-sampled series is one observation; with three
    runs per configuration this produces the paper's 30 data points per
    workload setting.
    """
    series_list = random_downsample(
        result, n_series=n_series, fraction=fraction, random_state=random_state
    )
    return np.asarray([float(s.mean()) for s in series_list])
