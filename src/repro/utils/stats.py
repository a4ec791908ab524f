"""Small statistics helpers used across the pipeline components."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_1d


@dataclass(frozen=True)
class Summary:
    """Descriptive statistics of a 1-D sample."""

    mean: float
    median: float
    std: float
    variance: float
    minimum: float
    maximum: float
    count: int


def describe(values) -> Summary:
    """Compute descriptive statistics for a 1-D array."""
    arr = check_1d(values, "values")
    return Summary(
        mean=float(np.mean(arr)),
        median=float(np.median(arr)),
        std=float(np.std(arr)),
        variance=float(np.var(arr)),
        minimum=float(np.min(arr)),
        maximum=float(np.max(arr)),
        count=int(arr.size),
    )


def rank_from_scores(scores, *, descending: bool = True) -> np.ndarray:
    """Convert importance scores to 1-based ranks (1 = most important).

    Ties are broken by first occurrence, matching the behaviour of sorting on
    ``(-score, index)``, which makes rank aggregation deterministic.
    """
    arr = check_1d(scores, "scores")
    order = np.argsort(-arr if descending else arr, kind="stable")
    ranks = np.empty(arr.size, dtype=int)
    ranks[order] = np.arange(1, arr.size + 1)
    return ranks


def ar1_lognormal_noise(
    n_samples: int, *, rho: float, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Multiplicative AR(1) log-noise with stationary scale ``sigma``.

    The log-domain process is ``x[t] = rho * x[t-1] + e[t]`` with the
    innovation variance chosen so the stationary standard deviation is
    exactly ``sigma``; the returned series is ``exp(x)``.

    Draw order is part of the contract (the innovations vector first,
    then the initial stationary normal) — telemetry and runner series
    generated before this helper existed must stay bit-identical.  So
    does each step's arithmetic: the recurrence runs over Python floats,
    one double multiply and one double add per step exactly as the
    original loop over numpy scalars, at well under half its cost.  A
    vectorized scan would round differently, and
    ``scipy.signal.lfilter``, though exact here, costs every simulating
    process about a second to import.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if not 0.0 <= rho < 1.0:
        raise ValidationError(f"rho must be in [0, 1), got {rho}")
    innovations = rng.normal(0.0, sigma * np.sqrt(1 - rho**2), n_samples)
    # ``float`` keeps a float32 ``rho`` from rounding products to float32.
    rho = float(rho)
    value = rng.normal(0.0, sigma)
    log_noise = [value]
    for innovation in innovations[1:].tolist():
        value = rho * value + innovation
        log_noise.append(value)
    return np.exp(log_noise)


def weighted_mean(values, weights) -> float:
    """Weighted arithmetic mean with validation of weight positivity."""
    vals = check_1d(values, "values")
    wts = check_1d(weights, "weights")
    if vals.shape != wts.shape:
        raise ValidationError(
            f"values and weights must align, got {vals.shape} vs {wts.shape}"
        )
    total = float(np.sum(wts))
    if total <= 0:
        raise ValidationError("weights must sum to a positive value")
    if np.any(wts < 0):
        raise ValidationError("weights must be non-negative")
    return float(np.sum(vals * wts) / total)
