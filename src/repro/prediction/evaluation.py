"""Cross-validated NRMSE evaluation of scaling strategies (Table 6).

The methodology follows Section 6.2: each workload setting contributes 30
throughput observations per SKU (3 runs x 10 random down-samples); models
are scored by 5-fold cross validation; pairwise results average the NRMSE
over the six upward scaling pairs among the 2/4/8/16-CPU SKUs.

Both evaluators ride the evaluation fast path (:mod:`repro.ml.fitexec`):
the (source SKU, target SKU) pairs of the pairwise context and the CV
folds of the single context are independent fit/score units.  ``jobs``
fans them over a process pool — per-pair seeds are derived parent-side
in serial pair order, so output is **bit-identical at any worker
count** — and ``fit_cache`` memoizes each unit's fold scores under a
content address, so a warm re-run of a Table 5/6 grid performs zero
model fits.  (Cached entries also carry the originally measured
training times; ``mean_training_time_s`` is a wall-clock observation
and is outside the bit-identical contract.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.ml.fitexec import FitCache, count_fits, fit_key, run_units
from repro.ml.metrics import normalized_rmse
from repro.ml.model_selection import KFold
from repro.obs.metrics import get_metrics
from repro.obs.tracing import span
from repro.prediction.baseline import InverseLinearBaseline
from repro.prediction.context import PairwiseScalingModel, SingleScalingModel
from repro.utils.rng import RandomState, as_generator, spawn_generators
from repro.workloads.repository import ExperimentRepository
from repro.workloads.sampling import augmented_throughputs


@dataclass
class ScalingDataset:
    """Aligned performance observations of one workload setting per SKU.

    ``observations[sku_name][i]`` and ``observations[other][i]`` stem from
    the same (run, down-sample) slot, which is what lets pairwise models
    treat them as before/after measurements of the same execution context.
    ``metric`` records whether observations are throughput (txn/s) or mean
    latency (ms) — the two performance metrics of Section 6.1.2.
    """

    workload: str
    terminals: int
    sku_names: list[str]  # ascending CPU order
    cpu_counts: dict[str, int]
    observations: dict[str, np.ndarray]
    groups: dict[str, np.ndarray]
    metric: str = "throughput"
    metadata: dict = field(default_factory=dict)

    def upward_pairs(self) -> list[tuple[str, str]]:
        """All (smaller SKU, larger SKU) combinations, six for four SKUs."""
        pairs = []
        for i, source in enumerate(self.sku_names):
            for target in self.sku_names[i + 1 :]:
                pairs.append((source, target))
        return pairs

    def pooled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All observations pooled: (cpus, throughput, groups)."""
        cpus, throughput, groups = [], [], []
        for name in self.sku_names:
            y = self.observations[name]
            cpus.append(np.full(y.size, self.cpu_counts[name], dtype=float))
            throughput.append(y)
            groups.append(self.groups[name])
        return (
            np.concatenate(cpus),
            np.concatenate(throughput),
            np.concatenate(groups),
        )


def build_scaling_dataset(
    repository: ExperimentRepository,
    workload: str,
    terminals: int,
    *,
    metric: str = "throughput",
    n_series: int = 10,
    fraction: float = 0.5,
    random_state: RandomState = 0,
) -> ScalingDataset:
    """Assemble the Table 6 observation set for one workload setting.

    ``metric="latency"`` converts each window's throughput estimate into a
    mean-latency estimate through the interactive response-time law — the
    alternative performance metric Section 6.1.2 names.
    """
    if metric not in ("throughput", "latency"):
        raise ValidationError(
            f"metric must be 'throughput' or 'latency', got {metric!r}"
        )
    subset = repository.by_workload(workload).by_terminals(terminals)
    if len(subset) == 0:
        raise ValidationError(
            f"no experiments for workload={workload!r} terminals={terminals}"
        )
    skus = sorted(subset.skus(), key=lambda s: s.cpus)
    observations: dict[str, np.ndarray] = {}
    groups: dict[str, np.ndarray] = {}
    rngs = spawn_generators(random_state, len(skus))
    for sku, rng in zip(skus, rngs):
        runs = sorted(
            subset.by_sku(sku), key=lambda r: (r.run_index, r.data_group)
        )
        values, value_groups = [], []
        for run in runs:
            # The same augmentation seed structure per run keeps slots
            # aligned across SKUs (run-major, series-minor ordering).
            samples = augmented_throughputs(
                run,
                n_series=n_series,
                fraction=fraction,
                random_state=int(rng.integers(0, 2**62)),
            )
            if metric == "latency":
                # The response-time law divides by throughput; a
                # down-sampled window with zero mean throughput would
                # yield an infinite latency that silently poisons every
                # NRMSE computed downstream.
                degenerate = int(np.sum(samples <= 0.0))
                if degenerate:
                    raise ValidationError(
                        f"cannot convert throughput to latency for "
                        f"{run.experiment_id}: {degenerate} down-sampled "
                        f"window(s) have non-positive mean throughput"
                    )
                samples = run.terminals / samples * 1000.0
            values.append(samples)
            value_groups.append(np.full(samples.size, run.data_group))
        observations[sku.name] = np.concatenate(values)
        groups[sku.name] = np.concatenate(value_groups)
    lengths = {len(v) for v in observations.values()}
    if len(lengths) != 1:
        raise ValidationError(
            "SKUs have differing observation counts; the repository must "
            "contain the same runs for every SKU"
        )
    return ScalingDataset(
        workload=workload,
        terminals=terminals,
        sku_names=[s.name for s in skus],
        cpu_counts={s.name: s.cpus for s in skus},
        observations=observations,
        groups=groups,
        metric=metric,
    )


@dataclass(frozen=True)
class StrategyScore:
    """CV outcome of one strategy on one workload setting."""

    strategy: str
    context: str  # "pairwise" | "single"
    mean_nrmse: float
    mean_training_time_s: float


def _check_evaluable(dataset: ScalingDataset, cv: int | None = None) -> None:
    """Reject datasets that would score as a silent NaN.

    A single-SKU dataset has no upward pairs, so ``np.mean([])`` would
    produce a NaN score; a dataset with fewer observation slots than CV
    folds cannot be split.  Both are caller errors and deserve a typed
    exception rather than a NaN propagating into Table 6.
    """
    if not dataset.upward_pairs():
        raise ValidationError(
            f"dataset for workload={dataset.workload!r} has "
            f"{len(dataset.sku_names)} SKU(s); scaling evaluation needs at "
            "least two to form an upward pair"
        )
    if cv is not None:
        n_slots = len(next(iter(dataset.observations.values())))
        if n_slots < cv:
            raise ValidationError(
                f"cannot split {n_slots} observation slot(s) into {cv} "
                "cross-validation folds; reduce cv or add runs/down-samples"
            )


def _pairwise_pair_unit(unit) -> dict:
    """All CV folds of one upward SKU pair: ``{"scores", "times"}``.

    The unit of work shipped to pool workers — and the exact same
    function the serial path calls, which is what keeps parallel grids
    bit-identical to serial.
    """
    y_source, y_target, pair_groups, strategy, cv, fold_seed, model_seed = unit
    scores, times = [], []
    splitter = KFold(cv, shuffle=True, random_state=fold_seed)
    for train_idx, test_idx in splitter.split(y_source):
        model = PairwiseScalingModel(strategy, random_state=model_seed)
        start = time.perf_counter()
        model.fit(
            y_source[train_idx],
            y_target[train_idx],
            groups=pair_groups[train_idx],
        )
        times.append(float(time.perf_counter() - start))
        predictions = model.predict(
            y_source[test_idx], groups=pair_groups[test_idx]
        )
        scores.append(
            float(normalized_rmse(y_target[test_idx], predictions))
        )
    count_fits(len(times))
    return {"scores": scores, "times": times}


def evaluate_pairwise_strategy(
    dataset: ScalingDataset,
    strategy: str,
    *,
    cv: int = 5,
    random_state: RandomState = 0,
    jobs: int | None = None,
    fit_cache=None,
) -> StrategyScore:
    """Mean CV NRMSE over the upward SKU pairs (Table 6, pairwise block).

    Folds are drawn over the aligned observation *slots* (run x
    down-sample), so the same execution context never appears in both the
    train and test side of one pair.  Each pair draws two *independent*
    seeds — one for fold shuffling, one for model randomness — so fold
    assignment is decoupled from stochastic model internals.  Seeds are
    derived parent-side in serial pair order before any unit runs, so
    ``jobs`` cannot change a single output bit; ``fit_cache`` memoizes
    each pair's fold scores by content, so a warm re-run fits nothing.
    """
    rng = as_generator(random_state)
    _check_evaluable(dataset, cv)
    pairs = dataset.upward_pairs()
    # Seed derivation stays in the exact serial draw order (fold seed,
    # then model seed, per pair) so results match the serial history.
    seeds = []
    for _ in pairs:
        fold_seed = int(rng.integers(0, 2**31))
        model_seed = int(rng.integers(0, 2**31))
        seeds.append((fold_seed, model_seed))
    cache = FitCache.coerce(fit_cache)
    with span(
        "prediction.evaluate_pairwise",
        attrs={"strategy": strategy, "n_pairs": len(pairs), "cv": cv},
    ):
        keys = None
        if cache is not None:
            keys = [
                fit_key(
                    estimator=f"pairwise:{strategy}",
                    arrays={
                        "y_source": dataset.observations[source],
                        "y_target": dataset.observations[target],
                        "groups": dataset.groups[source],
                    },
                    seed=list(pair_seeds),
                    fold=f"kfold:{cv}:shuffle",
                    scorer="nrmse",
                )
                for (source, target), pair_seeds in zip(pairs, seeds)
            ]
        results = run_units(
            _pairwise_pair_unit,
            [
                (
                    dataset.observations[source], dataset.observations[target],
                    dataset.groups[source], strategy, cv, *pair_seeds,
                )
                for (source, target), pair_seeds in zip(pairs, seeds)
            ],
            jobs=jobs, label=f"pairwise:{strategy}", keys=keys, cache=cache,
        )
    get_metrics().counter("evaluation.cells_total").inc(len(pairs) * cv)
    all_scores = [score for cell in results for score in cell["scores"]]
    all_times = [elapsed for cell in results for elapsed in cell["times"]]
    return StrategyScore(
        strategy=strategy,
        context="pairwise",
        mean_nrmse=float(np.mean(all_scores)),
        mean_training_time_s=float(np.mean(all_times)),
    )


def _single_fold_unit(unit) -> dict:
    """One CV fold of the single context: ``{"scores", "times"}``.

    Fits one pooled model on the fold's training slots and scores it per
    upward pair — the same function serially and in workers, so parallel
    output is bit-identical to serial.
    """
    (
        sku_names, cpu_counts, observations, obs_groups,
        pairs, strategy, model_seed, train_slots, test_slots,
    ) = unit
    cpus, throughput, groups = [], [], []
    for name in sku_names:
        y = observations[name][train_slots]
        cpus.append(np.full(y.size, cpu_counts[name], dtype=float))
        throughput.append(y)
        groups.append(obs_groups[name][train_slots])
    model = SingleScalingModel(strategy, random_state=model_seed)
    start = time.perf_counter()
    model.fit(
        np.concatenate(cpus),
        np.concatenate(throughput),
        groups=np.concatenate(groups),
    )
    elapsed = float(time.perf_counter() - start)
    count_fits(1)
    scores = []
    for _, target in pairs:
        actual = observations[target][test_slots]
        predictions = model.predict(
            np.full(actual.size, cpu_counts[target], dtype=float),
            groups=obs_groups[target][test_slots],
        )
        scores.append(float(normalized_rmse(actual, predictions)))
    return {"scores": scores, "times": [elapsed]}


def evaluate_single_strategy(
    dataset: ScalingDataset,
    strategy: str,
    *,
    cv: int = 5,
    random_state: RandomState = 0,
    jobs: int | None = None,
    fit_cache=None,
) -> StrategyScore:
    """CV NRMSE of one model over all SKUs (Table 6, single block).

    One model is fitted on the pooled (CPU count, throughput) data of the
    training slots across every SKU; its error is then scored per upward
    pair — the prediction at the target SKU's CPU count against that
    pair's held-out target observations — and averaged over the six pairs,
    making the value directly comparable to the pairwise context.

    The CV folds are independent units: ``jobs`` fans them over a process
    pool (splits are computed parent-side, so output is bit-identical at
    any worker count) and ``fit_cache`` memoizes each fold's pair scores.
    An integer ``random_state`` seeds the folds and the model directly;
    any other seed first draws one such integer with
    ``int(rng.integers(0, 2**31))``, as the pairwise evaluator does.
    """
    _check_evaluable(dataset, cv)
    n_slots = len(next(iter(dataset.observations.values())))
    pairs = dataset.upward_pairs()
    if isinstance(random_state, (int, np.integer)):
        model_seed = int(random_state)
    else:
        model_seed = int(as_generator(random_state).integers(0, 2**31))
    splitter = KFold(cv, shuffle=True, random_state=model_seed)
    folds = list(splitter.split(np.arange(n_slots)))
    cache = FitCache.coerce(fit_cache)
    with span(
        "prediction.evaluate_single",
        attrs={"strategy": strategy, "n_pairs": len(pairs), "cv": cv},
    ):
        keys = None
        if cache is not None:
            arrays = {}
            for name in dataset.sku_names:
                arrays[f"obs:{name}"] = dataset.observations[name]
                arrays[f"groups:{name}"] = dataset.groups[name]
            params = {
                "sku_order": list(dataset.sku_names),
                "cpu_counts": {
                    name: int(dataset.cpu_counts[name])
                    for name in dataset.sku_names
                },
            }
            keys = [
                fit_key(
                    estimator=f"single:{strategy}",
                    params=params,
                    arrays={**arrays, "train": train_slots, "test": test_slots},
                    seed=model_seed,
                    fold=f"kfold:{cv}:shuffle",
                    scorer="nrmse",
                )
                for train_slots, test_slots in folds
            ]
        results = run_units(
            _single_fold_unit,
            [
                (
                    list(dataset.sku_names), dict(dataset.cpu_counts),
                    dataset.observations, dataset.groups,
                    pairs, strategy, model_seed, train_slots, test_slots,
                )
                for train_slots, test_slots in folds
            ],
            jobs=jobs, label=f"single:{strategy}", keys=keys, cache=cache,
        )
    get_metrics().counter("evaluation.cells_total").inc(len(folds) * len(pairs))
    scores = [score for cell in results for score in cell["scores"]]
    times = [elapsed for cell in results for elapsed in cell["times"]]
    return StrategyScore(
        strategy=strategy,
        context="single",
        mean_nrmse=float(np.mean(scores)),
        mean_training_time_s=float(np.mean(times)),
    )


def evaluate_baseline(dataset: ScalingDataset) -> float:
    """Mean NRMSE of the inverse-linear baseline over the upward pairs.

    For throughput data the baseline multiplies by the CPU ratio; for
    latency data it divides (the paper's "if the number of CPUs increases
    from 2 to 4, the latency reduces by half").
    """
    _check_evaluable(dataset)
    scores = []
    for source, target in dataset.upward_pairs():
        if dataset.metric == "latency":
            baseline = InverseLinearBaseline(
                dataset.cpu_counts[target], dataset.cpu_counts[source]
            )
        else:
            baseline = InverseLinearBaseline(
                dataset.cpu_counts[source], dataset.cpu_counts[target]
            )
        predictions = baseline.predict(dataset.observations[source])
        scores.append(normalized_rmse(dataset.observations[target], predictions))
    return float(np.mean(scores))
