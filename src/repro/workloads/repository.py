"""Experiment repository: an in-memory collection with persistence.

The prediction pipeline consumes *collections* of experiments (reference
workloads observed across SKUs).  The repository provides filtered views
(by workload, SKU, terminals) and round-trips to disk so expensive
simulated corpora can be cached between benchmark runs.  Two formats are
supported: a human-readable JSON file (:meth:`ExperimentRepository.save`)
and a compact ``.npz`` archive (:meth:`ExperimentRepository.save_npz`)
that stores the bulky time-series/plan arrays in binary — typically an
order of magnitude smaller and faster to parse than the row-by-row JSON.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.exceptions import RepositoryError
from repro.obs.logging import get_logger
from repro.obs.metrics import get_metrics
from repro.workloads.runner import ExperimentResult
from repro.workloads.sku import SKU

logger = get_logger(__name__)

#: The bulky array-valued fields, stored out-of-band by the npz formats.
ARRAY_FIELDS = ("resource_series", "throughput_series", "plan_matrix")


def ensure_finite(result: ExperimentResult) -> None:
    """Reject a result carrying NaN or infinity.

    Non-finite telemetry poisons every downstream statistic silently
    (feature ranges, Hist-FP counts, distances, CV scores), so it is
    refused wherever results enter or leave: both persistence formats
    and their loaders, the corpus cache, the server's request decoder,
    and the prediction entry points.  The error names the experiment,
    the field and the first bad position.
    """
    for name in ARRAY_FIELDS:
        values = getattr(result, name)
        finite = np.isfinite(values)
        if not finite.all():
            # ``argmin`` of a boolean array is its first False entry.
            position = np.unravel_index(np.argmin(finite), values.shape)
            index = ", ".join(str(int(k)) for k in position)
            raise RepositoryError(
                f"experiment {result.experiment_id}: non-finite value "
                f"{float(values[position])} in {name}[{index}]"
            )
    scalars = {
        "throughput": result.throughput,
        "latency_ms": result.latency_ms,
        **{f"latency[{k}]": v for k, v in result.per_txn_latency_ms.items()},
        **{f"weight[{k}]": v for k, v in result.per_txn_weights.items()},
    }
    for name, value in scalars.items():
        if not math.isfinite(value):
            raise RepositoryError(
                f"experiment {result.experiment_id}: non-finite {name} "
                f"({float(value)})"
            )


def _result_to_dict(result: ExperimentResult, *, arrays: bool = True) -> dict:
    payload = {
        "workload_name": result.workload_name,
        "workload_type": result.workload_type,
        "sku": {
            "cpus": result.sku.cpus,
            "memory_gb": result.sku.memory_gb,
            "iops_capacity": result.sku.iops_capacity,
            "log_bandwidth_mb_s": result.sku.log_bandwidth_mb_s,
            "name": result.sku.name,
        },
        "terminals": result.terminals,
        "run_index": result.run_index,
        "data_group": result.data_group,
        "sample_interval_s": result.sample_interval_s,
        "plan_txn_names": list(result.plan_txn_names),
        "throughput": result.throughput,
        "latency_ms": result.latency_ms,
        "per_txn_latency_ms": dict(result.per_txn_latency_ms),
        "per_txn_weights": dict(result.per_txn_weights),
        "bottleneck": result.bottleneck,
        "subsample_index": result.subsample_index,
        "metadata": dict(result.metadata),
    }
    if arrays:
        payload["resource_series"] = result.resource_series.tolist()
        payload["throughput_series"] = result.throughput_series.tolist()
        payload["plan_matrix"] = result.plan_matrix.tolist()
    return payload


def result_to_dict(result: ExperimentResult, *, arrays: bool = True) -> dict:
    """JSON-serializable form of one experiment (the on-disk schema).

    Public wrapper over the save/load wire format so other layers —
    ``repro serve``'s request decoding in particular — round-trip
    experiments through the exact schema the repository files use.
    """
    return _result_to_dict(result, arrays=arrays)


def result_from_dict(payload: dict) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`; raises
    :class:`~repro.exceptions.RepositoryError` on malformed payloads."""
    return _result_from_dict(payload)


def _result_from_dict(payload: dict) -> ExperimentResult:
    try:
        sku = SKU(**payload["sku"])
        return ExperimentResult(
            workload_name=payload["workload_name"],
            workload_type=payload["workload_type"],
            sku=sku,
            terminals=int(payload["terminals"]),
            run_index=int(payload["run_index"]),
            data_group=int(payload["data_group"]),
            sample_interval_s=float(payload["sample_interval_s"]),
            resource_series=np.asarray(payload["resource_series"], dtype=float),
            throughput_series=np.asarray(
                payload["throughput_series"], dtype=float
            ),
            plan_matrix=np.asarray(payload["plan_matrix"], dtype=float),
            plan_txn_names=list(payload["plan_txn_names"]),
            throughput=float(payload["throughput"]),
            latency_ms=float(payload["latency_ms"]),
            per_txn_latency_ms={
                name: float(value)
                for name, value in dict(payload["per_txn_latency_ms"]).items()
            },
            per_txn_weights={
                name: float(value)
                for name, value in dict(payload["per_txn_weights"]).items()
            },
            bottleneck=payload["bottleneck"],
            subsample_index=payload.get("subsample_index"),
            metadata=dict(payload.get("metadata", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RepositoryError(f"malformed experiment payload: {exc}") from exc


class ExperimentRepository:
    """A queryable collection of experiment results."""

    def __init__(self, results: list[ExperimentResult] | None = None):
        self._results: list[ExperimentResult] = list(results or [])

    # -- collection protocol -------------------------------------------------
    def add(self, result: ExperimentResult) -> None:
        """Append one experiment to the repository."""
        self._results.append(result)

    def extend(self, results) -> None:
        """Append many experiments."""
        self._results.extend(results)

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[ExperimentResult]:
        return iter(self._results)

    def __getitem__(self, index: int) -> ExperimentResult:
        return self._results[index]

    # -- queries ---------------------------------------------------------------
    def filter(
        self, predicate: Callable[[ExperimentResult], bool]
    ) -> "ExperimentRepository":
        """New repository holding results matching ``predicate``."""
        return ExperimentRepository([r for r in self._results if predicate(r)])

    def by_workload(self, name: str) -> "ExperimentRepository":
        """Results of one workload."""
        return self.filter(lambda r: r.workload_name == name)

    def by_sku(self, sku: SKU) -> "ExperimentRepository":
        """Results on one SKU (matched by name)."""
        return self.filter(lambda r: r.sku.name == sku.name)

    def by_terminals(self, terminals: int) -> "ExperimentRepository":
        """Results at one concurrency level."""
        return self.filter(lambda r: r.terminals == terminals)

    def workload_names(self) -> list[str]:
        """Distinct workload names, insertion-ordered."""
        seen: dict[str, None] = {}
        for result in self._results:
            seen.setdefault(result.workload_name, None)
        return list(seen)

    def skus(self) -> list[SKU]:
        """Distinct SKUs, insertion-ordered."""
        seen: dict[str, SKU] = {}
        for result in self._results:
            seen.setdefault(result.sku.name, result.sku)
        return list(seen.values())

    def labels(self) -> list[str]:
        """Workload label of every result (for supervised selection)."""
        return [r.workload_name for r in self._results]

    def feature_matrix(self) -> np.ndarray:
        """``(n_results, 29)`` summary feature matrix."""
        if not self._results:
            raise RepositoryError("repository is empty")
        return np.vstack([r.feature_vector() for r in self._results])

    def throughputs(self) -> np.ndarray:
        """Throughput of every result."""
        return np.asarray([r.throughput for r in self._results])

    # -- persistence -------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Serialize all experiments to a JSON file."""
        path = Path(path)
        for result in self._results:
            ensure_finite(result)
        payload = {
            "version": 1,
            "experiments": [_result_to_dict(r) for r in self._results],
        }
        try:
            path.write_text(json.dumps(payload))
        except OSError as exc:
            raise RepositoryError(f"cannot write {path}: {exc}") from exc
        get_metrics().counter("repository.experiments_saved_total").inc(
            len(self._results)
        )
        logger.debug("saved %d experiments to %s", len(self._results), path)

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentRepository":
        """Load a repository previously written by :meth:`save`.

        A non-finite value is a :class:`RepositoryError`
        (:func:`ensure_finite`), as it is on save.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise RepositoryError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise RepositoryError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "experiments" not in payload:
            raise RepositoryError(f"{path} is not an experiment repository file")
        results = [_result_from_dict(entry) for entry in payload["experiments"]]
        for result in results:
            ensure_finite(result)
        get_metrics().counter("repository.experiments_loaded_total").inc(
            len(results)
        )
        logger.debug("loaded %d experiments from %s", len(results), path)
        return cls(results)

    def save_npz(self, path: str | Path) -> None:
        """Serialize all experiments to a compact ``.npz`` archive.

        Scalar fields travel as one JSON document inside the archive; the
        three array fields of each experiment are stored as native numpy
        arrays (``resource_0``, ``throughput_0``, ``plan_0``, ...), which
        preserves dtype and shape exactly — including empty dimensions the
        JSON format cannot represent.
        """
        path = Path(path)
        for result in self._results:
            ensure_finite(result)
        arrays: dict[str, np.ndarray] = {}
        meta = []
        for i, result in enumerate(self._results):
            meta.append(_result_to_dict(result, arrays=False))
            arrays[f"resource_{i}"] = result.resource_series
            arrays[f"throughput_{i}"] = result.throughput_series
            arrays[f"plan_{i}"] = result.plan_matrix
        header = {"version": 1, "n_experiments": len(self._results),
                  "experiments": meta}
        arrays["meta"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        try:
            with path.open("wb") as handle:
                np.savez_compressed(handle, **arrays)
        except OSError as exc:
            raise RepositoryError(f"cannot write {path}: {exc}") from exc
        get_metrics().counter("repository.experiments_saved_total").inc(
            len(self._results)
        )
        logger.debug(
            "saved %d experiments to %s (npz)", len(self._results), path
        )

    @classmethod
    def load_npz(cls, path: str | Path) -> "ExperimentRepository":
        """Load a repository previously written by :meth:`save_npz`,
        refusing non-finite values as :meth:`load` does."""
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as archive:
                if "meta" not in archive.files:
                    raise RepositoryError(
                        f"{path} is not an experiment repository archive"
                    )
                header = json.loads(bytes(archive["meta"]).decode("utf-8"))
                results = []
                for i, entry in enumerate(header["experiments"]):
                    payload = dict(entry)
                    payload["resource_series"] = archive[f"resource_{i}"]
                    payload["throughput_series"] = archive[f"throughput_{i}"]
                    payload["plan_matrix"] = archive[f"plan_{i}"]
                    results.append(_result_from_dict(payload))
        except OSError as exc:
            raise RepositoryError(f"cannot read {path}: {exc}") from exc
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise RepositoryError(f"{path} is corrupt: {exc}") from exc
        for result in results:
            ensure_finite(result)
        get_metrics().counter("repository.experiments_loaded_total").inc(
            len(results)
        )
        logger.debug(
            "loaded %d experiments from %s (npz)", len(results), path
        )
        return cls(results)


def results_equal(a: ExperimentResult, b: ExperimentResult) -> bool:
    """Exact (bit-level) equality of two experiment results.

    Arrays must match element-for-element with identical shapes and
    dtypes; every scalar, mapping, and metadata field must compare equal.
    This is the equivalence the determinism suite asserts between serial
    and parallel corpus builds and between persistence formats, and the
    key of the prediction pipeline's reference catalog.
    """
    for name in ARRAY_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if (
            x.shape != y.shape
            or x.dtype != y.dtype
            or not np.array_equal(x, y)
        ):
            return False
    return (
        a.workload_name == b.workload_name
        and a.workload_type == b.workload_type
        and a.sku == b.sku
        and a.terminals == b.terminals
        and a.run_index == b.run_index
        and a.data_group == b.data_group
        and a.sample_interval_s == b.sample_interval_s
        and list(a.plan_txn_names) == list(b.plan_txn_names)
        and a.throughput == b.throughput
        and a.latency_ms == b.latency_ms
        and a.per_txn_latency_ms == b.per_txn_latency_ms
        and a.per_txn_weights == b.per_txn_weights
        and a.bottleneck == b.bottleneck
        and a.subsample_index == b.subsample_index
        and a.metadata == b.metadata
    )


def repositories_equal(
    a: "ExperimentRepository", b: "ExperimentRepository"
) -> bool:
    """Exact equality of two repositories, including result order."""
    if len(a) != len(b):
        return False
    return all(results_equal(x, y) for x, y in zip(a, b))
