"""Execution-substrate benchmarks: zero-copy IPC on the distance path.

Not a paper figure — this bench guards the execution substrate
(``repro.exec``, see "The execution substrate" in
``docs/performance.md``) on the production path that publishes through
shared memory, :func:`repro.similarity.evaluation.distance_matrix`:

- shared-memory array passing must ship fewer per-task IPC bytes than
  the pickled baseline;
- switching the array backend must not change a single output bit.

Numbers are written to ``BENCH_exec.json`` (path overridable via
``REPRO_BENCH_EXEC_OUT``) so the scheduled CI job can archive them and
``repro obs check-bench`` can guard them.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import time

import numpy as np
import pytest

from benchmarks.conftest import print_header
from repro.exec.arrays import ArrayStore
from repro.similarity.evaluation import (
    PAIR_CHUNK_TARGET,
    _chunk_payload,
    distance_matrix,
    representation_matrices,
)
from repro.similarity.measures import get_measure
from repro.similarity.representations import RepresentationBuilder
from repro.utils.parallel import chunk_bounds
from repro.workloads import SKU, enumerate_grid, execute_grid, workload_by_name

pytestmark = pytest.mark.slow

RESULTS: dict[str, dict] = {}


def bench_out() -> str:
    return os.environ.get("REPRO_BENCH_EXEC_OUT", "BENCH_exec.json")


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    if RESULTS:
        with open(bench_out(), "w") as handle:
            json.dump(RESULTS, handle, indent=2, sort_keys=True)
        print(f"\nwrote {bench_out()}")


@pytest.fixture(scope="module")
def grid():
    """Three workloads, two runs each: 6 sims -> 15 distance chunks."""
    return enumerate_grid(
        [workload_by_name(n) for n in ("tpcc", "twitter", "ycsb")],
        [SKU(cpus=8, memory_gb=32.0)],
        terminals_for=lambda w: (4,),
        n_runs=2,
        duration_s=600.0,
        sample_interval_s=10.0,
        random_state=13,
    )


@pytest.fixture(scope="module")
def matrices(grid):
    """One Hist-FP matrix per simulated experiment."""
    corpus = execute_grid(grid)
    builder = RepresentationBuilder().fit(corpus)
    return representation_matrices(corpus, builder, "hist")


@pytest.fixture(scope="module")
def measure():
    return get_measure("L2,1")


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_zero_copy_ipc_bytes(matrices, measure):
    """Shared-memory refs ship fewer bytes per distance chunk."""
    pairs = np.column_stack(np.triu_indices(len(matrices), 1))
    size = max(1, math.ceil(len(pairs) / PAIR_CHUNK_TARGET))
    chunks = [pairs[a:b] for a, b in chunk_bounds(len(pairs), size)]

    def per_task(shipped) -> float:
        return float(np.mean([
            len(pickle.dumps((*_chunk_payload(shipped, chunk), measure, i)))
            for i, chunk in enumerate(chunks)
        ]))

    with ArrayStore() as store:
        ref_per_task = per_task([store.put(M) for M in matrices])
    pickled_per_task = per_task(matrices)
    factor = pickled_per_task / ref_per_task

    print_header("Execution substrate: per-task IPC bytes (distance chunk)")
    print(f"pickled matrices : {pickled_per_task:12.0f} bytes/task")
    print(f"shared-mem refs  : {ref_per_task:12.0f} bytes/task")
    print(f"reduction        : x{factor:.1f}")
    RESULTS["ipc_bytes"] = {
        "pickled_per_task": pickled_per_task,
        "ref_per_task": ref_per_task,
        "reduction_factor": factor,
        "ipc_reduced": bool(ref_per_task < pickled_per_task),
        "n_chunks": len(chunks),
    }
    assert ref_per_task < pickled_per_task, (
        "shared-memory refs did not reduce per-task IPC bytes"
    )


def test_pickled_vs_shared_memory_runs(matrices, measure, monkeypatch):
    """The array backend changes IPC mechanics, never a result bit."""
    monkeypatch.setenv("REPRO_EXEC_ARRAYS", "off")
    pickled, pickled_s = timed(
        lambda: distance_matrix(matrices, measure, jobs=4)
    )
    monkeypatch.setenv("REPRO_EXEC_ARRAYS", "auto")
    shared, shared_s = timed(
        lambda: distance_matrix(matrices, measure, jobs=4)
    )
    identical = bool(np.array_equal(pickled, shared))
    cores = os.cpu_count() or 1

    print_header("Execution substrate: pickled vs shared-memory passing")
    print(f"pickled arrays   : {pickled_s:7.2f}s")
    print(f"shared memory    : {shared_s:7.2f}s")
    record = {
        "pickled_s": pickled_s,
        "shared_s": shared_s,
        "bit_identical": identical,
        "cpu_count": cores,
    }
    if cores < 2:
        record["insufficient_cores"] = True
    RESULTS["array_backends"] = record
    assert identical, "array backend changed distance_matrix results"
