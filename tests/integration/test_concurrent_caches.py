"""Two server processes sharing one cache directory must not corrupt it.

``repro serve`` scales horizontally: N processes, one corpus/distance/
fit cache directory.  Each cache already claims concurrent-writer
safety (atomic payload-first writes for the corpus store, O_APPEND
journal rows for distances/fits); this test makes the claim executable
by racing two subprocesses through cold cache builds and then sweeping
every store for damage.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.exec.journal import load_jsonl
from repro.workloads.cache import CorpusCache

pytestmark = pytest.mark.slow

#: Work done by each racing process: build a cached corpus, warm a
#: service (fit cache), rank a target (distance cache), print ranking.
WORKER = textwrap.dedent(
    """
    import json
    import sys

    from repro.core.config import PipelineConfig
    from repro.serve.service import PredictionService
    from repro.workloads import SKU, run_experiments, tpcc, twitter, ycsb

    cache_root = sys.argv[1]
    skus = [SKU(cpus=4, memory_gb=16.0, name="s4")]
    references = run_experiments(
        [tpcc(), twitter()],
        skus,
        terminals_for=lambda w: (4,),
        n_runs=2,
        duration_s=600.0,
        random_state=0,
        cache=f"{cache_root}/corpus",
    )
    target = run_experiments(
        [ycsb()],
        skus,
        terminals_for=lambda w: (4,),
        n_runs=1,
        duration_s=600.0,
        random_state=1,
        cache=f"{cache_root}/corpus",
    )
    # L2,1 and L1,1 skip the distance cache; Fro still writes it.
    config = PipelineConfig(
        measure="Fro",
        distance_cache=f"{cache_root}/distances",
        fit_cache=f"{cache_root}/fits",
    )
    service = PredictionService(references, config)
    service.warmup()
    print(json.dumps(service.rank_response(target)))
    """
)


def test_two_processes_race_one_cache_dir_without_corruption(tmp_path):
    root = Path(__file__).resolve().parents[2]
    env = {"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"}
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", WORKER, str(tmp_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for _ in range(2)
    ]
    outputs = []
    for process in processes:
        stdout, stderr = process.communicate(timeout=600)
        assert process.returncode == 0, stderr
        outputs.append(json.loads(stdout.splitlines()[-1]))

    # Both racers computed the same answer from the shared caches.
    assert outputs[0] == outputs[1]
    assert outputs[0]["target_workload"] == "ycsb"

    # Corpus store: every entry deserializes, no torn writes left behind.
    verification = CorpusCache(tmp_path / "corpus").verify()
    assert verification.clean, verification.to_dict()
    assert verification.n_entries > 0
    assert verification.n_ok == verification.n_entries

    # Distance and fit journals: every surviving row parses.
    distance_rows, n_corrupt = load_jsonl(
        tmp_path / "distances" / "distances.jsonl", label="test.distances"
    )
    assert n_corrupt == 0
    assert distance_rows

    fit_rows, n_corrupt = load_jsonl(
        tmp_path / "fits" / "fits.jsonl", label="test.fits"
    )
    assert n_corrupt == 0
    assert fit_rows
