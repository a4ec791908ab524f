"""Kill-and-resume benchmark: a real SIGKILL against ``repro corpus``.

Not a paper figure — this bench guards the crash-safety contract of
``docs/robustness.md`` with the real failure, not the injected one: a
``repro corpus`` build is SIGKILLed mid-flight from outside, then
re-run against the same cache, whose entries are the record of the
finished tasks.  The resumed build must re-simulate none of the
completed tasks and produce a repository bit-identical to one built
without the interruption.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_header
from repro.workloads import ExperimentRepository, repositories_equal

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Complete cache entries to wait for before delivering the kill.
KILL_AFTER_ENTRIES = 5


def corpus_command(out: Path, cache_dir: Path, manifest: Path | None = None):
    cmd = [
        sys.executable, "-m", "repro.cli", "corpus",
        "--kind", "scaling", "--runs", "1", "--duration-s", "900",
        "--out", str(out), "--cache-dir", str(cache_dir),
    ]
    if manifest is not None:
        cmd += ["--manifest-out", str(manifest)]
    return cmd


def run_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_CACHE_DIR", None)
    return env


def complete_entries(cache_dir: Path) -> int:
    return sum(
        1
        for npz in cache_dir.glob("??/*.npz")
        if npz.with_suffix(".json").exists()
    )


@pytest.mark.slow
def test_sigkill_resume_is_free_and_bit_identical(tmp_path):
    cache_dir = tmp_path / "cache"
    killed_out = tmp_path / "killed.npz"
    manifest_path = tmp_path / "manifest.json"

    # Uninterrupted reference build, separate cache.
    reference_out = tmp_path / "reference.npz"
    start = time.perf_counter()
    subprocess.run(
        corpus_command(reference_out, tmp_path / "reference-cache"),
        cwd=REPO_ROOT, env=run_env(), check=True, capture_output=True,
    )
    cold_s = time.perf_counter() - start

    # Launch the same build, SIGKILL it once enough tasks completed.
    proc = subprocess.Popen(
        corpus_command(killed_out, cache_dir),
        cwd=REPO_ROOT, env=run_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while complete_entries(cache_dir) < KILL_AFTER_ENTRIES:
            if proc.poll() is not None:
                pytest.fail(
                    "build finished before the kill could be delivered; "
                    "raise the grid size"
                )
            if time.monotonic() > deadline:
                pytest.fail("build produced no cache entries to kill over")
            time.sleep(0.01)
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    assert not killed_out.exists(), "killed build must not have saved output"

    survived = complete_entries(cache_dir)
    assert survived >= KILL_AFTER_ENTRIES

    # Resume against the same cache.
    start = time.perf_counter()
    subprocess.run(
        corpus_command(killed_out, cache_dir, manifest_path),
        cwd=REPO_ROOT, env=run_env(), check=True, capture_output=True,
    )
    resume_s = time.perf_counter() - start

    grid = json.loads(manifest_path.read_text())["extra"]["grid"]
    print_header("Fault resume: SIGKILL mid-build, then resume")
    print(f"cold build            : {cold_s:7.2f}s")
    print(f"entries at kill       : {survived}")
    print(f"resume                : {resume_s:7.2f}s")
    print(f"resume cache hits     : {grid['cache_hits']}")
    print(f"resume re-simulated   : {grid['cache_misses']}")

    # Zero completed tasks were re-simulated: every surviving entry is
    # a hit.
    assert grid["cache_hits"] == survived
    assert grid["quarantined"] == 0

    resumed_repo = ExperimentRepository.load_npz(killed_out)
    reference_repo = ExperimentRepository.load_npz(reference_out)
    assert repositories_equal(reference_repo, resumed_repo), (
        "resumed corpus diverged from the uninterrupted build"
    )
