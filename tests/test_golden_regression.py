"""Golden-regression suite: the engine must keep producing paper numbers.

The JSON fixtures under ``tests/golden/`` pin summaries of seeded runs
(feature vectors, throughput, NRMSE of a mini prediction pipeline).  A
failure here means an engine change shifted the numbers every figure and
table is derived from — either fix the regression, or regenerate the
fixtures (``PYTHONPATH=src python tests/golden/regenerate.py``) and
justify the shift in review.

Float comparisons allow 1e-12 absolute/relative tolerance (JSON round
trips are exact; the slack only covers libm differences across
platforms); strings and integers must match exactly.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.config import PipelineConfig
from repro.obs.metrics import MetricsRegistry, set_metrics
from tests.golden.builders import BUILDERS, GOLDEN_DIR, pipeline_predictions

ATOL = 1e-12
RTOL = 1e-12


def assert_matches(actual, expected, path="$"):
    """Recursively compare a produced summary against its golden copy."""
    assert type(actual) is type(expected) or (
        isinstance(actual, (int, float)) and isinstance(expected, (int, float))
    ), f"{path}: type {type(actual).__name__} != {type(expected).__name__}"
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), f"{path}: key mismatch"
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{path}: length mismatch"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, bool) or not isinstance(expected, (int, float)):
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"
    else:
        assert math.isclose(
            actual, expected, rel_tol=RTOL, abs_tol=ATOL
        ), f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_golden(name):
    golden_path = GOLDEN_DIR / name
    assert golden_path.exists(), (
        f"missing golden fixture {name}; run tests/golden/regenerate.py"
    )
    expected = json.loads(golden_path.read_text())
    actual = BUILDERS[name]()
    assert_matches(actual, expected)


def test_golden_files_have_no_strays():
    """Every committed golden file is covered by a builder."""
    committed = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert committed == set(BUILDERS)


def test_pipeline_golden_with_cold_and_warm_caches(tmp_path):
    """The caches change no pipeline answer.

    The cold run fills the fit cache, the warm run (a fresh pipeline
    that reads it back from disk) answers from it; both must equal each
    other exactly and the golden within the usual tolerance.  The
    golden's L2,1 ranking computes in process and never looks a pair up
    in the distance cache.
    """
    expected = json.loads((GOLDEN_DIR / "pipeline_predictions.json").read_text())
    config = PipelineConfig(
        distance_cache=str(tmp_path / "distances"),
        fit_cache=str(tmp_path / "fits"),
    )
    cold = pipeline_predictions(config)
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        warm = pipeline_predictions(config)
    finally:
        set_metrics(previous)
    assert not [name for name in registry.snapshot()
                if name.startswith("distance_cache.")]
    assert registry.counter("fit_cache.hits_total").value > 0
    assert registry.counter("fit_cache.misses_total").value == 0
    assert warm == cold
    assert_matches(cold, expected)
