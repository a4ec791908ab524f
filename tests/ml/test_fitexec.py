"""The shared fit executor and the content-addressed fit cache."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.ml.fitexec import (
    FitCache,
    array_digest,
    count_fits,
    fit_key,
    run_units,
)
from repro.obs.metrics import MetricsRegistry, set_metrics


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _square(unit):
    return unit * unit


def _counted_square(unit):
    count_fits(1)
    return unit * unit


class TestFitKey:
    def test_deterministic(self):
        X = np.arange(12.0).reshape(4, 3)
        a = fit_key(estimator="linear", arrays={"X": X}, seed=0)
        b = fit_key(estimator="linear", arrays={"X": X.copy()}, seed=0)
        assert a == b

    def test_sensitive_to_data(self):
        X = np.arange(12.0).reshape(4, 3)
        base = fit_key(estimator="linear", arrays={"X": X})
        nudged = X.copy()
        nudged[0, 0] += 1e-12
        assert fit_key(estimator="linear", arrays={"X": nudged}) != base

    def test_sensitive_to_every_field(self):
        X = np.ones((3, 2))
        base = dict(
            estimator="linear", arrays={"X": X}, params={"a": 1},
            seed=0, fold="kfold:3", scorer="r2",
        )
        reference = fit_key(**base)
        for field, value in (
            ("estimator", "logreg"),
            ("params", {"a": 2}),
            ("seed", 1),
            ("fold", "kfold:5"),
            ("scorer", "accuracy"),
        ):
            assert fit_key(**{**base, field: value}) != reference

    def test_array_roles_matter(self):
        X = np.ones((3, 2))
        assert fit_key(
            estimator="e", arrays={"X": X}
        ) != fit_key(estimator="e", arrays={"y": X})

    def test_key_is_pinned(self):
        # Existing on-disk caches stay addressable only while this holds.
        key = fit_key(
            estimator="Ridge",
            arrays={"X": np.arange(6.0).reshape(2, 3), "y": np.arange(2.0)},
            params={"alpha": 1.0}, seed=0, fold="kfold5", scorer="r2",
        )
        assert key == (
            "fc6cfd3317605ccc3521fa5b978ee1f97cc48e118cc302236c8bccbe88ab7957"
        )

    def test_array_digest_shape_sensitive(self):
        flat = np.arange(6.0)
        assert array_digest(flat) != array_digest(flat.reshape(2, 3))


class TestFitCache:
    def test_round_trip(self, tmp_path, metrics):
        cache = FitCache(tmp_path)
        cache.put("k", [1.0, 2.5])
        cache.put("k", [1.0, 2.5])  # idempotent: one line
        assert cache.get("k") == [1.0, 2.5]
        reopened = FitCache(tmp_path)
        assert reopened.get("k") == [1.0, 2.5]
        assert len(cache.path.read_text().splitlines()) == 1

    @given(
        value=st.recursive(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(
                    st.text(max_size=8), children, max_size=4
                ),
            ),
            max_leaves=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_values_round_trip_exactly(self, tmp_path_factory, value):
        tmp_path = tmp_path_factory.mktemp("fitcache")
        previous = set_metrics(MetricsRegistry())
        try:
            cache = FitCache(tmp_path)
            cache.put("k", value)
            assert FitCache(tmp_path).get("k") == cache.get("k")
        finally:
            set_metrics(previous)

    def test_non_finite_never_persisted(self, tmp_path, metrics):
        cache = FitCache(tmp_path)
        cache.put("inf", float("-inf"))
        cache.put("nan", [1.0, float("nan")])
        cache.put("nested", {"scores": [1.0, float("inf")]})
        cache.put("bool", True)
        assert len(cache) == 0
        assert cache.get("inf") is None

    def test_corrupt_lines_tolerated(self, tmp_path, metrics):
        cache = FitCache(tmp_path)
        cache.put("good", 1.5)
        path = tmp_path / "fits.jsonl"
        with path.open("a") as handle:
            handle.write("{torn json\n")
            handle.write(json.dumps({"key": "bad", "value": None}) + "\n")
            handle.write(json.dumps({"key": "ok", "value": 2.0}) + "\n")
        reopened = FitCache(tmp_path)
        assert reopened.get("good") == 1.5
        assert reopened.get("ok") == 2.0
        assert metrics.counter("fit_cache.corrupt_total").value == 2

    def test_heals_torn_tail_on_append(self, tmp_path, metrics):
        cache = FitCache(tmp_path)
        cache.put("a", 1.0)
        path = tmp_path / "fits.jsonl"
        with path.open("ab") as handle:
            handle.write(b'{"key": "torn"')  # no trailing newline
        cache2 = FitCache(tmp_path)
        assert cache2.get("torn") is None
        cache2.put("b", 2.0)
        reopened = FitCache(tmp_path)
        assert reopened.get("a") == 1.0
        assert reopened.get("b") == 2.0
        assert metrics.counter("fit_cache.corrupt_total").value == 2

    def test_hit_miss_metrics(self, tmp_path, metrics):
        cache = FitCache(tmp_path)
        assert cache.get("absent") is None
        cache.put("k", 3.0)
        cache.get("k")
        assert metrics.counter("fit_cache.misses_total").value == 1
        assert metrics.counter("fit_cache.hits_total").value == 1

    def test_clear(self, tmp_path, metrics):
        cache = FitCache(tmp_path)
        cache.put("k", 1.0)
        cache.clear()
        assert len(cache) == 0
        assert not (tmp_path / "fits.jsonl").exists()
        assert FitCache(tmp_path).get("k") is None
        cache.clear()  # clearing an absent file is fine


class TestAsFitCache:
    """``FitCache.coerce``: the one way a ``fit_cache=`` argument opens."""

    def test_none_passthrough(self):
        assert FitCache.coerce(None) is None

    def test_cache_passthrough(self, tmp_path):
        cache = FitCache(tmp_path)
        assert FitCache.coerce(cache) is cache

    def test_path_coerced(self, tmp_path):
        for path in (str(tmp_path), tmp_path):
            cache = FitCache.coerce(path)
            assert isinstance(cache, FitCache)
            assert cache.path == tmp_path / "fits.jsonl"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="FitCache"):
            FitCache.coerce(42)


class TestRunUnits:
    def test_serial_matches_parallel(self):
        units = list(range(20))
        assert run_units(_square, units) == run_units(
            _square, units, jobs=4
        )

    def test_results_in_submission_order(self):
        units = [5.0, 1.0, 3.0]
        assert run_units(_square, units, jobs=2) == [25.0, 1.0, 9.0]

    def test_empty_units(self):
        assert run_units(_square, []) == []
        assert run_units(_square, [], jobs=4) == []

    def test_count_fits_publishes(self, metrics):
        count_fits(3)
        count_fits(0)
        assert metrics.counter("ml.fits_total").value == 3

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_cache_runs_only_the_misses(self, tmp_path, metrics, jobs):
        cache = FitCache(tmp_path)
        cache.put("k1", 100.0)
        values = run_units(
            _counted_square, [1.0, 2.0, 3.0], jobs=jobs,
            keys=["k0", "k1", "k2"], cache=cache,
        )
        assert values == [1.0, 100.0, 9.0]
        assert metrics.counter("ml.fits_total").value == 2
        reopened = FitCache(tmp_path)
        assert [reopened.get(key) for key in ("k0", "k1", "k2")] == values

    def test_cache_needs_one_key_per_unit(self, tmp_path):
        with pytest.raises(ValidationError, match="one key per unit"):
            run_units(
                _square, [1.0, 2.0], keys=["k0"], cache=FitCache(tmp_path)
            )
