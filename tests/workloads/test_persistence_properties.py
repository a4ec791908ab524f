"""Property-based round-trip tests for repository persistence formats.

Hypothesis drives :class:`ExperimentResult` values through the JSON
repository format, the npz repository archive, and the corpus cache's
npz-entry format, asserting exact (bit-level) equality after the round
trip — including awkward inputs: unicode transaction names, set and
unset ``subsample_index``, and extreme-but-finite floats.  Non-finite
values must be rejected by every format before touching disk.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import RepositoryError
from repro.workloads import SKU, ExperimentRepository, results_equal
from repro.workloads import repository
from repro.workloads.cache import CorpusCache
from repro.workloads.repository import ensure_finite, repositories_equal
from repro.workloads.runner import ExperimentResult, clone_with

#: Finite doubles that survive JSON's repr round-trip exactly.
finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-1e12, max_value=1e12,
)
positive_floats = st.floats(min_value=1e-6, max_value=1e9)
#: Transaction names: arbitrary unicode (no surrogates — not encodable).
txn_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=1, max_size=12,
)


@st.composite
def experiment_results(draw):
    n_samples = draw(st.integers(1, 6))
    n_plan_rows = draw(st.integers(1, 4))
    n_plan_cols = draw(st.integers(1, 5))
    names = draw(
        st.lists(txn_names, min_size=n_plan_rows, max_size=n_plan_rows,
                 unique=True)
    )
    resource = draw(
        st.lists(
            st.lists(finite_floats, min_size=3, max_size=3),
            min_size=n_samples, max_size=n_samples,
        )
    )
    plan = draw(
        st.lists(
            st.lists(finite_floats, min_size=n_plan_cols,
                     max_size=n_plan_cols),
            min_size=n_plan_rows, max_size=n_plan_rows,
        )
    )
    throughput_series = draw(
        st.lists(positive_floats, min_size=n_samples, max_size=n_samples)
    )
    return ExperimentResult(
        workload_name=draw(txn_names),
        workload_type=draw(
            st.sampled_from(["transactional", "analytical", "mixed"])
        ),
        sku=SKU(
            cpus=draw(st.integers(1, 128)),
            memory_gb=draw(st.floats(min_value=1.0, max_value=4096.0)),
        ),
        terminals=draw(st.integers(1, 64)),
        run_index=draw(st.integers(0, 5)),
        data_group=draw(st.integers(0, 5)),
        sample_interval_s=draw(st.floats(min_value=0.1, max_value=60.0)),
        resource_series=np.asarray(resource, dtype=float),
        throughput_series=np.asarray(throughput_series, dtype=float),
        plan_matrix=np.asarray(plan, dtype=float),
        plan_txn_names=list(names),
        throughput=draw(positive_floats),
        latency_ms=draw(positive_floats),
        per_txn_latency_ms={n: draw(positive_floats) for n in names},
        per_txn_weights={n: draw(positive_floats) for n in names},
        bottleneck=draw(st.sampled_from(["cpu", "io", "concurrency"])),
        subsample_index=draw(st.one_of(st.none(), st.integers(0, 9))),
        metadata={"seed": draw(st.integers(0, 2**62)), "note": "property"},
    )


common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestRepositoryRoundTrip:
    @given(results=st.lists(experiment_results(), max_size=3))
    @common_settings
    def test_json_roundtrip_exact(self, results, tmp_path):
        path = tmp_path / "repo.json"
        repo = ExperimentRepository(results)
        repo.save(path)
        assert repositories_equal(repo, ExperimentRepository.load(path))

    @given(results=st.lists(experiment_results(), min_size=1, max_size=3))
    @common_settings
    def test_npz_roundtrip_exact(self, results, tmp_path):
        path = tmp_path / "repo.npz"
        repo = ExperimentRepository(results)
        repo.save_npz(path)
        assert repositories_equal(repo, ExperimentRepository.load_npz(path))

    @given(results=st.lists(experiment_results(), min_size=1, max_size=3))
    @common_settings
    def test_cross_format_equality(self, results, tmp_path):
        """JSON-loaded and npz-loaded repositories compare equal."""
        repo = ExperimentRepository(results)
        repo.save(tmp_path / "repo.json")
        repo.save_npz(tmp_path / "repo.npz")
        assert repositories_equal(
            ExperimentRepository.load(tmp_path / "repo.json"),
            ExperimentRepository.load_npz(tmp_path / "repo.npz"),
        )

    def test_empty_repository_roundtrips(self, tmp_path):
        repo = ExperimentRepository()
        repo.save(tmp_path / "empty.json")
        repo.save_npz(tmp_path / "empty.npz")
        assert len(ExperimentRepository.load(tmp_path / "empty.json")) == 0
        assert len(ExperimentRepository.load_npz(tmp_path / "empty.npz")) == 0

    @given(result=experiment_results())
    @common_settings
    def test_cache_entry_roundtrip_exact(self, result, tmp_path):
        cache = CorpusCache(tmp_path / "cache")
        cache.put("k" * 64, result)
        assert results_equal(result, cache.get("k" * 64))

    @given(result=experiment_results())
    @common_settings
    def test_subsample_index_preserved(self, result, tmp_path):
        path = tmp_path / "repo.npz"
        ExperimentRepository([result]).save_npz(path)
        loaded = ExperimentRepository.load_npz(path)[0]
        assert loaded.subsample_index == result.subsample_index


class TestNonFiniteGuard:
    @pytest.fixture
    def result(self):
        return ExperimentResult(
            workload_name="tpcc",
            workload_type="transactional",
            sku=SKU(cpus=4, memory_gb=32.0),
            terminals=2,
            run_index=0,
            data_group=0,
            sample_interval_s=10.0,
            resource_series=np.ones((4, 3)),
            throughput_series=np.full(4, 100.0),
            plan_matrix=np.ones((2, 3)),
            plan_txn_names=["NewOrder", "Payment"],
            throughput=100.0,
            latency_ms=20.0,
            per_txn_latency_ms={"NewOrder": 25.0, "Payment": 15.0},
            per_txn_weights={"NewOrder": 0.6, "Payment": 0.4},
            bottleneck="cpu",
        )

    def corrupt(self, result, field, value):
        if field in ("resource_series", "throughput_series", "plan_matrix"):
            array = getattr(result, field).copy()
            array.flat[0] = value
            return clone_with(result, **{field: array})
        return clone_with(result, **{field: value})

    @pytest.mark.parametrize(
        "field",
        ["resource_series", "throughput_series", "plan_matrix",
         "throughput", "latency_ms"],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_every_format_rejects(self, result, field, value, tmp_path):
        bad = self.corrupt(result, field, value)
        with pytest.raises(RepositoryError, match="non-finite"):
            ensure_finite(bad)
        repo = ExperimentRepository([bad])
        with pytest.raises(RepositoryError, match="non-finite"):
            repo.save(tmp_path / "r.json")
        with pytest.raises(RepositoryError, match="non-finite"):
            repo.save_npz(tmp_path / "r.npz")
        with pytest.raises(RepositoryError, match="non-finite"):
            CorpusCache(tmp_path / "cache").put("k" * 64, bad)

    def test_non_finite_per_txn_latency_rejected(self, result):
        bad = clone_with(
            result,
            per_txn_latency_ms={**result.per_txn_latency_ms, "x": np.nan},
        )
        with pytest.raises(RepositoryError, match="non-finite"):
            ensure_finite(bad)

    def test_finite_result_passes(self, result):
        ensure_finite(result)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_error_names_the_first_bad_position(self, result, value):
        series = result.resource_series.copy()
        series[3, 0] = series[2, 1] = value
        with pytest.raises(RepositoryError) as raised:
            ensure_finite(clone_with(result, resource_series=series))
        assert str(raised.value) == (
            f"experiment {result.experiment_id}: non-finite value "
            f"{float(value)} in resource_series[2, 1]"
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_loaders_reject(self, result, suffix, value, tmp_path, monkeypatch):
        bad = self.corrupt(result, "resource_series", value)
        path = tmp_path / f"r{suffix}"
        corpus = ExperimentRepository([result, bad])
        # Written past the check on save, as another program could.
        monkeypatch.setattr(repository, "ensure_finite", lambda result: None)
        (corpus.save if suffix == ".json" else corpus.save_npz)(path)
        monkeypatch.undo()
        load = (
            ExperimentRepository.load if suffix == ".json"
            else ExperimentRepository.load_npz
        )
        message = f"non-finite value {float(value)} in resource_series[0, 0]"
        with pytest.raises(RepositoryError, match=re.escape(message)):
            load(path)
