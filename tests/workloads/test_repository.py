import dataclasses

import numpy as np
import pytest

from repro.exceptions import RepositoryError
from repro.workloads import (
    SKU,
    ExperimentRepository,
    results_equal,
)
from repro.workloads.repository import result_from_dict, result_to_dict
from repro.workloads.runner import ExperimentResult
from repro.workloads.sampling import systematic_subexperiments


class TestCollection:
    def test_len_and_iteration(self, small_corpus):
        assert len(small_corpus) == 330
        assert len(list(small_corpus)) == 330

    def test_by_workload(self, small_corpus):
        tpcc_only = small_corpus.by_workload("tpcc")
        assert len(tpcc_only) == 90
        assert all(r.workload_name == "tpcc" for r in tpcc_only)

    def test_by_terminals(self, small_corpus):
        subset = small_corpus.by_terminals(32)
        assert all(r.terminals == 32 for r in subset)
        assert len(subset) == 90  # tpcc + twitter + ycsb at 32 terminals

    def test_by_sku(self, small_corpus):
        sku = SKU(cpus=16, memory_gb=32.0)
        assert len(small_corpus.by_sku(sku)) == 330

    def test_workload_names_order(self, small_corpus):
        assert small_corpus.workload_names() == [
            "tpcc",
            "tpch",
            "tpcds",
            "twitter",
            "ycsb",
        ]

    def test_feature_matrix_shape(self, small_corpus):
        assert small_corpus.feature_matrix().shape == (330, 29)

    def test_labels_align_with_matrix(self, small_corpus):
        labels = small_corpus.labels()
        assert len(labels) == 330
        assert labels[0] == small_corpus[0].workload_name

    def test_empty_feature_matrix_raises(self):
        with pytest.raises(RepositoryError):
            ExperimentRepository().feature_matrix()

    def test_throughputs(self, small_corpus):
        values = small_corpus.throughputs()
        assert values.shape == (330,)
        assert np.all(values > 0)

    def test_filter_composition(self, small_corpus):
        subset = small_corpus.by_workload("twitter").by_terminals(8)
        assert len(subset) == 30


class TestPersistence:
    def test_round_trip(self, tpcc_run, tmp_path):
        subs = systematic_subexperiments(tpcc_run)[:3]
        repo = ExperimentRepository(subs)
        path = tmp_path / "corpus.json"
        repo.save(path)
        loaded = ExperimentRepository.load(path)
        assert len(loaded) == 3
        original, restored = repo[0], loaded[0]
        assert restored.experiment_id == original.experiment_id
        np.testing.assert_allclose(
            restored.resource_series, original.resource_series
        )
        np.testing.assert_allclose(restored.plan_matrix, original.plan_matrix)
        assert restored.sku == original.sku
        assert restored.per_txn_latency_ms == original.per_txn_latency_ms

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(RepositoryError, match="cannot read"):
            ExperimentRepository.load(tmp_path / "missing.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(RepositoryError, match="not valid JSON"):
            ExperimentRepository.load(path)

    def test_load_wrong_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"something": 1}')
        with pytest.raises(RepositoryError, match="not an experiment"):
            ExperimentRepository.load(path)

    def test_malformed_experiment_payload(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiments": [{"workload_name": "x"}]}')
        with pytest.raises(RepositoryError, match="malformed"):
            ExperimentRepository.load(path)

    def test_per_type_values_decode_as_floats(self, tpcc_run):
        payload = result_to_dict(tpcc_run)
        names = list(payload["per_txn_latency_ms"])
        payload["per_txn_latency_ms"] = {name: 2 for name in names}
        payload["per_txn_weights"] = {name: 1 for name in names}
        restored = result_from_dict(payload)
        for field in ("per_txn_latency_ms", "per_txn_weights"):
            values = getattr(restored, field)
            assert list(values) == names
            assert all(type(value) is float for value in values.values())
        assert restored.per_txn_latency_ms == {name: 2.0 for name in names}

    @pytest.mark.parametrize("field", ["per_txn_latency_ms", "per_txn_weights"])
    @pytest.mark.parametrize("value", [[1.0, 2.0], {"a": "fast"}])
    def test_malformed_per_type_values_raise(self, tpcc_run, field, value):
        payload = result_to_dict(tpcc_run)
        payload[field] = value
        with pytest.raises(RepositoryError, match="malformed"):
            result_from_dict(payload)


class TestCorpusBuilders:
    def test_paper_corpus_composition(self, small_corpus):
        from collections import Counter

        counts = Counter(small_corpus.labels())
        assert counts == {
            "tpcc": 90,
            "twitter": 90,
            "ycsb": 90,
            "tpch": 30,
            "tpcds": 30,
        }

    def test_scaling_repo_grid(self, scaling_repo):
        skus = {s.cpus for s in scaling_repo.skus()}
        assert skus == {2, 4, 8, 16}
        # tpcc/twitter at 3 concurrency levels, tpch serial: (3+3+1) runs
        # x 4 SKUs x 3 repetitions.
        assert len(scaling_repo) == 7 * 4 * 3

    def test_production_corpus_contains_pw(self):
        from repro.workloads import production_corpus

        corpus = production_corpus(duration_s=600.0, n_subexperiments=2)
        assert "pw" in corpus.workload_names()
        assert corpus.by_workload("pw")[0].sku.cpus == 80


def _perturbed(result, field):
    """``result`` with one field changed to a different value."""
    if field.startswith("sku."):
        attr = field[len("sku."):]
        value = getattr(result.sku, attr)
        changed = value + "-x" if isinstance(value, str) else value * 2
        return dataclasses.replace(
            result, sku=dataclasses.replace(result.sku, **{attr: changed})
        )
    value = getattr(result, field)
    if isinstance(value, np.ndarray):
        changed = value.copy()
        changed.flat[0] += 1.0
    elif isinstance(value, dict):
        changed = {**value, "extra": 1.0}
    elif isinstance(value, list):
        changed = [*value[:-1], value[-1] + "-x"]
    elif isinstance(value, str):
        changed = value + "-x"
    elif value is None:
        changed = 3
    else:
        changed = value + 1
    return dataclasses.replace(result, **{field: changed})


#: Every field ``results_equal`` compares; the SKU field by attribute.
EQUALITY_FIELDS = [
    "resource_series", "throughput_series", "plan_matrix",
    "workload_name", "workload_type",
    "sku.cpus", "sku.memory_gb", "sku.iops_capacity",
    "sku.log_bandwidth_mb_s", "sku.name",
    "terminals", "run_index", "data_group", "sample_interval_s",
    "plan_txn_names", "throughput", "latency_ms", "per_txn_latency_ms",
    "per_txn_weights", "bottleneck", "subsample_index", "metadata",
]


class TestResultsEqual:
    def test_fields_cover_the_result(self):
        covered = {field.split(".")[0] for field in EQUALITY_FIELDS}
        assert covered == {f.name for f in dataclasses.fields(ExperimentResult)}

    @pytest.mark.parametrize("field", EQUALITY_FIELDS)
    def test_perturbing_one_field_breaks_equality(self, tpcc_run, field):
        assert not results_equal(tpcc_run, _perturbed(tpcc_run, field))
