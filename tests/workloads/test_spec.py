import dataclasses
import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.workloads.catalog import WORKLOAD_NAMES, workload_by_name
from repro.workloads.spec import TransactionType, WorkloadSpec, WorkloadType

#: The numeric cost fields of a transaction profile.
NUMERIC_FIELDS = [
    field.name
    for field in dataclasses.fields(TransactionType)
    if field.type == "float"
]


def make_txn(**overrides):
    defaults = dict(
        name="t",
        weight=1.0,
        read_only=True,
        cpu_ms=1.0,
        logical_reads=10,
        logical_writes=0,
        rows_touched=5,
        rows_scanned=5,
        row_size_bytes=100,
        table_cardinality=1e6,
        plan_complexity=2.0,
        memory_grant_mb=1.0,
        locks_acquired=3,
    )
    defaults.update(overrides)
    return TransactionType(**defaults)


def make_workload(transactions):
    return WorkloadSpec(
        name="w",
        workload_type=WorkloadType.MIXED,
        tables=1,
        columns=5,
        indexes=0,
        transactions=tuple(transactions),
        working_set_gb=10.0,
        parallel_fraction=0.8,
        contention_factor=0.2,
    )


class TestTransactionType:
    def test_valid_construction(self):
        assert make_txn().name == "t"

    def test_zero_weight_rejected(self):
        with pytest.raises(ValidationError, match="weight"):
            make_txn(weight=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        """NaN fails every comparison, so ``<= 0`` alone would pass it."""
        with pytest.raises(ValidationError, match="weight"):
            make_txn(weight=bad)

    def test_zero_cpu_rejected(self):
        with pytest.raises(ValidationError, match="cpu_ms"):
            make_txn(cpu_ms=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_cpu_rejected(self, bad):
        with pytest.raises(ValidationError, match="cpu_ms"):
            make_txn(cpu_ms=bad)

    @pytest.mark.parametrize(
        "field",
        [
            "logical_reads",
            "rows_touched",
            "rows_scanned",
            "row_size_bytes",
            "table_cardinality",
            "plan_complexity",
            "memory_grant_mb",
            "locks_acquired",
        ],
    )
    def test_non_finite_cost_field_rejected(self, field):
        with pytest.raises(ValidationError, match=field):
            make_txn(**{field: float("nan")})

    def test_negative_cost_field_rejected(self):
        with pytest.raises(ValidationError, match="logical_reads"):
            make_txn(logical_reads=-1.0)

    def test_read_only_with_writes_rejected(self):
        with pytest.raises(ValidationError, match="read_only"):
            make_txn(read_only=True, logical_writes=5)

    def test_hot_spot_bounds(self):
        with pytest.raises(ValidationError, match="hot_spot"):
            make_txn(hot_spot_affinity=1.5)


class TestWorkloadSpec:
    def test_weights_normalized(self):
        spec = make_workload(
            [make_txn(name="a", weight=3.0), make_txn(name="b", weight=1.0)]
        )
        np.testing.assert_allclose(spec.weights, [0.75, 0.25])

    def test_read_only_fraction(self):
        spec = make_workload(
            [
                make_txn(name="r", weight=1.0, read_only=True),
                make_txn(
                    name="w", weight=1.0, read_only=False, logical_writes=3
                ),
            ]
        )
        assert spec.read_only_fraction == pytest.approx(0.5)

    def test_mix_mean(self):
        spec = make_workload(
            [
                make_txn(name="a", weight=1.0, cpu_ms=1.0),
                make_txn(name="b", weight=1.0, cpu_ms=3.0),
            ]
        )
        assert spec.mix_mean("cpu_ms") == pytest.approx(2.0)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_mix_means_equal_a_fresh_computation(self, name):
        """Memoized means keep the arithmetic, before and after a pickle
        round trip, and a spec pickles the same with or without them."""
        spec = workload_by_name(name)
        fresh_pickle = pickle.dumps(spec)

        def computed(attribute):
            values = [float(getattr(t, attribute)) for t in spec.transactions]
            return float(spec.weights @ np.array(values))

        assert {"weight", "cpu_ms", "hot_spot_affinity"} <= set(NUMERIC_FIELDS)
        for each in (spec, pickle.loads(fresh_pickle)):
            for attribute in NUMERIC_FIELDS:
                expected = computed(attribute)
                assert each.mix_mean(attribute) == expected
                assert each.mix_mean(attribute) == expected
            assert each == spec
            assert hash(each) == hash(spec)
            assert repr(each) == repr(spec)
            assert each.to_dict() == spec.to_dict()
            assert pickle.dumps(each) == fresh_pickle

    def test_mix_mean_of_an_unknown_attribute_raises(self):
        spec = make_workload([make_txn()])
        for _ in range(2):
            with pytest.raises(AttributeError):
                spec.mix_mean("no_such_field")

    def test_weights_is_a_fresh_array(self):
        spec = make_workload([make_txn(name="a"), make_txn(name="b")])
        spec.weights[0] = 9.0
        np.testing.assert_array_equal(spec.weights, [0.5, 0.5])

    def test_transaction_lookup(self):
        spec = make_workload([make_txn(name="x")])
        assert spec.transaction("x").name == "x"
        with pytest.raises(ValidationError, match="no transaction"):
            spec.transaction("missing")

    def test_empty_transactions_rejected(self):
        with pytest.raises(ValidationError, match="no transactions"):
            make_workload([])

    def test_parallel_fraction_bounds(self):
        with pytest.raises(ValidationError, match="parallel_fraction"):
            WorkloadSpec(
                name="w",
                workload_type=WorkloadType.MIXED,
                tables=1,
                columns=1,
                indexes=0,
                transactions=(make_txn(),),
                working_set_gb=1.0,
                parallel_fraction=1.0,
                contention_factor=0.0,
            )

    def test_access_skew_bounds(self):
        with pytest.raises(ValidationError, match="access_skew"):
            WorkloadSpec(
                name="w",
                workload_type=WorkloadType.MIXED,
                tables=1,
                columns=1,
                indexes=0,
                transactions=(make_txn(),),
                working_set_gb=1.0,
                parallel_fraction=0.5,
                contention_factor=0.0,
                access_skew=2.0,
            )

    def test_n_transaction_types(self):
        spec = make_workload([make_txn(name=f"t{i}") for i in range(4)])
        assert spec.n_transaction_types == 4

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_non_finite_working_set_rejected(self, bad):
        kwargs = dict(
            name="w",
            workload_type=WorkloadType.MIXED,
            tables=1,
            columns=1,
            indexes=0,
            transactions=(make_txn(),),
            working_set_gb=bad,
            parallel_fraction=0.5,
            contention_factor=0.0,
        )
        with pytest.raises(ValidationError, match="working_set_gb"):
            WorkloadSpec(**kwargs)

    @pytest.mark.parametrize(
        "field", ["contention_factor", "checkpoint_intensity", "base_noise"]
    )
    def test_non_finite_workload_knob_rejected(self, field):
        kwargs = dict(
            name="w",
            workload_type=WorkloadType.MIXED,
            tables=1,
            columns=1,
            indexes=0,
            transactions=(make_txn(),),
            working_set_gb=1.0,
            parallel_fraction=0.5,
            contention_factor=0.0,
        )
        kwargs[field] = float("nan")
        with pytest.raises(ValidationError, match=field):
            WorkloadSpec(**kwargs)


class TestSerialization:
    def test_round_trip_is_exact(self):
        spec = make_workload(
            [
                make_txn(name="a", weight=1.25, cpu_ms=0.1 + 0.2),
                make_txn(
                    name="b",
                    weight=2.0,
                    read_only=False,
                    logical_writes=7.0,
                    hot_spot_affinity=0.3,
                ),
            ]
        )
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_revalidates(self):
        payload = make_workload([make_txn()]).to_dict()
        payload["transactions"][0]["weight"] = float("nan")
        with pytest.raises(ValidationError, match="weight"):
            WorkloadSpec.from_dict(payload)
