"""Protocol invariants: canonical JSON, digests, wire decoding."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.serve.protocol import (
    app_identity,
    canonical_json,
    decode_experiments,
    encode_experiment,
    experiment_digest,
    file_digest,
    payload_digest,
    request_digest,
)
from repro.workloads import SKU
from repro.workloads.repository import ARRAY_FIELDS, results_equal
from repro.workloads.runner import ExperimentResult


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": {"y": 2, "x": 3}})
    b = canonical_json({"a": {"x": 3, "y": 2}, "b": 1})
    assert a == b
    assert " " not in a  # compact separators


def test_canonical_json_rejects_non_serializable():
    with pytest.raises(ServeError):
        canonical_json({"x": object()})
    with pytest.raises(ServeError):
        canonical_json({"x": float("nan")})


def test_payload_digest_stable_and_distinct():
    assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})
    assert payload_digest({"a": 1}) != payload_digest({"a": 2})


def test_request_digest_ignores_mode():
    sync = request_digest("id", "/v1/rank", {"target": [1], "mode": "sync"})
    async_ = request_digest("id", "/v1/rank", {"target": [1], "mode": "async"})
    bare = request_digest("id", "/v1/rank", {"target": [1]})
    assert sync == async_ == bare


def test_request_digest_varies_with_inputs():
    base = request_digest("id", "/v1/rank", {"target": [1]})
    assert request_digest("other", "/v1/rank", {"target": [1]}) != base
    assert request_digest("id", "/v1/predict", {"target": [1]}) != base
    assert request_digest("id", "/v1/rank", {"target": [2]}) != base


def test_app_identity_varies_with_config_and_corpus():
    base = app_identity({"top_k": 7}, "abc")
    assert app_identity({"top_k": 5}, "abc") != base
    assert app_identity({"top_k": 7}, "def") != base


def test_file_digest_matches_hashlib(tmp_path):
    path = tmp_path / "refs.bin"
    path.write_bytes(b"corpus bytes")
    assert file_digest(path) == hashlib.sha256(b"corpus bytes").hexdigest()


def test_decode_experiments_roundtrip(serve_target):
    payload = [encode_experiment(result) for result in serve_target]
    decoded = decode_experiments(payload, what="target")
    assert len(decoded) == len(serve_target)
    for original, roundtripped in zip(serve_target, decoded):
        assert results_equal(original, roundtripped)


@pytest.mark.parametrize(
    "entries", [None, [], "not-a-list", [42], [{"workload_name": "x"}]]
)
def test_decode_experiments_rejects_malformed(entries):
    with pytest.raises(ServeError):
        decode_experiments(entries, what="target")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_decode_experiments_rejects_non_finite(serve_target, value):
    payload = [encode_experiment(result) for result in serve_target]
    payload[-1]["resource_series"][3][1] = value
    message = (
        f"target[{len(payload) - 1}] is malformed: experiment "
        f"{serve_target[-1].experiment_id}: non-finite value {value} in "
        f"resource_series[3, 1]"
    )
    with pytest.raises(ServeError, match=re.escape(message)):
        decode_experiments(payload, what="target")


def respelled(value, *, in_array: bool = False) -> str:
    """JSON text of ``value`` with every object's keys in reverse order
    and each array number spelled ``format(x, ".17e")``, or as an
    integer where that parses back to the same float (``1`` for
    ``1.0``)."""
    if isinstance(value, dict):
        members = [
            f"{json.dumps(key)}:{respelled(item, in_array=key in ARRAY_FIELDS)}"
            for key, item in reversed(list(value.items()))
        ]
        return "{" + ", ".join(members) + "}"
    if isinstance(value, list):
        return "[" + ",".join(respelled(v, in_array=in_array) for v in value) + "]"
    if in_array and isinstance(value, float):
        if value.is_integer() and repr(float(int(value))) == repr(value):
            return str(int(value))
        return format(value, ".17e")
    return json.dumps(value)


def changed(value):
    """A value of ``value``'s type that differs from it in one place."""
    if isinstance(value, np.ndarray):
        other = value.copy()
        other.flat[0] = np.nextafter(other.flat[0], np.inf)
        return other
    if isinstance(value, SKU):
        return dataclasses.replace(value, cpus=value.cpus + 1)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return [*value[:-1], value[-1] + "x"]
    if isinstance(value, dict):
        if value:
            first = next(iter(value))
            return {**value, first: changed(value[first])}
        return {"note": "added"}
    if value is None:
        return 0
    raise TypeError(f"no change defined for {type(value).__name__}")


class TestExperimentDigest:
    def test_same_for_reordered_keys_and_respelled_numbers(self, serve_target):
        payload = [encode_experiment(result) for result in serve_target]
        payload[0]["plan_matrix"][0][0] = 1.0
        payload[0]["throughput_series"][0] = 1234.5
        text = respelled(payload)
        assert '"plan_matrix":[[1,' in text
        assert '"throughput_series":[1.23450000000000000e+03,' in text
        # Hashing the parsed JSON would tell the two apart: 1 is an int.
        assert canonical_json(json.loads(text)) != canonical_json(payload)
        original = decode_experiments(payload, what="target")
        again = decode_experiments(json.loads(text), what="target")
        assert [experiment_digest(r) for r in again] == [
            experiment_digest(r) for r in original
        ]

    def test_changes_with_every_field(self, serve_target):
        base = serve_target[0]
        digests = {experiment_digest(base)}
        for field in dataclasses.fields(ExperimentResult):
            value = changed(getattr(base, field.name))
            other = dataclasses.replace(base, **{field.name: value})
            digest = experiment_digest(other)
            assert digest not in digests, field.name
            digests.add(digest)

    @pytest.mark.parametrize("name", ARRAY_FIELDS)
    def test_changes_with_one_ulp(self, serve_target, name):
        base = serve_target[0]
        values = getattr(base, name).copy()
        position = (values.size // 2,)
        flat = values.reshape(-1)
        flat[position] = np.nextafter(flat[position], -np.inf)
        other = dataclasses.replace(base, **{name: values})
        assert experiment_digest(other) != experiment_digest(base)

    @pytest.mark.parametrize("name", ARRAY_FIELDS)
    def test_changes_with_the_sign_of_zero(self, serve_target, name):
        base = serve_target[0]
        positive = getattr(base, name).copy()
        positive.reshape(-1)[0] = 0.0
        negative = positive.copy()
        negative.reshape(-1)[0] = -0.0
        assert np.array_equal(positive, negative)
        assert experiment_digest(
            dataclasses.replace(base, **{name: positive})
        ) != experiment_digest(dataclasses.replace(base, **{name: negative}))

    @pytest.mark.parametrize("name", ARRAY_FIELDS)
    def test_changes_with_the_shape(self, serve_target, name):
        base = serve_target[0]
        values = getattr(base, name)
        reshaped = values.reshape(-1) if values.ndim > 1 else values[:, None]
        assert reshaped.tobytes() == values.tobytes()
        other = dataclasses.replace(base, **{name: reshaped})
        assert experiment_digest(other) != experiment_digest(base)
