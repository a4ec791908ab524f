"""Protocol invariants: canonical JSON, digests, wire decoding."""

from __future__ import annotations

import hashlib
import math
import re

import pytest

from repro.exceptions import ServeError
from repro.serve.protocol import (
    app_identity,
    canonical_json,
    decode_experiments,
    encode_experiment,
    file_digest,
    payload_digest,
    request_digest,
)
from repro.workloads.repository import results_equal


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
