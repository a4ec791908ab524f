"""Canonical request encoding and content-address digests for serving.

Every caching tier in the server keys on one value: the **request
digest**, a SHA-256 over the canonical JSON form of (format version,
application identity, endpoint, request payload).  Two requests with
the same digest are the same computation, so the response cache, the
single-flight table, and the job queue can all treat the digest as the
request's identity.

Canonical JSON is ``json.dumps`` with sorted keys and compact
separators — the same bytes for the same logical payload regardless of
key order or whitespace in what the client sent.  Keys whose values
change routing but not the *answer* (currently only ``mode``, which
selects sync vs async delivery) are stripped before hashing, so an
async resubmission of a sync request hits the same cache entry.

The target is addressed by what it decodes to, not by how it was
spelled: the app decodes it first and hashes the payload with
``"target"`` replaced by one :func:`experiment_digest` per experiment.
That digest hashes the scalar fields as canonical JSON and each array
by :func:`~repro.exec.arrays.float64_digest` (shape plus bytes), the
content address the distance and fit caches already use.  Hashing
the arrays' bytes costs a small fraction of re-encoding every sample
as JSON text, and requests whose numbers are spelled differently
(``1000.0``, ``1e3``) but decode to the same experiments share a
digest.

The **application identity** folds in everything server-side that
changes answers: the format version, the resolved pipeline
configuration, and the digest of the reference-corpus file.  Restart
the server on a different corpus or config and every digest changes —
stale cache entries can never be served.

A **replay key** (:func:`replay_key`) addresses a request by its raw
bytes instead: a SHA-256 of the endpoint and the body as received.  It
is no content address — two spellings of one target have two keys —
but the same bytes at the same endpoint always parse, decode and
digest alike under one server identity, so the response cache can map
a key to the digest the full path computed for it and answer a
byte-identical repeat before parsing it.
"""

from __future__ import annotations

import hashlib
import json

from repro.exceptions import ServeError
from repro.exec.arrays import float64_digest
from repro.workloads.repository import (
    ARRAY_FIELDS,
    ensure_finite,
    result_from_dict,
    result_to_dict,
)

#: Bumped whenever the request/response schema changes shape; part of
#: every request digest, so a schema change invalidates cached answers.
#: v2: ``/v1/predict`` responses dropped the embedded ``"ranking"``;
#: they name the nearest reference of the ranking ``/v1/rank`` answers
#: with for the same target.
SERVE_FORMAT_VERSION = 2

#: Payload keys that select delivery, not computation; stripped before
#: hashing so sync and async submissions of one request share a digest.
VOLATILE_KEYS = ("mode",)


def canonical_json(payload) -> str:
    """Deterministic JSON text: sorted keys, compact separators."""
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise ServeError(f"payload is not canonical-JSON-encodable: {exc}")


def payload_digest(payload) -> str:
    """SHA-256 hex digest of a payload's canonical JSON form."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def endpoint_of(path: str) -> str:
    """The route a request path names: trailing slashes dropped."""
    return path.rstrip("/") or "/"


def replay_key(path: str, body: bytes) -> str:
    """The address of one request's raw bytes at one endpoint.

    A SHA-256 of the normalized endpoint (:func:`endpoint_of`), prefixed
    by its length so no endpoint and body run into another pair's, then
    the body exactly as received.
    """
    endpoint = endpoint_of(path).encode()
    digest = hashlib.sha256(b"%d:%s" % (len(endpoint), endpoint))
    digest.update(body)
    return digest.hexdigest()


def request_digest(identity: str, endpoint: str, payload: dict) -> str:
    """The content address of one request against one server identity."""
    scrubbed = {
        key: value
        for key, value in payload.items()
        if key not in VOLATILE_KEYS
    }
    return payload_digest(
        {
            "version": SERVE_FORMAT_VERSION,
            "identity": identity,
            "endpoint": endpoint,
            "payload": scrubbed,
        }
    )


def app_identity(config_dict: dict, references_digest: str) -> str:
    """Digest of the server-side state that determines answers."""
    return payload_digest(
        {
            "version": SERVE_FORMAT_VERSION,
            "config": config_dict,
            "references": references_digest,
        }
    )


def file_digest(path) -> str:
    """SHA-256 of a file's bytes (the reference-corpus fingerprint)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def decode_experiments(entries, *, what: str) -> list:
    """Decode a request's experiment list (the repository wire schema).

    ``entries`` must be a non-empty list of experiment dicts exactly as
    :func:`repro.workloads.repository.result_to_dict` writes them, with
    finite values only (:func:`~repro.workloads.repository.ensure_finite`).
    Raises :class:`~repro.exceptions.ServeError` naming the offending
    field so clients get a 400 with a reason, not a stack trace.
    """
    if not isinstance(entries, list) or not entries:
        raise ServeError(f"{what} must be a non-empty list of experiments")
    results = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ServeError(f"{what}[{position}] must be an object")
        try:
            result = result_from_dict(entry)
            ensure_finite(result)
            results.append(result)
        except Exception as exc:
            raise ServeError(f"{what}[{position}] is malformed: {exc}")
    return results


def experiment_digest(result) -> str:
    """The content address of one decoded experiment.

    The canonical JSON of its wire form with each array field replaced
    by its :func:`~repro.exec.arrays.float64_digest`: experiments that
    decode to equal values share a digest however their numbers were
    spelled, and any decoded bit, shape or scalar that differs changes
    it.
    """
    fields = result_to_dict(result, arrays=False)
    for name in ARRAY_FIELDS:
        fields[name] = float64_digest(getattr(result, name))
    return payload_digest(fields)


def encode_experiment(result) -> dict:
    """Inverse of :func:`decode_experiments` for one experiment."""
    return result_to_dict(result)
