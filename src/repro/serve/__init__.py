"""Prediction-as-a-service: the ``repro serve`` hot path.

The batch CLI answers one migration question per process: load the
reference corpus, select features, rank similarity, fit a scaling
model, print a report, exit.  Every invocation pays the full pipeline
cost even when the corpus — and most of the work — is identical to the
previous run.  This package turns the pipeline into a long-running
HTTP/JSON service where that repeated work is paid once:

- :mod:`repro.serve.protocol` — canonical JSON encoding and the
  content-address request digests everything else keys on;
- :mod:`repro.serve.cache` — the in-process digest-keyed LRU response
  cache (tier 1) and single-flight coalescing of identical in-flight
  requests;
- :mod:`repro.serve.service` — the warm pipeline state: features
  selected once, a representation builder frozen on the references,
  reference matrices and their workload groups built once, scaling
  models memoized per (reference, SKU pair); ``/v1/predict`` transfers
  from the nearest reference of the ranking ``/v1/rank`` answers with;
- :mod:`repro.serve.batcher` — the cold-path admission queue: one
  scheduler thread computes distinct requests one at a time, in
  arrival order;
- :mod:`repro.serve.app` — the transport-free request handler: routes,
  cache tiers, metrics, ledger rows; every answer is delivered on the
  request's own connection;
- :mod:`repro.serve.server` — the stdlib ``ThreadingHTTPServer``
  binding with graceful SIGTERM/SIGINT drain;
- :mod:`repro.serve.loadgen` — the urllib load generator behind
  ``benchmarks/test_serve_scaling.py`` and the CI smoke job.

See ``docs/serving.md`` for the API schema and the cache-tier design.
"""

from repro.serve.app import ServeApp
from repro.serve.batcher import BatchScheduler
from repro.serve.cache import ResponseCache, SingleFlight
from repro.serve.loadgen import LoadGenerator, http_json
from repro.serve.protocol import (
    SERVE_FORMAT_VERSION,
    canonical_json,
    payload_digest,
    request_digest,
)
from repro.serve.server import PredictionServer, make_server
from repro.serve.service import PredictionService

__all__ = [
    "BatchScheduler",
    "LoadGenerator",
    "PredictionServer",
    "PredictionService",
    "ResponseCache",
    "SERVE_FORMAT_VERSION",
    "ServeApp",
    "SingleFlight",
    "canonical_json",
    "http_json",
    "make_server",
    "payload_digest",
    "request_digest",
]
