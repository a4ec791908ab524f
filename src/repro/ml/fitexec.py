"""Shared fit/score execution: parallel unit fan-out and a content-addressed fit cache.

The expensive evaluation stages — wrapper feature selection (SFS greedy
steps, RFE refits), stability-selection bootstrap repetitions, and the
cross-validated prediction-strategy grids of Tables 5–6 — all reduce to
the same shape of work: many *independent* fit/score units whose results
are pure functions of their inputs.  This module provides the two shared
pieces they build on:

- :func:`run_units` evaluates a list of picklable units with a
  module-level worker function, serially or over a
  ``ProcessPoolExecutor``.  The *same* worker function runs on both
  paths and results come back in submission order, so parallel output is
  bit-identical to serial (the contract every parallel engine in this
  repo honours; see ``docs/performance.md``).  Given a cache and one
  key per unit, it alone looks the units up, runs only the misses and
  writes their values back.
- :class:`FitCache` memoizes unit results under a content address
  (:func:`fit_key`): SHA-256 over the input arrays' shapes and bytes,
  the estimator name and canonicalized parameters, the seed(s), the fold
  spec, and the scorer.  A warm re-run of an SFS selection or a
  Table 5/6 grid therefore performs **zero** model fits.

Storage is the shared :class:`~repro.exec.journal.KeyValueJournal`, as
for the :class:`~repro.similarity.distcache.DistanceCache`: one
append-only JSONL file, torn tails healed before appending, corrupt
lines counted (``fit_cache.corrupt_total``) but never fatal, and
non-finite values never persisted.  Cached values round-trip exactly
(``repr``-based JSON floats), which is what keeps warm-cache runs
bit-identical to cold ones.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Callable, Sequence

from repro.exceptions import ValidationError
from repro.exec.arrays import float64_digest
from repro.exec.engine import ExecTask, run_tasks
from repro.exec.journal import KeyValueJournal
from repro.obs.metrics import get_metrics
from repro.obs.tracing import span
from repro.utils.parallel import resolve_jobs

#: Bump when the key derivation or the on-disk layout changes; every
#: existing entry stops being addressable.
FIT_CACHE_FORMAT_VERSION = 1

#: SHA-256 content address of an array (shape plus float64 bytes).
array_digest = float64_digest


def fit_key(
    *,
    estimator: str,
    arrays: dict,
    params: dict | None = None,
    seed=None,
    fold: str | None = None,
    scorer: str | None = None,
) -> str:
    """Cache key for one fit/score unit.

    ``arrays`` maps role names (``"X"``, ``"y"``, ``"groups"`` …) to the
    arrays the unit consumes; each is digested by content, so any change
    to the data changes the key.  ``params`` must be a JSON-serializable
    description of the estimator configuration, ``seed`` an int or a
    list of ints, ``fold`` a string describing the CV split scheme, and
    ``scorer`` the scoring function's name.
    """
    payload = json.dumps(
        {
            "format": FIT_CACHE_FORMAT_VERSION,
            "estimator": estimator,
            "params": params or {},
            "seed": seed,
            "fold": fold,
            "scorer": scorer,
            "arrays": {
                name: array_digest(value)
                for name, value in sorted(arrays.items())
            },
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _all_finite(value) -> bool:
    """True when every number in a scalar/list/dict tree is finite."""
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_all_finite(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and _all_finite(item)
            for key, item in value.items()
        )
    return False


class FitCache(KeyValueJournal):
    """On-disk memo of fit/score results, keyed by :func:`fit_key`.

    Values are finite floats, or (nested) lists/str-keyed dicts of them —
    a CV score, an importance vector, a grid cell's fold scores.  The
    entry set is held in memory and mirrored to ``fits.jsonl`` under
    ``root``; ``get``/``put`` publish ``fit_cache.hits_total`` /
    ``fit_cache.misses_total`` through :mod:`repro.obs`.
    """

    filename = "fits.jsonl"
    family = "fit_cache"
    valid = staticmethod(_all_finite)


def count_fits(n: int) -> None:
    """Publish ``n`` model fits to ``ml.fits_total``.

    Unit workers call this for the fits they perform; :func:`run_units`
    runs every unit under telemetry capture and merges the counts back,
    so serial and parallel runs report identical totals.
    """
    if n:
        get_metrics().counter("ml.fits_total").inc(n)


def _unit_body(worker: Callable, unit, index: int, label: str):
    with span("ml.fitexec.unit", attrs={"label": label, "unit": index}):
        return worker(unit)


def _fit_unit(payload, attempt: int, in_worker: bool):
    """Engine adapter: unpack one ``(worker, unit, index, label)`` unit."""
    worker, unit, index, label = payload
    return _unit_body(worker, unit, index, label)


def run_units(
    worker: Callable,
    units: Sequence,
    *,
    jobs: int | None = None,
    label: str = "fitexec",
    keys: Sequence[str] | None = None,
    cache: FitCache | None = None,
) -> list:
    """Evaluate independent fit/score units; values in unit order.

    ``worker`` must be a module-level (picklable) function taking one
    unit and returning its value, which must be what ``cache`` stores: a
    float, a list, or a str-keyed dict of them.  With a ``cache``,
    ``keys`` holds one :func:`fit_key` per unit: units whose key the
    cache holds return the cached value and do not run, and the value of
    every unit that runs is written back under its key.

    ``jobs`` follows the repo-wide convention (``None``/``1`` serial,
    ``0`` one worker per CPU).  Execution rides on the shared
    :func:`repro.exec.engine.run_tasks` engine: a unit failure
    propagates (``on_error="raise"``, no retry budget — a fit error is
    a bug, not a transient), a dead worker rebuilds the pool and the
    unit gets one attributable in-process attempt, and when no pool can
    be created the units run serially with a warning and one
    ``ml.fitexec.pool_fallback_total`` increment.  The exact same
    worker function runs on both paths, which is what makes parallel
    output bit-identical to serial.

    Every unit runs under :func:`repro.obs.telemetry.capture_telemetry`
    and its snapshot is merged back **in submission order** (the order
    results are consumed in on both paths), so the fits a worker counts
    (:func:`count_fits`) and any other metrics or spans it records
    survive worker processes and match a serial run exactly.
    """
    units = list(units)
    if cache is None:
        values: list = [None] * len(units)
    else:
        if keys is None or len(keys) != len(units):
            raise ValidationError("a fit cache needs one key per unit")
        values = [cache.get(key) for key in keys]
    misses = [index for index, value in enumerate(values) if value is None]
    n_workers = resolve_jobs(jobs)
    with span(
        "ml.fitexec",
        attrs={"label": label, "n_units": len(misses), "workers": n_workers},
    ):
        outputs = run_tasks(
            [
                ExecTask(
                    index=position,
                    fn=_fit_unit,
                    payload=(worker, units[index], index, label),
                    task_id=f"{label}[{index}]",
                )
                for position, index in enumerate(misses)
            ],
            jobs=jobs,
            retry=1,
            label="ml.fitexec",
            on_error="raise",
        )
    for index, value in zip(misses, outputs):
        values[index] = value
        if cache is not None:
            cache.put(keys[index], value)
    return values
