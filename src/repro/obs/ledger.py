"""Persistent run ledger: one JSONL row per CLI invocation.

The ledger is the cross-run memory of the toolchain: every ``repro``
command appends one row describing what ran, how long each stage took,
and how the caches behaved — so "why was this run slow?" can be answered
*after the fact* from ``repro obs report`` / ``repro obs diff`` without
re-running anything.

Storage follows the repo's JSONL discipline (:mod:`repro.exec.journal`,
which the :class:`~repro.similarity.distcache.DistanceCache` and the
:class:`~repro.ml.fitexec.FitCache` also use): append-only, torn tails
healed before appending, corrupt lines counted (``ledger.corrupt_total``)
but never fatal.  A crash mid-append therefore costs at most one row.

Row schema (``ledger_version`` 1)::

    {
      "ledger_version": 1,
      "ts_unix": 1754550000.0,          # wall-clock append time
      "command": "similarity",           # CLI subcommand
      "argv": ["similarity", "--runs", "3", ...],
      "config_fingerprint": "ab12...",   # sha256 over the resolved options
      "exit_code": 0,
      "elapsed_s": 12.34,                # whole-invocation wall time
      "cpu_s": 11.9,                     # whole-invocation process CPU
      "stages": {"similarity.distance_matrix": {"wall_s": ..., "cpu_s": ...}},
      "caches": {"distance_cache": {"hits": 435, "misses": 0, ...}},
      "metrics": {...},                  # condensed metric snapshot
      "profile": {...},                  # ProfileReport.to_dict(), optional
      "manifest_digest": "...",          # RunManifest digest, optional
      "versions": {"python": "3.12.3", "repro": "..."}
    }
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path

from repro.exec.journal import append_jsonl, load_jsonl
from repro.obs.logging import get_logger
from repro.obs.metrics import get_metrics

logger = get_logger(__name__)

#: Bump when the row schema changes incompatibly.
LEDGER_VERSION = 1

#: Cache families whose hit/miss/corrupt counters the ledger condenses.
CACHE_FAMILIES = ("corpus_cache", "distance_cache", "fit_cache")

#: Default ledger file name when a directory is given.
LEDGER_FILENAME = "ledger.jsonl"


def resolve_ledger_path(path: str | Path) -> Path:
    """Map a ledger argument onto a concrete JSONL file path.

    A path ending in ``.jsonl`` is used as-is; anything else is treated
    as a directory holding ``ledger.jsonl``.
    """
    path = Path(path).expanduser()
    if path.suffix == ".jsonl":
        return path
    return path / LEDGER_FILENAME


def config_fingerprint(command: str, options: dict) -> str:
    """SHA-256 over a command and its resolved options.

    Rows with equal fingerprints ran the same configuration, which is
    what makes them comparable as regression baselines.  Options must be
    JSON-serializable; non-serializable values are stringified.
    """
    payload = json.dumps(
        {"command": command, "options": options},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def condense_metrics(snapshot: dict) -> dict:
    """Reduce a full metrics snapshot to ledger-sized leaves.

    Counters and gauges keep their value; histograms keep only
    ``count``/``sum`` (the per-observation data stays in the metrics
    export, not the ledger).
    """
    out: dict = {}
    for name, entry in snapshot.items():
        if entry.get("type") == "histogram":
            out[name] = {
                "type": "histogram",
                "count": entry["count"],
                "sum": entry["sum"],
            }
        else:
            out[name] = {"type": entry["type"], "value": entry["value"]}
    return out


def cache_stats(snapshot: dict, families=CACHE_FAMILIES) -> dict:
    """Hit/miss/corrupt counts (and hit rate) per cache family.

    Reads the ``<family>.hits_total`` / ``misses_total`` /
    ``corrupt_total`` counters out of a metrics snapshot; families with
    no activity are omitted.
    """

    def value(name: str) -> float:
        entry = snapshot.get(name)
        return float(entry["value"]) if entry else 0.0

    out: dict = {}
    for family in families:
        hits = value(f"{family}.hits_total")
        misses = value(f"{family}.misses_total")
        corrupt = value(f"{family}.corrupt_total")
        if hits == misses == corrupt == 0:
            continue
        lookups = hits + misses
        out[family] = {
            "hits": hits,
            "misses": misses,
            "corrupt": corrupt,
            "hit_rate": hits / lookups if lookups else 0.0,
        }
    return out


def stage_times(tree: list[dict]) -> dict:
    """Per-stage wall/CPU seconds from a span tree.

    The stages are the children of the ``cli.*`` root span (or the roots
    themselves when no such root exists); sibling stages with the same
    name accumulate.
    """
    nodes: list[dict] = []
    for root in tree:
        if root.get("name", "").startswith("cli.") and root.get("children"):
            nodes.extend(root["children"])
        else:
            nodes.append(root)
    stages: dict[str, dict] = {}
    for node in nodes:
        entry = stages.setdefault(
            node["name"], {"wall_s": 0.0, "cpu_s": 0.0, "count": 0}
        )
        entry["wall_s"] += node.get("wall_ms", 0.0) / 1e3
        entry["cpu_s"] += node.get("cpu_ms", 0.0) / 1e3
        entry["count"] += 1
    return stages


def build_row(
    *,
    command: str,
    argv: list[str],
    options: dict,
    exit_code: int,
    elapsed_s: float,
    cpu_s: float,
    metrics_snapshot: dict | None = None,
    tree: list[dict] | None = None,
    profile: dict | None = None,
    manifest_digest: str | None = None,
) -> dict:
    """Assemble one ledger row from an invocation's telemetry."""
    snapshot = metrics_snapshot if metrics_snapshot is not None else {}
    row = {
        "ledger_version": LEDGER_VERSION,
        "ts_unix": time.time(),
        "command": command,
        "argv": list(argv),
        "config_fingerprint": config_fingerprint(command, options),
        "exit_code": int(exit_code),
        "elapsed_s": float(elapsed_s),
        "cpu_s": float(cpu_s),
        "stages": stage_times(tree or []),
        "caches": cache_stats(snapshot),
        "metrics": condense_metrics(snapshot),
        "versions": {
            "python": platform.python_version(),
            "platform": platform.system(),
        },
    }
    if profile is not None:
        row["profile"] = profile
    if manifest_digest is not None:
        row["manifest_digest"] = manifest_digest
    return row


class RunLedger:
    """Append-only, torn-tail-tolerant JSONL ledger of CLI runs."""

    def __init__(self, path: str | Path):
        self.path = resolve_ledger_path(path)

    def append(self, row: dict) -> None:
        """Append one row, healing a torn tail first.

        A previous crash mid-append can leave the file without a trailing
        newline; appending blindly would corrupt *two* rows, so the tail
        is terminated before the new row is written.  Failures are logged
        and swallowed — the ledger is observability, not correctness.
        """
        append_jsonl(self.path, row, sort_keys=True, label="ledger")

    def rows(self) -> list[dict]:
        """Every readable row, oldest first.

        Corrupt lines (torn tails, truncated writes) are counted into
        ``ledger.corrupt_total`` and skipped, never fatal.
        """
        entries, corrupt = load_jsonl(self.path, label="ledger")
        rows: list[dict] = []
        for row in entries:
            if isinstance(row, dict) and "ledger_version" in row:
                rows.append(row)
            else:
                corrupt += 1
        if corrupt:
            get_metrics().counter("ledger.corrupt_total").inc(corrupt)
            logger.warning(
                "ledger %s: skipped %d corrupt line(s)", self.path, corrupt
            )
        return rows

    def last(self) -> dict | None:
        """The newest readable row, or ``None`` on an empty ledger."""
        rows = self.rows()
        return rows[-1] if rows else None

    def __len__(self) -> int:
        return len(self.rows())
