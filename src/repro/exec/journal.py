"""The repo-wide JSONL append/load discipline, factored into one place.

Every append-only JSONL file in the repo goes through this module —
the two :class:`KeyValueJournal` stores
(:class:`~repro.similarity.distcache.DistanceCache` and
:class:`~repro.ml.fitexec.FitCache`), the
:class:`~repro.obs.ledger.RunLedger`, and the serving job queue — and
all share the same two rituals:

- **append**: heal a torn tail (a SIGKILL mid-append leaves the file
  without a trailing newline; appending blindly would corrupt *two*
  rows), then write the new line.
- **load**: parse line by line, skip and count torn/corrupt lines,
  never fail.

:func:`append_jsonl` composes the healing newline and the row into
**one** ``write()`` on an ``O_APPEND`` descriptor.  POSIX serializes
each append-mode write, so two *processes* appending to the same file
concurrently can interleave whole rows but never bytes inside a row
(``tests/exec/test_journal.py`` drives multiple writer processes
against one file to pin this down).  The worst a concurrent duplicate
heal can inject is an empty line, which every loader skips.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable

from repro.obs.logging import get_logger
from repro.obs.metrics import get_metrics

logger = get_logger(__name__)


def _needs_heal(path: Path) -> bool:
    """Whether the file ends mid-line (torn tail from an earlier kill)."""
    try:
        with path.open("rb") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() == 0:
                return False
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"
    except FileNotFoundError:
        return False


def append_jsonl(path: str | Path, row: dict, *, sort_keys: bool = False,
                 label: str = "journal") -> bool:
    """Append one JSON row to ``path``, healing a torn tail first.

    The heal prefix and the row are emitted as a single append-mode
    write, so concurrent writer processes cannot interleave inside a
    row.  Failures are logged under ``label`` and swallowed — every
    caller treats its JSONL as an optimization or accounting aid, never
    a correctness requirement.  Returns whether the append happened.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(row, sort_keys=sort_keys) + "\n"
        data = line.encode("utf-8")
        if _needs_heal(path):
            data = b"\n" + data
        with path.open("ab") as handle:
            handle.write(data)
            handle.flush()
    except OSError as exc:
        logger.warning("cannot append to %s %s: %s", label, path, exc)
        return False
    return True


def load_jsonl(path: str | Path, *,
               label: str = "journal") -> tuple[list, int]:
    """Parse every line of ``path``; returns ``(rows, n_corrupt)``.

    Torn or otherwise unparseable lines are counted, not fatal — the
    caller decides whether to publish the count as a metric.  A missing
    or unreadable file is an empty journal.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        logger.warning("cannot read %s %s: %s", label, path, exc)
        return [], 0
    rows: list = []
    corrupt = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            corrupt += 1
    return rows, corrupt


class KeyValueJournal:
    """A string-keyed memo held in memory and mirrored to one JSONL file.

    Each line of ``<root>/<filename>`` is one ``{"key": ..., "value":
    ...}`` entry.  A store is set up by three class attributes:
    ``filename``, ``family`` (the metric prefix: ``get``/``put`` publish
    ``<family>.hits_total`` and ``<family>.misses_total``, loading
    ``<family>.corrupt_total``) and ``valid``, the value rule.  A value
    the rule rejects is never persisted, and a loaded line whose value
    it rejects is a corrupt-counted miss, never an error.  The whole
    entry set is held in memory, so a store is loaded once per object:
    open it once and pass the object on.
    """

    filename: str = ""
    family: str = ""
    valid: Callable[[object], bool]

    def __init__(self, root: str | Path):
        self.root = Path(root).expanduser()
        self.path = self.root / self.filename
        self._label = self.family.replace("_", " ")
        self._entries: dict[str, object] = {}
        rows, corrupt = load_jsonl(self.path, label=self._label)
        for row in rows:
            key = row.get("key") if isinstance(row, dict) else None
            value = row.get("value") if isinstance(row, dict) else None
            if isinstance(key, str) and self.valid(value):
                self._entries[key] = value
            else:
                corrupt += 1
        if corrupt:
            get_metrics().counter(f"{self.family}.corrupt_total").inc(corrupt)
            logger.warning(
                "%s %s: skipped %d corrupt line(s)",
                self._label, self.path, corrupt,
            )

    @classmethod
    def coerce(cls, store):
        """Normalize a store argument: ``None``, a directory, or a store."""
        if store is None or isinstance(store, cls):
            return store
        if isinstance(store, (str, Path)):
            return cls(store)
        raise TypeError(
            f"expected None, a path, or a {cls.__name__}, "
            f"got {type(store).__name__}"
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        """The stored value for ``key``, or ``None`` on a miss."""
        value = self._entries.get(key)
        if value is None:
            get_metrics().counter(f"{self.family}.misses_total").inc()
        else:
            get_metrics().counter(f"{self.family}.hits_total").inc()
        return value

    def put(self, key: str, value) -> None:
        """Record a computed value (idempotent per store object).

        A value the store's rule rejects — a non-finite score or
        distance from degenerate inputs — is not worth replaying and is
        dropped.  Append failures are logged and swallowed: the store is
        an optimization, not a correctness requirement.
        """
        if key in self._entries or not self.valid(value):
            return
        self._entries[key] = value
        append_jsonl(self.path, {"key": key, "value": value},
                     label=self._label)

    def clear(self) -> None:
        """Drop every entry, in memory and on disk."""
        self._entries.clear()
        try:
            self.path.unlink(missing_ok=True)
        except OSError as exc:
            logger.warning("cannot remove %s %s: %s",
                           self._label, self.path, exc)
