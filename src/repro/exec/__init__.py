"""One execution substrate for every parallel stage of the pipeline.

Before this package existed the repo ran four parallel executors —
:mod:`repro.workloads.gridexec` (corpus simulation),
:func:`repro.similarity.evaluation.distance_matrix` (pair chunks),
:func:`repro.ml.fitexec.run_units` (fit/score units), and the forest
tree batches — each with its own pool, retry, and torn-tail-healing
JSONL logic.  ``repro.exec`` factors all of that
into one place:

- :mod:`repro.exec.journal` — the single torn-tail-healing JSONL
  append/load discipline (the run ledger builds on it), with appends
  that are safe under *concurrent* writers, not just single-writer
  tails; and :class:`~repro.exec.journal.KeyValueJournal`, the one
  JSONL key-value store behind the distance and fit caches.
- :mod:`repro.exec.arrays` — :func:`~repro.exec.arrays.float64_digest`,
  the one float64 content address the distance and fit caches key
  their entries on.
- :mod:`repro.exec.engine` — one task engine with the full gridexec
  semantics: RetryPolicy, quarantine, BrokenProcessPool rebuild with a
  last-chance serial attempt, serial fallback when no pool can be
  created (``<label>.pool_fallback_total``), and submission-order
  telemetry merge so serial == jobs=N bit-for-bit.

``run_tasks`` is the only scheduler and :mod:`repro.exec.engine` the
only module that builds a ``ProcessPoolExecutor``; arrays reach workers
pickled inside the task payload.  See ``docs/performance.md``
(execution substrate section) for the engine and the persistent pool.
"""

from repro.exec.engine import (
    ExecReport,
    ExecResults,
    ExecTask,
    PersistentPool,
    get_persistent_pool,
    persistent_pool,
    run_tasks,
    set_persistent_pool,
)
from repro.exec.journal import append_jsonl, load_jsonl

__all__ = [
    "ExecReport",
    "ExecResults",
    "ExecTask",
    "PersistentPool",
    "append_jsonl",
    "get_persistent_pool",
    "load_jsonl",
    "persistent_pool",
    "run_tasks",
    "set_persistent_pool",
]
