"""Shared helpers for process-pool parallelism.

Both parallel engines in the repo — the experiment-grid executor
(:mod:`repro.workloads.gridexec`) and the pairwise-distance engine
(:mod:`repro.similarity.evaluation`) — follow the same contract:

- ``jobs`` is normalized by :func:`resolve_jobs` (``None``/``1`` serial,
  ``0`` one worker per CPU, negatives rejected);
- if a ``ProcessPoolExecutor`` cannot be created (sandboxes, missing
  semaphores), execution falls back to serial with a warning — the
  exception classes that signal this are collected in
  :data:`POOL_UNAVAILABLE_ERRORS`;
- work is partitioned deterministically, *independently of the worker
  count*, so parallel output is bit-identical to serial.
"""

from __future__ import annotations

import os

from repro.exceptions import ValidationError

#: Exceptions raised by building a ``ProcessPoolExecutor`` in environments
#: where no pool can exist (no /dev/shm, seccomp'd clone, 0 CPUs …).
#: Callers catch these and fall back to serial execution.
POOL_UNAVAILABLE_ERRORS = (OSError, PermissionError, ValueError)


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value to a positive worker count.

    ``None``/``1`` mean serial in-process execution, ``0`` means one
    worker per CPU, and anything negative is rejected.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ValidationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def chunk_bounds(n_items: int, chunk_size: int) -> list[tuple[int, int]]:
    """Half-open ``[start, stop)`` bounds covering ``range(n_items)``.

    The layout depends only on ``n_items`` and ``chunk_size`` — never on
    how many workers will consume the chunks — which is what keeps
    chunked parallel runs bit-identical to serial ones.
    """
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (start, min(start + chunk_size, n_items))
        for start in range(0, n_items, chunk_size)
    ]
