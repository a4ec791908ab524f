"""Host speed probe: scale measured times to one nominal host speed.

The benchmark runs on a few cores of a shared host.  How fast the host
runs this process changes over tens of seconds to minutes (another
tenant on the same physical core can halve interpreter speed), and the
change is far larger than the regressions the benchmark must resolve.

:func:`probe` times a fixed mix of work shaped like the program's own
(interpreter-bound object and dict churn, many numpy calls on small
arrays, a streaming numpy pass over a few megabytes, loopback socket
round trips) and returns its wall time.  It calls nothing in the
program, so a change to the program cannot move it.  Computation timed
next to a probe that took ``p`` seconds is reported as
``time * NOMINAL_SECONDS / p``: the time the same work would take on a
host where the probe takes :data:`NOMINAL_SECONDS`.  Waiting is reported
as measured (:func:`scale`).
"""

from __future__ import annotations

import socket
import time

import numpy as np

#: Probe wall time of the nominal host every scaled time refers to.
NOMINAL_SECONDS = 0.05

_rng = np.random.default_rng(0)
_SMALL = _rng.random(50)
_LARGE = _rng.random(500_000)


class _Item:
    def __init__(self, value):
        self.value = value


def _interpreter() -> None:
    table: dict[int, int] = {}
    for i in range(30_000):
        table[i % 997] = _Item(i).value + table.get(i % 991, 0)


def _small_arrays() -> None:
    for _ in range(2_000):
        x = _SMALL * 2.0 + _SMALL
        x.sum()
        np.abs(x - _SMALL).max()


def _streaming() -> None:
    for _ in range(4):
        np.sqrt(_LARGE * _LARGE + _LARGE).sum()


def _loopback() -> None:
    left, right = socket.socketpair()
    try:
        for _ in range(2_000):
            left.send(b"x")
            right.recv(1)
    finally:
        left.close()
        right.close()


def probe() -> float:
    """Wall seconds of one pass of the fixed work mix."""
    started = time.perf_counter()
    _interpreter()
    _small_arrays()
    _streaming()
    _loopback()
    return time.perf_counter() - started


def scale(wall: float, cpu: float, before: float, after: float) -> float:
    """Factor taking times of an interval to the nominal host speed.

    Over the interval, ``wall`` seconds passed and the process used
    ``cpu`` seconds of processor time; it was probed ``before`` and
    ``after`` it.  Only the computing share of the interval follows host
    speed: the rest is waiting (on TCP timers, say), which a faster host
    does not shorten.  The process counts as computing all the time when
    its processor time reaches the wall time.
    """
    computing = min(1.0, cpu / wall) if wall > 0 else 1.0
    speed = NOMINAL_SECONDS / ((before + after) / 2.0)
    return 1.0 - computing + computing * speed
