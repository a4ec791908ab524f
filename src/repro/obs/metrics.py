"""In-process metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` creates instruments on first use and keeps
them for the life of the process::

    metrics = get_metrics()
    metrics.counter("similarity.pairs_computed").inc(n_pairs)
    metrics.gauge("engine.bufferpool.hit_rate").set(0.93)
    metrics.histogram("pipeline.predict.latency_ms").observe(42.0)

Instruments are plain Python objects whose record operations are a few
attribute updates behind a per-instrument lock (record paths are hit
concurrently by ``repro serve``'s handler threads), cheap enough to
leave permanently enabled in the simulator and pipeline.  The registry
exports a JSON-serializable :meth:`MetricsRegistry.snapshot` and a
Prometheus text exposition (:meth:`MetricsRegistry.to_prometheus`);
histograms additionally export estimated p50/p90/p99 summaries
(:meth:`Histogram.quantile`) in both forms — the request-latency
numbers a latency SLO is stated in.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left

from repro.exceptions import ValidationError

#: Default histogram bucket upper bounds (Prometheus' defaults, in the
#: unit of whatever the caller observes — seconds or milliseconds).
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets sized for millisecond latencies.
LATENCY_MS_BUCKETS = (
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)

#: Buckets sized for small integer counts (e.g. admitted batch sizes).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValidationError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` (<=) semantics.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches everything above the last bound.
    An observation equal to a bound lands in that bound's bucket.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count", "_lock")

    #: Quantiles exported in snapshots and the Prometheus exposition.
    SUMMARY_QUANTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"))

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS, help: str = ""):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValidationError("histogram needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError(
                f"histogram buckets must be strictly increasing: {bounds}"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot is +Inf
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (one by default).

        Buckets and ``count`` move exactly as ``count`` single calls
        would; ``sum`` grows by ``value * count``, one rounding where
        repeated calls would round ``count`` times.
        """
        if count < 1:
            raise ValidationError(
                f"histogram observation count must be >= 1, got {count}"
            )
        value = float(value)
        position = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[position] += count
            self.sum += value * count
            self.count += count

    def cumulative_counts(self) -> list[int]:
        """Cumulative count per bucket, ending with the +Inf total."""
        out, total = [], 0
        for count in self.counts:
            total += count
            out.append(total)
        return out

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile from the bucket counts.

        Interpolates linearly inside the bucket the quantile rank falls
        into, Prometheus ``histogram_quantile`` style: the first finite
        bucket's lower edge is taken as ``min(0, bound)``, and a rank
        landing in the ``+Inf`` bucket reports the last finite bound
        (the estimate saturates — it cannot exceed instrumented range).
        Returns ``None`` when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for position, bound in enumerate(self.buckets):
            below = cumulative
            cumulative += self.counts[position]
            if cumulative >= rank and self.counts[position] > 0:
                lower = (
                    self.buckets[position - 1]
                    if position
                    else min(0.0, bound)
                )
                fraction = (rank - below) / self.counts[position]
                return lower + (bound - lower) * fraction
        return self.buckets[-1]

    def summary(self) -> dict:
        """The :data:`SUMMARY_QUANTILES` estimates, keyed ``p50``/…"""
        return {
            label: self.quantile(q) for q, label in self.SUMMARY_QUANTILES
        }

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            **self.summary(),
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    Asking twice for the same name returns the same instrument; asking
    for an existing name with a different instrument type raises
    :class:`~repro.exceptions.ValidationError`.
    """

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind, factory):
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, kind):
                raise ValidationError(
                    f"metric {name!r} is a "
                    f"{type(instrument).__name__.lower()}, not a "
                    f"{kind.__name__.lower()}"
                )
            return instrument
        with self._lock:
            instrument = self._instruments.setdefault(name, factory())
        if not isinstance(instrument, kind):
            raise ValidationError(
                f"metric {name!r} is a "
                f"{type(instrument).__name__.lower()}, not a "
                f"{kind.__name__.lower()}"
            )
        return instrument

    def counter(self, name: str, *, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, *, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self, name: str, *, buckets=DEFAULT_BUCKETS, help: str = ""
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets, help)
        )

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._instruments)

    def reset(self) -> None:
        """Drop every instrument."""
        with self._lock:
            self._instruments.clear()

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, gauges take the snapshot's value (last write
        wins, so merging snapshots in submission order reproduces a
        serial run's final gauge values), and histograms merge
        bucket-wise — which requires identical bucket bounds.  Merging
        a snapshot entry into an instrument of a different type raises
        :class:`~repro.exceptions.ValidationError`, as does an unknown
        entry type.
        """
        for name, entry in snapshot.items():
            kind = entry.get("type")
            if kind == "counter":
                self.counter(name).inc(entry["value"])
            elif kind == "gauge":
                self.gauge(name).set(entry["value"])
            elif kind == "histogram":
                buckets = tuple(float(b) for b in entry["buckets"])
                histogram = self.histogram(name, buckets=buckets)
                if histogram.buckets != buckets:
                    raise ValidationError(
                        f"histogram {name!r} bucket mismatch: "
                        f"{histogram.buckets} != {buckets}"
                    )
                for position, count in enumerate(entry["counts"]):
                    histogram.counts[position] += count
                histogram.sum += entry["sum"]
                histogram.count += entry["count"]
            else:
                raise ValidationError(
                    f"cannot merge metric {name!r} of type {kind!r}"
                )

    # -- exports ---------------------------------------------------------------
    def snapshot(self) -> dict:
        """All instruments as one JSON-serializable mapping."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            metric = _prometheus_name(name)
            if instrument.help:
                lines.append(
                    f"# HELP {metric} {escape_help(instrument.help)}"
                )
            if isinstance(instrument, Counter):
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {_fmt(instrument.value)}")
            elif isinstance(instrument, Gauge):
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {_fmt(instrument.value)}")
            else:
                lines.append(f"# TYPE {metric} histogram")
                cumulative = instrument.cumulative_counts()
                for bound, count in zip(instrument.buckets, cumulative):
                    le = escape_label_value(_fmt(bound))
                    lines.append(f'{metric}_bucket{{le="{le}"}} {count}')
                lines.append(
                    f'{metric}_bucket{{le="+Inf"}} {cumulative[-1]}'
                )
                lines.append(f"{metric}_sum {_fmt(instrument.sum)}")
                lines.append(f"{metric}_count {instrument.count}")
                # Quantile estimates follow the _count line so existing
                # scrape parsers (and tests pinned to the bucket/sum/
                # count prefix) are unaffected; empty histograms have no
                # estimate to report.
                if instrument.count > 0:
                    for q, _label in Histogram.SUMMARY_QUANTILES:
                        lines.append(
                            f'{metric}{{quantile="{_fmt(q)}"}} '
                            f"{_fmt(instrument.quantile(q))}"
                        )
        return "\n".join(lines) + ("\n" if lines else "")


def _prometheus_name(name: str) -> str:
    """Map dotted metric names onto the Prometheus charset."""
    return "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring per the text exposition format.

    The format (version 0.0.4) requires ``\\`` and line feeds escaped in
    help text; quotes are legal there and stay verbatim.
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(text: str) -> str:
    """Escape a label value per the text exposition format.

    Label values additionally need ``"`` escaped, since they are
    double-quoted in the output.
    """
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    """Render numbers without a trailing ``.0`` for integral values."""
    return str(int(value)) if float(value).is_integer() else repr(value)


_global_metrics = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _global_metrics


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the global one; returns the previous one."""
    global _global_metrics
    previous = _global_metrics
    _global_metrics = registry
    return previous
