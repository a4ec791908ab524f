"""Workload data representations: MTS, Hist-FP, and Phase-FP.

All representations normalize every feature to [0, 1] using *corpus-wide*
ranges (fit once over all experiments being compared, per Section 4.3),
then encode each experiment as a fixed-shape matrix:

- **MTS**: the normalized resource time-series window itself — only
  resource features are temporal, so plan features are ignored here.
- **Hist-FP** (Appendix A, Table 8): per feature, an equi-width cumulative
  frequency histogram over the experiment's raw observations.  Cumulative
  bins make entry-wise distances respect histogram *shape* proximity.
- **Phase-FP** (Appendix A, Table 9): per feature, summary statistics
  (mean/median/variance) of each phase found by Bayesian change-point
  detection, zero-padded to a fixed phase count.  Plan features have a
  single phase by construction.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.similarity.changepoint import bayesian_changepoints, segment_bounds
from repro.workloads.features import ALL_FEATURES, RESOURCE_FEATURES
from repro.workloads.runner import ExperimentResult

_PHASE_STATS = ("mean", "median", "variance")


def equi_width_cumulative_histogram(
    values, n_bins: int, *, low: float | None = None, high: float | None = None
) -> np.ndarray:
    """Equi-width cumulative relative-frequency histogram (Appendix A).

    Splits ``[low, high]`` (defaults to the sample min/max) into ``n_bins``
    equal bins, counts relative frequencies, and accumulates them — the
    Hist-FP encoding of Table 8.  Values outside the range clip into the
    edge bins.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValidationError("values must not be empty")
    if n_bins < 1:
        raise ValidationError(f"n_bins must be >= 1, got {n_bins}")
    lo = float(arr.min()) if low is None else float(low)
    hi = float(arr.max()) if high is None else float(high)
    if hi <= lo:
        # All mass in the first bin; cumulative distribution is all ones.
        return np.ones(n_bins)
    sizes = np.array([arr.size])
    return _segment_histograms(
        np.clip(arr, lo, hi), sizes, n_bins, lo, hi, cumulative=True
    )[0]


def _segment_histograms(
    values: np.ndarray,
    sizes: np.ndarray,
    n_bins: int,
    low: float,
    high: float,
    *,
    cumulative: bool,
) -> np.ndarray:
    """Relative-frequency histograms of consecutive segments of ``values``.

    ``values`` holds the segments back to back and ``sizes`` their
    lengths; row ``i`` of the ``(len(sizes), n_bins)`` result is segment
    ``i``'s ``numpy.histogram(segment, bins=n_bins, range=(low, high))``
    counts divided by the segment's size, accumulated along the bins
    when ``cumulative``.  Bins are assigned with ``numpy.histogram``'s
    own uniform-bin arithmetic — the same ``np.linspace`` edges, the same
    index computation and its one-step corrections at the edges, the
    last bin closed — so every row is bit-identical to that call.
    Values outside ``[low, high]`` and NaN are not counted but stay in
    the denominator.  All segments are counted by one ``np.bincount``
    over ``(segment, bin)``.
    """
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValidationError(f"histogram range [{low}, {high}] is not finite")
    edges = np.linspace(low, high, n_bins + 1)
    if np.any(edges[:-1] >= edges[1:]):
        raise ValidationError(
            f"cannot split [{low}, {high}] into {n_bins} finite-sized bins"
        )
    segment = np.repeat(np.arange(sizes.size), sizes)
    keep = (values >= low) & (values <= high)
    values, segment = values[keep], segment[keep]
    bins = ((values - low) / (high - low) * n_bins).astype(np.intp)
    bins[bins == n_bins] -= 1
    bins[values < edges[bins]] -= 1
    bins[(values >= edges[bins + 1]) & (bins != n_bins - 1)] += 1
    counts = np.bincount(
        segment * n_bins + bins, minlength=sizes.size * n_bins
    ).reshape(sizes.size, n_bins)
    frequencies = counts / sizes[:, None]
    return np.cumsum(frequencies, axis=1) if cumulative else frequencies


def gather_samples(
    results, features
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each feature's samples of every experiment back to back, and counts.

    The result maps each of ``features`` to ``(values, sizes)``: the
    experiments' ``feature_samples`` concatenated in order, and one count
    per experiment.  It is what :meth:`RepresentationBuilder.fit`,
    :meth:`RepresentationBuilder.hist_fps` and
    :func:`~repro.similarity.evaluation.representation_matrices` read
    through their ``samples`` argument; gathering once and passing it to
    several of them, or concatenating the gathers of two corpora
    (:func:`join_samples`), gives the same bytes as each gathering
    alone.  An experiment without samples of a feature is rejected
    here, naming it, before any segmented reduction could silently read
    its neighbour's values.
    """
    results = list(results)
    if not results:
        raise ValidationError("no experiments to gather samples from")
    gathered = {}
    for name in features:
        parts = [result.feature_samples(name) for result in results]
        sizes = np.array([part.size for part in parts], dtype=np.intp)
        gathered[name] = np.concatenate(parts), sizes
        _aligned(gathered, results, name)
    return gathered


def join_samples(first: dict, second: dict) -> dict:
    """The samples of two corpora's concatenation, feature by feature.

    Both must hold the same features; ``first``'s experiments come
    first, as in ``list(a) + list(b)``.
    """
    if first.keys() != second.keys():
        raise ValidationError(
            f"cannot join samples of features {sorted(first)} "
            f"and {sorted(second)}"
        )
    return {
        name: (
            np.concatenate([first[name][0], second[name][0]]),
            np.concatenate([first[name][1], second[name][1]]),
        )
        for name in first
    }


def _aligned(samples: dict, results: list, name: str):
    """``samples[name]`` checked against the experiments it describes.

    One positive count per experiment, summing to the number of values;
    otherwise the segments would be read against the wrong experiments.
    """
    try:
        values, sizes = samples[name]
    except KeyError:
        raise ValidationError(f"samples lack feature {name!r}") from None
    if sizes.size != len(results) or int(sizes.sum()) != values.size:
        raise ValidationError(
            f"samples of feature {name!r} hold {values.size} value(s) in "
            f"{sizes.size} count(s), which do not match the "
            f"{len(results)} experiment(s) given"
        )
    if not sizes.all():
        empty = results[int(np.argmin(sizes))]
        raise ValidationError(
            f"feature {name!r} of experiment {empty.experiment_id} "
            "has no samples"
        )
    return values, sizes


def _stat(values: np.ndarray, stat: str) -> float:
    if stat == "mean":
        return float(values.mean())
    if stat == "median":
        return float(np.median(values))
    if stat == "variance":
        return float(values.var())
    raise ValidationError(f"unknown phase statistic {stat!r}")


class RepresentationBuilder:
    """Builds comparable representations for a corpus of experiments.

    Parameters
    ----------
    feature_names:
        The telemetry features available to representations (defaults to
        all 29); similarity callers typically pass a top-k selection here
        or to the per-call ``features`` argument.
    n_bins:
        Histogram resolution for Hist-FP (the paper's default is 10).
    max_phases:
        Fixed phase count Phase-FP pads to.
    phase_stats:
        Which statistics summarize each phase.
    """

    def __init__(
        self,
        feature_names: tuple[str, ...] = ALL_FEATURES,
        *,
        n_bins: int = 10,
        max_phases: int = 4,
        phase_stats: tuple[str, ...] = _PHASE_STATS,
        changepoint_hazard: float = 1.0 / 20.0,
    ):
        if n_bins < 2:
            raise ValidationError(f"n_bins must be >= 2, got {n_bins}")
        if max_phases < 1:
            raise ValidationError(f"max_phases must be >= 1, got {max_phases}")
        unknown = [s for s in phase_stats if s not in _PHASE_STATS]
        if unknown:
            raise ValidationError(f"unknown phase statistics: {unknown}")
        self.feature_names = tuple(feature_names)
        self.n_bins = n_bins
        self.max_phases = max_phases
        self.phase_stats = tuple(phase_stats)
        self.changepoint_hazard = changepoint_hazard

    # -- fitting ----------------------------------------------------------------
    #: Dynamic-range ratio beyond which a feature is log-scaled before
    #: normalization.  Telemetry such as memory grants and row counts spans
    #: many orders of magnitude across workloads; on a linear scale an
    #: equi-width histogram collapses all low-end workloads into bin 0,
    #: destroying resolution exactly where it is needed.
    LOG_SCALE_RATIO = 1e3

    def fit(self, corpus, *, samples=None) -> "RepresentationBuilder":
        """Learn corpus-wide [min, max] ranges (and scales) per feature.

        ``samples`` is :func:`gather_samples` of ``corpus`` over at least
        the builder's features, gathered by the caller once for several
        uses; without it the fit gathers them itself.  Counts that do
        not match ``corpus`` raise :class:`ValidationError`.
        """
        self._ranges: dict[str, tuple[float, float]] = {}
        self._log_floor: dict[str, float | None] = {}
        experiments = list(corpus)
        if not experiments:
            raise ValidationError("corpus must contain at least one experiment")
        if samples is None:
            samples = gather_samples(experiments, self.feature_names)
        for name in self.feature_names:
            values, sizes = _aligned(samples, experiments, name)
            starts = np.cumsum(sizes) - sizes
            lows = np.minimum.reduceat(values, starts)
            highs = np.maximum.reduceat(values, starts)
            # An experiment with any NaN sample adds nothing to the
            # feature's range: its reduced min and max are NaN.
            clean = ~np.isnan(lows)
            low = float(lows[clean].min()) if clean.any() else np.inf
            high = float(highs[clean].max()) if clean.any() else -np.inf
            # Soft floor: values are measured against a millionth of the
            # feature's peak, so the dynamic-range test and the log
            # transform behave identically for features living at 1e-3 and
            # at 1e+6 absolute scale.
            floor = max(high * 1e-6, 1e-12)
            use_log = low >= 0.0 and (high + floor) / (low + floor) > (
                self.LOG_SCALE_RATIO
            )
            self._log_floor[name] = floor if use_log else None
            if use_log:
                low = float(np.log1p(low / floor))
                high = float(np.log1p(high / floor))
            self._ranges[name] = (low, high)
        return self

    def _normalize(self, values: np.ndarray, name: str) -> np.ndarray:
        if not hasattr(self, "_ranges"):
            raise NotFittedError(
                "RepresentationBuilder is not fitted; call fit(corpus) first"
            )
        try:
            low, high = self._ranges[name]
        except KeyError:
            raise ValidationError(
                f"feature {name!r} was not part of the fitted feature set"
            ) from None
        floor = self._log_floor[name]
        if floor is not None:
            values = np.log1p(np.maximum(values, 0.0) / floor)
        if high <= low:
            return np.zeros_like(values)
        return np.clip((values - low) / (high - low), 0.0, 1.0)

    def _select(self, features) -> tuple[str, ...]:
        if features is None:
            return self.feature_names
        selected = tuple(features)
        unknown = [f for f in selected if f not in self._ranges]
        if unknown:
            raise ValidationError(
                f"features not covered by the fitted builder: {unknown}"
            )
        return selected

    # -- representations -----------------------------------------------------------
    def mts(
        self, result: ExperimentResult, *, features=None
    ) -> np.ndarray:
        """Normalized resource time-series window, shape ``(time, k)``.

        Only resource features among ``features`` are used — plan
        statistics are not temporal (the paper's MTS experiments are
        resource-only for the same reason).
        """
        names = [
            f for f in self._select(features) if f in RESOURCE_FEATURES
        ]
        if not names:
            raise ValidationError(
                "MTS requires at least one resource feature in the selection"
            )
        columns = [
            self._normalize(result.feature_samples(name), name)
            for name in names
        ]
        return np.column_stack(columns)

    def hist_fp(
        self, result: ExperimentResult, *, features=None, cumulative: bool = True
    ) -> np.ndarray:
        """Histogram fingerprint, shape ``(n_bins, k)``.

        Each column is the relative frequency histogram of one feature's
        normalized observations; with ``cumulative=True`` (the paper's
        choice) bins hold the cumulative distribution instead.
        """
        return self.hist_fps(
            [result], features=features, cumulative=cumulative
        )[0]

    def hist_fps(
        self, results, *, features=None, cumulative: bool = True, samples=None
    ) -> np.ndarray:
        """Histogram fingerprints of many experiments, ``(n, n_bins, k)``.

        One pass per feature over all experiments: their samples are
        concatenated, normalized once and binned by one segmented count,
        and each ``[i]`` is bit-identical to ``hist_fp(results[i])``
        built alone.  ``samples`` is :func:`gather_samples` of
        ``results``, as for :meth:`fit`; without it they are gathered
        here.  An experiment with no samples of a selected feature, or
        counts that do not match ``results``, raise
        :class:`ValidationError`.
        """
        names = self._select(features)
        results = list(results)
        if not results:
            raise ValidationError("results must contain at least one experiment")
        if samples is None:
            samples = gather_samples(results, names)
        fingerprints = np.empty((len(results), self.n_bins, len(names)))
        for j, name in enumerate(names):
            values, sizes = _aligned(samples, results, name)
            fingerprints[:, :, j] = _segment_histograms(
                self._normalize(values, name),
                sizes,
                self.n_bins,
                0.0,
                1.0,
                cumulative=cumulative,
            )
        return fingerprints

    def phase_fp(
        self, result: ExperimentResult, *, features=None
    ) -> np.ndarray:
        """Phase-level statistical fingerprint, shape ``(stats*phases, k)``.

        Resource features are segmented with BCPD; plan features form a
        single phase.  Features with fewer phases than ``max_phases`` are
        zero-padded so all fingerprints share a shape.
        """
        names = self._select(features)
        n_stats = len(self.phase_stats)
        fingerprint = np.zeros((n_stats * self.max_phases, len(names)))
        for j, name in enumerate(names):
            normalized = self._normalize(result.feature_samples(name), name)
            if name in RESOURCE_FEATURES:
                changepoints = bayesian_changepoints(
                    normalized, hazard=self.changepoint_hazard
                )
            else:
                changepoints = []
            segments = segment_bounds(normalized.size, changepoints)
            for phase, (start, stop) in enumerate(segments[: self.max_phases]):
                window = normalized[start:stop]
                for s, stat in enumerate(self.phase_stats):
                    fingerprint[phase * n_stats + s, j] = _stat(window, stat)
        return fingerprint

    def build(
        self,
        result: ExperimentResult,
        representation: str,
        *,
        features=None,
    ) -> np.ndarray:
        """Dispatch by representation name: 'mts', 'hist', or 'phase'."""
        if representation == "mts":
            return self.mts(result, features=features)
        if representation == "hist":
            return self.hist_fp(result, features=features)
        if representation == "phase":
            return self.phase_fp(result, features=features)
        raise ValidationError(
            f"unknown representation {representation!r}; "
            "expected 'mts', 'hist', or 'phase'"
        )
