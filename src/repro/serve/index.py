"""Warmup-time reference index: everything a query never changes.

Every cold request compares one target against the same frozen
reference matrices.  Before this index existed, each request re-derived
reference-side state on the spot: re-hashed every reference matrix for
the distance-cache pre-pass, re-scanned label masks per workload, and
(on the predict path) ran the full cross-distance matrix even though
prediction only needs the *nearest* reference.  :class:`ReferenceIndex`
hoists all of it to :meth:`repro.serve.service.PredictionService.warmup`:

- **content digests** per reference matrix, so the per-request
  distance-cache pre-pass only hashes the (small) target side;
- **workload groups** — ordered ``(name, member indices)`` following the
  reference corpus's workload order, the order that decides ties;
- **LB_Keogh envelopes** (:func:`~repro.similarity.dtw.keogh_envelope`)
  per reference when the measure is Dependent-DTW, and **norm values**
  (:func:`~repro.similarity.pruning.measure_norm`) when it is
  norm-induced — the precomputed side of the pruned nearest-group
  cascade (:func:`~repro.similarity.pruning.nearest_group`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.similarity.distcache import matrix_digest
from repro.similarity.dtw import keogh_envelope
from repro.similarity.measures import MeasureSpec, _dtw_dependent
from repro.similarity.pruning import measure_norm


@dataclass
class ReferenceIndex:
    """Precomputed reference-side state for the serving cold path."""

    matrices: list[np.ndarray]
    labels: np.ndarray
    digests: list[str]
    groups: list[tuple[str, list[int]]]
    envelopes: list[tuple[np.ndarray, np.ndarray]] | None
    norms: list[float] | None

    @classmethod
    def build(
        cls,
        matrices: list[np.ndarray],
        labels,
        workload_order: list[str],
        measure: MeasureSpec,
    ) -> "ReferenceIndex":
        """Index frozen reference matrices for one measure.

        ``workload_order`` fixes the group scan order — it must be the
        reference corpus's insertion order, because that is the order
        :meth:`repro.core.report.SimilarityRanking.nearest` breaks ties
        in and the pruned search must reproduce.
        """
        if not matrices:
            raise ValidationError("reference index needs matrices")
        labels = np.asarray(labels)
        if labels.size != len(matrices):
            raise ValidationError("labels must align with the matrices")
        groups: list[tuple[str, list[int]]] = []
        for name in workload_order:
            members = [int(k) for k in np.flatnonzero(labels == name)]
            if not members:
                raise ValidationError(
                    f"workload {name!r} has no reference matrices"
                )
            groups.append((name, members))
        envelopes = None
        if measure.func is _dtw_dependent:
            envelopes = [keogh_envelope(M) for M in matrices]
        norms = None
        norm_values = [measure_norm(measure, M) for M in matrices]
        if all(value is not None for value in norm_values):
            norms = norm_values
        return cls(
            matrices=list(matrices),
            labels=labels,
            digests=[matrix_digest(M) for M in matrices],
            groups=groups,
            envelopes=envelopes,
            norms=norms,
        )

    def __len__(self) -> int:
        return len(self.matrices)
