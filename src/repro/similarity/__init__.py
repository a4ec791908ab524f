"""Workload similarity computation (Section 5 of the paper).

Two concerns, composed freely:

- **Data representation** (:mod:`repro.similarity.representations`):
  multivariate time-series (MTS), histogram-based fingerprints (Hist-FP,
  cumulative equi-width histograms), and phase-level statistical
  fingerprints (Phase-FP, built on Bayesian change-point detection).
- **Distance computation**: matrix norms (:mod:`repro.similarity.norms`)
  for same-shape representations, and elastic time-series measures —
  dependent/independent DTW (:mod:`repro.similarity.dtw`) and LCSS
  (:mod:`repro.similarity.lcss`).

:mod:`repro.similarity.evaluation` scores a (representation, measure)
combination on the paper's three axes: reliability (1-NN accuracy, mAP),
discrimination power (NDCG), and robustness (across-run variation).
"""

from repro.similarity.norms import (
    NORMS,
    canberra_distance,
    chi2_distance,
    correlation_distance,
    frobenius_distance,
    l11_distance,
    l21_distance,
)
from repro.similarity.changepoint import bayesian_changepoints, segment_bounds
from repro.similarity.representations import RepresentationBuilder
from repro.similarity.distcache import (
    DistanceCache,
    matrix_digest,
    pair_key,
)
from repro.similarity.dtw import (
    dtw_distance,
    lb_keogh,
    lb_kim,
    multivariate_dtw,
)
from repro.similarity.lcss import lcss_distance, multivariate_lcss
from repro.similarity.measures import (
    MeasureSpec,
    default_measures,
    measure_registry,
)
from repro.similarity.clustering import (
    ClusteringResult,
    adjusted_rand_index,
    cluster_purity,
    cluster_workloads,
)
from repro.similarity.robustness import (
    RobustnessProfile,
    perturb_experiment,
    robustness_profiles,
    robustness_under_noise,
)
from repro.similarity.evaluation import (
    SimilarityEvaluation,
    distance_matrix,
    evaluate_measure,
    knn_accuracy,
    pairwise_workload_distances,
    ranking_mean_average_precision,
    ranking_ndcg,
)

__all__ = [
    "NORMS",
    "l11_distance",
    "l21_distance",
    "frobenius_distance",
    "canberra_distance",
    "chi2_distance",
    "correlation_distance",
    "bayesian_changepoints",
    "segment_bounds",
    "RepresentationBuilder",
    "dtw_distance",
    "multivariate_dtw",
    "lcss_distance",
    "multivariate_lcss",
    "MeasureSpec",
    "measure_registry",
    "default_measures",
    "SimilarityEvaluation",
    "distance_matrix",
    "evaluate_measure",
    "knn_accuracy",
    "ranking_mean_average_precision",
    "ranking_ndcg",
    "pairwise_workload_distances",
    "ClusteringResult",
    "cluster_workloads",
    "cluster_purity",
    "adjusted_rand_index",
    "RobustnessProfile",
    "perturb_experiment",
    "robustness_under_noise",
    "robustness_profiles",
    "DistanceCache",
    "matrix_digest",
    "pair_key",
    "lb_kim",
    "lb_keogh",
]
