"""End-to-end workload prediction pipeline (the paper's Figure 2).

Glues the three components together: feature selection identifies the
telemetry that characterizes workloads, similarity computation finds the
reference workload closest to the target, and the reference's pairwise
scaling model predicts the target's performance on new hardware
(Section 6.2.3).
"""

from repro.core.config import PipelineConfig
from repro.core.report import PredictionReport, SimilarityRanking
from repro.core.pipeline import WorkloadPredictionPipeline

__all__ = [
    "PipelineConfig",
    "PredictionReport",
    "SimilarityRanking",
    "WorkloadPredictionPipeline",
]
