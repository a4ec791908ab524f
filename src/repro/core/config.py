"""Pipeline configuration with the paper's recommended defaults.

The defaults encode the best practices Sections 4-6 converge on: RFE with
logistic regression selecting the top-7 features, Hist-FP with the L2,1
norm for similarity, and a pairwise SVM scaling model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ValidationError
from repro.prediction.strategies import STRATEGY_NAMES

#: Feature-set scopes the similarity stage may restrict itself to.
FEATURE_SCOPES = ("all", "plan", "resource")


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end pipeline settings.

    Attributes
    ----------
    selection_strategy:
        Name in :func:`repro.features.strategy_registry`.
    top_k:
        Number of features the similarity stage uses.
    feature_scope:
        Restrict candidate features to ``"plan"``, ``"resource"``, or use
        ``"all"`` — the plan-only scope reproduces the PW study where no
        resource telemetry was available.
    representation / measure:
        Similarity data representation ('hist', 'phase', or 'mts') and
        distance measure name.
    scaling_strategy / scaling_context:
        Modeling strategy (Table 6) and context ('pairwise' or 'single').
    random_state:
        Seed for the stochastic components.
    jobs:
        Worker count for the parallel analysis paths (pairwise distances);
        ``None``/``1`` serial, ``0`` one worker per CPU.  Output is
        bit-identical at any value.
    distance_cache:
        Directory for the content-addressed pairwise-distance cache
        (kept as a path string so configs serialize into manifests).
        L2,1 and L1,1, the default measure included, skip it: they
        compute faster than a warm cache answers.
    fit_cache:
        Directory for the content-addressed fit cache
        (:class:`repro.ml.fitexec.FitCache`) behind the evaluation fast
        path; warm re-runs of feature selection and strategy evaluation
        perform zero model fits.  Kept as a path string so configs
        serialize into manifests.
    """

    selection_strategy: str = "RFE LogReg"
    top_k: int = 7
    feature_scope: str = "all"
    representation: str = "hist"
    measure: str = "L2,1"
    scaling_strategy: str = "SVM"
    scaling_context: str = "pairwise"
    random_state: int = 0
    jobs: int | None = None
    distance_cache: str | None = None
    fit_cache: str | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.top_k < 1:
            raise ValidationError(f"top_k must be >= 1, got {self.top_k}")
        if self.jobs is not None and self.jobs < 0:
            raise ValidationError(f"jobs must be >= 0, got {self.jobs}")
        if self.feature_scope not in FEATURE_SCOPES:
            raise ValidationError(
                f"feature_scope must be one of {FEATURE_SCOPES}, "
                f"got {self.feature_scope!r}"
            )
        if self.representation not in ("hist", "phase", "mts"):
            raise ValidationError(
                f"unknown representation {self.representation!r}"
            )
        if self.scaling_strategy not in STRATEGY_NAMES:
            raise ValidationError(
                f"unknown scaling strategy {self.scaling_strategy!r}; "
                f"expected one of {STRATEGY_NAMES}"
            )
        if self.scaling_context not in ("pairwise", "single"):
            raise ValidationError(
                f"scaling_context must be 'pairwise' or 'single', "
                f"got {self.scaling_context!r}"
            )
