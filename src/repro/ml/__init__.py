"""From-scratch machine-learning substrate used by the prediction pipeline.

The paper's experiments were run with scikit-learn; this package provides
the same algorithm families implemented directly on numpy/scipy:

- :mod:`repro.ml.linear` — OLS, ridge, lasso (with regularization paths),
  elastic net, and polynomial regression.
- :mod:`repro.ml.logistic` — L2-regularized logistic regression.
- :mod:`repro.ml.tree` / :mod:`repro.ml.forest` / :mod:`repro.ml.boosting` —
  CART trees, random forests, and gradient boosting.
- :mod:`repro.ml.svm` — epsilon-SVR with linear/RBF/polynomial kernels.
- :mod:`repro.ml.mars` — multivariate adaptive regression splines.
- :mod:`repro.ml.mixed_effects` — linear mixed-effects models.
- :mod:`repro.ml.neural` — multi-layer perceptron regressor.
- :mod:`repro.ml.model_selection` / :mod:`repro.ml.metrics` — cross
  validation and the paper's evaluation metrics (NRMSE, MAPE, mAP, NDCG).
- :mod:`repro.ml.information` — entropy, mutual information, and fANOVA.
- :mod:`repro.ml.fitexec` — the shared fit/score executor and the
  content-addressed :class:`~repro.ml.fitexec.FitCache` behind the
  evaluation fast path (wrapper selection, stability, Table 5/6 grids).
"""

from repro.ml.base import BaseEstimator, RegressorMixin, ClassifierMixin, clone
from repro.ml.preprocessing import MinMaxScaler, StandardScaler
from repro.ml.linear import (
    ElasticNet,
    Lasso,
    LinearRegression,
    PolynomialRegression,
    Ridge,
    lasso_path,
)
from repro.ml.logistic import LogisticRegression
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.svm import SVR
from repro.ml.mars import MARSRegressor
from repro.ml.mixed_effects import LinearMixedEffectsModel
from repro.ml.neural import MLPRegressor
from repro.ml.model_selection import KFold, cross_val_score, train_test_split
from repro.ml.cluster import KMeans, KMedoids, agglomerative_labels
from repro.ml.fitexec import FitCache, fit_key, run_units

__all__ = [
    "BaseEstimator",
    "RegressorMixin",
    "ClassifierMixin",
    "clone",
    "MinMaxScaler",
    "StandardScaler",
    "LinearRegression",
    "Ridge",
    "Lasso",
    "ElasticNet",
    "PolynomialRegression",
    "lasso_path",
    "LogisticRegression",
    "DecisionTreeRegressor",
    "DecisionTreeClassifier",
    "RandomForestRegressor",
    "RandomForestClassifier",
    "GradientBoostingRegressor",
    "SVR",
    "MARSRegressor",
    "LinearMixedEffectsModel",
    "MLPRegressor",
    "KFold",
    "cross_val_score",
    "train_test_split",
    "KMeans",
    "KMedoids",
    "agglomerative_labels",
    "FitCache",
    "fit_key",
    "run_units",
]
