"""Ablations of the design choices DESIGN.md calls out.

Not a paper table: these probe the sensitivity of the similarity stage to
its data-representation knobs.  1-NN accuracy saturates on this corpus
(sibling sub-experiments make the nearest neighbour easy), so the primary
metric is the *discrimination margin* — the gap between the mean
cross-workload and the mean same-workload normalized distance; a bigger
margin means more headroom before noise causes confusion.

1. Hist-FP bin count (paper default n=10).
2. Cumulative versus plain frequency histograms (Appendix A).
3. Feature scope: combined versus resource-only (Insight 4 revisited).
4. Phase-FP statistics set (mean/variance vs +median).
5. PCA components versus explicit top-k selection (Appendix C).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import print_header
from repro.features import PCA, RecursiveFeatureElimination
from repro.similarity import (
    RepresentationBuilder,
    distance_matrix,
    knn_accuracy,
    pairwise_workload_distances,
)
from repro.similarity.evaluation import representation_matrices
from repro.similarity.measures import get_measure
from repro.workloads import paper_corpus
from repro.workloads.features import ALL_FEATURES, RESOURCE_FEATURES


def hist_scores(corpus, *, n_bins=10, cumulative=True, features=None):
    """(1-NN accuracy, discrimination margin) for one Hist-FP variant."""
    builder = RepresentationBuilder(n_bins=n_bins).fit(corpus)
    matrices = list(
        builder.hist_fps(corpus, features=features, cumulative=cumulative)
    )
    D = distance_matrix(matrices, get_measure("L2,1"))
    labels = corpus.labels()
    stats = pairwise_workload_distances(D, labels)
    names = corpus.workload_names()
    same = float(np.mean([stats[(a, a)][0] for a in names]))
    cross = float(
        np.mean(
            [stats[(a, b)][0] for a in names for b in names if a != b]
        )
    )
    return knn_accuracy(D, labels), cross - same


def phase_scores(corpus, stats_set):
    builder = RepresentationBuilder(phase_stats=stats_set).fit(corpus)
    matrices = representation_matrices(corpus, builder, "phase")
    D = distance_matrix(matrices, get_measure("L1,1"))
    return knn_accuracy(D, corpus.labels())


def pca_knn_accuracy(corpus, n_components):
    """1-NN over PCA-compressed summary features (Appendix C baseline)."""
    from repro.ml.preprocessing import StandardScaler

    X = StandardScaler().fit_transform(corpus.feature_matrix())
    transformed = PCA(n_components).fit_transform(X)
    labels = np.asarray(corpus.labels())
    distances = np.linalg.norm(
        transformed[:, None, :] - transformed[None, :, :], axis=2
    )
    np.fill_diagonal(distances, np.inf)
    nearest = np.argmin(distances, axis=1)
    return float(np.mean(labels[nearest] == labels))


def run_ablations(corpus):
    results = {}
    results["bins"] = {
        n: hist_scores(corpus, n_bins=n) for n in (3, 5, 10, 20, 40)
    }
    results["cumulative"] = {
        "cumulative": hist_scores(corpus, cumulative=True),
        "plain": hist_scores(corpus, cumulative=False),
    }
    results["scope"] = {
        "combined": hist_scores(corpus),
        "resource-only": hist_scores(
            corpus, features=list(RESOURCE_FEATURES)
        ),
    }
    results["phase_stats"] = {
        "mean+var": phase_scores(corpus, ("mean", "variance")),
        "mean+median+var": phase_scores(
            corpus, ("mean", "median", "variance")
        ),
    }
    selector = RecursiveFeatureElimination("logreg").fit(
        corpus.feature_matrix(), corpus.labels()
    )
    top7 = [ALL_FEATURES[i] for i in selector.top_k(7)]
    results["selection_vs_pca"] = {
        "top-7 selection": hist_scores(corpus, features=top7)[0],
        "PCA-7 components": pca_knn_accuracy(corpus, 7),
    }
    return results


@pytest.mark.benchmark(group="ablations")
def test_design_choice_ablations(benchmark):
    corpus = paper_corpus(cpus=16, n_subexperiments=5, random_state=3)
    results = benchmark.pedantic(
        run_ablations, args=(corpus,), rounds=1, iterations=1
    )

    print_header("Ablations - data-representation design choices")
    print("Hist-FP bin count -> (1-NN accuracy, discrimination margin)")
    for n, (accuracy, margin) in results["bins"].items():
        print(f"  n_bins={n:<3d} acc={accuracy:.3f} margin={margin:.3f}")
    print("Histogram encoding")
    for name, (accuracy, margin) in results["cumulative"].items():
        print(f"  {name:13s} acc={accuracy:.3f} margin={margin:.3f}")
    print("Feature scope")
    for name, (accuracy, margin) in results["scope"].items():
        print(f"  {name:13s} acc={accuracy:.3f} margin={margin:.3f}")
    print("Phase-FP statistics -> 1-NN accuracy")
    for name, accuracy in results["phase_stats"].items():
        print(f"  {name:15s} {accuracy:.3f}")
    print("Feature selection vs dimensionality reduction -> 1-NN accuracy")
    for name, accuracy in results["selection_vs_pca"].items():
        print(f"  {name:16s} {accuracy:.3f}")

    # The paper's default bin count sits on the margin plateau.
    margins = {n: m for n, (_, m) in results["bins"].items()}
    assert margins[10] >= max(margins.values()) - 0.05
    # Too-coarse histograms lose discrimination headroom.
    assert margins[3] <= margins[10] + 0.01
    # Accuracy itself is insensitive across sane settings (the corpus is
    # separable) — a finding in its own right.
    assert all(acc > 0.95 for acc, _ in results["bins"].values())
    # Insight 4 at the representation level: resource-only features leave
    # a smaller margin than the combined scope.
    assert (
        results["scope"]["resource-only"][1]
        < results["scope"]["combined"][1]
    )
    # Explicit selection is competitive with PCA compression (Appendix C).
    assert results["selection_vs_pca"]["top-7 selection"] >= (
        results["selection_vs_pca"]["PCA-7 components"] - 0.05
    )
