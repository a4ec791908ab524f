import numpy as np
import pytest

from repro.core.report import PredictionReport, SimilarityRanking
from repro.exceptions import ValidationError


@pytest.fixture
def ranking():
    return SimilarityRanking(
        target="ycsb",
        distances={"tpcc": 0.4, "twitter": 0.6, "tpch": 0.95},
    )


@pytest.fixture
def report(ranking):
    return PredictionReport(
        target_workload="ycsb",
        source_sku="2cpu-32gb",
        target_sku="8cpu-32gb",
        selected_features=("AvgRowSize", "IOPS_TOTAL"),
        similarity=ranking,
        reference_workload="tpcc",
        predicted_throughput=np.array([1000.0, 1100.0]),
        actual_throughput=np.array([1200.0, 1300.0]),
    )


class TestSimilarityRanking:
    def test_ordered(self, ranking):
        assert [name for name, _ in ranking.ordered] == [
            "tpcc",
            "twitter",
            "tpch",
        ]

    def test_nearest(self, ranking):
        assert ranking.nearest == "tpcc"

    def test_tie_keeps_the_earlier_entry(self):
        # The earlier entry wins, not the smaller name.
        ranking = SimilarityRanking("t", {"b": 0.5, "a": 0.5, "c": 0.7})
        assert ranking.nearest == "b"

    def test_empty_ranking_raises(self):
        with pytest.raises(ValidationError):
            SimilarityRanking(target="x", distances={}).nearest


class TestPredictionReport:
    def test_means(self, report):
        assert report.predicted_mean == 1050.0
        assert report.actual_mean == 1250.0

    def test_mape(self, report):
        assert report.mape() == pytest.approx(200 / 1250)

    def test_nrmse_finite(self, report):
        assert np.isfinite(report.nrmse())

    def test_summary_mentions_key_facts(self, report):
        text = report.summary()
        assert "ycsb" in text
        assert "tpcc" in text
        assert "MAPE" in text

    def test_metrics_require_validation_data(self, ranking):
        report = PredictionReport(
            target_workload="ycsb",
            source_sku="a",
            target_sku="b",
            selected_features=(),
            similarity=ranking,
            reference_workload="tpcc",
            predicted_throughput=np.array([1.0]),
        )
        assert report.actual_mean is None
        with pytest.raises(ValidationError):
            report.mape()
        with pytest.raises(ValidationError):
            report.nrmse()
