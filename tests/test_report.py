import numpy as np
import pytest

from wingcp.report import error_map, fold_report, reduction

# published per-fold test MSEs used to validate the reduction arithmetic
BASELINE_MSE = {
    "7": 1.52, "12": 1.21, "16": 6.50e-1, "18": 2.29e-1,
    "18.5": 1.56e-1, "19": 7.98e-2, "20": 2.30e-2,
}
MODEL_MSE = {
    "7": 1.47, "12": 1.15, "16": 5.97e-1, "18": 2.01e-1,
    "18.5": 1.21e-1, "19": 7.28e-2, "20": 1.26e-2,
}
PUBLISHED_ETA = {
    "7": 3.28, "12": 4.95, "16": 8.15, "18": 12.23,
    "18.5": 22.43, "19": 8.77, "20": 45.22,
}


class TestErrorMap:
    def test_exact_predictions(self):
        np.testing.assert_array_equal(error_map([1.0, 2.0], [1.0, 2.0]), [0.0, 0.0])

    def test_sign_insensitive(self):
        assert error_map([-1.0], [1.0])[0] == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_map([1.0], [1.0, 2.0])


class TestReduction:
    def test_published_fold_values(self):
        etas, average = reduction(MODEL_MSE, BASELINE_MSE)
        for fold, eta in PUBLISHED_ETA.items():
            assert abs(etas[fold] - eta) <= 0.05, fold
        assert abs(average - 15.00) <= 0.05

    def test_fold_7_exact_arithmetic(self):
        etas, _ = reduction({"7": 1.47}, {"7": 1.52})
        assert etas["7"] == pytest.approx((1.52 - 1.47) / 1.52 * 100.0, rel=1e-12)
        assert etas["7"] == pytest.approx(3.2895, abs=5e-4)

    def test_fold_20(self):
        etas, _ = reduction({"20": 1.26e-2}, {"20": 2.30e-2})
        assert etas["20"] == pytest.approx(45.22, abs=0.05)

    def test_identical_is_zero(self):
        etas, average = reduction({"a": 0.5}, {"a": 0.5})
        assert etas["a"] == 0.0 and average == 0.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            reduction({"a": 0.1}, {"a": 0.0})

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            reduction({"a": 0.1}, {"b": 0.1})


class TestFoldReport:
    def test_average_is_unweighted_mean(self):
        rep = fold_report({"7": 1.0, "12": 3.0}, {"7": 100, "12": 10})
        assert rep["average_mse"] == 2.0
        assert any("unweighted" in note for note in rep["notes"])
        assert set(rep) == {"fold_mse", "average_mse", "n_samples", "notes"}

    def test_baseline_reduction(self):
        rep = fold_report(MODEL_MSE, baseline_mse=BASELINE_MSE)
        assert abs(rep["average_reduction_pct"] - 15.00) <= 0.05
        assert set(rep["reduction_pct"]) == set(MODEL_MSE)
