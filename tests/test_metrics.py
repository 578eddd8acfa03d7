import numpy as np
import pytest

from rsddl.metrics import (
    average_accuracy,
    confusion_matrix,
    format_report,
    kappa,
    mcnemar_z,
    overall_accuracy,
)
from rsddl.numerics import NumericsWarning, Rng

CM = np.array([[45, 5], [15, 35]])


class TestConfusionMatrix:
    def test_build(self):
        cm = confusion_matrix([1, 1, 2, 2], [1, 2, 2, 2])
        assert cm.tolist() == [[1, 1], [0, 2]]

    def test_num_classes_override(self):
        cm = confusion_matrix([1, 1], [1, 1], num_classes=3)
        assert cm.shape == (3, 3)

    def test_errors(self):
        with pytest.raises(ValueError):
            confusion_matrix([], [])
        with pytest.raises(ValueError):
            confusion_matrix([1, 2], [1])
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [1, 1])

    def test_fractional_ids_rejected(self):
        # a cast would truncate them into a perfect score
        with pytest.raises(ValueError, match="whole numbers"):
            confusion_matrix([1.7, 2.0], [1.0, 2.9])
        assert confusion_matrix([1.0, 2.0], [1.0, 1.0]).tolist() == [[1, 0], [1, 0]]


class TestOverallAccuracy:
    def test_perfect(self):
        assert overall_accuracy(np.diag([3, 4, 2])) == 1.0

    def test_hand_case(self):
        assert overall_accuracy(CM) == pytest.approx(0.80)

    def test_uniform(self):
        assert overall_accuracy(np.full((2, 2), 25)) == pytest.approx(0.50)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            overall_accuracy(np.zeros((2, 2)))


class TestAverageAccuracy:
    def test_perfect(self):
        assert average_accuracy(np.diag([3, 4])) == 1.0

    def test_hand_case(self):
        assert average_accuracy(CM) == pytest.approx(0.80)

    def test_differs_from_oa_under_imbalance(self):
        cm = np.array([[9, 1], [0, 90]])
        assert average_accuracy(cm) == pytest.approx(0.95)
        assert overall_accuracy(cm) == pytest.approx(0.99)

    def test_empty_row_excluded_with_warning(self):
        cm = np.array([[4, 0, 0], [0, 0, 0], [1, 0, 3]])
        with pytest.warns(NumericsWarning):
            aa = average_accuracy(cm)
        assert aa == pytest.approx((1.0 + 0.75) / 2)


class TestKappa:
    def test_perfect(self):
        assert kappa(np.diag([10, 10])) == 1.0

    def test_hand_case(self):
        # p_o = 0.8, p_e = (50*60 + 50*40) / 10000 = 0.5 -> kappa = 0.6
        assert kappa(CM) == pytest.approx(0.6, abs=1e-12)

    def test_random_labels_near_zero(self):
        rng = Rng(99)
        n = 20000
        truth = (rng.random(n) * 4).astype(int) + 1
        pred = (rng.random(n) * 4).astype(int) + 1
        assert abs(kappa(confusion_matrix(truth, pred))) < 0.05

    def test_degenerate_marginals(self):
        # p_e == 1 forces every sample into one diagonal cell, so the
        # perfect-agreement branch is the only reachable degenerate case
        assert kappa(np.array([[7]])) == 1.0
        assert kappa(np.array([[9, 0], [0, 0]])) == 1.0

    def test_kappa_at_most_oa(self):
        rng = Rng(17)
        for _ in range(10):
            cm = (rng.random((3, 3)) * 20).astype(int) + 1
            assert kappa(cm) <= overall_accuracy(cm) + 1e-12


class TestInvariance:
    def test_label_permutation_invariance(self):
        rng = Rng(5)
        cm = (rng.random((4, 4)) * 30).astype(int)
        cm += np.diag([5, 5, 5, 5])
        perm = rng.permutation(4)
        pcm = cm[np.ix_(perm, perm)]
        assert overall_accuracy(pcm) == pytest.approx(overall_accuracy(cm))
        assert average_accuracy(pcm) == pytest.approx(average_accuracy(cm))
        assert kappa(pcm) == pytest.approx(kappa(cm))


class TestMcnemar:
    def test_identical_predictions(self):
        truth = np.array([1, 2, 1, 2])
        z, sig = mcnemar_z(truth, truth, truth)
        assert z == 0.0 and not sig

    def test_hand_case(self):
        # f12 = 40, f21 = 10 -> z = 30 / sqrt(50)
        truth = np.ones(60, dtype=int)
        pred_a = np.ones(60, dtype=int)
        pred_b = np.ones(60, dtype=int)
        pred_b[:40] = 2  # a right, b wrong on 40
        pred_a[40:50] = 2  # a wrong, b right on 10
        z, sig = mcnemar_z(pred_a, pred_b, truth)
        assert z == pytest.approx(30.0 / np.sqrt(50.0))
        assert z == pytest.approx(4.2426, abs=1e-3)
        assert sig

    def test_antisymmetric(self):
        rng = Rng(3)
        truth = (rng.random(200) * 3).astype(int) + 1
        pred_a = (rng.random(200) * 3).astype(int) + 1
        pred_b = (rng.random(200) * 3).astype(int) + 1
        z_ab, _ = mcnemar_z(pred_a, pred_b, truth)
        z_ba, _ = mcnemar_z(pred_b, pred_a, truth)
        assert z_ab == pytest.approx(-z_ba)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mcnemar_z([1, 2], [1], [1, 2])

    def test_fractional_ids_rejected(self):
        with pytest.raises(ValueError, match="whole numbers"):
            mcnemar_z([1.5, 2], [1, 2], [1.2, 2])
        assert mcnemar_z([1.0, 2.0], [2, 2], np.array([1.0, 2.0])) == (1.0, False)


class TestReport:
    def test_format(self):
        text = format_report(CM, mcnemar=(4.2426, True))
        assert "OA 0.8000" in text
        assert "AA 0.8000" in text
        assert "Kappa 0.6000" in text
        assert "class 1 accuracy 0.9000" in text
        assert "class 2 accuracy 0.7000" in text
        assert "McNemar z 4.24 (significant)" in text

    def test_format_without_mcnemar(self):
        text = format_report(np.diag([5, 5]))
        assert "McNemar" not in text
        assert "OA 1.0000" in text
