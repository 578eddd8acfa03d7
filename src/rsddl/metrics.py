"""Evaluation indices: overall/average accuracy, Cohen's kappa, McNemar's z.

All indices are computed from a confusion matrix with rows indexed by the
true class and columns by the predicted class.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .numerics import NumericsWarning, as_labels

__all__ = [
    "confusion_matrix",
    "overall_accuracy",
    "average_accuracy",
    "kappa",
    "mcnemar_z",
    "format_report",
]

MCNEMAR_THRESHOLD = 1.96  # two-sided 5%


def confusion_matrix(truth, pred, num_classes: int | None = None) -> np.ndarray:
    """Count matrix: entry (i, j) = samples of true class i+1 predicted as j+1.
    A fractional class id is a ValueError."""
    if np.ndim(truth) != 1 or np.shape(truth) != np.shape(pred):
        raise ValueError("truth and pred must be 1-D with equal lengths")
    truth, pred = as_labels(truth), as_labels(pred)
    if truth.size == 0:
        raise ValueError("no samples to evaluate")
    if truth.min() < 1 or pred.min() < 1:
        raise ValueError("class ids must be >= 1")
    c = num_classes if num_classes is not None else int(max(truth.max(), pred.max()))
    if max(truth.max(), pred.max()) > c:
        raise ValueError(f"label exceeds num_classes={c}")
    cm = np.zeros((c, c), dtype=np.int64)
    np.add.at(cm, (truth - 1, pred - 1), 1)
    return cm


def _check_cm(cm) -> np.ndarray:
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.size == 0:
        raise ValueError("confusion matrix must be a nonempty square matrix")
    if np.any(cm < 0):
        raise ValueError("confusion matrix entries must be nonnegative")
    if cm.sum() == 0:
        raise ValueError("confusion matrix has no samples")
    return cm.astype(np.float64)


def overall_accuracy(cm) -> float:
    """Fraction of samples on the diagonal."""
    cm = _check_cm(cm)
    return float(np.trace(cm) / cm.sum())


def average_accuracy(cm) -> float:
    """Mean of the per-class accuracies (diagonal over row sum).

    Classes with no samples are excluded with a warning.
    """
    cm = _check_cm(cm)
    row_sums = cm.sum(axis=1)
    present = row_sums > 0
    if not np.any(present):
        raise ValueError("every class row is empty")
    if not np.all(present):
        warnings.warn(
            f"{int(np.sum(~present))} class(es) have no samples; excluded from AA",
            NumericsWarning,
            stacklevel=2,
        )
    per_class = np.diag(cm)[present] / row_sums[present]
    return float(per_class.mean())


def kappa(cm) -> float:
    """Chance-corrected agreement: (p_o - p_e) / (1 - p_e)."""
    cm = _check_cm(cm)
    total = cm.sum()
    p_o = float(np.trace(cm) / total)
    p_e = float(np.sum(cm.sum(axis=1) * cm.sum(axis=0)) / total**2)
    if abs(1.0 - p_e) < 1e-15:
        if abs(1.0 - p_o) < 1e-15:
            return 1.0
        warnings.warn("degenerate marginals (p_e == 1); kappa undefined, returning 0",
                      NumericsWarning, stacklevel=2)
        return 0.0
    return (p_o - p_e) / (1.0 - p_e)


def mcnemar_z(pred_a, pred_b, truth) -> tuple[float, bool]:
    """Standardized McNemar statistic between two classifiers.

    ``z = (f12 - f21) / sqrt(f12 + f21)`` where f12 counts samples classifier
    a got right and b wrong, f21 the reverse; z = 0 when both counts are 0.
    Significance is the two-sided 5% test, |z| > 1.96.  A fractional class
    id is a ValueError.
    """
    shape = np.shape(truth)
    if not (np.shape(pred_a) == np.shape(pred_b) == shape) or len(shape) != 1 or shape[0] == 0:
        raise ValueError("pred_a, pred_b and truth must be 1-D with equal nonzero lengths")
    pred_a, pred_b, truth = as_labels(pred_a), as_labels(pred_b), as_labels(truth)
    a_ok = pred_a == truth
    b_ok = pred_b == truth
    f12 = int(np.sum(a_ok & ~b_ok))
    f21 = int(np.sum(~a_ok & b_ok))
    if f12 + f21 == 0:
        return 0.0, False
    z = (f12 - f21) / math.sqrt(f12 + f21)
    return z, abs(z) > MCNEMAR_THRESHOLD


def format_report(cm, mcnemar: tuple[float, bool] | None = None) -> str:
    """Text block with OA/AA/Kappa to 4 decimals, per-class accuracies, and
    an optional McNemar line."""
    cm = _check_cm(cm)
    lines = [
        f"OA {overall_accuracy(cm):.4f}",
        f"AA {average_accuracy(cm):.4f}",
        f"Kappa {kappa(cm):.4f}",
    ]
    row_sums = cm.sum(axis=1)
    for c in range(cm.shape[0]):
        if row_sums[c] > 0:
            acc = cm[c, c] / row_sums[c]
            lines.append(f"class {c + 1} accuracy {acc:.4f} ({int(cm[c, c])}/{int(row_sums[c])})")
        else:
            lines.append(f"class {c + 1} accuracy n/a (0 samples)")
    if mcnemar is not None:
        z, significant = mcnemar
        verdict = "significant" if significant else "not significant"
        lines.append(f"McNemar z {z:.2f} ({verdict})")
    return "\n".join(lines) + "\n"
