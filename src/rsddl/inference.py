"""Test-time sparse encoding and support-based classification.

A batch of samples (one sample is a batch of one) is encoded by the split
scheme used in training: OMP on the deepest layer, closed-form least squares
on the two proxy layers, and the printed relaxation updates, iterated
``test_iters`` times.  Classification is nearest-training-sample with either
the count of differing coordinates (l0) or the sum of absolute differences
(l1) as the distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .joint import DEFAULT_SUPPORT_TOL, Model, TrainConfig, p4_lhs, p5_lhs, resolve_budget
from .numerics import as_matrix, pinv
from .sparse import pursuit_gram, unit_gram

__all__ = [
    "EncodedFeature",
    "Prediction",
    "encode_test",
    "classify_l0",
    "classify_l1",
    "predict_batch",
    "format_prediction_lines",
]

# Test columns per distance pass are capped so that one pass holds at most
# this many (test, training) distances, whatever the size of the input.
_DISTANCE_CHUNK = 1 << 18


@dataclass
class EncodedFeature:
    """Deepest-layer code and composed reconstruction residual: a vector and
    a float for one sample, one column each for a batch."""

    z: np.ndarray
    reconstruction_residual: float | np.ndarray


@dataclass
class Prediction:
    """Predicted label with per-class minimum distances (sorted by class id)."""

    label: int
    per_class_score: list[tuple[int, float]]
    rule: str

    @property
    def distance(self) -> float:
        return min(score for _, score in self.per_class_score)


def _cached(model: Model, name: str, sources: tuple, build):
    """``build()`` memoized on the model, rebuilt when a source array is
    replaced (compared by identity) or another source changes (equality).
    Only sources and result are kept, never the model: no reference cycle."""
    hit = model.cache.get(name)
    if hit is not None and all(
        a is b or (not isinstance(a, np.ndarray) and a == b) for a, b in zip(hit[0], sources)
    ):
        return hit[1]
    value = build()
    model.cache[name] = (sources, value)
    return value


def _encoder(model: Model, cfg: TrainConfig) -> tuple:
    """pinv(D1), pinv(D2), unit_gram(D3'D3) and solve_P4/solve_P5 as linear maps: inv(L4),
    inv(L4) D1', eta1 inv(L5) D2', eta2 inv(L5), with L4, L5 their (SPD) left-hand sides."""
    d1, d2, d3 = model.dictionaries

    def build():
        i4, i5 = np.linalg.inv(p4_lhs(d1, cfg.eta1)), np.linalg.inv(p5_lhs(d2, cfg.eta1, cfg.eta2))
        return pinv(d1), pinv(d2), unit_gram(d3.T @ d3), i4, i4 @ d1.T, cfg.eta1 * i5 @ d2.T, cfg.eta2 * i5

    return _cached(model, "encoder", (d1, d2, d3, cfg), build)


def _index(model: Model) -> tuple[np.ndarray, np.ndarray]:
    """Training codes with columns sorted by label, and each class's first column."""
    features, labels, n_classes = model.features, model.labels, model.num_classes

    def build():
        order = np.argsort(labels, kind="stable")
        starts = np.searchsorted(labels[order], np.arange(1, n_classes + 1))
        if np.any(np.diff(np.append(starts, labels.size)) == 0):
            raise ValueError("every class needs at least one stored training code")
        return np.ascontiguousarray(features[:, order]), starts

    return _cached(model, "index", (features, labels, n_classes), build)


def encode_test(
    model: Model,
    x: np.ndarray,
    cfg: TrainConfig | None = None,
) -> EncodedFeature:
    """Encode one sample (a vector) or a batch (samples as columns).

    Runs ``test_iters`` rounds of {OMP on the deepest layer, closed-form
    solves for the two proxy codes, relaxation updates}, with the relaxation
    vectors initialized to ones (the training-side convention) and the codes
    warm-started through the pseudo-inverse chain.  Every column is encoded
    independently of the others.
    """
    if cfg is None:
        cfg = model.config
    if len(model.dictionaries) != 3:
        raise ValueError(
            f"test encoding needs a 3-layer model, got {len(model.dictionaries)} layers"
        )
    d1, d2, d3 = model.dictionaries
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = as_matrix(x.reshape(-1, 1) if single else x, "X")
    if x.shape[0] != d1.shape[0]:
        raise ValueError(f"sample length {x.shape[0]} != D1 rows {d1.shape[0]}")
    budget = resolve_budget(cfg, model.architecture)
    act = model.architecture.activation
    pinv1, pinv2, gram3, inv4, p4_x, p5_z1, p5_z = _encoder(model, cfg)

    z1 = pinv1 @ x
    z2 = pinv2 @ act.inverse(z1)
    b1 = np.ones_like(z1)
    b2 = np.ones_like(z2)
    x4 = p4_x @ x
    f2 = act.forward(d2 @ z2)
    for _ in range(cfg.test_iters):
        target = act.inverse(z2 - b2)
        z = pursuit_gram(gram3, d3.T @ target, np.einsum("ij,ij->j", target, target), budget.per_column_s)
        f3 = act.forward(d3 @ z)
        z1 = x4 + inv4 @ (cfg.eta1 * (f2 + b1))
        z2 = p5_z1 @ act.inverse(z1 - b1) + p5_z @ (f3 + b2)
        f2 = act.forward(d2 @ z2)
        b1 = z1 - f2 - b1
        b2 = z2 - f3 - b2

    recon = d1 @ act.forward(d2 @ f3)
    residual = np.linalg.norm(x - recon, axis=0)
    if single:
        return EncodedFeature(z=z[:, 0], reconstruction_residual=float(residual[0]))
    return EncodedFeature(z=z, reconstruction_residual=residual)


def _classify(model: Model, f: EncodedFeature, rule: str, support_tol: float) -> Prediction | list[Prediction]:
    features, starts = _index(model)
    z = f.z.reshape(f.z.shape[0], -1)
    n_train = features.shape[1]
    chunk = max(1, _DISTANCE_CHUNK // n_train)
    scores = np.empty((z.shape[1], starts.size))
    for lo in range(0, z.shape[1], chunk):
        zc = z[:, lo:lo + chunk]
        # row by row, so a pass holds one (test, training) matrix
        dist = np.zeros((zc.shape[1], n_train))
        for row, ref in zip(zc, features):
            diff = np.abs(ref[None, :] - row[:, None])
            dist += (diff > support_tol) if rule == "l0" else diff
        scores[lo:lo + chunk] = np.minimum.reduceat(dist, starts, axis=1)
    labels = np.argmin(scores, axis=1) + 1  # first minimum: smallest class id wins ties
    classes = range(1, starts.size + 1)
    preds = [
        Prediction(label=int(label), per_class_score=list(zip(classes, row.tolist())), rule=rule)
        for label, row in zip(labels, scores)
    ]
    return preds[0] if f.z.ndim == 1 else preds


def classify_l0(
    model: Model, f: EncodedFeature, support_tol: float = DEFAULT_SUPPORT_TOL
) -> Prediction | list[Prediction]:
    """Nearest training feature by count of differing coordinates
    (|z_test - z_train| above ``support_tol``); a list for a batch."""
    return _classify(model, f, "l0", support_tol)


def classify_l1(
    model: Model, f: EncodedFeature, support_tol: float = DEFAULT_SUPPORT_TOL
) -> Prediction | list[Prediction]:
    """Nearest training feature by sum of absolute coordinate differences;
    a list for a batch."""
    return _classify(model, f, "l1", support_tol)


def predict_batch(
    model: Model,
    x: np.ndarray,
    rule: str = "l0",
    cfg: TrainConfig | None = None,
    support_tol: float = DEFAULT_SUPPORT_TOL,
) -> list[Prediction]:
    """Encode and classify every column of ``x`` in one batch."""
    x = as_matrix(x, "X")
    if rule not in ("l0", "l1"):
        raise ValueError(f"unknown rule {rule!r} (expected 'l0' or 'l1')")
    feature = encode_test(model, x, cfg=cfg)
    classify = classify_l0 if rule == "l0" else classify_l1
    return classify(model, feature, support_tol)


def format_prediction_lines(predictions: list[Prediction]) -> str:
    """Batch output: one tab-separated line per sample —
    index, predicted label, rule, winning distance."""
    lines = [
        "%d\t%d\t%s\t%.17g" % (i, p.label, p.rule, p.distance)
        for i, p in enumerate(predictions)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
