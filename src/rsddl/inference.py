"""Test-time sparse encoding and support-based classification.

A batch of samples (one sample is a batch of one) is encoded as the model's
mode says.  A joint model uses the split scheme of its training: OMP on the
deepest layer, closed-form least squares on the two proxy layers, and the
printed relaxation updates, iterated ``test_iters`` times.  A greedy model
uses the layer-wise chain of its training: pseudo-inverses through the upper
layers, then OMP on the deepest.  Classification is nearest-training-sample with either
the count of differing coordinates (l0) or the sum of absolute differences
(l1) as the distance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .greedy import compose_reconstruction
from .joint import Model, p4_lhs, p5_lhs
from .numerics import as_matrix, pinv
from .sparse import pursuit_gram, unit_gram

__all__ = [
    "RULES",
    "EncodedFeature",
    "Prediction",
    "encode_test",
    "classify_l0",
    "classify_l1",
    "predict_batch",
    "format_prediction_lines",
]

# The classification rules, by name: predict_batch's and ``rsddl classify --rule``'s.
RULES = ("l0", "l1")

# Coordinates of two codes that differ by more than this count for l0.
SUPPORT_TOL = 1e-8

# At most this many (test column, atom, training) differences per distance pass, or one
# column: a block of 2^15 doubles stays in cache, and blocks of 2^17 and up measured slower.
_DISTANCE_CHUNK = 1 << 15


@dataclass
class EncodedFeature:
    """Deepest-layer code and composed reconstruction residual: a vector and
    a float for one sample, one column each for a batch."""

    z: np.ndarray
    reconstruction_residual: float | np.ndarray


@dataclass
class Prediction:
    """Predicted label, per-class minimum distances (sorted by class id) and
    the winning distance."""

    label: int
    per_class_score: list[tuple[int, float]]
    rule: str
    distance: float


def _per_model(build):
    """Memoize ``build(model)`` in ``model.cache``.  A model is frozen, so the
    result never goes stale; only the result is kept, never the model, so
    there is no reference cycle."""

    @functools.wraps(build)
    def cached(model: Model):
        if build.__name__ not in model.cache:
            model.cache[build.__name__] = build(model)
        return model.cache[build.__name__]

    return cached


@_per_model
def _encoder(model: Model) -> tuple:
    """pinv(D1), pinv(D2), unit_gram(D3'D3) and solve_P4/solve_P5 as linear maps: inv(L4),
    inv(L4) D1', eta1 inv(L5) D2', eta2 inv(L5), with L4, L5 their (SPD) left-hand sides."""
    d1, d2, d3 = model.dictionaries
    cfg = model.config
    i4, i5 = np.linalg.inv(p4_lhs(d1, cfg.eta1)), np.linalg.inv(p5_lhs(d2, cfg.eta1, cfg.eta2))
    return pinv(d1), pinv(d2), unit_gram(d3.T @ d3), i4, i4 @ d1.T, cfg.eta1 * i5 @ d2.T, cfg.eta2 * i5


@_per_model
def _greedy_encoder(model: Model) -> tuple:
    """pinv of every layer above the deepest, and unit_gram of the deepest."""
    *upper, deepest = model.dictionaries
    return [pinv(d) for d in upper], unit_gram(deepest.T @ deepest)


@_per_model
def _index(model: Model) -> tuple[np.ndarray, np.ndarray]:
    """Training codes with columns sorted by label, and each class's first column."""
    order = np.argsort(model.labels, kind="stable")
    starts = np.searchsorted(model.labels[order], np.arange(1, model.num_classes + 1))
    return np.ascontiguousarray(model.features[:, order]), starts


def encode_test(model: Model, x: np.ndarray) -> EncodedFeature:
    """Encode one sample (a vector) or a batch (samples as columns) as the
    model's mode says; every column is encoded independently of the others."""
    dicts = model.dictionaries
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = as_matrix(x.reshape(-1, 1) if single else x, "X")
    if x.shape[0] != dicts[0].shape[0]:
        raise ValueError(f"data dimension {x.shape[0]} does not match model input dimension {dicts[0].shape[0]}")
    s = model.config.per_column_s
    z = (_encode_greedy if model.mode == "greedy" else _encode_joint)(model, x, s)
    act = model.architecture.activation
    residual = np.linalg.norm(x - compose_reconstruction(dicts, z, act), axis=0)
    if single:
        return EncodedFeature(z=z[:, 0], reconstruction_residual=float(residual[0]))
    return EncodedFeature(z=z, reconstruction_residual=residual)


def _encode_greedy(model: Model, x: np.ndarray, s: int) -> np.ndarray:
    """The greedy chain: ``Z_l = pinv(D_l) phi^-1(Z_{l-1})`` above the deepest
    layer (``X`` itself into the first), then s-sparse OMP on the deepest."""
    pinvs, gram = _greedy_encoder(model)
    act = model.architecture.activation
    target = x
    for p in pinvs:
        target = act.inverse(p @ target)
    return pursuit_gram(gram, model.dictionaries[-1].T @ target, np.einsum("ij,ij->j", target, target), s)


def _encode_joint(model: Model, x: np.ndarray, s: int) -> np.ndarray:
    """``test_iters`` rounds of {OMP on the deepest layer, closed-form solves
    for the two proxy codes, relaxation updates}, with the relaxation vectors
    initialized to ones (the training-side convention) and the codes
    warm-started through the pseudo-inverse chain; the last round ends at its OMP."""
    cfg = model.config
    _, d2, d3 = model.dictionaries
    act = model.architecture.activation
    # looked up once, not once per iteration: a one-sample encode is call overhead
    d3t, eta1, forward, inverse = d3.T, cfg.eta1, act.forward, act.inverse
    pinv1, pinv2, gram3, inv4, p4_x, p5_z1, p5_z = _encoder(model)

    z1 = pinv1 @ x
    z2 = pinv2 @ inverse(z1)
    b1 = np.ones_like(z1)
    b2 = np.ones_like(z2)
    x4 = p4_x @ x
    f2 = forward(d2 @ z2)
    for k in range(cfg.test_iters):
        target = inverse(z2 - b2)
        z = pursuit_gram(gram3, d3t @ target, np.einsum("ij,ij->j", target, target), s)
        if k == cfg.test_iters - 1:
            break
        f3 = forward(d3 @ z)
        z1 = x4 + inv4 @ (eta1 * (f2 + b1))
        z2 = p5_z1 @ inverse(z1 - b1) + p5_z @ (f3 + b2)
        f2 = forward(d2 @ z2)
        b1 = z1 - f2 - b1
        b2 = z2 - f3 - b2
    return z


def _classify(model: Model, f: EncodedFeature, rule: str) -> Prediction | list[Prediction]:
    features, starts = _index(model)
    z = f.z.reshape(f.z.shape[0], -1)
    n_atoms, n_train = features.shape
    chunk = max(1, _DISTANCE_CHUNK // (n_atoms * n_train))
    scores = np.empty((z.shape[1], starts.size))
    for lo in range(0, z.shape[1], chunk):
        diff = np.abs(features - z.T[lo:lo + chunk, :, None])
        if rule == "l0":
            dist = np.count_nonzero(diff > SUPPORT_TOL, axis=1)
        else:  # atom after atom: numpy would add a length-1 training axis pairwise
            dist = diff.sum(axis=1) if n_train > 1 else np.cumsum(diff, axis=1)[:, -1]
        scores[lo:lo + chunk] = np.minimum.reduceat(dist, starts, axis=1)
    winner = np.argmin(scores, axis=1)  # first minimum: smallest class id wins ties
    distances = scores[np.arange(winner.size), winner].tolist()
    classes = range(1, starts.size + 1)
    preds = [
        Prediction(label=int(w) + 1, per_class_score=list(zip(classes, row)), rule=rule, distance=dist)
        for w, row, dist in zip(winner, scores.tolist(), distances)
    ]
    return preds[0] if f.z.ndim == 1 else preds


def classify_l0(model: Model, f: EncodedFeature) -> Prediction | list[Prediction]:
    """Nearest training feature by count of differing coordinates
    (|z_test - z_train| above :data:`SUPPORT_TOL`); a list for a batch."""
    return _classify(model, f, "l0")


def classify_l1(model: Model, f: EncodedFeature) -> Prediction | list[Prediction]:
    """Nearest training feature by sum of absolute coordinate differences;
    a list for a batch."""
    return _classify(model, f, "l1")


def predict_batch(model: Model, x: np.ndarray, rule: str = "l0") -> list[Prediction]:
    """Encode and classify every column of ``x`` in one batch."""
    x = as_matrix(x, "X")
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r} (expected {' or '.join(map(repr, RULES))})")
    feature = encode_test(model, x)
    classify = classify_l0 if rule == "l0" else classify_l1
    return classify(model, feature)


def format_prediction_lines(predictions: list[Prediction]) -> str:
    """Batch output: one tab-separated line per sample —
    index, predicted label, rule, winning distance."""
    lines = [
        "%d\t%d\t%s\t%.17g" % (i, p.label, p.rule, p.distance)
        for i, p in enumerate(predictions)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
