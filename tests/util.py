"""Shared synthetic data builders used across the test suite.

Everything here is seeded through the package Rng so tests are bit-stable.
"""

import numpy as np

from rsddl.dataio import DataFormatError, make_dataset
from rsddl.numerics import Activation, ActivationKind, Rng, normalize_columns
from rsddl.greedy import Architecture
from rsddl.inference import SUPPORT_TOL
from rsddl.joint import resolve_budget, solve_P4, solve_P5


def dct_basis(n):
    """Orthonormal DCT-II basis, columns are basis vectors."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    c = np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    c[0] *= np.sqrt(1.0 / n)
    c[1:] *= np.sqrt(2.0 / n)
    return c.T


def coherence(d):
    g = np.abs(d.T @ d)
    np.fill_diagonal(g, 0.0)
    return float(g.max())


def low_coherence_frame(m, n_total, rng):
    """Random frame with certified coherence < 0.5.

    Identity plus DCT columns has pairwise |inner products| strictly below
    0.5; a random rotation and random column signs leave them unchanged
    while randomizing the frame itself.
    """
    extra = n_total - m
    cols = rng.permutation(m)[:extra]
    frame = np.hstack([np.eye(m), dct_basis(m)[:, cols]])
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    signs = np.where(rng.random(n_total) < 0.5, -1.0, 1.0)
    return (q @ frame) * signs


def planted_sparse_signal(d, s, rng):
    """(support, coefficients, signal) with coefficient magnitudes in [0.5, 1.5]."""
    sup = np.sort(rng.permutation(d.shape[1])[:s])
    coef = np.where(rng.random(s) < 0.5, -1.0, 1.0) * (0.5 + rng.random(s))
    return sup, coef, d[:, sup] @ coef


def planted_row_sparse(d, n_rows, n_cols, rng):
    """(row support, codes, signals) with a shared row support."""
    rows = np.sort(rng.permutation(d.shape[1])[:n_rows])
    z = np.zeros((d.shape[1], n_cols))
    z[rows, :] = np.where(rng.random((n_rows, n_cols)) < 0.5, -1.0, 1.0) * (
        0.5 + rng.random((n_rows, n_cols))
    )
    return rows, z, d @ z


def planted_dictionary_data(seed=11, ncols=20, n_supports=4):
    """Data exactly factorizable as a 10x15 unit-column dictionary times
    3-sparse codes drawn from a few distinct supports."""
    rng = Rng(seed)
    d0 = rng.standard_normal((10, 15))
    d0, _ = normalize_columns(d0)
    sups = [np.sort(rng.permutation(15)[:3]) for _ in range(n_supports)]
    z0 = np.zeros((15, ncols))
    for j in range(ncols):
        sup = sups[j % n_supports]
        z0[sup, j] = np.where(rng.random(3) < 0.5, -1.0, 1.0) * (1.0 + rng.random(3))
    return d0, z0, d0 @ z0


def two_class_deep_factor_data(seed=97, noise=0.05, coef=2.0, ncols=40):
    """2-class, 20-dim data generated by a 3-layer tanh stack with one
    deep row per class; the model family the joint trainer optimizes over."""
    rng = Rng(seed)
    d1, _ = normalize_columns(rng.standard_normal((20, 16)))
    d2, _ = normalize_columns(rng.standard_normal((16, 8)))
    d3, _ = normalize_columns(rng.standard_normal((8, 4)))
    z = np.zeros((4, ncols))
    labels = np.zeros(ncols, dtype=np.int64)
    half = ncols // 2
    signs = rng.random((ncols,))
    mags = rng.random((ncols,))
    for j in range(ncols):
        c = 1 if j < half else 2
        row = 0 if c == 1 else 1
        z[row, j] = coef * (1.0 + mags[j]) * (1.0 if signs[j] < 0.5 else -1.0)
        labels[j] = c
    x = d1 @ np.tanh(d2 @ np.tanh(d3 @ z)) + noise * rng.standard_normal((20, ncols))
    return make_dataset(x, labels)


def two_class_mixture_data(seed=6, dim=8, s_para=1.0, s_cross=0.1, n_train=200, n_test=200):
    """Two-class Gaussian mixture separable at distance 4 sigma.

    Class means sit on orthogonal positive directions; each class's noise has
    sd ``s_para`` along its own mean direction and ``s_cross`` across.  The
    mean distance equals exactly 4x the noise sd along the discriminant
    direction.  Returns (train dataset, test features, test labels).
    """
    rng = Rng(seed)
    u = np.zeros(dim)
    v = np.zeros(dim)
    hd = dim // 2
    u[:hd] = np.abs(rng.standard_normal(hd))
    u /= np.linalg.norm(u)
    v[hd:] = np.abs(rng.standard_normal(dim - hd))
    v /= np.linalg.norm(v)
    sigma_d = np.sqrt((s_para**2 + s_cross**2) / 2.0)
    half = 4.0 * sigma_d / np.sqrt(2.0)
    m1 = u * half
    m2 = v * half

    def draw(n):
        xs, ys = [], []
        for c, m, axis in ((1, m1, u), (2, m2, v)):
            eps = rng.standard_normal((dim, n))
            par = axis[:, None] * (axis @ eps)
            eps = s_para * par + s_cross * (eps - par)
            xs.append(m[:, None] + eps)
            ys.extend([c] * n)
        return np.hstack(xs), np.array(ys, dtype=np.int64)

    xtr, ytr = draw(n_train)
    xte, yte = draw(n_test)
    return make_dataset(xtr, ytr), xte, yte


MIXTURE_ARCH = Architecture((6, 4, 2), activation=Activation(ActivationKind.IDENTITY))
DEEP_ARCH = Architecture((16, 8, 4))


# -- reference implementations ------------------------------------------------
# The per-column pursuit the package used before its batched Gram-form kernel,
# kept as the oracle that kernel is tested against.

def hard_threshold_per_column(m, s):
    """Keep the s largest-magnitude entries of each column, zero the rest.

    Ties are broken toward the smaller row index.
    """
    m = np.asarray(m, dtype=np.float64)
    if not 1 <= s <= m.shape[0]:
        raise ValueError(f"s must be in [1, {m.shape[0]}], got {s}")
    out = np.zeros_like(m)
    for j in range(m.shape[1]):
        # stable sort on -|x|: equal magnitudes keep ascending row order
        order = np.argsort(-np.abs(m[:, j]), kind="stable")
        keep = order[:s]
        out[keep, j] = m[keep, j]
    return out


def class_support(zc):
    """Binary row-usage vector of a class block: 1 where the row is nonzero."""
    row_norms = np.linalg.norm(np.asarray(zc, dtype=np.float64), axis=1)
    return (row_norms > SUPPORT_TOL).astype(np.uint8)


def _check_unit_dictionary(d, s):
    if not 1 <= s <= d.shape[1]:
        raise ValueError(f"s must be in [1, {d.shape[1]}], got {s}")
    if np.any(np.linalg.norm(d, axis=0) <= 1e-12):
        raise ValueError("dictionary has a zero-norm column")


def omp_reference(d, x, s, residual_tol=1e-7):
    """OMP for one signal against unit-norm atoms: one lstsq per selection."""
    d = np.asarray(d, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    _check_unit_dictionary(d, s)
    support = []
    residual = x.copy()
    coef = np.zeros(0)
    for _ in range(s):
        if np.linalg.norm(residual) <= residual_tol:
            break
        corr = np.abs(d.T @ residual)
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        sub = d[:, support]
        coef, *_ = np.linalg.lstsq(sub, x, rcond=None)
        residual = x - sub @ coef
    z = np.zeros(d.shape[1])
    z[support] = coef
    return z


def somp_reference(d, y, s, residual_tol=1e-7):
    """SOMP against unit-norm atoms: rows chosen by the l2 norm of D'R."""
    d = np.asarray(d, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_unit_dictionary(d, s)
    support = []
    residual = y.copy()
    coef = np.zeros((0, y.shape[1]))
    for _ in range(s):
        if np.linalg.norm(residual) <= residual_tol:
            break
        corr = np.linalg.norm(d.T @ residual, axis=1)
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        sub = d[:, support]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        residual = y - sub @ coef
    z = np.zeros((d.shape[1], y.shape[1]))
    z[support, :] = coef
    return z


def pursuit_reference(d, y, s, rows=False, residual_tol=1e-7):
    """Column loop of :func:`omp_reference` (or one :func:`somp_reference`)
    on the unit-norm live atoms of ``d``, rescaled back to ``d``."""
    d = np.asarray(d, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    norms = np.linalg.norm(d, axis=0)
    alive = norms > 1e-12
    dn = d[:, alive] / norms[alive]
    s_eff = min(s, dn.shape[1])
    z = np.zeros((d.shape[1], y.shape[1]))
    if rows:
        z[alive] = somp_reference(dn, y, s_eff, residual_tol) / norms[alive, None]
    else:
        for j in range(y.shape[1]):
            z[alive, j] = omp_reference(dn, y[:, j], s_eff, residual_tol) / norms[alive]
    return z


def encode_reference(model, x):
    """Test encoding of one sample as it was first written: per-sample
    pseudo-inverses and the column-loop OMP.  Returns (z, residual)."""
    cfg = model.config
    d1, d2, d3 = model.dictionaries
    act = model.architecture.activation
    s = resolve_budget(cfg, model.architecture).per_column_s
    xcol = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    z1 = np.linalg.pinv(d1) @ xcol
    z2 = np.linalg.pinv(d2) @ act.inverse(z1)
    b1 = np.ones_like(z1)
    b2 = np.ones_like(z2)
    for _ in range(cfg.test_iters):
        z = pursuit_reference(d3, act.inverse(z2 - b2), s)
        z1 = solve_P4(xcol, d1, d2, z2, b1, cfg.eta1, act)
        z2 = solve_P5(z1, b1, d2, d3, z, b2, cfg.eta1, cfg.eta2, act)
        b1 = z1 - act.forward(d2 @ z2) - b1
        b2 = z2 - act.forward(d3 @ z) - b2
    recon = d1 @ act.forward(d2 @ act.forward(d3 @ z))
    return z[:, 0], float(np.linalg.norm(xcol - recon))


def greedy_encode(model, x, s):
    """Greedy-chain encoding of one sample as the package first shipped it:
    pseudo-inverses through the upper layers, then OMP with budget ``s`` on
    the deepest.  The oracle for a ``greedy`` model's ``encode_test``."""
    z = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    dicts = model.dictionaries
    if z.shape[0] != dicts[0].shape[0]:
        raise ValueError(f"sample length {z.shape[0]} != D1 rows {dicts[0].shape[0]}")
    act = model.architecture.activation
    for idx, d in enumerate(dicts):
        target = z if idx == 0 else act.inverse(z)
        if idx == len(dicts) - 1:
            z = pursuit_reference(d, target, s)
        else:
            z = np.linalg.pinv(d) @ target
    return z.reshape(-1)


def class_distances_reference(model, z, rule):
    """Per-class minimum distance of one code, one np.where per class."""
    diffs = model.features - z[:, None]
    if rule == "l0":
        distances = np.sum(np.abs(diffs) > SUPPORT_TOL, axis=0).astype(np.float64)
    else:
        distances = np.sum(np.abs(diffs), axis=0)
    return [
        (c, float(distances[np.where(model.labels == c)[0]].min()))
        for c in range(1, model.num_classes + 1)
    ]


def load_matrix_csv_reference(path):
    """``load_matrix_csv`` as one ``float()`` per cell, line by line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                values = [float(cell) for cell in cells]
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-numeric cell") from None
            if any(not np.isfinite(v) for v in values):
                raise DataFormatError(f"{path}:{lineno}: non-finite value")
            if rows and len(values) != len(rows[0]):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(rows[0])} columns, got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    return np.array(rows, dtype=np.float64).T
