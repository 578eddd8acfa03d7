"""Shared synthetic data builders used across the test suite.

Everything here is seeded through the package Rng so tests are bit-stable.
"""

import warnings

import numpy as np

from rsddl.dataio import DataFormatError, make_dataset
from rsddl.numerics import (
    DEAD_ATOM_TOL, Activation, NumericsWarning, Rng, as_matrix, normalize_columns, pinv,
)
from rsddl.greedy import Architecture, compose_reconstruction
from rsddl.inference import SUPPORT_TOL
from rsddl.joint import _PAIR_CHUNK, class_mean_matrix, resolve_budget, solve_P4, solve_P5
from rsddl.sparse import prox_push, unit_gram


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


def many_class_mixture(seed=7, n_classes=16, dim=60, n_train=25, n_test=5, separation=14.0):
    """Isotropic Gaussian mixture with unit noise and class means of norm
    ``separation``, samples in class order.  Returns (train dataset, test
    features): the shape of the benchmark's mixture workload."""
    rng = Rng(seed)
    means = rng.standard_normal((dim, n_classes))
    means *= separation / np.linalg.norm(means, axis=0)
    x = np.repeat(means, n_train, axis=1) + rng.standard_normal((dim, n_classes * n_train))
    labels = np.repeat(np.arange(1, n_classes + 1), n_train)
    x_test = np.repeat(means, n_test, axis=1) + rng.standard_normal((dim, n_classes * n_test))
    return make_dataset(x, labels), x_test


MIXTURE_ARCH = Architecture((6, 4, 2), activation=Activation.IDENTITY)
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


# The Gram-form kernel before its supports were chosen by Gram-Schmidt: one
# stacked k x k solve per step, with a pinv fallback.  Kept verbatim as the
# oracle the current kernel must match bit for bit.

_RESIDUAL_TOL = 1e-7
_RESIDUAL_FLOOR = 1e-12


def pursuit_gram_reference(
    prepared: tuple[np.ndarray, np.ndarray, np.ndarray],
    corr: np.ndarray,
    y_sq: np.ndarray,
    s: int,
    groups: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy pursuit of every column of ``Y ~ D Z`` from ``unit_gram(D'D)``,
    ``D'Y`` and the squared column norms of ``Y``.  ``groups`` labels each
    column: the columns of one label share one row support (SOMP), so a
    constant label is one SOMP block; ``None`` gives every column its own
    support (OMP).  Dead atoms stay zero and ``s`` is capped at the live count.

    Each step picks, per group, the unselected atom with the largest
    ``|d_i' r|`` (SOMP: row norm of ``D'R`` over the group's columns), ties to
    the smaller index, then refits the support by one stacked k x k Gram
    solve.  A group whose squared residual norm, ``||y||^2 - coef' (D'y)_support``
    summed over its columns, is at or below ``(1e-7)**2`` or 1e-12 of its
    ``||y||^2`` (the rounding of that difference) stops and leaves the working set.
    """
    g, live_norms, alive = prepared
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    n = corr.shape[1]
    all_alive = live_norms.size == alive.size
    c = (corr if all_alive else corr[alive]) / live_norms[:, None]
    y2 = np.asarray(y_sq, dtype=np.float64)

    # arrays below are (group, atom, slot), with cols[group, slot] the column;
    # groups smaller than the largest are padded with slots pointing at an
    # appended all-zero column n
    if groups is None:
        cols = np.arange(n)[:, None]
        c = c.T[:, :, None]
    else:
        cols = _group_columns(groups, n)
        padded = np.append(c, np.zeros((c.shape[0], 1)), axis=1)
        c = np.ascontiguousarray(padded[:, cols].transpose(1, 0, 2))
        y2 = np.append(y2, 0.0)[cols].sum(axis=1)
    steps = min(s, g.shape[0])
    z = np.zeros((g.shape[0], n + 1))
    support = np.zeros((c.shape[0], steps), dtype=np.intp)
    group = np.arange(c.shape[0])[:, None]
    stop = np.maximum(_RESIDUAL_TOL * _RESIDUAL_TOL, _RESIDUAL_FLOOR * y2)
    resid, r2 = c, y2
    for k in range(steps):
        going = r2 > stop
        if not going.all():
            c, cols, y2, stop, support, resid = (v[going] for v in (c, cols, y2, stop, support, resid))
            group = group[: c.shape[0]]
            if c.shape[0] == 0:
                break
        score = np.einsum("gat,gat->ga", resid, resid)
        score[group, support[:, :k]] = -1.0
        support[:, k] = score.argmax(axis=1)
        sup = support[:, : k + 1]
        sub_gram = g[sup[:, :, None], sup[:, None, :]]
        rhs = c[group, sup]
        try:
            coef = np.linalg.solve(sub_gram, rhs)
        except np.linalg.LinAlgError:  # linearly dependent support: minimum-norm fit
            coef = np.linalg.pinv(sub_gram) @ rhs
        z[sup[:, :, None], cols[:, None, :]] = coef
        resid = c - np.einsum("gka,gkt->gat", g[sup], coef)
        r2 = y2 - np.einsum("gkt,gkt->g", coef, rhs)
    if all_alive:
        return z[:, :n] / live_norms[:, None]
    out = np.zeros((alive.size, n))
    out[alive] = z[:, :n] / live_norms[:, None]
    return out


def _group_columns(groups: np.ndarray, n: int) -> np.ndarray:
    """(group, slot) table of column indices, groups in label order and
    columns in their own order, short groups padded with ``n``."""
    groups = np.asarray(groups)
    if groups.shape != (n,):
        raise ValueError(f"groups must label each of the {n} columns, got shape {groups.shape}")
    order = np.argsort(groups, kind="stable")
    _, starts, sizes = np.unique(groups[order], return_index=True, return_counts=True)
    cols = np.full((starts.size, sizes.max()), n)
    cols[np.repeat(np.arange(starts.size), sizes), np.arange(n) - np.repeat(starts, sizes)] = order
    return cols


def labels_of(cols, n):
    """Group label of each of the ``n`` columns of a ``group_columns`` table."""
    labels = np.empty(n, dtype=np.int64)
    for g, row in enumerate(cols):
        labels[row[row < n]] = g
    return labels


# The P1-P3 dictionary fit before it solved the normal equations: one SVD
# pseudo-inverse per fit.  It stays the fit of dependent or ill-conditioned
# codes, bit for bit, and the oracle of the normal-equation path.

def fit_dictionary_reference(target, codes, prev):
    """``target pinv(codes)`` with unit columns, and the column norms it was
    scaled by; all-zero columns restored from ``prev`` when given."""
    d, scales = normalize_columns(target @ pinv(codes))
    if prev is not None:
        dead = np.linalg.norm(d, axis=0) <= DEAD_ATOM_TOL
        d[:, dead] = prev[:, dead]
    return d, scales


# The warm start's alternating least squares as it was before every fit went
# through ``rsddl.numerics.lstsq``: a shape switch to ``pinv``, else the normal
# equations behind a bare Cholesky probe that warned and took ``pinv`` on
# failure (``ridge_solve``, inlined).  The oracle for ``greedy._als_factorize``.

def als_factorize_reference(x, n_atoms, iters, rng):
    """Unpenalized alternating least squares ``X ~ D Z``, unit-norm columns."""
    def ridge_solve(a, b):
        a = as_matrix(a, "A")
        b = as_matrix(b, "B")
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"row mismatch: A has {a.shape[0]}, B has {b.shape[0]}")
        gram = a.T @ a
        try:
            np.linalg.cholesky(gram)  # cheap positive-definiteness probe
            return np.linalg.solve(gram, a.T @ b)
        except np.linalg.LinAlgError:
            warnings.warn(
                "singular normal equations; using pseudo-inverse fallback",
                NumericsWarning,
                stacklevel=2,
            )
            return pinv(a) @ b

    if n_atoms > min(x.shape):
        def solve(a, b):
            return pinv(a) @ b
    else:
        def solve(a, b):
            return ridge_solve(a, b)
    d, _ = normalize_columns(rng.standard_normal((x.shape[0], n_atoms)))
    z = np.zeros((n_atoms, x.shape[1]))
    for _ in range(iters):
        z = solve(d, x)
        d = solve(z.T, x.T).T
        d, scales = normalize_columns(d)
        z = z * scales[:, None]
    return d, z


# P6 as it was before its passes were fused: per inner step, one pass over
# P and C for the correlation and one for the updates, each gathering the
# competitor means again.  P and C are (competitor, atom, column) arrays here;
# ``column_layout`` turns them into the (column, competitor, atom) arrays of
# ``rsddl.joint``.  The oracle for ``rsddl.joint.solve_P6``.

def _class_layout(class_cols):
    """The class-sorted column layout of P and C: the column order, each
    sorted column's class index (0-based), and the (class, competitor) table
    whose row c lists every other class index in ascending order."""
    classes = sorted(class_cols)
    order = np.concatenate([class_cols[c] for c in classes])
    cls = np.repeat(np.arange(len(classes)), [class_cols[c].size for c in classes])
    slot = np.arange(len(classes) - 1)[None, :]
    competitors = slot + (slot >= np.arange(len(classes))[:, None])
    return order, cls, competitors


def column_layout(a):
    """A (competitor, atom, column) P or C as a new (column, competitor, atom) array."""
    return np.ascontiguousarray(np.transpose(a, (2, 0, 1)))


def _competitor_means_reference(means, cls, competitors):
    """The competitor-mean slices of the class-sorted layout as first written:
    one ``np.take`` of the (competitor, atom, class) table per slice of at most
    ``_PAIR_CHUNK`` elements."""
    table = means.T[competitors].transpose(1, 2, 0)
    width = max(1, _PAIR_CHUNK // max(1, table.shape[0] * table.shape[1]))
    for lo in range(0, cls.size, width):
        cols = slice(lo, lo + width)
        yield cols, np.take(table, cls[cols], axis=2)


def solve_P6_reference(
    z2: np.ndarray,
    b2: np.ndarray,
    d3: np.ndarray,
    class_means: np.ndarray,
    class_cols: dict[int, np.ndarray],
    row_s: int,
    mu: float,
    gamma: float,
    eta2: float,
    inner_iters: int,
    p: np.ndarray,
    c_relax: np.ndarray,
    act: Activation,
) -> np.ndarray:
    """Inner ADMM for the row-sparse, support-diverse codes of every class.

    For each class c it alternates row-sparse SOMP on the stacked system
    ``[sqrt(eta2) D3 ; sqrt(gamma) I per competitor]`` against the stacked
    targets ``[sqrt(eta2) phi^-1(Z2c - B2c) ; sqrt(gamma) (mean_k + C - P)]``,
    the reverse-shrinkage update of each P, and the relaxation update of each
    C.  The stacked system is never built: SOMP runs on its Gram matrix
    ``eta2 D3'D3 + (C-1) gamma I``, the same for every class, and its
    correlation ``eta2 D3' T + gamma sum_k (mean_k + C_k - P_k)``, and each
    inner step is one grouped pursuit with one group per class.  ``p`` and
    ``c_relax``, (competitor, atom, column) arrays over the class-sorted
    columns, are updated in place after every inner step.
    With ``mu == 0`` or a single class this is plain SOMP per class on the
    data term.  Returns Z with its columns in data order.
    """
    order, cls, competitors = _class_layout(class_cols)
    target = act.inverse(z2[:, order] - b2[:, order])
    z = np.zeros((d3.shape[1], order.size))
    if mu == 0 or competitors.shape[1] == 0:
        z[:, order] = pursuit_gram_reference(
            unit_gram(d3.T @ d3), d3.T @ target, np.einsum("ij,ij->j", target, target), row_s, groups=cls
        )
        return z

    gram = unit_gram(eta2 * (d3.T @ d3) + competitors.shape[1] * gamma * np.eye(d3.shape[1]))
    corr_top = eta2 * (d3.T @ target)
    sq_top = eta2 * np.einsum("ij,ij->j", target, target)
    for _ in range(inner_iters):
        corr, y_sq = corr_top.copy(), sq_top.copy()
        for cols, zbar in _competitor_means_reference(class_means, cls, competitors):
            blocks = zbar + c_relax[:, :, cols] - p[:, :, cols]
            corr[:, cols] += gamma * blocks.sum(axis=0)
            y_sq[cols] += gamma * np.einsum("kij,kij->j", blocks, blocks)
        z_sorted = pursuit_gram_reference(gram, corr, y_sq, row_s, groups=cls)
        for cols, zbar in _competitor_means_reference(class_means, cls, competitors):
            shifted = zbar - z_sorted[:, cols]
            p[:, :, cols] = prox_push(shifted + c_relax[:, :, cols], mu, gamma)
            c_relax[:, :, cols] = p[:, :, cols] - shifted - c_relax[:, :, cols]
    z[:, order] = z_sorted
    return z


# The relaxation sweep, the objective and the run log's support sizes as they
# were before P and C changed layout and the bookkeeping was shared: the
# oracles for ``bregman_update``, ``objective_value`` and the support sizes.

def bregman_update_reference(b1, b2, z1, z2, z, d2, d3, act):
    """The relaxation sweep of B1 and B2; returns the new ``(B1, B2)``."""
    b1 = z1 - act.forward(d2 @ z2) - b1
    b2 = z2 - act.forward(d3 @ z) - b2
    return b1, b2


def support_sizes_reference(z, class_cols):
    """Each class's count of nonzero rows of Z, one class block at a time."""
    return {c: int(np.sum(np.any(z[:, cols] != 0.0, axis=1))) for c, cols in class_cols.items()}


def objective_value_reference(x, dicts, z, class_cols, mu, act):
    """The training objective with its own class means, over the (competitor,
    atom, column) layout."""
    recon = x - compose_reconstruction(dicts, z, act)
    value = float(np.sum(recon * recon))
    return float(np.cumsum(np.append(value, -mu * pair_counts_reference(z, class_cols).ravel()))[-1])


def pair_counts_reference(z, class_cols):
    """The (class, competitor) table of ``nnz(mean_k - Z_c)`` summed over
    class c's columns, one slice of (competitor, atom, column) differences at
    a time."""
    order, cls, competitors = _class_layout(class_cols)
    z_sorted = z[:, order]
    starts = np.searchsorted(cls, np.arange(competitors.shape[0]))
    means = class_mean_matrix(z, class_cols, len(class_cols))
    differ = np.zeros((competitors.shape[1], cls.size), dtype=np.int64)
    for cols, zbar in _competitor_means_reference(means, cls, competitors):
        differ[:, cols] = np.count_nonzero(zbar != z_sorted[:, cols], axis=1)
    return np.add.reduceat(differ, starts, axis=1).T


def encode_reference(model, x):
    """Test encoding of one sample as it was first written: per-sample
    pseudo-inverses and the column-loop OMP.  Returns the code vector z."""
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
        z1 = solve_P4(xcol, d1, act.forward(d2 @ z2), b1, cfg.eta1)
        z2 = solve_P5(z1, b1, d2, act.forward(d3 @ z), b2, cfg.eta1, cfg.eta2, act)
        b1 = z1 - act.forward(d2 @ z2) - b1
        b2 = z2 - act.forward(d3 @ z) - b2
    return z[:, 0]


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


def class_scores_reference(model, z, rule):
    """(test column, class) minimum distances of the codes ``z``, accumulated
    one atom row at a time over every test column: the distance pass before
    it took one array operation per chunk."""
    z = np.asarray(z, dtype=np.float64).reshape(z.shape[0], -1)
    dist = np.zeros((z.shape[1], model.features.shape[1]))
    for row, ref in zip(z, model.features):
        diff = np.abs(ref[None, :] - row[:, None])
        dist += (diff > SUPPORT_TOL) if rule == "l0" else diff
    classes = range(1, model.num_classes + 1)
    return np.stack([dist[:, model.labels == c].min(axis=1) for c in classes], axis=1)


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


# PCA and the window matrix as they were before the Gram route and the
# sliding-window gather: an economy SVD of the centered data, and one window
# copied per labelled pixel.  The SVD fit stays the fit below the Gram
# route's gate, bit for bit; both are the oracles of the fast paths.

def pca_fit_reference(x, d):
    """``(mean, basis)`` of a d-component PCA of the columns of ``x`` from the
    left singular vectors of the centered data, sign-normalized, padded with
    orthonormal complement vectors (and warned) beyond the data's rank."""
    x = as_matrix(x, "X")
    if not 1 <= d <= min(x.shape):
        raise ValueError(f"d must be in [1, min(rows, cols)] = [1, {min(x.shape)}], got {d}")
    mean = x.mean(axis=1, keepdims=True)
    centered = x - mean
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12)) if s[0] > 0 else 0
    if rank < d:
        warnings.warn(
            f"requested {d} components but data rank is {rank}; "
            "padding with orthonormal complement vectors",
            NumericsWarning,
            stacklevel=2,
        )
    basis = u[:, :d].copy()
    for j in range(d):
        nz = np.nonzero(np.abs(basis[:, j]) > 1e-12)[0]
        if nz.size and basis[nz[0], j] < 0:
            basis[:, j] = -basis[:, j]
    return mean, basis


def window_matrix_reference(cube, window):
    """``(raw, labels)``: the flattened mirror-padded window x window x bands
    neighborhood of each labelled pixel as a column, and its class id, in
    row-major pixel order."""
    lead = (window - 1) // 2
    trail = window - 1 - lead
    padded = np.pad(cube.values, ((lead, trail), (lead, trail), (0, 0)), mode="symmetric")
    labeled = np.argwhere(cube.ground_truth > 0)
    raw = np.empty((window * window * cube.bands, labeled.shape[0]))
    labels = np.empty(labeled.shape[0], dtype=np.int64)
    for i, (r, c) in enumerate(labeled):
        raw[:, i] = padded[r : r + window, c : c + window, :].reshape(-1)
        labels[i] = cube.ground_truth[r, c]
    return raw, labels
