"""Sparse-recovery primitives: batched greedy pursuit and reverse shrinkage.

The l0-style penalties of the training objective are realized as hard
sparsity budgets (s nonzeros per column, s nonzero rows per class block) and
solved by one greedy kernel: Batch-OMP (Rubinstein, Zibulevsky & Elad 2008)
over all columns at once, or SOMP (Tropp, Gilbert & Strauss 2006) with one
row support per labelled group of columns (all classes of P6 in one call).
It needs only ``D'D``, prepared once per dictionary by :func:`unit_gram`,
and ``D'Y``, so a structured system (the stacked P6 system) is never built.
Supports are chosen by Gram-Schmidt in Gram form, one rank-one update of
``D'R`` per step as in Batch-OMP's progressive Cholesky (Rubinstein et al.,
section 3), and the coefficients come from one LAPACK solve per support size
on the final supports.
"""

from __future__ import annotations

import numpy as np

from .numerics import DEAD_ATOM_TOL, as_matrix

__all__ = [
    "pursuit",
    "pursuit_gram",
    "group_columns",
    "unit_gram",
    "prox_push",
]

# Absolute stop test: a group stops once its squared residual is at or below this squared.
_RESIDUAL_TOL = 1e-7

# Stop-test floor relative to ||y||^2: the running residual, ||y||^2 less each step's squared
# projection, rounds at about (m + k cond) eps ||y||^2: at most 6.2 eps over 3,000 planted exact
# fits (8-127 rows, 1-5 atoms, scales 1e-3-1e7) and 7.0 eps over 3,000 planted SOMP blocks of 2-6
# columns.  1e-12 (4.5e3 eps) keeps a margin for larger m and cond; a fit of real data reaches it
# only by explaining all but 1e-6 of its norm.
_RESIDUAL_FLOOR = 1e-12

# An atom whose squared distance from the span of the support (as a unit atom) is at or below
# this is dependent on it, within 1e-5 rad, and never enters the support.  Rounding leaves a
# picked or exactly duplicated atom at about k eps, far below.
_DEPENDENT_TOL = 1e-10


def unit_gram(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``D'D`` prepared once for :func:`pursuit_gram`: the Gram of the unit-norm
    live atoms (norm above ``DEAD_ATOM_TOL``), the live atom norms and the alive mask."""
    norms = np.sqrt(np.diag(gram))
    alive = norms > DEAD_ATOM_TOL
    if not np.any(alive):
        raise ValueError("dictionary has no usable (nonzero) columns")
    live_norms = norms[alive]
    return gram[np.ix_(alive, alive)] / np.outer(live_norms, live_norms), live_norms, alive


def pursuit_gram(
    prepared: tuple[np.ndarray, np.ndarray, np.ndarray],
    corr: np.ndarray,
    y_sq: np.ndarray,
    s: int,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy pursuit of every column of ``Y ~ D Z`` from ``unit_gram(D'D)``,
    ``D'Y`` and the squared column norms of ``Y``.  ``cols`` is the
    :func:`group_columns` table of the columns that share one row support
    (SOMP); ``None`` gives every column its own support (OMP).  Dead atoms stay
    zero and ``s`` is capped at the live count.

    Each step picks, per group, the eligible atom with the largest ``|d_i' r|``
    (SOMP: row norm of ``D'R`` over the group's columns), ties to the smaller
    index.  The support is chosen by Gram-Schmidt in Gram form: ``D'q`` of the
    picked atoms, orthonormalized in selection order, update ``D'R`` and the
    squared residual norm one rank at a time.  An atom whose pivot (its squared
    distance from the span of the support, as a unit atom) is at or below 1e-10
    is dependent and never enters the support; a group left with no eligible
    atom stops.  So does a group whose squared residual norm, summed over its
    columns, is at or below ``(1e-7)**2`` or 1e-12 of its ``||y||^2``.  The
    coefficients are solved once, on each group's final support: one stacked
    k x k Gram solve per support size.
    """
    g, live_norms, alive = prepared
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    n = corr.shape[1]
    all_alive = live_norms.size == alive.size
    c = (corr if all_alive else corr[alive]) / live_norms[:, None]
    y2 = np.asarray(y_sq, dtype=np.float64)

    # arrays below are (group, atom) without groups, each column its own (OMP),
    # and (group, atom, slot) with them, cols[group, slot] being the column; groups
    # smaller than the largest are padded with slots pointing at an appended
    # all-zero column n.  Per-group values (pick, pivot, r2, stop) are (group, 1)
    # columns, and per-group gathers are takes at the flat offsets base + atom:
    # a one-sample call costs numpy calls, not arithmetic, and a take costs a
    # third of a paired fancy index.
    grouped = cols is not None
    if grouped:
        padded = np.append(c, np.zeros((c.shape[0], 1)), axis=1)
        c = np.ascontiguousarray(padded[:, cols].transpose(1, 0, 2))
        y2 = np.append(y2, 0.0)[cols].sum(axis=1)
    else:
        cols = np.arange(n)[:, None]
        c = np.ascontiguousarray(c.T)
    atoms = g.shape[0]
    steps = min(s, atoms)
    z = np.zeros((atoms, n + 1))
    support = np.empty((c.shape[0], steps), dtype=np.intp)
    basis = np.empty((c.shape[0], steps, atoms))  # D'q of the picked atoms
    basis_t = np.empty((c.shape[0], atoms, steps))  # the same, so an atom's row is one take
    rows_t = basis_t.reshape(-1, steps)
    left = np.empty((c.shape[0], atoms))  # each atom's pivot against the support
    left.fill(1.0)
    base = np.arange(0, c.shape[0] * atoms, atoms)[:, None]  # flat offset of each group's first atom
    alpha, r2 = c, y2[:, None]  # D'R and the squared residual norm
    stop = np.maximum(_RESIDUAL_TOL * _RESIDUAL_TOL, _RESIDUAL_FLOOR * r2)
    for k in range(steps):
        score = np.einsum("gat,gat->ga", alpha, alpha) if grouped else np.square(alpha)
        if k:  # nothing is dependent before the first pick
            np.putmask(score, left <= _DEPENDENT_TOL, -1.0)
        pick = score.argmax(axis=1, keepdims=True)
        flat = base + pick
        v = g.take(pick, axis=0)
        if k:
            v -= rows_t.take(flat, axis=0)[..., :k] @ basis[:, :k]
        v = v[:, 0]
        pivot = v.take(flat)
        # the pick is dependent (its score masked) only when every atom of its group is
        going = (r2 > stop) & (score.take(flat) >= 0.0) if k else r2 > stop
        if np.count_nonzero(going) < going.size:
            going, done = going[:, 0], ~going[:, 0]
            _fit(g, c, support[done, :k], base[done], cols[done], z)
            c, cols, stop, support, basis, basis_t, left, alpha, r2, pick, v, pivot = (
                a[going] for a in (c, cols, stop, support, basis, basis_t, left, alpha, r2, pick, v, pivot)
            )
            if c.shape[0] == 0:
                break
            rows_t = basis_t.reshape(-1, steps)
            base = base[: c.shape[0]]
            flat = base + pick
        root = np.sqrt(pivot)
        v /= root
        if grouped:
            w = alpha.reshape(-1, alpha.shape[2]).take(flat[:, 0], axis=0) / root
            alpha = alpha - v[:, :, None] * w[:, None, :]
            r2 = r2 - np.add.reduce(w * w, axis=1, keepdims=True)
        else:
            w = alpha.take(flat) / root
            alpha = alpha - v * w
            r2 = r2 - w * w
        left -= v * v
        basis[:, k] = v
        basis_t[:, :, k] = v
        support[:, k, None] = pick
    else:
        _fit(g, c, support, base, cols, z)
    if all_alive:
        return z[:, :n] / live_norms[:, None]
    out = np.zeros((alive.size, n))
    out[alive] = z[:, :n] / live_norms[:, None]
    return out


def _fit(g: np.ndarray, c: np.ndarray, support: np.ndarray, base: np.ndarray, cols: np.ndarray, z: np.ndarray) -> None:
    """Solve the coefficients of the groups at flat offsets ``base`` of ``c``
    on their supports (all of one size) and write them into ``z``."""
    if support.size == 0:
        return
    rhs = c.reshape(c.shape[0] * c.shape[1], -1).take(support + base, axis=0)
    rows = support[:, :, None]
    z[rows, cols[:, None, :]] = np.linalg.solve(g[rows, support[:, None, :]], rhs)


def group_columns(groups: np.ndarray, n: int) -> np.ndarray:
    """(group, slot) table of the column indices of each label in ``groups``,
    groups in label order and columns in their own order, short groups padded
    with ``n``; the ``cols`` argument of :func:`pursuit_gram`."""
    groups = np.asarray(groups)
    if groups.shape != (n,):
        raise ValueError(f"groups must label each of the {n} columns, got shape {groups.shape}")
    order = np.argsort(groups, kind="stable")
    _, starts, sizes = np.unique(groups[order], return_index=True, return_counts=True)
    cols = np.full((starts.size, sizes.max()), n)
    cols[np.repeat(np.arange(starts.size), sizes), np.arange(n) - np.repeat(starts, sizes)] = order
    return cols


def pursuit(
    d: np.ndarray,
    y: np.ndarray,
    s: int,
    groups: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`pursuit_gram` against an explicit dictionary ``d`` (any column
    scaling, dead atoms allowed) for the columns of ``y``.  ``groups`` labels
    each column: the columns of one label share one row support (SOMP), so a
    constant label is one SOMP block; ``None`` gives every column its own
    support (OMP)."""
    d = as_matrix(d, "D")
    y = as_matrix(y, "Y")
    if y.shape[0] != d.shape[0]:
        raise ValueError(f"signal rows {y.shape[0]} != dictionary rows {d.shape[0]}")
    cols = None if groups is None else group_columns(groups, y.shape[1])
    return pursuit_gram(unit_gram(d.T @ d), d.T @ y, np.einsum("ij,ij->j", y, y), s, cols)


def prox_push(v, mu: float, gamma: float, out: np.ndarray | None = None) -> np.ndarray:
    """Reverse-shrinkage proximal map: push small magnitudes up to mu/(2 gamma).

    Elementwise: entries with ``|v| > mu/(2 gamma)`` pass through unchanged;
    all others become ``sign(v) * mu/(2 gamma)`` with ``sign(+-0) = +1``.  The
    operator is idempotent and never maps a magnitude below the threshold.
    The result is written into ``out`` when given (it may be ``v`` itself).
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    v = np.asarray(v, dtype=np.float64)
    thr = mu / (2.0 * gamma)
    # branch-free: max(|v|, thr) with the sign of v, where v + 0.0 turns -0.0 into +0.0
    sign = v + 0.0
    mag = np.abs(v, out=out)
    np.fmax(mag, thr, out=mag)
    return np.copysign(mag, sign, out=mag)
