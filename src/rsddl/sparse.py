"""Sparse-recovery primitives: batched greedy pursuit and reverse shrinkage.

The l0-style penalties of the training objective are realized as hard
sparsity budgets (s nonzeros per column, s nonzero rows per class block) and
solved by one greedy kernel: Batch-OMP (Rubinstein, Zibulevsky & Elad 2008)
over all columns at once, or SOMP (Tropp, Gilbert & Strauss 2006) with one
row support per labelled group of columns (all classes of P6 in one call).
It needs only ``D'D``, prepared once per dictionary by :func:`unit_gram`,
and ``D'Y``, so a structured system (the stacked P6 system) is never built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix

__all__ = [
    "SparsityBudget",
    "pursuit",
    "pursuit_gram",
    "unit_gram",
    "prox_push",
]

# Absolute stop test: a group stops once its squared residual is at or below this squared.
_RESIDUAL_TOL = 1e-7

# Columns with l2 norm at or below this are considered dead atoms.
_DEAD_COLUMN_TOL = 1e-12

# Stop-test floor relative to ||y||^2: ||y||^2 - coef'D'y rounds at ~(m + k cond) eps ||y||^2,
# 6 eps at most over 3,000 planted exact fits.  1e-12 (4.5e3 eps) keeps a margin for larger
# m and cond; a fit of real data reaches it only by explaining all but 1e-6 of its norm.
_RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class SparsityBudget:
    """Hard sparsity budgets: nonzeros per coefficient column and nonzero
    rows per class block."""

    per_column_s: int
    row_s: int

    def __post_init__(self):
        if self.per_column_s < 1:
            raise ValueError(f"per_column_s must be >= 1, got {self.per_column_s}")
        if self.row_s < 1:
            raise ValueError(f"row_s must be >= 1, got {self.row_s}")

    def validate_for(self, n_atoms: int) -> None:
        if self.per_column_s > n_atoms:
            raise ValueError(f"per_column_s={self.per_column_s} exceeds atom count {n_atoms}")
        if self.row_s > n_atoms:
            raise ValueError(f"row_s={self.row_s} exceeds atom count {n_atoms}")


def unit_gram(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``D'D`` prepared once for :func:`pursuit_gram`: the Gram of the unit-norm
    live atoms (norm above 1e-12), the live atom norms and the alive mask."""
    norms = np.sqrt(np.diag(gram))
    alive = norms > _DEAD_COLUMN_TOL
    if not np.any(alive):
        raise ValueError("dictionary has no usable (nonzero) columns")
    live_norms = norms[alive]
    return gram[np.ix_(alive, alive)] / np.outer(live_norms, live_norms), live_norms, alive


def pursuit_gram(
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


def pursuit(
    d: np.ndarray,
    y: np.ndarray,
    s: int,
    groups: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`pursuit_gram` against an explicit dictionary ``d`` (any column
    scaling, dead atoms allowed) for the columns of ``y``."""
    d = as_matrix(d, "D")
    y = as_matrix(y, "Y")
    if y.shape[0] != d.shape[0]:
        raise ValueError(f"signal rows {y.shape[0]} != dictionary rows {d.shape[0]}")
    return pursuit_gram(unit_gram(d.T @ d), d.T @ y, np.einsum("ij,ij->j", y, y), s, groups)


def prox_push(v, mu: float, gamma: float) -> np.ndarray:
    """Reverse-shrinkage proximal map: push small magnitudes up to mu/(2 gamma).

    Elementwise: entries with ``|v| > mu/(2 gamma)`` pass through unchanged;
    all others become ``sign(v) * mu/(2 gamma)`` with ``sign(+-0) = +1``.  The
    operator is idempotent and never maps a magnitude below the threshold.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    v = np.asarray(v, dtype=np.float64)
    thr = mu / (2.0 * gamma)
    # branch-free: max(|v|, thr) with the sign of v, where v + 0.0 turns -0.0 into +0.0
    return np.copysign(np.fmax(np.abs(v), thr), v + 0.0)
