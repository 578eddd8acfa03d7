"""Sparse-recovery primitives: batched greedy pursuit and reverse shrinkage.

The l0-style penalties of the training objective are realized as hard
sparsity budgets (s nonzeros per column, s nonzero rows per class block) and
solved by one greedy kernel: Batch-OMP (Rubinstein, Zibulevsky & Elad 2008)
over all columns at once, or SOMP (Tropp, Gilbert & Strauss 2006) with one
row support.  It needs only ``D'D`` and ``D'Y``, so a structured system (the
stacked P6 system) is never built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix

__all__ = [
    "SparsityBudget",
    "pursuit",
    "pursuit_gram",
    "prox_push",
]

DEFAULT_RESIDUAL_TOL = 1e-7

# Columns with l2 norm at or below this are considered dead atoms.
_DEAD_COLUMN_TOL = 1e-12


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


def pursuit_gram(
    gram: np.ndarray,
    corr: np.ndarray,
    y_sq: np.ndarray,
    s: int,
    rows: bool = False,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> np.ndarray:
    """Greedy pursuit of every column of ``Y ~ D Z`` from ``D'D``, ``D'Y`` and
    the squared column norms of ``Y``: OMP per column, or with ``rows=True``
    SOMP with one row support for all columns.

    Atoms are normalized through the Gram diagonal and the coefficients scaled
    back; dead (zero) atoms are skipped and ``s`` is capped at the live count.
    Each step picks the unselected atom with the largest ``|d_i' r|`` (SOMP:
    row norm of ``D'R``), ties to the smaller index, then refits the support
    by one stacked k x k Gram solve.  A column (SOMP: the block) whose
    residual norm, ``sqrt(||y||^2 - coef' (D'y)_support)``, is at or below
    ``residual_tol`` stops and leaves the working set.
    """
    norms = np.sqrt(np.diag(gram))
    alive = norms > _DEAD_COLUMN_TOL
    if not np.any(alive):
        raise ValueError("dictionary has no usable (nonzero) columns")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    n = corr.shape[1]
    live_norms = norms[alive]
    g = gram[np.ix_(alive, alive)] / np.outer(live_norms, live_norms)
    c = corr[alive] / live_norms[:, None]

    # a group is the set of columns sharing one support: each column for OMP,
    # the whole block for SOMP; arrays below are (group, atom, column)
    if rows:
        c = c[None]
        cols = np.arange(n)[None, :]
        y2 = np.array([np.sum(y_sq)])
    else:
        c = c.T[:, :, None]
        cols = np.arange(n)[:, None]
        y2 = np.asarray(y_sq, dtype=np.float64)
    steps = min(s, g.shape[0])
    z = np.zeros((g.shape[0], n))
    support = np.zeros((c.shape[0], steps), dtype=np.intp)
    group = np.arange(c.shape[0])[:, None]
    resid, r2 = c, y2
    for k in range(steps):
        going = r2 > residual_tol * residual_tol
        if not going.all():
            c, cols, y2, support, resid = (v[going] for v in (c, cols, y2, support, resid))
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
    out = np.zeros((gram.shape[0], n))
    out[alive] = z / live_norms[:, None]
    return out


def pursuit(
    d: np.ndarray, y: np.ndarray, s: int, rows: bool = False, residual_tol: float = DEFAULT_RESIDUAL_TOL
) -> np.ndarray:
    """:func:`pursuit_gram` against an explicit dictionary ``d`` (any column
    scaling, dead atoms allowed) for the columns of ``y``."""
    d = as_matrix(d, "D")
    y = as_matrix(y, "Y")
    if y.shape[0] != d.shape[0]:
        raise ValueError(f"signal rows {y.shape[0]} != dictionary rows {d.shape[0]}")
    return pursuit_gram(d.T @ d, d.T @ y, np.einsum("ij,ij->j", y, y), s, rows, residual_tol)


def prox_push(v, mu: float, gamma: float) -> np.ndarray:
    """Reverse-shrinkage proximal map: push small magnitudes up to mu/(2 gamma).

    Elementwise: entries with ``|v| > mu/(2 gamma)`` pass through unchanged;
    all others become ``sign(v) * mu/(2 gamma)`` with ``sign(0) = +1``.  The
    operator is idempotent and never maps a magnitude below the threshold.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    v = np.asarray(v, dtype=np.float64)
    thr = mu / (2.0 * gamma)
    sign = np.where(v >= 0, 1.0, -1.0)
    return np.where(thr < np.abs(v), v, sign * thr)
