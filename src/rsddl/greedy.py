"""Shallow dictionary learning and the greedy layer-wise deep trainer.

The greedy pipeline factorizes one layer at a time: the first layer fits the
data, each deeper layer fits the inverted activation of the previous layer's
coefficients, and only the deepest layer carries the sparsity budget.  It is
both the baseline the joint trainer is measured against (a model of mode
``greedy``) and the warm start feeding it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    DEAD_ATOM_TOL, Activation, NumericsWarning, Rng, as_matrix, normalize_columns, pinv, ridge_solve
)
from .sparse import pursuit

__all__ = ["Architecture", "dict_learn", "layerwise_factorize", "compose_reconstruction"]


@dataclass(frozen=True)
class Architecture:
    """Per-layer atom counts plus the activation used between layers."""

    atoms_per_layer: tuple[int, ...]
    activation: Activation = field(default_factory=Activation)

    def __post_init__(self):
        atoms = tuple(int(a) for a in self.atoms_per_layer)
        object.__setattr__(self, "atoms_per_layer", atoms)
        if len(atoms) < 1:
            raise ValueError("architecture needs at least one layer")
        if any(a < 1 for a in atoms):
            raise ValueError(f"atom counts must be positive, got {atoms}")

    @property
    def depth(self) -> int:
        return len(self.atoms_per_layer)

    @property
    def feature_dim(self) -> int:
        """Dimension of the deepest coefficient layer."""
        return self.atoms_per_layer[-1]


def _init_dictionary(rows: int, n_atoms: int, rng: Rng) -> np.ndarray:
    d = rng.standard_normal((rows, n_atoms))
    d, _ = normalize_columns(d)
    return d


def _reseed_dead_atoms(d: np.ndarray, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Replace never-selected atoms with the worst-reconstructed data columns.

    Dead atoms have all-zero coefficient rows, so the swap leaves D @ Z
    unchanged.
    """
    dead = np.where(np.abs(z).sum(axis=1) == 0.0)[0]
    if dead.size == 0:
        return d
    errors = np.linalg.norm(x - d @ z, axis=0)
    worst = np.argsort(-errors, kind="stable")
    d = d.copy()
    for rank, atom in enumerate(dead):
        col = x[:, worst[rank % x.shape[1]]]
        norm = np.linalg.norm(col)
        d[:, atom] = col / norm if norm > DEAD_ATOM_TOL else 0.0
    return d


def _fit_dictionary(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Least-squares dictionary for ``X ~ D Z`` on the live code rows.  An
    all-zero row leaves its atom undetermined (and the normal equations
    singular); its column stays zero for :func:`_reseed_dead_atoms`."""
    live = np.any(z != 0.0, axis=1)
    d = np.zeros((x.shape[0], z.shape[0]))
    if np.any(live):
        d[:, live] = ridge_solve(z[live].T, x.T).T
    return d


def dict_learn(
    x: np.ndarray,
    n_atoms: int,
    s: int,
    iters: int,
    rng: Rng,
    callback=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Alternating minimization for ``X ~ D Z`` with s-sparse columns of Z.

    The coding step runs OMP per column (keeping the previous code whenever
    it reconstructs better, so the objective never increases); the dictionary
    step is a least-squares fit followed by column renormalization with the
    scales absorbed into Z.  ``callback``, when given, receives the Frobenius
    reconstruction error after every iteration.
    """
    x = as_matrix(x, "X")
    if n_atoms < 1 or s < 1 or iters < 1:
        raise ValueError("n_atoms, s and iters must all be >= 1")
    if s > n_atoms:
        raise ValueError(f"s={s} exceeds n_atoms={n_atoms}")
    if n_atoms > x.shape[1]:
        warnings.warn(
            f"n_atoms={n_atoms} exceeds sample count {x.shape[1]}",
            NumericsWarning,
            stacklevel=2,
        )

    d = _init_dictionary(x.shape[0], n_atoms, rng)
    z = np.zeros((n_atoms, x.shape[1]))
    for _ in range(iters):
        z_new = pursuit(d, x, s)
        # keep the old code where the greedy step happened to do worse
        old_err = np.linalg.norm(x - d @ z, axis=0)
        new_err = np.linalg.norm(x - d @ z_new, axis=0)
        better = new_err <= old_err
        z[:, better] = z_new[:, better]

        d, scales = normalize_columns(_fit_dictionary(z, x))
        z = z * scales[:, None]
        d = _reseed_dead_atoms(d, z, x)
        if callback is not None:
            callback(float(np.linalg.norm(x - d @ z)))
    return d, z


def _als_factorize(x: np.ndarray, n_atoms: int, iters: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Unpenalized alternating least squares ``X ~ D Z``, unit-norm columns.

    With more atoms than rows or samples, the fitted D and Z have rank at
    most ``min(x.shape) < n_atoms``, so their normal equations are singular by
    shape; both fits then take the minimum-norm least-squares solution.
    """
    if n_atoms > min(x.shape):
        def solve(a, b):
            return pinv(a) @ b
    else:
        def solve(a, b):
            return ridge_solve(a, b)
    d = _init_dictionary(x.shape[0], n_atoms, rng)
    z = np.zeros((n_atoms, x.shape[1]))
    for _ in range(iters):
        z = solve(d, x)
        d = solve(z.T, x.T).T
        d, scales = normalize_columns(d)
        z = z * scales[:, None]
    return d, z


def layerwise_factorize(
    x: np.ndarray,
    arch: Architecture,
    s: int,
    iters_per_layer: int,
    rng: Rng,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Greedy layer-by-layer factorization returning every layer's codes.

    Layer 1 factorizes X without sparsity; each deeper layer factorizes the
    inverted activation of the previous layer's coefficients; the final layer
    applies the per-column sparsity budget.
    """
    act = arch.activation
    target = as_matrix(x, "X")
    dicts: list[np.ndarray] = []
    codes: list[np.ndarray] = []
    for idx, atoms in enumerate(arch.atoms_per_layer):
        last = idx == arch.depth - 1
        layer_rng = rng.substream("layer", idx)
        if last:
            d, z = dict_learn(target, atoms, s, iters_per_layer, layer_rng)
        else:
            d, z = _als_factorize(target, atoms, iters_per_layer, layer_rng)
        dicts.append(d)
        codes.append(z)
        if not last:
            target = act.inverse(z)
    return dicts, codes


def compose_reconstruction(dicts: list[np.ndarray], z: np.ndarray, act: Activation) -> np.ndarray:
    """Reconstruct data through the stack: D1 phi(D2 phi(... DL Z))."""
    out = np.asarray(z, dtype=np.float64)
    for idx in range(len(dicts) - 1, -1, -1):
        out = dicts[idx] @ out
        if idx > 0:
            out = act.forward(out)
    return out
