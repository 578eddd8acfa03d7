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

from .numerics import DEAD_ATOM_TOL, Activation, NumericsWarning, Rng, as_matrix, lstsq, normalize_columns
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


def dict_learn(x: np.ndarray, n_atoms: int, s: int, iters: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Alternating minimization for ``X ~ D Z`` with s-sparse columns of Z.

    The coding step runs OMP per column (keeping the previous code whenever
    it reconstructs better, so the objective never increases); the dictionary
    step is :func:`~rsddl.numerics.lstsq` followed by column renormalization
    with the scales absorbed into Z; an atom no code uses comes back zero and
    is reseeded from the worst-reconstructed data column.
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

        d, scales = normalize_columns(lstsq(x, z))
        z = z * scales[:, None]
        d = _reseed_dead_atoms(d, z, x)
    return d, z


def _als_factorize(x: np.ndarray, n_atoms: int, iters: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Unpenalized alternating least squares ``X ~ D Z``, unit-norm columns.

    Both steps are :func:`~rsddl.numerics.lstsq` fits.  With more atoms than
    rows or samples, D and Z have rank at most ``min(x.shape) < n_atoms``, so
    the fits fail its conditioning gate and take the minimum-norm solution.
    """
    d = _init_dictionary(x.shape[0], n_atoms, rng)
    z = np.zeros((n_atoms, x.shape[1]))
    for _ in range(iters):
        z = lstsq(x.T, d.T).T
        d, scales = normalize_columns(lstsq(x, z))
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
