"""Dense matrix kernels, elementwise activations, and the deterministic RNG.

Matrices are plain 2-D float64 numpy arrays with samples stored as columns.
Everything in this module is a pure function of its inputs; arrays are treated
as immutable once built and every routine returns fresh arrays.
"""

from __future__ import annotations

import operator
import warnings
from enum import Enum

import numpy as np

__all__ = [
    "NumericsWarning",
    "as_matrix",
    "as_labels",
    "as_int",
    "normalize_columns",
    "pinv",
    "lstsq",
    "pca_basis",
    "Activation",
    "Rng",
]

# Columns (atoms) with l2 norm at or below this are dead.
DEAD_ATOM_TOL = 1e-12

# pinv drops singular values below this fraction of the largest.
PINV_REL_TOL = 1e-10

# The tanh inverse clips its input into (-1 + eps, 1 - eps) before arctanh,
# so it is defined even at saturation.
TANH_CLAMP_EPS = 1e-6


class NumericsWarning(UserWarning):
    """Diagnostics channel for degenerate solve paths (fallbacks, rank loss)."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a nonempty 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def as_labels(labels) -> np.ndarray:
    """``labels`` as a new flat int64 array of class ids; a ValueError where
    one is not a whole number, since the cast would truncate it."""
    raw = np.asarray(labels)
    if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
        raise ValueError("class ids must be whole numbers")
    return raw.astype(np.int64).reshape(-1)


def as_int(value, name: str) -> int:
    """``value`` as an int; a ValueError naming ``name`` where it is not an
    integer (``operator.index``), since a cast would truncate it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def normalize_columns(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale the columns of ``d`` to unit l2 norm.

    Returns ``(normalized, scales)`` where ``scales`` holds the original column
    norms.  Dead columns (norm at or below :data:`DEAD_ATOM_TOL`) are left
    untouched and get scale 1.0, so they stay detectable by the caller.
    """
    d = np.array(d, dtype=np.float64)
    norms = np.linalg.norm(d, axis=0)
    alive = norms > DEAD_ATOM_TOL
    d[:, alive] /= norms[alive]
    return d, np.where(alive, norms, 1.0)


def pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values below :data:`PINV_REL_TOL` times the largest singular
    value are treated as exactly zero, which keeps the inverse finite for
    rank-deficient inputs (e.g. dictionaries with zeroed entries).
    """
    a = as_matrix(a, "A")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = PINV_REL_TOL * s[0]  # s is sorted descending
    keep = s > cutoff
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


def lstsq(target: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The least-squares D of ``target ~ D codes``, the one fit shared by the
    greedy warm start and the joint trainer's P1-P3.

    Solves the normal equations ``C C' D' = C target'`` of the nonzero code
    rows C as ``D = (target C') inv(C C')``, one product with the inverse,
    when ``C C' - 1e-8 trace(C C') I`` has a Cholesky factor, that is when
    every eigenvalue of ``C C'`` exceeds 1e-8 of its trace (so cond(C) stays
    below 1e4, since the normal equations square it).  An all-zero code
    row leaves its atom undetermined and gets a zero column; all-zero codes
    give a zero D.  Dependent or worse-conditioned codes take
    ``target pinv(codes)``, the minimum-norm fit, without a warning.  The
    result is a new C-ordered array, and with every code row nonzero it is
    the fit of the live rows without their gather and scatter, bit for bit.
    """
    target = as_matrix(target, "target")
    codes = as_matrix(codes, "codes")
    if target.shape[1] != codes.shape[1]:
        raise ValueError(f"column mismatch: target has {target.shape[1]}, codes have {codes.shape[1]}")
    live = codes.any(axis=1)
    every = bool(live.all())
    # with every row live, the rows in the C order a gather would give them
    c = np.ascontiguousarray(codes) if every else codes[live]
    gram = c @ c.T
    try:
        np.linalg.cholesky(gram - 1e-8 * np.trace(gram) * np.eye(gram.shape[0]))
    except np.linalg.LinAlgError:
        return target @ pinv(codes)
    # one GEMM with the explicit inverse: np.linalg.solve with as many
    # right-hand sides as target rows is several times slower at these sizes
    solved = (target @ c.T) @ np.linalg.inv(gram)
    if every:
        return solved
    fit = np.zeros((target.shape[0], codes.shape[0]))
    fit[:, live] = solved
    return fit


def pca_basis(centered: np.ndarray, d: int) -> np.ndarray:
    """The d-component PCA basis of the columns of ``centered``, data less
    its column mean, which is read, never written: ``d`` orthonormal columns
    by descending explained variance; a sample projects to ``basis.T @
    (sample - mean)``.  A caller may center in place, as
    ``extract_spatial_spectral`` does, so no second copy is alive in ``eigh``.

    The basis is the top-d eigenvectors of the smaller Gram matrix of the
    centered data C: ``C C'`` when C is not taller than wide, else ``C' C``,
    whose eigenvectors V give ``C V / sqrt(eigenvalue)``.  Its projected rows
    match an SVD's to about 1e-12 relative, and to about 1e-8 near the gate:
    where the d-th eigenvalue is not above 1e-8 of the largest (cond > 1e4),
    the basis is the left singular vectors of C's SVD, and if ``d`` exceeds
    C's rank the extra columns are orthonormal complement vectors (warned
    through :class:`NumericsWarning`, which points at the line that called
    ``pca_basis``).  Each basis column is sign-normalized so its first
    nonzero entry is positive, making the fit reproducible.
    """
    centered = as_matrix(centered, "X")
    if not 1 <= d <= min(centered.shape):
        raise ValueError(f"d must be in [1, min(rows, cols)] = [1, {min(centered.shape)}], got {d}")
    wide = centered.shape[0] <= centered.shape[1]
    eig, vecs = np.linalg.eigh(centered @ centered.T if wide else centered.T @ centered)
    eig, vecs = eig[:-d - 1:-1], vecs[:, :-d - 1:-1]  # top d, descending
    if eig[-1] > 1e-8 * eig[0]:
        basis = vecs.copy() if wide else centered @ (vecs / np.sqrt(eig))  # not a view of every eigenvector
    else:
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
    return basis


class Activation(Enum):
    """Elementwise activation with a total (clamped) inverse: the tanh
    inverse clips by :data:`TANH_CLAMP_EPS`; the identity never clamps."""

    TANH = "tanh"
    IDENTITY = "identity"

    def forward(self, m) -> np.ndarray:
        m = np.asarray(m, dtype=np.float64)
        if self is Activation.TANH:
            return np.tanh(m)
        return m.copy()

    def inverse(self, m) -> np.ndarray:
        m = np.asarray(m, dtype=np.float64)
        if self is Activation.TANH:
            # the clip of np.clip, bit for bit, without its Python-level wrapper
            out = np.maximum(m, -1.0 + TANH_CLAMP_EPS)
            np.minimum(out, 1.0 - TANH_CLAMP_EPS, out=out)
            return np.arctanh(out, out=out)
        return m.copy()


def _fnv1a(data: bytes) -> int:
    # FNV-1a, 64-bit: simple, documented, platform-independent.
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class Rng:
    """Deterministic random stream with reproducible named substreams.

    Backed by the Philox4x64-10 counter-based bit generator keyed by
    ``(seed, stream_tag)``, so the same seed yields the same bit stream on
    every platform.  ``substream(*tags)`` derives an independent child stream
    whose tag is the FNV-1a 64-bit hash of the parent tag and the stringified
    tags; draws from one substream never affect another, which is what makes
    per-iteration, per-target randomness order-independent.

    The seed is an integer in [0, 2**64), the width of the key; any other
    seed is a ValueError, never masked or truncated into that range.

    A single Rng instance is single-owner: never share one across threads.
    """

    def __init__(self, seed: int, _tag: int = 0):
        self.seed = as_int(seed, "seed")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
        self._tag = _tag & 0xFFFFFFFFFFFFFFFF
        key = np.array([self.seed, self._tag], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def substream(self, *tags) -> "Rng":
        label = "/".join(str(t) for t in tags)
        tag = _fnv1a(self._tag.to_bytes(8, "little") + label.encode("utf-8"))
        return Rng(self.seed, _tag=tag)

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def random(self, shape) -> np.ndarray:
        return self._gen.random(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
