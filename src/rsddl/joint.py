"""Joint training of all dictionary layers with class-row-sparse, support-diverse codes.

The trainer alternates over six sub-problems of an augmented Lagrangian:
closed-form least squares for the dictionaries (P1-P3) and the two proxy
coefficient layers (P4-P5), and an inner ADMM (P6) that couples a row-sparse
SOMP step per class with a reverse-shrinkage push driving the supports of
different classes apart.  P1-P3 are the least-squares fit that the greedy
warm start uses too (``rsddl.numerics.lstsq``): the normal equations of the
codes, or their SVD pseudo-inverse, without a warning, once an eigenvalue of
their Gram falls to 1e-8 of its trace.
P4 and P5 apply the inverses of their left-hand sides by a matrix product
(:func:`p4_maps`, :func:`p5_maps`, the maps the test encoder caches) to the
forward maps phi(D2 Z2) and phi(D3 Z), which the relaxation sweep computes
once per outer iteration and the objective reads too.
P6 solves every class at once: the classes share D3, the Gram matrix and
the class-mean snapshot, and no class reads another class's result, so each
inner step is one grouped SOMP with one group per class.  C is a (column,
competitor, atom) array over the class-sorted columns, so P6 works on
contiguous column slices in place, and the objective counts its diversity
term from per-class zero counts and the nonzero entries of Z, without a
pass over C's layout; the class layout is built once per training and the
class means once per outer iteration.  P,
the proxy of the discriminative split, is recomputed, not stored: each P6
call rebuilds the previous call's last P slice by slice from that call's
class means, the Z it returned and C, so C is the trainer's only (column,
competitor, atom) array.
Relaxation variables follow the printed update rule ``B <- residual - B``
(an involution around the residual).  The outer sweep updates B1 and B2;
C, the relaxation variable of the discriminative split, is P6's alone.

Optional stochastic regularization: DropOut zeroes entries of the
intermediate coefficient layers after the coefficient solves and before the
dictionary solves of the same sweep; DropConnect zeroes dictionary entries
after the dictionary solves.  Neither perturbs the final iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .greedy import Architecture, compose_reconstruction, layerwise_factorize
from .numerics import DEAD_ATOM_TOL, Activation, Rng, as_int, as_labels, as_matrix, lstsq, normalize_columns
from .sparse import group_columns, prox_push, pursuit, pursuit_gram, unit_gram

if TYPE_CHECKING:  # pragma: no cover
    from .dataio import Dataset

__all__ = [
    "DropMode",
    "TrainConfig",
    "Model",
    "FitReport",
    "IterationRecord",
    "MODES",
    "TrainingDivergedError",
    "resolve_budget",
    "joint_train",
    "solve_P1",
    "solve_P2",
    "solve_P3",
    "solve_P4",
    "solve_P5",
    "solve_P6",
    "p4_maps",
    "p5_maps",
    "bregman_update",
    "apply_dropout",
    "apply_dropconnect",
    "objective_value",
    "class_mean_matrix",
]

DIVERGENCE_LIMIT = 1e12

# How a model encodes test samples: by the joint split scheme, or by the
# greedy layer-wise chain it was trained with.
MODES = ("joint", "greedy")

# Columns per slice of the (column, competitor, atom) array C, and so of P6's
# slice buffers, are capped so that one slice holds at most this many elements,
# whatever the class count.
_PAIR_CHUNK = 1 << 14


class TrainingDivergedError(RuntimeError):
    """Raised when the training objective blows past the divergence guard."""


class DropMode(Enum):
    NONE = "none"
    DROPOUT = "out"
    DROPCONNECT = "connect"


@dataclass(frozen=True)
class TrainConfig:
    """Training knobs.

    Defaults: layer-coupling weights eta1 = eta2 = 1, inner ADMM weight
    gamma = 0.1, diversity weight mu = 0.5, and DropConnect at a 10% rate.
    The class-row sparsity is a hard budget, not a weighted penalty:
    ``per_column_s`` nonzeros per code column and ``row_s`` nonzero rows per
    class block, each derived from the architecture when None
    (:func:`resolve_budget`).  Counts, budgets and the seed must be integers
    (``operator.index``), the weights finite and the seed below 2**64, the
    width of :class:`~rsddl.numerics.Rng`'s key.  The text form of a config
    is :data:`rsddl.dataio.CONFIG_KEYS`.
    """

    per_column_s: int | None = None
    row_s: int | None = None
    mu: float = 0.5
    eta1: float = 1.0
    eta2: float = 1.0
    gamma: float = 0.1
    outer_iters: int = 15
    inner_iters: int = 5
    test_iters: int = 10
    drop_mode: DropMode = DropMode.DROPCONNECT
    drop_rate: float = 0.10
    seed: int = 0

    def __post_init__(self):
        for name in ("per_column_s", "row_s"):
            value = getattr(self, name)
            if value is not None and as_int(value, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("mu", "eta1", "eta2", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if self.eta1 <= 0 or self.eta2 <= 0:
            raise ValueError(f"eta1 and eta2 must be > 0, got {self.eta1}, {self.eta2}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if min(as_int(getattr(self, name), name) for name in ("outer_iters", "inner_iters", "test_iters")) < 1:
            raise ValueError("iteration counts must all be >= 1")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if not 0 <= as_int(self.seed, "seed") < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed}")


def resolve_budget(cfg: TrainConfig, arch: Architecture) -> TrainConfig:
    """``cfg`` with each budget that is None set to the 20% default,
    ceil(0.2 x deepest atom count); a budget above that count is a ValueError."""
    s = max(1, math.ceil(0.2 * arch.feature_dim))
    cfg = replace(cfg, per_column_s=s if cfg.per_column_s is None else cfg.per_column_s,
                  row_s=s if cfg.row_s is None else cfg.row_s)
    for name in ("per_column_s", "row_s"):
        if getattr(cfg, name) > arch.feature_dim:
            raise ValueError(f"{name}={getattr(cfg, name)} exceeds atom count {arch.feature_dim}")
    return cfg


class _ClassLayout(NamedTuple):
    """The class-sorted column layout of P and C, built once per training."""

    order: np.ndarray  # the data column of each sorted column
    cls: np.ndarray  # each sorted column's class index, 0-based
    competitors: np.ndarray  # (class, competitor): row c lists the other classes, ascending
    starts: np.ndarray  # each class's first sorted column
    groups: np.ndarray  # the group_columns table of cls, P6's SOMP groups
    slices: tuple[slice, ...]  # column ranges of at most _PAIR_CHUNK elements of P and C


def _class_layout(class_cols: dict[int, np.ndarray], atoms: int) -> _ClassLayout:
    """The :class:`_ClassLayout` of the classes ``class_cols`` (every class
    nonempty) for codes of ``atoms`` rows."""
    classes = sorted(class_cols)
    sizes = [class_cols[c].size for c in classes]
    cls = np.repeat(np.arange(len(classes)), sizes)
    slot = np.arange(len(classes) - 1)[None, :]
    competitors = slot + (slot >= np.arange(len(classes))[:, None])
    width = max(1, _PAIR_CHUNK // max(1, competitors.shape[1] * atoms))
    slices = tuple(slice(lo, min(lo + width, cls.size)) for lo in range(0, cls.size, width))
    starts = np.cumsum([0] + sizes[:-1])
    order = np.concatenate([class_cols[c] for c in classes])
    return _ClassLayout(order, cls, competitors, starts, group_columns(cls, cls.size), slices)


@dataclass
class IterationRecord:
    iteration: int
    objective: float
    feas1: float
    feas2: float
    support_sizes: dict[int, int]


@dataclass
class FitReport:
    """Per-run training diagnostics; not part of the persisted model.

    ``lines`` is the exact run-log text, one string per record.
    """

    initial_objective: float
    initial_feas1: float
    initial_feas2: float
    greedy_reconstruction: float
    iterations: list[IterationRecord] = field(default_factory=list)
    joint_reconstruction: float = float("nan")
    lines: list[str] = field(default_factory=list)

    @property
    def final_objective(self) -> float:
        return self.iterations[-1].objective

    @property
    def final_feas1(self) -> float:
        return self.iterations[-1].feas1

    @property
    def final_feas2(self) -> float:
        return self.iterations[-1].feas2

    def render(self) -> str:
        return "\n".join(self.lines) + "\n" if self.lines else ""


@dataclass(frozen=True)
class Model:
    """Trained classifier state: dictionaries, stored codes with their class
    ids 1..C, and the mode (one of :data:`MODES`) that says how test samples
    are encoded.  The constructor alone normalizes and checks a model, and
    stores ``config`` with its sparsity budget resolved; a dictionary or
    stored code with a NaN or infinite entry is a ValueError.  Its arrays are
    read-only copies, so ``cache`` keeps unpersisted inference factors for
    good; ``dataclasses.replace`` makes a new model with its own cache."""

    dictionaries: tuple[np.ndarray, ...]
    architecture: Architecture
    features: np.ndarray
    labels: np.ndarray
    config: TrainConfig
    mode: str = "joint"
    fit_report: FitReport | None = None
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        arch = self.architecture
        dicts = tuple(np.array(d, dtype=np.float64) for d in self.dictionaries)
        features = np.array(self.features, dtype=np.float64)
        labels = as_labels(self.labels)
        for a in (*dicts, features, labels):
            a.setflags(write=False)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "joint" and arch.depth != 3:
            raise ValueError(f"a joint model needs exactly 3 layers, got {arch.depth}")
        if len(dicts) != arch.depth:
            raise ValueError(f"{len(dicts)} dictionaries for {arch.depth} layers")
        for i, d in enumerate(dicts):
            if d.ndim != 2 or d.shape[1] != arch.atoms_per_layer[i]:
                raise ValueError(f"D{i + 1} has shape {d.shape}, arch says {arch.atoms_per_layer[i]} atoms")
            if i > 0 and d.shape[0] != arch.atoms_per_layer[i - 1]:
                raise ValueError(f"D{i + 1} has {d.shape[0]} rows, which breaks the layer chain")
            if not np.all(np.isfinite(d)):
                raise ValueError(f"D{i + 1} has non-finite entries")
        if features.shape != (arch.feature_dim, labels.size):
            want = (arch.feature_dim, labels.size)
            raise ValueError(f"Z has shape {features.shape}, not (deepest atoms, labels) {want}")
        if not np.all(np.isfinite(features)):
            raise ValueError("Z has non-finite entries")
        if labels.size == 0 or labels.min() < 1:
            raise ValueError("labels must be class ids starting at 1")
        missing = np.flatnonzero(np.bincount(labels)[1:] == 0) + 1
        if missing.size:
            raise ValueError(f"class {missing[0]} of 1..{labels.max()} has no stored code")
        config = resolve_budget(self.config, arch)
        object.__setattr__(self, "dictionaries", dicts)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "config", config)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max())


def class_mean_matrix(z: np.ndarray, class_cols: dict[int, np.ndarray], n_classes: int) -> np.ndarray:
    """Per-class mean of the deepest codes, one column per class id 1..C."""
    means = np.zeros((z.shape[0], n_classes))
    for c in range(1, n_classes + 1):
        means[:, c - 1] = z[:, class_cols[c]].mean(axis=1)
    return means


def _competitor_table(means: np.ndarray, competitors: np.ndarray) -> np.ndarray:
    """The (class, competitor, atom) table of each class's competitors' means."""
    return means.T[competitors]


def _competitor_means(table: np.ndarray, layout: _ClassLayout):
    """Yield ``(columns, zbar)`` over the slices of ``layout``, ``zbar`` being
    a new (column, competitor, atom) array of the competitors' means for the
    slice's columns, gathered from the :func:`_competitor_table` ``table``."""
    for cols in layout.slices:
        yield cols, table.take(layout.cls[cols], axis=0)


def objective_value(
    x: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
    f3: np.ndarray,
    z: np.ndarray,
    layout: _ClassLayout,
    means: np.ndarray,
    mu: float,
    act: Activation,
) -> tuple[float, np.ndarray]:
    """Training objective with the diversity term evaluated as exact counts:

    ``||X - D1 phi(D2 phi(D3 Z))||_F^2 - mu * sum_c sum_{k != c} nnz(mean_k - Z_c)``

    ``f3`` is ``phi(D3 Z)``, as the relaxation sweep computed it.  The
    class-row sparsity is a hard budget, so it adds no term.  ``means`` are
    the class means of Z (:func:`class_mean_matrix`).  Returns the value and
    each class's row count, its support size, in class order.
    """
    recon = x - d1 @ act.forward(d2 @ f3)
    value = float(np.sum(recon * recon))
    rows, pairs = _support_counts(z, layout, means)
    # a running sum, class by class and competitor by competitor, so the value
    # rounds exactly as the loop over class pairs it replaces did
    return float(np.cumsum(np.append(value, -mu * pairs.ravel()))[-1]), rows


def _support_counts(z: np.ndarray, layout: _ClassLayout, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each class's count of nonzero rows of Z, and the (class, competitor)
    table of ``nnz(mean_k - Z_c)`` summed over class c's columns, both exact.

    The entries of class c that differ from ``mean_k`` are its n_c x atoms
    entries less those equal to it: where ``mean_k`` is 0, class c's zeros of
    that atom (one small integer product); elsewhere, its nonzero entries
    equal to ``mean_k`` (one comparison per nonzero entry and class, then one
    ``bincount``).
    """
    z_rows = z.T[layout.order]
    zero = z_rows == 0.0
    sizes = np.bincount(layout.cls)
    zeros = np.add.reduceat(zero, layout.starts, axis=0, dtype=np.int64)  # (class, atom)
    rows = np.count_nonzero(zeros < sizes[:, None], axis=1)
    atoms, n_classes = means.shape
    flat = np.flatnonzero(~zero)  # the nonzero entries of z_rows, as flat offsets
    equal = np.flatnonzero(z_rows.ravel()[flat, None] == means.take(flat % atoms, axis=0))
    entry, mean_class = np.divmod(equal, n_classes)
    hits = np.bincount(layout.cls[flat[entry] // atoms] * n_classes + mean_class, minlength=n_classes * n_classes)
    matches = zeros @ (means == 0.0) + hits.reshape(n_classes, n_classes)
    return rows, sizes[:, None] * atoms - np.take_along_axis(matches, layout.competitors, axis=1)


def _fit_dictionary(target: np.ndarray, codes: np.ndarray, prev: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`~rsddl.numerics.lstsq` fit of ``target ~ D codes`` with unit
    columns, and the column norms it was scaled by.  Columns that come back
    all-zero (atoms with no active coefficients) are restored from ``prev``
    when given, so the dictionary keeps unit columns."""
    d, scales = normalize_columns(lstsq(target, codes))
    if prev is not None:
        dead = np.linalg.norm(d, axis=0) <= DEAD_ATOM_TOL
        d[:, dead] = prev[:, dead]
    return d, scales


def solve_P1(x: np.ndarray, z1: np.ndarray, prev: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares dictionary fit of ``X ~ D1 Z1``, the fit the warm start
    uses too (:func:`~rsddl.numerics.lstsq`: the normal equations, or
    ``X pinv(Z1)`` for ill-conditioned Z1, through :func:`_fit_dictionary`);
    unit columns with the scales folded into Z1 (so D1 Z1 is unchanged) and
    dead atoms restored from ``prev`` when given.  Returns
    ``(D1, Z1_rescaled)``."""
    d1, scales = _fit_dictionary(x, z1, prev)
    return d1, z1 * scales[:, None]


def solve_P2(
    z1: np.ndarray, b1: np.ndarray, z2: np.ndarray, act: Activation, prev: np.ndarray | None = None
) -> np.ndarray:
    """Dictionary fit for the second layer: ``phi^-1(Z1 - B1) ~ D2 Z2`` as in
    :func:`solve_P1`, columns renormalized to unit norm.

    The scales are NOT folded into Z2: coupled with the relaxation updates,
    folding acts as a geometric scale pump on the coefficient chain (the next
    coefficient sweep refits Z2 against the unit-norm dictionary anyway).
    """
    return _fit_dictionary(act.inverse(z1 - b1), z2, prev)[0]


def solve_P3(
    z2: np.ndarray, b2: np.ndarray, z: np.ndarray, act: Activation, prev: np.ndarray | None = None
) -> np.ndarray:
    """Dictionary fit for the deepest layer: ``phi^-1(Z2 - B2) ~ D3 Z`` as in
    :func:`solve_P1`, columns renormalized (scales not folded; see :func:`solve_P2`)."""
    return _fit_dictionary(act.inverse(z2 - b2), z, prev)[0]


def solve_P4(x: np.ndarray, d1: np.ndarray, f2: np.ndarray, b1: np.ndarray, eta1: float) -> np.ndarray:
    """Stationary point of ``||X - D1 Z1||^2 + eta1 ||Z1 - phi(D2 Z2) - B1||^2``,
    ``f2`` being ``phi(D2 Z2)``, by the linear maps of :func:`p4_maps`."""
    inv4, p4_x = p4_maps(d1, eta1)
    return p4_x @ x + inv4 @ (eta1 * (f2 + b1))


def p4_maps(d1: np.ndarray, eta1: float) -> tuple[np.ndarray, np.ndarray]:
    """P4 as linear maps: ``inv(L4)`` and ``inv(L4) D1'``, with
    ``L4 = D1'D1 + eta1 I`` the (SPD) left-hand side of its normal equations."""
    inv4 = np.linalg.inv(d1.T @ d1 + eta1 * np.eye(d1.shape[1]))
    return inv4, inv4 @ d1.T


def p5_maps(d2: np.ndarray, eta1: float, eta2: float) -> tuple[np.ndarray, np.ndarray]:
    """P5 as linear maps: ``eta1 inv(L5) D2'`` and ``eta2 inv(L5)``, with
    ``L5 = eta1 D2'D2 + eta2 I`` the (SPD) left-hand side of its normal equations."""
    inv5 = np.linalg.inv(eta1 * (d2.T @ d2) + eta2 * np.eye(d2.shape[1]))
    return eta1 * inv5 @ d2.T, eta2 * inv5


def solve_P5(
    z1: np.ndarray,
    b1: np.ndarray,
    d2: np.ndarray,
    f3: np.ndarray,
    b2: np.ndarray,
    eta1: float,
    eta2: float,
    act: Activation,
) -> np.ndarray:
    """Stationary point of
    ``eta1 ||phi^-1(Z1 - B1) - D2 Z2||^2 + eta2 ||Z2 - phi(D3 Z) - B2||^2``,
    ``f3`` being ``phi(D3 Z)``, by the linear maps of :func:`p5_maps`."""
    p5_z1, p5_z = p5_maps(d2, eta1, eta2)
    return p5_z1 @ act.inverse(z1 - b1) + p5_z @ (f3 + b2)


def solve_P6(
    z2: np.ndarray,
    b2: np.ndarray,
    d3: np.ndarray,
    class_means: np.ndarray,
    layout: _ClassLayout,
    row_s: int,
    mu: float,
    gamma: float,
    eta2: float,
    inner_iters: int,
    previous: tuple[np.ndarray, np.ndarray] | None,
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
    inner step is one grouped pursuit with one group per class.

    ``c_relax`` is a (column, competitor, atom) array over the class-sorted
    columns of ``layout``: the row ``[j, i]`` belongs to sorted column j's
    class c and its i-th competitor, the i-th class other than c in
    ascending order.  ``class_means`` are the class means of Z as it was when
    the outer iteration began.  C is updated in place after every step but
    the last, since no step reads that update (and the rule, an involution,
    would give C back if applied again around the same residual).  P is
    recomputed, not stored: it is 1 when ``previous`` is None, as on the first
    call; otherwise ``previous`` is the ``(class_means, Z)`` of the previous
    call with the same settings and this C, and the first step reads that
    call's last P, ``prox_push(mean_k - Z_c + C)``, recomputed slice by slice
    as that call would have computed it.  With ``mu == 0`` or a single class
    this is plain SOMP per class on the data term.  Returns Z with its
    columns in data order.
    """
    order, cls, competitors = layout.order, layout.cls, layout.competitors
    target = act.inverse(z2[:, order] - b2[:, order])
    z = np.zeros((d3.shape[1], order.size))
    if mu == 0 or competitors.shape[1] == 0:
        z[:, order] = pursuit(d3, target, row_s, groups=cls)
        return z

    gram = unit_gram(eta2 * (d3.T @ d3) + competitors.shape[1] * gamma * np.eye(d3.shape[1]))
    corr_top = eta2 * (d3.T @ target)
    sq_top = eta2 * np.einsum("ij,ij->j", target, target)
    table = _competitor_table(class_means, competitors)
    # slice scratch: mean_k - Z_c, and P
    buffer, p_buf = np.empty((2, layout.slices[0].stop) + table.shape[1:])
    if previous is None:
        p_buf.fill(1.0)
    else:
        prev_table, prev_rows = _competitor_table(previous[0], competitors), previous[1].T
    corr, y_sq = corr_top.copy(), sq_top.copy()
    for cols, zbar in _competitor_means(table, layout):
        p_cols = p_buf[: zbar.shape[0]]
        if previous is not None:
            prev_zbar = prev_table.take(cls[cols], axis=0)
            _p_slice(prev_zbar, prev_rows[order[cols]], c_relax[cols], mu, gamma, buffer, p_cols)
        zbar += c_relax[cols]
        _add_competitor_terms(corr, y_sq, cols, np.subtract(zbar, p_cols, out=zbar), gamma, buffer)
    # one pass per inner step but the last: step t's P and C updates, C written
    # straight into its contiguous slices, then step t+1's correlation from them
    for step in range(inner_iters):
        z_sorted = pursuit_gram(gram, corr, y_sq, row_s, layout.groups)
        if step == inner_iters - 1:
            break
        z_rows = z_sorted.T.copy()
        corr, y_sq = corr_top.copy(), sq_top.copy()
        for cols, zbar in _competitor_means(table, layout):
            c_cols, p_cols = c_relax[cols], p_buf[: zbar.shape[0]]
            shifted = _p_slice(zbar, z_rows[cols], c_cols, mu, gamma, buffer, p_cols)
            np.subtract(np.subtract(p_cols, shifted, out=shifted), c_cols, out=c_cols)
            zbar += c_cols
            _add_competitor_terms(corr, y_sq, cols, np.subtract(zbar, p_cols, out=zbar), gamma, buffer)
    z[:, order] = z_sorted
    return z


def _p_slice(zbar, z_rows, c_cols, mu: float, gamma: float, buffer: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P of one slice, ``prox_push(mean_k - Z_c + C)`` from its competitor
    means ``zbar``, its Z rows and its C, written into ``out``; returns the
    shift ``mean_k - Z_c``, written into ``buffer``'s first rows."""
    shifted = np.subtract(zbar, z_rows[:, None, :], out=buffer[: zbar.shape[0]])
    prox_push(np.add(shifted, c_cols, out=out), mu, gamma, out=out)
    return shifted


def _add_competitor_terms(corr, y_sq, cols: slice, blocks: np.ndarray, gamma: float, buffer: np.ndarray) -> None:
    """Add the competitor rows' share, ``blocks = mean_k + C_k - P_k`` for the
    columns ``cols``, to the P6 correlation and squared target norms, using
    ``buffer`` (as many rows as ``blocks`` at least) as scratch."""
    # a (competitor, atom, column) copy sums and squares in the order of P and C
    # stored that way, keeping corr and y_sq bit for bit; over the blocks numpy
    # orders both otherwise (y_sq moved by up to 6.75 eps) and is no faster
    by_competitor = buffer[: blocks.shape[0]].reshape(blocks.shape[1], blocks.shape[2], blocks.shape[0])
    np.copyto(by_competitor, blocks.transpose(1, 2, 0))
    corr[:, cols] += gamma * by_competitor.sum(axis=0)
    y_sq[cols] += gamma * np.einsum("kij,kij->j", by_competitor, by_competitor)


def bregman_update(
    b1: np.ndarray,
    b2: np.ndarray,
    z1: np.ndarray,
    z2: np.ndarray,
    z: np.ndarray,
    d2: np.ndarray,
    d3: np.ndarray,
    act: Activation,
) -> tuple[np.ndarray, np.ndarray, float, float, np.ndarray, np.ndarray]:
    """Relaxation-variable sweep by the printed rule ``B <- residual - B`` for
    B1 and B2 (C is updated inside :func:`solve_P6`).  Returns the new B1 and
    B2, the norms of the two coupling residuals it swept with, feas1
    ``||Z1 - phi(D2 Z2)||`` and feas2 ``||Z2 - phi(D3 Z)||``, and the forward
    maps ``phi(D2 Z2)`` and ``phi(D3 Z)``, which the objective and the next
    P4 and P5 read."""
    f2, f3 = _forward_maps(z2, z, d2, d3, act)
    r1, r2 = z1 - f2, z2 - f3
    return r1 - b1, r2 - b2, float(np.linalg.norm(r1)), float(np.linalg.norm(r2)), f2, f3


def _forward_maps(z2, z, d2, d3, act: Activation) -> tuple[np.ndarray, np.ndarray]:
    """``phi(D2 Z2)`` and ``phi(D3 Z)``."""
    return act.forward(d2 @ z2), act.forward(d3 @ z)


def _drop(rate: float, rng: Rng, **arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``arrays`` with a Bernoulli(rate) mask of each zeroed, drawn from
    the substream of its upper-cased name."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return tuple(arrays.values())
    return tuple(np.where(rng.substream(name.upper()).random(a.shape) < rate, 0.0, a) for name, a in arrays.items())


def apply_dropout(z1: np.ndarray, z2: np.ndarray, rate: float, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Z1 and Z2, the intermediate coefficients, with a Bernoulli(rate) mask
    of each zeroed.

    The deepest codes Z are never dropped: they are already sparse by
    construction and dropping them would destroy the class supports.
    """
    return _drop(rate, rng, z1=z1, z2=z2)


def apply_dropconnect(
    d1: np.ndarray, d2: np.ndarray, d3: np.ndarray, rate: float, rng: Rng
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dictionaries with a Bernoulli(rate) mask of each one's entries zeroed."""
    return _drop(rate, rng, d1=d1, d2=d2, d3=d3)


def _format_record(rec: IterationRecord) -> str:
    supports = ",".join(f"{c}:{n}" for c, n in sorted(rec.support_sizes.items()))
    return "iter=%d objective=%.17g feas1=%.17g feas2=%.17g supports=%s" % (
        rec.iteration,
        rec.objective,
        rec.feas1,
        rec.feas2,
        supports,
    )


def _emit(report: FitReport, log, line: str) -> None:
    report.lines.append(line)
    if log is not None:
        log.write(line + "\n")


def joint_train(data: "Dataset", arch: Architecture, cfg: TrainConfig | None = None, log=None) -> Model:
    """Train all layers jointly on a labeled dataset.

    ``data`` provides features as columns plus per-column class labels
    (contiguous ids starting at 1, every class nonempty).  The architecture
    must have exactly three layers.  ``log``, when given, is a text stream
    receiving one record per outer iteration (objective, both feasibility
    residuals, per-class support sizes) bracketed by the greedy and joint
    composed reconstruction errors.

    Training is deterministic: identical (data, arch, cfg) produce a
    bit-identical model.
    """
    if cfg is None:
        cfg = TrainConfig()
    if arch.depth != 3:
        raise ValueError(f"joint trainer supports exactly 3 layers, got {arch.depth}")
    x = as_matrix(data.x, "X")
    n_classes = data.num_classes
    class_cols = {c: np.asarray(data.class_index[c], dtype=np.int64) for c in range(1, n_classes + 1)}
    for c, cols in class_cols.items():
        if cols.size == 0:
            raise ValueError(f"class {c} has no samples")
    cfg = resolve_budget(cfg, arch)
    layout = _class_layout(class_cols, arch.feature_dim)
    act = arch.activation
    rng = Rng(cfg.seed)

    # warm start from the greedy pipeline (same per-layer effort as the outer
    # loop); the deepest codes are recoded row-sparse per class (one grouped
    # SOMP) so the initial iterate lives in the constraint class the trainer
    # optimizes over
    dicts, codes = layerwise_factorize(x, arch, cfg.per_column_s, cfg.outer_iters, rng.substream("init"))
    d1, d2, d3 = dicts
    z1, z2, _ = codes
    z = pursuit(d3, act.inverse(z2), cfg.row_s, groups=data.labels)
    b1, b2 = np.ones_like(z1), np.ones_like(z2)
    c_relax = np.ones((x.shape[1], n_classes - 1, arch.feature_dim))
    previous = None  # the (class means, Z) of the last P6, which recomputes its P
    means = class_mean_matrix(z, class_cols, n_classes)

    # phi(D2 Z2) and phi(D3 Z), computed once per iteration by the relaxation
    # sweep, here by the initial check, and read by the objective and P4 and P5
    f2, f3 = _forward_maps(z2, z, d2, d3, act)
    greedy_recon = float(np.linalg.norm(x - compose_reconstruction([d1, d2], f3, act)))
    init_feas1, init_feas2 = float(np.linalg.norm(z1 - f2)), float(np.linalg.norm(z2 - f3))
    init_obj, _ = objective_value(x, d1, d2, f3, z, layout, means, cfg.mu, act)
    report = FitReport(
        initial_objective=init_obj,
        initial_feas1=init_feas1,
        initial_feas2=init_feas2,
        greedy_reconstruction=greedy_recon,
    )
    _emit(report, log, f"greedy_recon={greedy_recon:.17g}")
    _emit(report, log, "init objective=%.17g feas1=%.17g feas2=%.17g" % (init_obj, init_feas1, init_feas2))

    # last clean (pre-drop) dictionaries, used to restore dead atoms
    prev_d1, prev_d2, prev_d3 = d1, d2, d3

    for it in range(cfg.outer_iters):
        final_iter = it == cfg.outer_iters - 1

        # coefficient sweeps
        z1 = solve_P4(x, d1, f2, b1, cfg.eta1)
        z2 = solve_P5(z1, b1, d2, f3, b2, cfg.eta1, cfg.eta2, act)
        del f2, f3  # read by P4 and P5 only: not alive during P6
        z = solve_P6(
            z2, b2, d3, means, layout, cfg.row_s, cfg.mu, cfg.gamma, cfg.eta2, cfg.inner_iters, previous, c_relax, act
        )
        previous = means, z

        # coefficients perturbed before the dictionaries see them
        if cfg.drop_mode is DropMode.DROPOUT and not final_iter:
            z1, z2 = apply_dropout(z1, z2, cfg.drop_rate, rng.substream("drop", it))

        # dictionary sweeps
        d1, z1 = solve_P1(x, z1, prev=prev_d1)
        d2 = solve_P2(z1, b1, z2, act, prev=prev_d2)
        d3 = solve_P3(z2, b2, z, act, prev=prev_d3)
        prev_d1, prev_d2, prev_d3 = d1, d2, d3
        if cfg.drop_mode is DropMode.DROPCONNECT and not final_iter:
            d1, d2, d3 = apply_dropconnect(d1, d2, d3, cfg.drop_rate, rng.substream("drop", it))

        b1, b2, feas1, feas2, f2, f3 = bregman_update(b1, b2, z1, z2, z, d2, d3, act)

        # Z stays as it is until the next P6, so these means are also the next
        # iteration's snapshot
        means = class_mean_matrix(z, class_cols, n_classes)
        obj, rows = objective_value(x, d1, d2, f3, z, layout, means, cfg.mu, act)
        if not obj <= DIVERGENCE_LIMIT:  # NaN too
            raise TrainingDivergedError(
                f"objective {obj:.3e} is not within {DIVERGENCE_LIMIT:.0e} at iteration {it + 1}"
            )
        supports = dict(zip(class_cols, rows.tolist()))
        rec = IterationRecord(iteration=it + 1, objective=obj, feas1=feas1, feas2=feas2, support_sizes=supports)
        report.iterations.append(rec)
        _emit(report, log, _format_record(rec))

    final_dicts = [d1, d2, d3]
    joint_recon = float(np.linalg.norm(x - compose_reconstruction([d1, d2], f3, act)))
    report.joint_reconstruction = joint_recon
    if cfg.drop_mode is not DropMode.NONE:
        _emit(
            report,
            log,
            f"drop_mode={cfg.drop_mode.value} drop_rate={cfg.drop_rate:.17g} "
            "final_iteration_unperturbed=1",
        )
    _emit(report, log, f"joint_recon={joint_recon:.17g}")

    return Model(final_dicts, arch, z, data.labels, cfg, fit_report=report)
