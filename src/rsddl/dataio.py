"""Dataset ingestion, spatial-spectral feature extraction, splits, persistence.

File formats (all little-endian, documented so external data can be converted):

* matrix CSV: one sample per row, comma-separated reals (transposed to
  columns internally); label list: one integer class id per line.
* cube file: text header ``RSHSI1 <height> <width> <bands>`` followed by
  height*width*bands float32 values in scanline (row, column, band) order.
* ground-truth raster: text header ``RSGT1 <height> <width>`` followed by
  height*width int32 class ids (0 = unlabeled), row-major.
* model file: versioned text, first line ``RSDDL2 2``, then header lines
  ``mode joint|greedy`` (how test samples are encoded), ``arch``,
  ``activation``, ``config``, ``classes C``, ``labels N`` and the N class
  ids (every id 1..C present), then D1..DL and Z, each as a ``matrix <name>
  <rows> <cols>`` line followed by rows of 17-significant-digit decimals,
  and ``end``.  Saving, loading and saving again reproduces the file byte
  for byte.  This is the only model format read: any other first line,
  ``RSDDL1 1`` included, is rejected as a bad magic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .greedy import Architecture
from .joint import MODES, DropMode, Model, TrainConfig
from .numerics import Activation, ActivationKind, Rng, as_labels, as_matrix, pca_fit
from .sparse import SparsityBudget

__all__ = [
    "DataFormatError",
    "Dataset",
    "HsiCube",
    "PcaProjection",
    "make_dataset",
    "load_matrix_csv",
    "save_matrix_csv",
    "load_labels",
    "save_labels",
    "load_cube",
    "save_cube",
    "extract_spatial_spectral",
    "split_per_class",
    "save_model",
    "load_model",
]

MODEL_MAGIC = "RSDDL2"
MODEL_VERSION = 2
CUBE_MAGIC = "RSHSI1"
GT_MAGIC = "RSGT1"


class DataFormatError(ValueError):
    """Malformed input file (message carries the offending location)."""


@dataclass
class Dataset:
    """Feature matrix (samples as columns) with per-column class labels.

    Class ids are contiguous integers starting at 1; ``class_index`` maps
    every id to its column indices and partitions the columns.  Individual
    classes may be empty only when ``num_classes`` was fixed externally
    (e.g. the test side of a split).
    """

    x: np.ndarray
    labels: np.ndarray
    num_classes: int
    class_index: dict[int, np.ndarray]

    @property
    def n_samples(self) -> int:
        return self.x.shape[1]

    @property
    def dim(self) -> int:
        return self.x.shape[0]


def make_dataset(x, labels, num_classes: int | None = None) -> Dataset:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError("features contain NaN or Inf entries")
    labels = as_labels(labels)
    if labels.size != x.shape[1]:
        raise ValueError(f"{labels.size} labels for {x.shape[1]} samples")
    if labels.size and labels.min() < 1:
        raise ValueError("class ids must start at 1")
    if num_classes is None:
        num_classes = int(labels.max()) if labels.size else 0
        present = set(labels.tolist())
        missing = [c for c in range(1, num_classes + 1) if c not in present]
        if missing:
            raise ValueError(f"class ids must be contiguous from 1; missing {missing}")
    elif labels.size and labels.max() > num_classes:
        raise ValueError(f"label {labels.max()} exceeds num_classes={num_classes}")
    class_index = {c: np.where(labels == c)[0] for c in range(1, num_classes + 1)}
    return Dataset(x=x, labels=labels, num_classes=num_classes, class_index=class_index)


# ---------------------------------------------------------------------------
# CSV matrices and label lists

def _parse_bulk(lines: list[str], delimiter: str | None) -> np.ndarray | None:
    """``lines`` as one float array through numpy's tokenizer, or None where
    a line is blank, the tokenizer refuses them or a value is non-finite; the
    per-line parsers then decide (``float`` also takes e.g. ``1_0``) and word
    the error."""
    if not lines or not all(map(str.strip, lines)):  # loadtxt warns on input without data
        return None
    try:
        x = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        return None
    return x if np.all(np.isfinite(x)) else None


def load_matrix_csv(path) -> np.ndarray:
    """Read a samples-as-rows CSV and return the samples-as-columns matrix."""
    with open(path, "r", encoding="utf-8") as fh:
        text = [line.strip() for line in fh]
    x = _parse_bulk([line for line in text if line], ",")
    if x is not None:
        return x.T
    rows: list[list[float]] = []
    for lineno, line in enumerate(text, 1):
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


def save_matrix_csv(x: np.ndarray, path) -> None:
    """Write a samples-as-columns matrix as a samples-as-rows CSV."""
    x = as_matrix(x, "X")
    row = ",".join(["%.17g"] * x.shape[0]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(row % tuple(col) for col in x.T.tolist()))


def load_labels(path) -> np.ndarray:
    """Read one integer class id per line."""
    labels: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: not an integer label") from None
    if not labels:
        raise DataFormatError(f"{path}: empty file")
    return np.array(labels, dtype=np.int64)


def save_labels(labels, path) -> None:
    labels = as_labels(labels)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


# ---------------------------------------------------------------------------
# Hyperspectral cubes

@dataclass
class HsiCube:
    """Image cube (height x width x bands) with a per-pixel ground truth
    raster where 0 marks unlabeled pixels."""

    values: np.ndarray
    ground_truth: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError(f"cube values must be 3-D, got shape {self.values.shape}")
        if self.ground_truth.shape != self.values.shape[:2]:
            raise ValueError("ground truth shape must match cube height x width")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def bands(self) -> int:
        return self.values.shape[2]


def _read_header(fh, magic: str, n_dims: int, path) -> tuple[int, ...]:
    header = fh.readline().decode("ascii", errors="replace").strip()
    parts = header.split()
    if len(parts) != n_dims + 1 or parts[0] != magic:
        raise DataFormatError(f"{path}: bad header (expected '{magic} <dims>')")
    try:
        dims = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise DataFormatError(f"{path}: non-integer dimension in header") from None
    if any(d < 1 for d in dims):
        raise DataFormatError(f"{path}: dimensions must be positive")
    return dims


def save_cube(cube: HsiCube, cube_path, gt_path) -> None:
    with open(cube_path, "wb") as fh:
        fh.write(f"{CUBE_MAGIC} {cube.height} {cube.width} {cube.bands}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(cube.values, dtype="<f4").tobytes())
    with open(gt_path, "wb") as fh:
        fh.write(f"{GT_MAGIC} {cube.height} {cube.width}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(cube.ground_truth, dtype="<i4").tobytes())


def load_cube(cube_path, gt_path) -> HsiCube:
    with open(cube_path, "rb") as fh:
        h, w, b = _read_header(fh, CUBE_MAGIC, 3, cube_path)
        payload = fh.read()
    expected = h * w * b * 4
    if len(payload) != expected:
        raise DataFormatError(f"{cube_path}: expected {expected} payload bytes, got {len(payload)}")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(h, w, b)
    if not np.all(np.isfinite(values)):
        raise DataFormatError(f"{cube_path}: non-finite values in cube")
    with open(gt_path, "rb") as fh:
        gh, gw = _read_header(fh, GT_MAGIC, 2, gt_path)
        gt_payload = fh.read()
    if (gh, gw) != (h, w):
        raise DataFormatError(f"{gt_path}: ground truth dims {gh}x{gw} != cube dims {h}x{w}")
    if len(gt_payload) != gh * gw * 4:
        raise DataFormatError(f"{gt_path}: expected {gh * gw * 4} payload bytes, got {len(gt_payload)}")
    gt = np.frombuffer(gt_payload, dtype="<i4").astype(np.int64).reshape(gh, gw)
    if gt.min() < 0:
        raise DataFormatError(f"{gt_path}: negative class ids")
    return HsiCube(values=values, ground_truth=gt)


# ---------------------------------------------------------------------------
# Spatial-spectral feature extraction

@dataclass
class PcaProjection:
    """PCA mean and basis that map raw window vectors to features."""

    mean: np.ndarray
    basis: np.ndarray

    def project(self, raw: np.ndarray) -> np.ndarray:
        return self.basis.T @ (raw - self.mean)


def extract_spatial_spectral(
    cube: HsiCube,
    window: int = 4,
    d: int = 200,
    train_mask: np.ndarray | None = None,
) -> tuple[Dataset, PcaProjection]:
    """Per labeled pixel: flatten the window x window x bands neighborhood and
    project it onto the top PCA directions.

    Even windows have no center pixel, so the target sits at position
    ceil(window/2) along each axis (e.g. position (2, 2), 1-indexed, of a 4x4
    window); borders are mirror-padded.  Pixels are traversed in row-major
    order; a class id that is not a whole number raises ValueError.  PCA is
    fit on the pixels selected by ``train_mask`` (all labeled pixels when
    None; then on the raw window matrix itself, without a copy) and ``d`` is
    clipped to the available dimension.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if train_mask is not None and train_mask.shape != cube.ground_truth.shape:
        raise ValueError(f"train_mask shape {train_mask.shape} != ground truth shape {cube.ground_truth.shape}")
    if window > min(cube.height, cube.width):
        raise ValueError(
            f"window {window} larger than image {cube.height}x{cube.width}"
        )
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    lead = (window - 1) // 2
    trail = window - 1 - lead
    padded = np.pad(cube.values, ((lead, trail), (lead, trail), (0, 0)), mode="symmetric")

    rows, cols = np.nonzero(cube.ground_truth > 0)  # row-major order
    if rows.size == 0:
        raise ValueError("no labeled pixels in ground truth")
    labels = as_labels(cube.ground_truth[rows, cols])
    windows = sliding_window_view(padded, (window, window, cube.bands))[:, :, 0]
    raw = windows[rows, cols].reshape(rows.size, -1).T  # one column per pixel, a view
    selected = np.ones(rows.size, dtype=bool) if train_mask is None else train_mask[rows, cols].astype(bool)
    if not selected.any():
        raise ValueError("train_mask selects no labeled pixels")
    fit = raw if selected.all() else raw[:, selected]

    d_eff = min(d, raw.shape[0], fit.shape[1])
    mean, basis = pca_fit(fit, d_eff)
    projection = PcaProjection(mean=mean, basis=basis)
    features = projection.project(raw)
    return make_dataset(features, labels), projection


# ---------------------------------------------------------------------------
# Splits

def split_per_class(ds: Dataset, counts: dict[int, int], rng: Rng) -> tuple[Dataset, Dataset]:
    """Seeded uniform sampling without replacement per class.

    ``counts[c]`` columns of class c go to the training set; everything else
    becomes test.  Classes absent from ``counts`` contribute no training
    samples.  Column order within each side follows the original dataset.
    """
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for c in range(1, ds.num_classes + 1):
        cols = ds.class_index[c]
        n = int(counts.get(c, 0))
        if n < 0:
            raise ValueError(f"negative count for class {c}")
        if n > cols.size:
            raise ValueError(f"class {c} has {cols.size} samples, requested {n}")
        perm = rng.permutation(cols.size)
        train_idx.append(np.sort(cols[perm[:n]]))
        test_idx.append(np.sort(cols[perm[n:]]))
    train_cols = np.sort(np.concatenate(train_idx)) if train_idx else np.array([], dtype=np.int64)
    test_cols = np.sort(np.concatenate(test_idx)) if test_idx else np.array([], dtype=np.int64)
    train = make_dataset(ds.x[:, train_cols], ds.labels[train_cols], num_classes=ds.num_classes)
    test = make_dataset(ds.x[:, test_cols], ds.labels[test_cols], num_classes=ds.num_classes)
    return train, test


# ---------------------------------------------------------------------------
# Model persistence

def _render_matrix(name: str, m: np.ndarray) -> list[str]:
    row = " ".join(["%.17g"] * m.shape[1])
    return [f"matrix {name} {m.shape[0]} {m.shape[1]}"] + [row % tuple(r) for r in m.tolist()]


def _render_config(cfg: TrainConfig) -> str:
    budget = cfg.lambda_budget
    fields = [
        ("lambda_weight", "%.17g" % cfg.lambda_weight),
        ("mu", "%.17g" % cfg.mu),
        ("eta1", "%.17g" % cfg.eta1),
        ("eta2", "%.17g" % cfg.eta2),
        ("gamma", "%.17g" % cfg.gamma),
        ("per_column_s", "%d" % budget.per_column_s),
        ("row_s", "%d" % budget.row_s),
        ("outer_iters", "%d" % cfg.outer_iters),
        ("inner_iters", "%d" % cfg.inner_iters),
        ("test_iters", "%d" % cfg.test_iters),
        ("drop_mode", cfg.drop_mode.value),
        ("drop_rate", "%.17g" % cfg.drop_rate),
        ("seed", "%d" % cfg.seed),
    ]
    return "config " + " ".join(f"{k}={v}" for k, v in fields)


def save_model(model: Model, path) -> None:
    """Write the model in the versioned text format (17-digit decimals)."""
    arch = model.architecture
    lines = [
        f"{MODEL_MAGIC} {MODEL_VERSION}",
        f"mode {model.mode}",
        "arch " + ",".join(str(a) for a in arch.atoms_per_layer),
        f"activation {arch.activation.kind.value} %.17g" % arch.activation.clamp_eps,
        _render_config(model.config),
        f"classes {model.num_classes}",
        f"labels {model.labels.size}",
        " ".join(str(int(v)) for v in model.labels),
    ]
    for i, d in enumerate(model.dictionaries, 1):
        lines.extend(_render_matrix(f"D{i}", d))
    lines.extend(_render_matrix("Z", model.features))
    lines.append("end")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class _ModelReader:
    def __init__(self, path):
        self.path = path
        with open(path, "r", encoding="ascii") as fh:
            self.lines = fh.read().split("\n")
        self.pos = 0

    def fail(self, msg: str):
        raise DataFormatError(f"{self.path}:{self.pos}: {msg}")

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            raise DataFormatError(f"{self.path}: truncated file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect_matrix(self, name: str) -> np.ndarray:
        header = self.next_line().split()
        if len(header) != 4 or header[0] != "matrix" or header[1] != name:
            self.fail(f"expected 'matrix {name} <rows> <cols>'")
        try:
            rows, cols = int(header[2]), int(header[3])
        except ValueError:
            self.fail("non-integer matrix dims")
        if rows < 1 or cols < 1:
            self.fail("matrix dims must be positive")
        out = _parse_bulk(self.lines[self.pos : self.pos + rows], None)
        if out is not None and out.shape == (rows, cols):
            self.pos += rows
            return out
        out = np.empty((rows, cols))
        for i in range(rows):
            cells = self.next_line().split()
            if len(cells) != cols:
                self.fail(f"matrix {name} row {i}: expected {cols} values, got {len(cells)}")
            try:
                out[i] = [float(cell) for cell in cells]
            except ValueError:
                self.fail(f"matrix {name} row {i}: non-numeric value")
        if not np.all(np.isfinite(out)):
            self.fail(f"matrix {name}: non-finite entries")
        return out


def _parse_config(line: str, path: str) -> TrainConfig:
    if not line.startswith("config "):
        raise DataFormatError(f"{path}: missing config line")
    pairs = {}
    for token in line[len("config "):].split():
        if "=" not in token:
            raise DataFormatError(f"{path}: malformed config token {token!r}")
        k, v = token.split("=", 1)
        pairs[k] = v
    try:
        return TrainConfig(
            lambda_budget=SparsityBudget(
                per_column_s=int(pairs["per_column_s"]), row_s=int(pairs["row_s"])
            ),
            lambda_weight=float(pairs["lambda_weight"]),
            mu=float(pairs["mu"]),
            eta1=float(pairs["eta1"]),
            eta2=float(pairs["eta2"]),
            gamma=float(pairs["gamma"]),
            outer_iters=int(pairs["outer_iters"]),
            inner_iters=int(pairs["inner_iters"]),
            test_iters=int(pairs["test_iters"]),
            drop_mode=DropMode(pairs["drop_mode"]),
            drop_rate=float(pairs["drop_rate"]),
            seed=int(pairs["seed"]),
        )
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad config line ({exc})") from None


def load_model(path) -> Model:
    """Load a model file, validating its layout (magic, version, header
    lines, the class count against the labels, the end marker); a model the
    file describes but :class:`Model` rejects is a :class:`DataFormatError`
    too."""
    reader = _ModelReader(path)
    magic = reader.next_line().split()
    if len(magic) != 2 or magic[0] != MODEL_MAGIC:
        raise DataFormatError(f"{path}: bad magic (expected {MODEL_MAGIC})")
    if magic[1] != str(MODEL_VERSION):
        raise DataFormatError(f"{path}: unsupported version {magic[1]}")

    mode_parts = reader.next_line().split()
    if len(mode_parts) != 2 or mode_parts[0] != "mode" or mode_parts[1] not in MODES:
        raise DataFormatError(f"{path}: expected 'mode {'|'.join(MODES)}'")
    mode = mode_parts[1]

    arch_line = reader.next_line()
    if not arch_line.startswith("arch "):
        raise DataFormatError(f"{path}: missing arch line")
    try:
        atoms = tuple(int(a) for a in arch_line[len("arch "):].split(","))
    except ValueError:
        raise DataFormatError(f"{path}: bad arch line") from None

    act_parts = reader.next_line().split()
    if len(act_parts) != 3 or act_parts[0] != "activation":
        raise DataFormatError(f"{path}: missing activation line")
    try:
        activation = Activation(kind=ActivationKind(act_parts[1]), clamp_eps=float(act_parts[2]))
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad activation line ({exc})") from None
    arch = Architecture(atoms_per_layer=atoms, activation=activation)

    cfg = _parse_config(reader.next_line(), str(path))

    counts = []
    for key in ("classes", "labels"):
        parts = reader.next_line().split()
        if len(parts) != 2 or parts[0] != key:
            raise DataFormatError(f"{path}: missing {key} line")
        try:
            counts.append(int(parts[1]))
        except ValueError:
            raise DataFormatError(f"{path}: non-integer {key} count {parts[1]!r}") from None
    n_classes, n_labels = counts
    label_cells = reader.next_line().split()
    if len(label_cells) != n_labels:
        raise DataFormatError(f"{path}: expected {n_labels} labels, got {len(label_cells)}")
    try:
        labels = np.array([int(cell) for cell in label_cells], dtype=np.int64)
    except ValueError:
        raise DataFormatError(f"{path}: non-integer label") from None
    if n_labels and (labels.min() < 1 or labels.max() > n_classes):
        raise DataFormatError(f"{path}: label outside 1..{n_classes}")
    missing = np.flatnonzero(np.bincount(labels, minlength=n_classes + 1)[1:] == 0) + 1
    if missing.size:
        raise DataFormatError(f"{path}: class {missing[0]} of 1..{n_classes} has no stored code")

    dicts = [reader.expect_matrix(f"D{i}") for i in range(1, arch.depth + 1)]
    features = reader.expect_matrix("Z")
    if reader.next_line() != "end":
        raise DataFormatError(f"{path}: missing end marker")
    for extra in reader.lines[reader.pos:]:
        if extra.strip():
            raise DataFormatError(f"{path}: trailing content after end marker")

    try:
        return Model(dicts, arch, features, labels, cfg, mode=mode)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
