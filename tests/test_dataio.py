import dataclasses
import importlib.util
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rsddl.dataio import (
    CONFIG_KEYS,
    SETTING_KEYS,
    DataFormatError,
    HsiCube,
    extract_spatial_spectral,
    format_config,
    load_cube,
    load_labels,
    load_matrix_csv,
    load_model,
    make_dataset,
    parse_config,
    save_cube,
    save_labels,
    save_matrix_csv,
    save_model,
    split_per_class,
)
from rsddl.greedy import Architecture
from rsddl.joint import DropMode, Model, TrainConfig, joint_train
from rsddl.numerics import Activation, NumericsWarning, Rng, pca_basis

from util import load_matrix_csv_reference, pca_fit_reference, window_matrix_reference

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "data.py"
_SPEC = importlib.util.spec_from_file_location("bench_data", _PATH)
bench_data = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_data)


def scene_map_cube(dtype=np.float64):
    """The scene-map benchmark's cube for seed 0 (``benchmarks/data.py``);
    as float64 it is what ``rsddl features`` loads from the cube file."""
    values, gt = bench_data.scene_cube(0, height=20, width=20, bands=50, n_classes=16, labelled_fraction=0.7)
    return HsiCube(values.astype(dtype), gt)


def rank_two_cube():
    """An 8x8x6 cube whose spectra span two directions, so a 4-component
    PCA of its pixels falls below the Gram route's gate."""
    rng = Rng(17)
    values = (rng.standard_normal((64, 2)) @ rng.standard_normal((2, 6))).reshape(8, 8, 6)
    return HsiCube(values, np.ones((8, 8), dtype=np.int64))


def pca_features(raw, d, fit=None):
    """``basis.T @ (raw - mean)``, where ``mean`` and ``pca_basis`` come from
    the ``fit`` columns of ``raw`` (all when None), with raw F-ordered as the
    gather lays it out: the mean's sums follow the layout."""
    raw = np.asfortranarray(raw)
    cols = raw if fit is None else raw[:, fit]
    mean = cols.mean(axis=1, keepdims=True)
    return pca_basis(cols - mean, min(d, *cols.shape)).T @ (raw - mean)


class TestCsv:
    def test_transposition_contract(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        m = load_matrix_csv(p)
        assert m.shape == (2, 2)
        assert m[:, 0].tolist() == [1.0, 2.0]
        assert m[:, 1].tolist() == [3.0, 4.0]

    def test_round_trip(self, tmp_path):
        rng = Rng(1)
        x = rng.standard_normal((5, 7))
        p = tmp_path / "m.csv"
        save_matrix_csv(x, p)
        assert np.array_equal(load_matrix_csv(p), x)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        with pytest.raises(DataFormatError):
            load_matrix_csv(p)

    def test_ragged_rows_error_names_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_matrix_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,x\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_matrix_csv(p)


def _round_trip_values():
    """Doubles from 1e-300 to 1e300, subnormals, signed zeros and
    non-terminating fractions, as a 7-row matrix."""
    rng = Rng(3)
    normal = 10.0 ** np.linspace(-300, 300, 61) * (1 + 9 * rng.random(61))
    subnormal = np.array([5e-324, 1e-320, 2.2250738585072009e-308, 1.5e-310])
    special = np.array([0.0, -0.0, 1 / 3, -2 / 3, 0.1, np.pi, 1e300, -1e-300, 1.7976931348623157e308])
    values = np.concatenate([normal, -normal, subnormal, -subnormal, special])
    values = np.concatenate([values, np.full(-values.size % 7, 0.5)])
    return values.reshape(7, -1)


class TestCsvMatchesLineByLine:
    """The bulk reader against one ``float()`` per cell: the same array bit
    for bit, or the same error naming the same line."""

    @pytest.mark.parametrize(
        "text",
        [
            b"1,2\r\n3,4\r\n",
            b"\n1,2\n   \n\t\n3,4\n \n",
            b" 1 , 2 \n\t3\t,  -4.5e-3\n",
            b"1\n2\n-0\n",
            b"1.5,2,3\n",
            b"1_0,2\n3,4\n",
            b"+.5,5.,1E3\n-0,0,1e-320\n",
        ],
        ids=["crlf", "blank-lines", "spaces", "one-column", "one-row", "underscore", "notation"],
    )
    def test_values(self, tmp_path, text):
        p = tmp_path / "m.csv"
        p.write_bytes(text)
        got, want = load_matrix_csv(p), load_matrix_csv_reference(p)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_17_digit_round_trip(self, tmp_path):
        x = _round_trip_values()
        p = tmp_path / "m.csv"
        save_matrix_csv(x, p)
        got = load_matrix_csv(p)
        assert got.tobytes() == x.tobytes() == load_matrix_csv_reference(p).tobytes()

    @pytest.mark.parametrize(
        "text, where",
        [
            ("1,2\n3,nan\n", ":2: non-finite value"),
            ("1,2\n\ninf,4\n", ":3: non-finite value"),
            ("1,-Infinity\n", ":1: non-finite value"),
            ("1,2\n3,1e400\n", ":2: non-finite value"),
            ("1,2\n3,4,5\n", ":2: expected 2 columns, got 3"),
            ("1,2,3\n4,5\n", ":2: expected 3 columns, got 2"),
            ("1,2,\n", ":1: non-numeric cell"),
            ("1,2\n3,4 # note\n", ":2: non-numeric cell"),
            ("# header\n1,2\n", ":1: non-numeric cell"),
            ("\ufeff1,2\n", ":1: non-numeric cell"),
            ("1,,2\n", ":1: non-numeric cell"),
            ("", ": empty file"),
            ("\n \n\t\n", ": empty file"),
        ],
        ids=["nan", "inf-after-blank", "-Infinity", "overflow", "ragged-wide", "ragged-short",
             "trailing-comma", "hash-in-cell", "hash-line", "bom", "empty-cell", "empty", "blank"],
    )
    def test_errors(self, tmp_path, text, where):
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(DataFormatError) as want:
            load_matrix_csv_reference(p)
        with pytest.raises(DataFormatError) as got:
            load_matrix_csv(p)
        assert str(got.value) == str(want.value) == f"{p}{where}"


class TestSavedBytes:
    """Writers render every value as ``%.17g``: golden bytes."""

    def test_matrix_csv(self, tmp_path):
        x = np.array([[0.1, -0.0, 1 / 3], [5e-324, 1e300, -1.5e-7]])
        save_matrix_csv(x, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == (
            b"0.10000000000000001,4.9406564584124654e-324\n"
            b"-0,1.0000000000000001e+300\n"
            b"0.33333333333333331,-1.4999999999999999e-07\n"
        )

    def test_matrix_csv_matches_per_cell_rendering(self, tmp_path):
        x = _round_trip_values()
        save_matrix_csv(x, tmp_path / "m.csv")
        want = "".join(",".join("%.17g" % v for v in x[:, j]) + "\n" for j in range(x.shape[1]))
        assert (tmp_path / "m.csv").read_bytes() == want.encode("ascii")

    def test_model(self, tmp_path):
        arch = Architecture((2, 2, 1))
        d1 = np.array([[0.1, 2.0], [-0.0, 1 / 3], [5e-324, -1e300]])
        d2 = np.array([[1.0, -2.5e-10], [0.7, 3.0]])
        d3 = np.array([[0.6], [-0.8]])
        cfg = TrainConfig(per_column_s=1, row_s=1, drop_mode=DropMode.NONE, seed=3)
        model = Model([d1, d2, d3], arch, np.array([[0.25, -7.0]]), [1, 2], cfg)
        save_model(model, tmp_path / "m.rsddl")
        assert (tmp_path / "m.rsddl").read_text(encoding="ascii") == (
            "RSDDL3 3\n"
            "mode joint\n"
            "arch 2,2,1\n"
            "activation tanh\n"
            "config lambda_s=1 row_s=1 mu=0.5 eta1=1.0 eta2=1.0 gamma=0.1 drop=none drop_rate=0.1 "
            "iters=15 inner_iters=5 test_iters=10 seed=3\n"
            "labels 2\n"
            "1 2\n"
            "matrix D1 3 2\n"
            "0.10000000000000001 2\n"
            "-0 0.33333333333333331\n"
            "4.9406564584124654e-324 -1.0000000000000001e+300\n"
            "matrix D2 2 2\n"
            "1 -2.5000000000000002e-10\n"
            "0.69999999999999996 3\n"
            "matrix D3 2 1\n"
            "0.59999999999999998\n"
            "-0.80000000000000004\n"
            "matrix Z 1 2\n"
            "0.25 -7\n"
            "end\n"
        )


class TestLabels:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "l.txt"
        save_labels([1, 2, 1], p)
        assert load_labels(p).tolist() == [1, 2, 1]

    def test_class_index(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n5,6\n")
        lp = tmp_path / "l.txt"
        lp.write_text("1\n2\n1\n")
        ds = make_dataset(load_matrix_csv(p), load_labels(lp))
        assert ds.class_index[1].tolist() == [0, 2]
        assert ds.class_index[2].tolist() == [1]

    def test_save_writes_integers(self, tmp_path):
        p = tmp_path / "l.txt"
        save_labels(np.array([1, 12, 3], dtype=np.int64), p)
        assert p.read_bytes() == b"1\n12\n3\n"
        save_labels([1.0, 12.0, 3.0], p)  # whole-valued floats write as integers
        assert p.read_bytes() == b"1\n12\n3\n"

    @pytest.mark.parametrize("labels", [[1.7, 2.2], [1.0, np.nan]], ids=["fractions", "nan"])
    def test_save_rejects_fractional_labels(self, tmp_path, labels):
        # the int64 cast would truncate 1.7 and 2.2 and write 1 and 2
        p = tmp_path / "l.txt"
        with pytest.raises(ValueError, match="class ids must be whole numbers"):
            save_labels(labels, p)
        assert not p.exists()

    def test_bad_label(self, tmp_path):
        p = tmp_path / "l.txt"
        p.write_text("1\nfoo\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_labels(p)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            make_dataset(np.eye(3), [1, 2])


class TestMakeDataset:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError, match="missing"):
            make_dataset(np.eye(3), [1, 3, 3])

    def test_num_classes_override_allows_empty(self):
        ds = make_dataset(np.eye(3), [1, 1, 3], num_classes=3)
        assert ds.class_index[2].size == 0

    def test_empty_dataset_allowed_with_num_classes(self):
        ds = make_dataset(np.zeros((4, 0)), [], num_classes=2)
        assert ds.n_samples == 0

    @pytest.mark.parametrize("labels", [[1.7, 2.2], [1.0, np.nan], [1.0, np.inf]], ids=["fractions", "nan", "inf"])
    def test_fractional_labels_rejected(self, labels):
        # the int64 cast would truncate 1.7 and 2.2 to the classes 1 and 2
        with pytest.raises(ValueError, match="class ids must be whole numbers"):
            make_dataset(np.ones((3, 2)), labels)

    def test_whole_float_labels_load(self):
        ds = make_dataset(np.ones((3, 3)), np.array([1.0, 2.0, 2.0]))
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 2, 2]


class TestSplit:
    def _dataset(self):
        rng = Rng(2)
        x = rng.standard_normal((4, 10))
        labels = [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]
        return make_dataset(x, labels)

    def test_counts_tally(self):
        ds = self._dataset()
        train, test = split_per_class(ds, {1: 2, 2: 3}, Rng(5))
        assert train.n_samples == 5
        assert test.n_samples == 5
        assert np.sum(train.labels == 1) == 2
        assert np.sum(train.labels == 2) == 3

    def test_partition(self):
        ds = self._dataset()
        train, test = split_per_class(ds, {1: 2, 2: 3}, Rng(5))
        combined = np.hstack([train.x, test.x])
        assert combined.shape[1] == ds.n_samples
        # every original column appears exactly once
        for j in range(ds.n_samples):
            col = ds.x[:, j]
            matches = np.sum(np.all(np.isclose(combined, col[:, None]), axis=0))
            assert matches == 1

    def test_deterministic(self):
        ds = self._dataset()
        t1, _ = split_per_class(ds, {1: 2, 2: 3}, Rng(5))
        t2, _ = split_per_class(ds, {1: 2, 2: 3}, Rng(5))
        assert np.array_equal(t1.x, t2.x)

    def test_all_counts_full_gives_empty_test(self):
        ds = self._dataset()
        train, test = split_per_class(ds, {1: 4, 2: 6}, Rng(5))
        assert train.n_samples == 10
        assert test.n_samples == 0

    def test_exceeding_count_names_class(self):
        ds = self._dataset()
        with pytest.raises(ValueError, match="class 2"):
            split_per_class(ds, {1: 2, 2: 7}, Rng(5))

    def test_counts_are_integers(self):
        # a count of 2.7 used to take 2 samples
        ds = make_dataset(Rng(3).standard_normal((2, 6)), [1, 1, 1, 2, 2, 2])
        with pytest.raises(ValueError, match="count for class 1 must be an integer, got 2.7"):
            split_per_class(ds, {1: 2.7, 2: 1}, Rng(5))
        train, _ = split_per_class(ds, {1: np.int64(2), 2: 1}, Rng(5))
        want, _ = split_per_class(ds, {1: 2, 2: 1}, Rng(5))
        assert np.array_equal(train.x, want.x)

    def test_counts_name_classes_of_the_dataset(self):
        # 3 is no class of this 2-class set, and 0 is no class id at all
        ds = make_dataset(Rng(3).standard_normal((2, 6)), [1, 1, 1, 2, 2, 2])
        with pytest.raises(ValueError, match=re.escape("counts for keys that are not class ids 1..2: [3, 0]")):
            split_per_class(ds, {1: 2, 3: 2, 0: 1}, Rng(5))


class TestCubeFormat:
    def _cube(self):
        rng = Rng(7)
        values = rng.standard_normal((5, 6, 3)).astype(np.float32).astype(np.float64)
        gt = np.zeros((5, 6), dtype=np.int64)
        gt[1, 1] = 1
        gt[2, 3] = 2
        gt[4, 5] = 1
        return HsiCube(values=values, ground_truth=gt)

    def test_round_trip(self, tmp_path):
        cube = self._cube()
        save_cube(cube, tmp_path / "c.hsi", tmp_path / "c.gt")
        loaded = load_cube(tmp_path / "c.hsi", tmp_path / "c.gt")
        assert np.array_equal(loaded.values, cube.values)
        assert np.array_equal(loaded.ground_truth, cube.ground_truth)

    def test_truncated_payload(self, tmp_path):
        cube = self._cube()
        save_cube(cube, tmp_path / "c.hsi", tmp_path / "c.gt")
        raw = (tmp_path / "c.hsi").read_bytes()
        (tmp_path / "c.hsi").write_bytes(raw[:-8])
        with pytest.raises(DataFormatError):
            load_cube(tmp_path / "c.hsi", tmp_path / "c.gt")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "c.hsi").write_bytes(b"NOPE 1 1 1\n" + b"\x00" * 4)
        (tmp_path / "c.gt").write_bytes(b"RSGT1 1 1\n" + b"\x00" * 4)
        with pytest.raises(DataFormatError):
            load_cube(tmp_path / "c.hsi", tmp_path / "c.gt")

    def test_gt_dims_mismatch(self, tmp_path):
        cube = self._cube()
        save_cube(cube, tmp_path / "c.hsi", tmp_path / "c.gt")
        other = HsiCube(
            values=np.zeros((4, 6, 3)), ground_truth=np.zeros((4, 6), dtype=np.int64)
        )
        other.ground_truth[0, 0] = 1
        save_cube(other, tmp_path / "o.hsi", tmp_path / "o.gt")
        with pytest.raises(DataFormatError):
            load_cube(tmp_path / "c.hsi", tmp_path / "o.gt")


class TestExtract:
    def test_window_one_is_pure_spectral(self):
        rng = Rng(8)
        values = rng.standard_normal((4, 4, 5))
        gt = np.ones((4, 4), dtype=np.int64)
        cube = HsiCube(values=values, ground_truth=gt)
        ds = extract_spatial_spectral(cube, window=1, d=5)
        assert ds.x.shape == (5, 16)
        # feature of pixel (0, 0) equals the projected band vector, with the
        # SVD fit of the pixels' band vectors
        mean, basis = pca_fit_reference(values.reshape(16, 5).T, 5)
        raw = values[0, 0, :].reshape(-1, 1)
        assert np.allclose(ds.x[:, 0], (basis.T @ (raw - mean)).ravel())

    def test_constant_cube_identical_features(self):
        values = np.full((5, 5, 3), 2.0)
        gt = np.ones((5, 5), dtype=np.int64)
        with pytest.warns(Warning):
            ds = extract_spatial_spectral(HsiCube(values, gt), window=3, d=2)
        assert np.allclose(ds.x - ds.x[:, [0]], 0.0)

    def test_raw_window_length_and_anchor(self):
        # 10x10x5 cube, window 4: raw feature length 4*4*5 = 80, so d=100 is
        # clipped to 80; interior pixel (3, 3) takes rows/cols 2..5 (target at
        # position (2, 2), 1-indexed)
        rng = Rng(9)
        values = rng.standard_normal((10, 10, 5))
        ds = extract_spatial_spectral(HsiCube(values, np.ones((10, 10), dtype=np.int64)), window=4, d=100)
        assert ds.x.shape == (80, 100)  # raw dimension before projection
        # 80 components of 100 pixels span every window: the projection keeps
        # distances, here those of pixel (3, 3) to the interior pixel (6, 7)
        want = np.linalg.norm(values[2:6, 2:6, :] - values[5:9, 6:10, :])
        assert np.isclose(np.linalg.norm(ds.x[:, 33] - ds.x[:, 67]), want, rtol=1e-10)

    def test_border_mirror_padding(self):
        rng = Rng(10)
        values = rng.standard_normal((6, 6, 2))
        ds = extract_spatial_spectral(HsiCube(values, np.ones((6, 6), dtype=np.int64)), window=4, d=32)
        # 32 components of 36 pixels span every window: the projection keeps
        # distances, here those of the two corner pixels' padded windows
        padded = np.pad(values, ((1, 2), (1, 2), (0, 0)), mode="symmetric")
        want = np.linalg.norm(padded[0:4, 0:4, :] - padded[5:9, 5:9, :])
        assert np.isclose(np.linalg.norm(ds.x[:, 0] - ds.x[:, 35]), want, rtol=1e-10)

    def test_pca_fit_on_train_pixels_only(self):
        rng = Rng(11)
        values = rng.standard_normal((6, 6, 4))
        gt = np.ones((6, 6), dtype=np.int64)
        gt[3:, :] = 2
        cube = HsiCube(values, gt)
        mask = np.zeros((6, 6), dtype=bool)
        mask[:2, :] = True
        ds_masked = extract_spatial_spectral(cube, window=1, d=3, train_mask=mask)
        ds_all = extract_spatial_spectral(cube, window=1, d=3)
        assert not np.allclose(np.abs(ds_masked.x), np.abs(ds_all.x))
        # features of non-mask pixels still use the mask statistics: the SVD
        # fit of the masked pixels' band vectors
        mean, basis = pca_fit_reference(values[:2].reshape(12, 4).T, 3)
        raw = values[5, 5, :].reshape(-1, 1)
        assert np.allclose(ds_masked.x[:, -1], (basis.T @ (raw - mean)).ravel())

    @pytest.mark.parametrize("shape", [(2, 2), (6, 6)])
    def test_train_mask_shape_must_match_ground_truth(self, shape):
        # a smaller mask used to raise a bare IndexError, a larger one was indexed silently
        cube = HsiCube(Rng(14).standard_normal((4, 4, 3)), np.ones((4, 4), dtype=np.int64))
        message = re.escape(f"train_mask shape {shape} != ground truth shape (4, 4)")
        with pytest.raises(ValueError, match=message):
            extract_spatial_spectral(cube, window=1, d=2, train_mask=np.ones(shape, dtype=bool))

    def test_window_larger_than_image(self):
        cube = HsiCube(np.zeros((3, 3, 2)), np.ones((3, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            extract_spatial_spectral(cube, window=4, d=2)

    @staticmethod
    def border_cube():
        """A non-square 7x9x3 cube whose labelled pixels (classes 1-3) take in
        every border and corner; about a quarter of the pixels is unlabelled."""
        rng = Rng(15)
        gt = rng.permutation(63).reshape(7, 9) % 4
        gt[[0, -1], :] = gt[:, [0, -1]] = 2
        return HsiCube(rng.standard_normal((7, 9, 3)), gt)

    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_window_gather_matches_the_per_pixel_loop(self, window):
        cube = self.border_cube()
        raw, labels = window_matrix_reference(cube, window)
        ds = extract_spatial_spectral(cube, window=window, d=5)
        assert np.array_equal(ds.x, pca_features(raw, 5))
        assert np.array_equal(ds.labels, labels)
        rows, cols = np.divmod(np.flatnonzero(cube.ground_truth), cube.width)
        assert np.array_equal(ds.labels, cube.ground_truth[rows, cols])  # row-major order
        # an all-True mask fits the same pixels, on the same path
        ds_all = extract_spatial_spectral(cube, window=window, d=5, train_mask=np.ones((7, 9), dtype=bool))
        assert np.array_equal(ds_all.x, ds.x)

    @pytest.mark.parametrize("cube, window, d, masked, warns", [
        (scene_map_cube(), 3, 30, False, False),
        (scene_map_cube(np.float32), 3, 30, False, False),
        (scene_map_cube(), 3, 30, True, False),
        (scene_map_cube(), 1, 30, False, False),
        (rank_two_cube(), 1, 4, False, True),
    ], ids=["scene-map", "float32-values", "train-mask", "wide-gram", "rank-deficient"])
    def test_features_are_pca_fit_then_projection(self, cube, window, d, masked, warns):
        # the window matrix centered in place gives the features of
        # pca_basis(fit - mean) bit for bit, near those of the SVD fit, and
        # cube.values is not written
        train_mask = None
        if masked:  # the top half of the image
            train_mask = np.zeros(cube.ground_truth.shape, dtype=bool)
            train_mask[: cube.height // 2] = True
        raw, labels = window_matrix_reference(cube, window)
        fit = train_mask[cube.ground_truth > 0] if masked else None
        values = cube.values.copy()
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want = pca_features(raw, d, fit)
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            ds = extract_spatial_spectral(cube, window=window, d=d, train_mask=train_mask)
        assert [(w.category, str(w.message)) for w in warned] == [
            (w.category, str(w.message)) for w in want_warned
        ]
        assert len(warned) == warns
        assert np.array_equal(ds.x, want)
        fit_raw = raw if fit is None else raw[:, fit]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericsWarning)
            mean, basis = pca_fit_reference(fit_raw, min(d, *fit_raw.shape))
        svd = basis.T @ (raw - mean)
        assert np.allclose(ds.x, svd, rtol=0, atol=1e-9 * np.abs(svd).max())
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(cube.values, values)

    def test_one_window_matrix_alive_at_the_peak(self):
        # the peak holds the window matrix and the Gram matrix's
        # eigendecomposition, not a second, centered window matrix: 3.32 MiB
        # when the fit centered a copy, 2.36 MiB centered in place (numpy 2.4)
        cube = scene_map_cube()
        pixels = np.count_nonzero(cube.ground_truth)
        window_bytes, gram_bytes = 3 * 3 * cube.bands * pixels * 8, pixels * pixels * 8
        extract_spatial_spectral(cube, window=3, d=30)  # numpy's lazy set-up, outside the measurement
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            extract_spatial_spectral(cube, window=3, d=30)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < window_bytes + 3 * gram_bytes

    def test_fractional_ground_truth_rejected(self):
        # a class id of 2.7 used to become class 2
        gt = np.ones((4, 4))
        gt[1, 2] = 2.7
        cube = HsiCube(Rng(16).standard_normal((4, 4, 3)), gt)
        with pytest.raises(ValueError, match="class ids must be whole numbers"):
            extract_spatial_spectral(cube, window=1, d=2)

    def test_whole_float_ground_truth(self):
        cube = self.border_cube()
        ds = extract_spatial_spectral(cube, window=3, d=4)
        ds_float = extract_spatial_spectral(
            HsiCube(cube.values, cube.ground_truth.astype(np.float64)), window=3, d=4)
        assert ds_float.labels.dtype == np.int64
        assert np.array_equal(ds_float.labels, ds.labels) and np.array_equal(ds_float.x, ds.x)


def small_model():
    rng = Rng(12)
    arch = Architecture((16, 8, 4), activation=Activation.TANH)
    d1 = rng.standard_normal((20, 16))
    d2 = rng.standard_normal((16, 8))
    d3 = rng.standard_normal((8, 4))
    features = rng.standard_normal((4, 6))
    cfg = TrainConfig(
        per_column_s=2, row_s=2,
        drop_mode=DropMode.NONE,
        seed=42,
    )
    return Model([d1, d2, d3], arch, features, [1, 1, 1, 2, 2, 2], cfg)


def config_pairs(text: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in text.split())


class TestConfigText:
    CFG = TrainConfig(per_column_s=3, row_s=2, mu=1e-300, eta1=0.30000000000000004, eta2=2.5,
                      gamma=0.123456789, outer_iters=7, inner_iters=2, test_iters=4,
                      drop_mode=DropMode.DROPOUT, drop_rate=0.012345678901234567, seed=2**64 - 1)

    def test_one_row_per_field(self):
        attrs = [attr for _, _, attr in CONFIG_KEYS]
        fields = [f.name for f in dataclasses.fields(TrainConfig)]
        assert len(fields) == 12 and len(set(attrs)) == len(attrs) == 12
        assert set(attrs) == set(fields)
        assert [a.value for a in Activation] == ["tanh", "identity"]

    def test_shortest_exact_floats(self):
        assert format_config(self.CFG) == (
            "lambda_s=3 row_s=2 mu=1e-300 eta1=0.30000000000000004 eta2=2.5 gamma=0.123456789 drop=out "
            "drop_rate=0.012345678901234567 iters=7 inner_iters=2 test_iters=4 seed=18446744073709551615"
        )

    def test_round_trip(self):
        pairs = config_pairs(format_config(self.CFG))
        assert parse_config(pairs) == self.CFG
        assert pairs == {}  # every key read is taken out

    # texts of every row of both tables, each in the form the codec writes
    ROW_TEXTS = {
        "mode": ["joint", "greedy"], "arch": ["16,8,4", "7", "100,50,25,12"], "activation": ["tanh", "identity"],
        "lambda_s": ["1", "3"], "row_s": ["2", "40"], "mu": ["0.0", "1e-300", "0.5"],
        "eta1": ["0.30000000000000004", "1.0"], "eta2": ["2.5", "1e+300"], "gamma": ["0.123456789"],
        "drop": ["none", "out", "connect"], "drop_rate": ["0.0", "0.012345678901234567"], "iters": ["1", "15"],
        "inner_iters": ["5"], "test_iters": ["10"], "seed": ["0", "18446744073709551615"],
    }

    def test_every_row_round_trips_its_text(self):
        """text -> value -> text is the identity on every row of both tables."""
        assert list(self.ROW_TEXTS) == [key for key, _, _ in SETTING_KEYS + CONFIG_KEYS]
        for key, parse, fmt in SETTING_KEYS:
            for text in self.ROW_TEXTS[key]:
                assert fmt(parse(text)) == text
        for key, _, _ in CONFIG_KEYS:
            for text in self.ROW_TEXTS[key]:
                cfg = parse_config({key: text}, self.CFG)
                assert config_pairs(format_config(cfg))[key] == text

    def test_defaults_fill_missing_keys(self):
        pairs = {"gamma": "0.25", "bogus": "1"}
        cfg = parse_config(pairs, self.CFG)
        assert cfg == dataclasses.replace(self.CFG, gamma=0.25)
        assert pairs == {"bogus": "1"}  # an unknown key is left for the caller

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(iters="2.0"), "config key iters='2.0' is not valid"),
            (dict(drop="connected"), "config key drop='connected' is not valid"),
            (dict(mu="nan"), "mu must be finite, got nan"),
            (dict(seed=str(2**64)), re.escape(f"seed must be an integer in [0, 2**64), got {2**64}")),
            (dict(row_s=None), "missing config key row_s"),
        ],
        ids=["bad int", "bad drop mode", "nan weight", "seed too large", "missing key"],
    )
    def test_rejects(self, change, message):
        pairs = config_pairs(format_config(self.CFG))
        for key, value in change.items():
            if value is None:
                del pairs[key]
            else:
                pairs[key] = value
        with pytest.raises(ValueError, match=message):
            parse_config(pairs)


class TestModelPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.rsddl"
        save_model(model, path)
        loaded = load_model(path)
        for a, b in zip(model.dictionaries, loaded.dictionaries):
            assert np.array_equal(a, b)
        assert np.array_equal(model.features, loaded.features)
        assert np.array_equal(model.labels, loaded.labels)
        assert loaded.config == model.config
        assert loaded.architecture == model.architecture
        assert loaded.mode == model.mode == "joint"

    def test_save_load_save_byte_identical(self, tmp_path):
        model = small_model()
        p1 = tmp_path / "a.rsddl"
        p2 = tmp_path / "b.rsddl"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_declared_shapes(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.rsddl"
        save_model(model, path)
        text = path.read_text()
        assert "matrix D1 20 16" in text
        assert "matrix D2 16 8" in text
        assert "matrix D3 8 4" in text
        assert text.startswith("RSDDL3 3\nmode joint\narch 16,8,4\nactivation tanh\nconfig lambda_s=2 ")
        assert "class_means" not in text and "class_supports" not in text
        assert "conventional_bregman" not in text

    def test_truncated_file_errors(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.rsddl"
        save_model(model, path)
        lines = path.read_text().split("\n")
        (tmp_path / "t.rsddl").write_text("\n".join(lines[: len(lines) // 2]))
        with pytest.raises(DataFormatError):
            load_model(tmp_path / "t.rsddl")

    @pytest.mark.parametrize(
        "line, text, message",
        [
            (6, "labels 6.0", "non-integer labels count '6.0'"),
            (6, "classes 2", "missing labels line"),
        ],
    )
    def test_non_integer_count(self, tmp_path, line, text, message):
        path = tmp_path / "m.rsddl"
        save_model(small_model(), path)
        lines = path.read_text().split("\n")
        lines[line - 1] = text
        path.write_text("\n".join(lines))
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "extra, message",
        [(" bogus=7", ": unknown config key(s): bogus"), (" bogus=7 mu=0.9", ":5: repeated config key 'mu'"),
         (" seed=42", ":5: repeated config key 'seed'"), (" mode=greedy", ":5: repeated config key 'mode'"),
         (" mu", ":5: expected key=value, got 'mu'")],
        ids=["unknown", "unknown-then-repeated", "repeated", "repeated-setting", "malformed"],
    )
    def test_config_line_takes_each_key_once(self, tmp_path, extra, message):
        path = tmp_path / "m.rsddl"
        save_model(small_model(), path)
        lines = path.read_text().split("\n")
        assert lines[4].startswith("config ")
        lines[4] += extra
        path.write_text("\n".join(lines))
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}{message}"

    @pytest.mark.parametrize(
        "token, message",
        [
            ("mu=nan", "mu must be finite, got nan"),
            ("eta1=inf", "eta1 must be finite, got inf"),
            ("eta2=-inf", "eta2 must be finite, got -inf"),
            ("gamma=nan", "gamma must be finite, got nan"),
            (f"seed={2**64}", f"seed must be an integer in [0, 2**64), got {2**64}"),
        ],
    )
    def test_config_it_cannot_honour_rejected(self, tmp_path, token, message):
        path = tmp_path / "m.rsddl"
        save_model(small_model(), path)
        key = token.split("=")[0]
        path.write_text(re.sub(rf" {key}=\S*", f" {token}", path.read_text(), count=1))
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: {message}"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.rsddl"
        save_model(small_model(), path)
        rsddl2 = path.read_text().replace("RSDDL3 3\n", "RSDDL2 2\n", 1)
        for text in ("WRONG 1\n", "RSDDL1 1\n", rsddl2):
            path.write_text(text)
            with pytest.raises(DataFormatError, match=r"bad magic \(expected RSDDL3\)"):
                load_model(path)

    @pytest.mark.parametrize(
        "line, text",
        [(2, "mode layerwise"), (3, "arch 5,0,3"), (3, "arch 5,x,3"), (4, "activation relu")],
    )
    def test_bad_settings_line(self, tmp_path, line, text):
        path = tmp_path / "m.rsddl"
        save_model(small_model(), path)
        lines = path.read_text().split("\n")
        assert lines[line - 1].split()[0] == text.split()[0]
        lines[line - 1] = text
        path.write_text("\n".join(lines))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: "):
            load_model(path)

    def test_shape_chain_violation(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.rsddl"
        save_model(model, path)
        text = path.read_text().replace("matrix D2 16 8", "matrix D2 16 9", 1)
        (tmp_path / "bad.rsddl").write_text(text)
        with pytest.raises(DataFormatError):
            load_model(tmp_path / "bad.rsddl")

    def test_greedy_mode_round_trip(self, tmp_path):
        model = dataclasses.replace(small_model(), mode="greedy")
        path = tmp_path / "g.rsddl"
        save_model(model, path)
        assert path.read_text().split("\n")[1] == "mode greedy"
        assert load_model(path).mode == "greedy"
        path.write_text(path.read_text().replace("mode greedy", "mode layerwise", 1))
        with pytest.raises(DataFormatError, match="mode"):
            load_model(path)

    def test_class_without_code_rejected(self, tmp_path):
        path = tmp_path / "m.rsddl"
        save_model(small_model(), path)
        path.write_text(path.read_text().replace("\n1 1 1 2 2 2\n", "\n1 1 1 3 3 3\n", 1))
        with pytest.raises(DataFormatError, match="class 2 of 1..3 has no stored code"):
            load_model(path)

    def test_trailing_garbage(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.rsddl"
        save_model(model, path)
        path.write_text(path.read_text() + "extra\n")
        with pytest.raises(DataFormatError, match="trailing"):
            load_model(path)

    def test_two_layer_joint_file_rejected(self, tmp_path):
        arch = Architecture((3, 2))
        rng = Rng(4)
        model = Model([rng.standard_normal((5, 3)), rng.standard_normal((3, 2))], arch,
                      rng.standard_normal((2, 2)), [1, 2], TrainConfig(), mode="greedy")
        path = tmp_path / "m.rsddl"
        save_model(model, path)
        assert isinstance(load_model(path), Model)
        path.write_text(path.read_text().replace("mode greedy", "mode joint", 1))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: a joint model needs exactly 3 layers"):
            load_model(path)

    def test_broken_layer_chain_rejected(self, tmp_path):
        path, lines = TestModelMatrixReader.saved(tmp_path)
        assert lines[28] == "matrix D2 16 8"
        lines[28] = "matrix D2 15 8"
        del lines[44]  # the last row of D2
        path.write_text("\n".join(lines))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: D2 has 15 rows"):
            load_model(path)

    def test_codes_labels_mismatch_rejected(self, tmp_path):
        path, lines = TestModelMatrixReader.saved(tmp_path)
        assert lines[5:7] == ["labels 6", "1 1 1 2 2 2"]
        lines[5:7] = ["labels 5", "1 1 1 2 2"]
        path.write_text("\n".join(lines))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: Z has shape \\(4, 6\\)"):
            load_model(path)

    def test_trained_config_equals_loaded(self, tmp_path):
        """A model trained with the derived budgets (``per_column_s=row_s=None``)
        holds the same config as its saved and reloaded copy."""
        rng = Rng(8)
        data = make_dataset(rng.standard_normal((6, 8)), [1, 2] * 4)
        model = joint_train(data, Architecture((5, 4, 3)), TrainConfig(outer_iters=2))
        assert (model.config.per_column_s, model.config.row_s) == (1, 1)
        path = tmp_path / "m.rsddl"
        save_model(model, path)
        assert load_model(path).config == model.config


def _cell(row, value, at=0):
    cells = row.split()
    cells[at] = value
    return " ".join(cells)


class TestModelMatrixReader:
    """Matrix blocks of ``small_model``'s file: D1 (20 x 16) on lines 9-28,
    D2 (16 x 8) on 30-45, D3 on 47-54 and Z (4 x 6) on 56-59.  Every error
    names the line the per-row reader stops at."""

    @staticmethod
    def saved(tmp_path):
        path = tmp_path / "m.rsddl"
        save_model(small_model(), path)
        return path, path.read_text().split("\n")

    @pytest.mark.parametrize(
        "first, last, edit, message",
        [
            (9, 9, lambda r: _cell(r, "abc"), ":9: matrix D1 row 0: non-numeric value"),
            (33, 33, lambda r: _cell(r, "0x1", 5), ":33: matrix D2 row 3: non-numeric value"),
            (33, 33, lambda r: _cell(r, "inf", 2), ":45: matrix D2: non-finite entries"),
            (58, 58, lambda r: _cell(r, "nan"), ":59: matrix Z: non-finite entries"),
            (14, 14, lambda r: r.rsplit(" ", 1)[0], ":14: matrix D1 row 5: expected 16 values, got 15"),
            (9, 28, lambda r: r + " 0", ":9: matrix D1 row 0: expected 16 values, got 17"),
            (9, 28, lambda r: "", ":9: matrix D1 row 0: expected 16 values, got 0"),
            (9, 28, lambda r: " \t", ":9: matrix D1 row 0: expected 16 values, got 0"),
            (58, None, lambda r: None, ": truncated file"),
        ],
        ids=["non-numeric", "non-numeric-later-row", "inf", "nan", "short-row", "all-rows-wide",
             "blank-rows", "whitespace-rows", "cut-short"],
    )
    def test_errors(self, tmp_path, first, last, edit, message):
        """``edit`` rewrites file lines ``first``..``last`` (to the end for
        None) one by one, and drops those it maps to None."""
        path, lines = self.saved(tmp_path)
        block = lines[first - 1 : last]
        lines[first - 1 : last] = [r for r in map(edit, block) if r is not None]
        path.write_text("\n".join(lines))
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}{message}"

    def test_cells_only_float_takes(self, tmp_path):
        path, lines = self.saved(tmp_path)
        lines[8] = _cell(lines[8], "1_0")
        lines[56] = _cell(lines[56], "-2_5e-1", 1)
        path.write_text("\n".join(lines))
        model = load_model(path)
        assert model.dictionaries[0][0, 0] == 10.0
        assert model.features[1, 1] == -2.5
