import dataclasses
import re

import numpy as np
import pytest

from rsddl.dataio import (
    DataFormatError,
    HsiCube,
    extract_spatial_spectral,
    load_cube,
    load_labels,
    load_matrix_csv,
    load_model,
    make_dataset,
    save_cube,
    save_labels,
    save_matrix_csv,
    save_model,
    split_per_class,
)
from rsddl.greedy import Architecture
from rsddl.joint import DropMode, Model, TrainConfig, joint_train
from rsddl.numerics import Activation, ActivationKind, NumericsWarning, Rng
from rsddl.sparse import SparsityBudget

from util import load_matrix_csv_reference, window_matrix_reference


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
        cfg = TrainConfig(lambda_budget=SparsityBudget(1, 1), drop_mode=DropMode.NONE, seed=3)
        model = Model([d1, d2, d3], arch, np.array([[0.25, -7.0]]), [1, 2], cfg)
        save_model(model, tmp_path / "m.rsddl")
        assert (tmp_path / "m.rsddl").read_text(encoding="ascii") == (
            "RSDDL2 2\n"
            "mode joint\n"
            "arch 2,2,1\n"
            "activation tanh 9.9999999999999995e-07\n"
            "config lambda_weight=0.10000000000000001 mu=0.5 eta1=1 eta2=1 "
            "gamma=0.10000000000000001 per_column_s=1 row_s=1 outer_iters=15 inner_iters=5 "
            "test_iters=10 drop_mode=none drop_rate=0.10000000000000001 seed=3\n"
            "classes 2\n"
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
        ds, proj = extract_spatial_spectral(cube, window=1, d=5)
        assert proj.mean.shape == (5, 1)
        # feature of pixel (0, 0) equals the projected band vector
        raw = values[0, 0, :].reshape(-1, 1)
        assert np.allclose(ds.x[:, 0], proj.project(raw).ravel())

    def test_constant_cube_identical_features(self):
        values = np.full((5, 5, 3), 2.0)
        gt = np.ones((5, 5), dtype=np.int64)
        with pytest.warns(Warning):
            ds, _ = extract_spatial_spectral(HsiCube(values, gt), window=3, d=2)
        assert np.allclose(ds.x - ds.x[:, [0]], 0.0)

    def test_raw_window_length_and_anchor(self):
        # 8x8x5 cube, window 4: raw feature length 4*4*5 = 80; interior pixel
        # (3, 3) takes rows/cols 2..5 (target at position (2, 2), 1-indexed)
        rng = Rng(9)
        values = rng.standard_normal((8, 8, 5))
        gt = np.zeros((8, 8), dtype=np.int64)
        gt[3, 3] = 1
        with pytest.warns(NumericsWarning, match="data rank is 0"):  # one labelled pixel
            ds, proj = extract_spatial_spectral(HsiCube(values, gt), window=4, d=80)
        assert proj.basis.shape[0] == 80  # raw dimension before projection
        expected_raw = values[2:6, 2:6, :].reshape(-1, 1)
        assert np.allclose(ds.x[:, 0], proj.project(expected_raw).ravel())

    def test_border_mirror_padding(self):
        rng = Rng(10)
        values = rng.standard_normal((6, 6, 2))
        gt = np.zeros((6, 6), dtype=np.int64)
        gt[0, 0] = 1
        with pytest.warns(NumericsWarning, match="data rank is 0"):  # one labelled pixel
            ds, proj = extract_spatial_spectral(HsiCube(values, gt), window=4, d=4)
        padded = np.pad(values, ((1, 2), (1, 2), (0, 0)), mode="symmetric")
        expected_raw = padded[0:4, 0:4, :].reshape(-1, 1)
        assert np.allclose(ds.x[:, 0], proj.project(expected_raw).ravel())

    def test_pca_fit_on_train_pixels_only(self):
        rng = Rng(11)
        values = rng.standard_normal((6, 6, 4))
        gt = np.ones((6, 6), dtype=np.int64)
        gt[3:, :] = 2
        cube = HsiCube(values, gt)
        mask = np.zeros((6, 6), dtype=bool)
        mask[:2, :] = True
        ds_masked, proj_masked = extract_spatial_spectral(cube, window=1, d=3, train_mask=mask)
        _, proj_all = extract_spatial_spectral(cube, window=1, d=3)
        assert not np.allclose(proj_masked.basis, proj_all.basis)
        # features of non-mask pixels still use the mask statistics
        raw = values[5, 5, :].reshape(-1, 1)
        assert np.allclose(ds_masked.x[:, -1], proj_masked.project(raw).ravel())

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
        ds, proj = extract_spatial_spectral(cube, window=window, d=5)
        assert np.array_equal(ds.x, proj.project(raw))
        assert np.array_equal(ds.labels, labels)
        rows, cols = np.divmod(np.flatnonzero(cube.ground_truth), cube.width)
        assert np.array_equal(ds.labels, cube.ground_truth[rows, cols])  # row-major order
        # an all-True mask fits the same pixels, on the same path
        ds_all, proj_all = extract_spatial_spectral(
            cube, window=window, d=5, train_mask=np.ones((7, 9), dtype=bool))
        assert np.array_equal(ds_all.x, ds.x) and np.array_equal(proj_all.basis, proj.basis)

    def test_fractional_ground_truth_rejected(self):
        # a class id of 2.7 used to become class 2
        gt = np.ones((4, 4))
        gt[1, 2] = 2.7
        cube = HsiCube(Rng(16).standard_normal((4, 4, 3)), gt)
        with pytest.raises(ValueError, match="class ids must be whole numbers"):
            extract_spatial_spectral(cube, window=1, d=2)

    def test_whole_float_ground_truth(self):
        cube = self.border_cube()
        ds, _ = extract_spatial_spectral(cube, window=3, d=4)
        ds_float, _ = extract_spatial_spectral(
            HsiCube(cube.values, cube.ground_truth.astype(np.float64)), window=3, d=4)
        assert ds_float.labels.dtype == np.int64
        assert np.array_equal(ds_float.labels, ds.labels) and np.array_equal(ds_float.x, ds.x)


def small_model():
    rng = Rng(12)
    arch = Architecture((16, 8, 4), activation=Activation(ActivationKind.TANH, 1e-6))
    d1 = rng.standard_normal((20, 16))
    d2 = rng.standard_normal((16, 8))
    d3 = rng.standard_normal((8, 4))
    features = rng.standard_normal((4, 6))
    cfg = TrainConfig(
        lambda_budget=SparsityBudget(2, 2),
        drop_mode=DropMode.NONE,
        seed=42,
    )
    return Model([d1, d2, d3], arch, features, [1, 1, 1, 2, 2, 2], cfg)


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
        assert text.startswith("RSDDL2 2\nmode joint\narch 16,8,4\n")
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
            (6, "classes two", "non-integer classes count 'two'"),
            (7, "labels 6.0", "non-integer labels count '6.0'"),
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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.rsddl"
        for text in ("WRONG 1\n", "RSDDL1 1\n"):
            path.write_text(text)
            with pytest.raises(DataFormatError, match=r"bad magic \(expected RSDDL2\)"):
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
        path.write_text(path.read_text().replace("\nclasses 2\n", "\nclasses 3\n", 1))
        with pytest.raises(DataFormatError, match="class 3 of 1..3 has no stored code"):
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
        assert lines[29] == "matrix D2 16 8"
        lines[29] = "matrix D2 15 8"
        del lines[45]  # the last row of D2
        path.write_text("\n".join(lines))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: D2 has 15 rows"):
            load_model(path)

    def test_codes_labels_mismatch_rejected(self, tmp_path):
        path, lines = TestModelMatrixReader.saved(tmp_path)
        assert lines[6:8] == ["labels 6", "1 1 1 2 2 2"]
        lines[6:8] = ["labels 5", "1 1 1 2 2"]
        path.write_text("\n".join(lines))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: Z has shape \\(4, 6\\)"):
            load_model(path)

    def test_trained_config_equals_loaded(self, tmp_path):
        """A model trained with the derived budget (``lambda_budget=None``)
        holds the same config as its saved and reloaded copy."""
        rng = Rng(8)
        data = make_dataset(rng.standard_normal((6, 8)), [1, 2] * 4)
        model = joint_train(data, Architecture((5, 4, 3)), TrainConfig(outer_iters=2))
        assert model.config.lambda_budget == SparsityBudget(1, 1)
        path = tmp_path / "m.rsddl"
        save_model(model, path)
        assert load_model(path).config == model.config


def _cell(row, value, at=0):
    cells = row.split()
    cells[at] = value
    return " ".join(cells)


class TestModelMatrixReader:
    """Matrix blocks of ``small_model``'s file: D1 (20 x 16) on lines 10-29,
    D2 (16 x 8) on 31-46, D3 on 48-55 and Z (4 x 6) on 57-60.  Every error
    names the line the per-row reader stops at."""

    @staticmethod
    def saved(tmp_path):
        path = tmp_path / "m.rsddl"
        save_model(small_model(), path)
        return path, path.read_text().split("\n")

    @pytest.mark.parametrize(
        "first, last, edit, message",
        [
            (10, 10, lambda r: _cell(r, "abc"), ":10: matrix D1 row 0: non-numeric value"),
            (34, 34, lambda r: _cell(r, "0x1", 5), ":34: matrix D2 row 3: non-numeric value"),
            (34, 34, lambda r: _cell(r, "inf", 2), ":46: matrix D2: non-finite entries"),
            (59, 59, lambda r: _cell(r, "nan"), ":60: matrix Z: non-finite entries"),
            (15, 15, lambda r: r.rsplit(" ", 1)[0], ":15: matrix D1 row 5: expected 16 values, got 15"),
            (10, 29, lambda r: r + " 0", ":10: matrix D1 row 0: expected 16 values, got 17"),
            (10, 29, lambda r: "", ":10: matrix D1 row 0: expected 16 values, got 0"),
            (10, 29, lambda r: " \t", ":10: matrix D1 row 0: expected 16 values, got 0"),
            (59, None, lambda r: None, ": truncated file"),
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
        lines[9] = _cell(lines[9], "1_0")
        lines[57] = _cell(lines[57], "-2_5e-1", 1)
        path.write_text("\n".join(lines))
        model = load_model(path)
        assert model.dictionaries[0][0, 0] == 10.0
        assert model.features[1, 1] == -2.5
