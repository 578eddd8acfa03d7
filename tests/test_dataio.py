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
    load_pca,
    make_dataset,
    save_cube,
    save_labels,
    save_matrix_csv,
    save_model,
    save_pca,
    split_per_class,
)
from rsddl.greedy import Architecture
from rsddl.joint import DropMode, TrainConfig, build_model
from rsddl.numerics import Activation, ActivationKind, NumericsWarning, Rng
from rsddl.sparse import SparsityBudget


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

    def test_window_larger_than_image(self):
        cube = HsiCube(np.zeros((3, 3, 2)), np.ones((3, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            extract_spatial_spectral(cube, window=4, d=2)


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
    return build_model([d1, d2, d3], arch, features, [1, 1, 1, 2, 2, 2], 2, cfg)


def version_1_text(model, conventional_bregman=0):
    """The model in the version 1 layout: no mode line, the
    conventional_bregman config token, and the per-class mean and support
    matrices after Z."""
    def matrix(name, m, fmt="%.17g"):
        return [f"matrix {name} {m.shape[0]} {m.shape[1]}"] + [" ".join(fmt % v for v in row) for row in m]

    cfg, arch = model.config, model.architecture
    budget = cfg.lambda_budget
    classes = range(1, model.num_classes + 1)
    means = np.stack([model.features[:, model.labels == c].mean(axis=1) for c in classes], axis=1)
    supports = np.stack([np.linalg.norm(model.features[:, model.labels == c], axis=1) > 1e-8 for c in classes])
    lines = [
        "RSDDL1 1",
        "arch " + ",".join(str(a) for a in arch.atoms_per_layer),
        "activation %s %.17g" % (arch.activation.kind.value, arch.activation.clamp_eps),
        "config lambda_weight=%.17g mu=%.17g eta1=%.17g eta2=%.17g gamma=%.17g per_column_s=%d row_s=%d "
        "outer_iters=%d inner_iters=%d test_iters=%d drop_mode=%s drop_rate=%.17g seed=%d conventional_bregman=%d"
        % (cfg.lambda_weight, cfg.mu, cfg.eta1, cfg.eta2, cfg.gamma, budget.per_column_s, budget.row_s,
           cfg.outer_iters, cfg.inner_iters, cfg.test_iters, cfg.drop_mode.value, cfg.drop_rate, cfg.seed,
           conventional_bregman),
        f"classes {model.num_classes}",
        f"labels {model.labels.size}",
        " ".join(str(v) for v in model.labels),
    ]
    for i, d in enumerate(model.dictionaries, 1):
        lines += matrix(f"D{i}", d)
    lines += matrix("Z", model.features) + matrix("class_means", means)
    lines += matrix("class_supports", supports.astype(np.uint8), fmt="%d") + ["end"]
    return "\n".join(lines) + "\n"


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

    def test_bad_magic(self, tmp_path):
        (tmp_path / "m.rsddl").write_text("WRONG 1\n")
        with pytest.raises(DataFormatError, match="magic"):
            load_model(tmp_path / "m.rsddl")

    def test_shape_chain_violation(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.rsddl"
        save_model(model, path)
        text = path.read_text().replace("matrix D2 16 8", "matrix D2 16 9", 1)
        (tmp_path / "bad.rsddl").write_text(text)
        with pytest.raises(DataFormatError):
            load_model(tmp_path / "bad.rsddl")

    def test_greedy_mode_round_trip(self, tmp_path):
        model = small_model()
        model.mode = "greedy"
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

    def test_version_1_loads_as_joint(self, tmp_path):
        model = small_model()
        v1 = tmp_path / "v1.rsddl"
        v1.write_text(version_1_text(model))
        loaded = load_model(v1)
        assert loaded.mode == "joint"
        for a, b in zip(model.dictionaries, loaded.dictionaries):
            assert np.array_equal(a, b)
        assert np.array_equal(model.features, loaded.features)
        assert np.array_equal(model.labels, loaded.labels)
        assert loaded.config == model.config
        assert loaded.architecture == model.architecture
        save_model(loaded, tmp_path / "v2.rsddl")
        save_model(model, tmp_path / "direct.rsddl")
        assert (tmp_path / "v2.rsddl").read_bytes() == (tmp_path / "direct.rsddl").read_bytes()
        assert (tmp_path / "v2.rsddl").read_text().startswith("RSDDL2 2\n")

    def test_version_1_additive_rule_rejected(self, tmp_path):
        path = tmp_path / "v1.rsddl"
        path.write_text(version_1_text(small_model(), conventional_bregman=1))
        with pytest.raises(DataFormatError, match="relaxation rule B <- B - residual was removed"):
            load_model(path)

    def test_trailing_garbage(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.rsddl"
        save_model(model, path)
        path.write_text(path.read_text() + "extra\n")
        with pytest.raises(DataFormatError, match="trailing"):
            load_model(path)


class TestPcaPersistence:
    def test_round_trip(self, tmp_path):
        rng = Rng(13)
        from rsddl.dataio import PcaProjection

        proj = PcaProjection(mean=rng.standard_normal((6, 1)), basis=rng.standard_normal((6, 3)))
        save_pca(proj, tmp_path / "p.pca")
        loaded = load_pca(tmp_path / "p.pca")
        assert np.array_equal(proj.mean, loaded.mean)
        assert np.array_equal(proj.basis, loaded.basis)
