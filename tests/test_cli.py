import dataclasses

import numpy as np
import pytest

from rsddl.cli import _effective_train_config, build_parser, main
from rsddl.dataio import HsiCube, load_labels, load_matrix_csv, load_model, save_cube, save_labels, save_matrix_csv
from rsddl.greedy import Architecture
from rsddl.joint import TrainConfig, resolve_budget
from rsddl.numerics import Rng
from util import class_distances_reference, greedy_encode, two_class_deep_factor_data, two_class_mixture_data


@pytest.fixture()
def data_files(tmp_path):
    ds = two_class_deep_factor_data(ncols=20)
    save_matrix_csv(ds.x, tmp_path / "data.csv")
    save_labels(ds.labels, tmp_path / "labels.txt")
    return tmp_path, ds


def run(args):
    return main([str(a) for a in args])


class TestTrain:
    def test_greedy_mode_writes_model(self, data_files):
        tmp, _ = data_files
        rc = run(
            ["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt",
             "--arch", "8,6,4", "--mode", "greedy", "--iters", "4", "--seed", "3",
             "--out", tmp / "g.rsddl"]
        )
        assert rc == 0
        model = load_model(tmp / "g.rsddl")
        assert len(model.dictionaries) == 3
        assert (tmp / "g.rsddl.log").exists()
        assert "greedy_recon=" in (tmp / "g.rsddl.log").read_text()

    def test_joint_deterministic_byte_identical(self, data_files):
        tmp, _ = data_files
        base = ["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt",
                "--arch", "8,6,4", "--mode", "joint", "--drop", "none",
                "--iters", "4", "--seed", "7"]
        assert run(base + ["--out", tmp / "a.rsddl"]) == 0
        assert run(base + ["--out", tmp / "b.rsddl"]) == 0
        assert (tmp / "a.rsddl").read_bytes() == (tmp / "b.rsddl").read_bytes()

    def test_dropout_run_marks_final_iteration(self, data_files):
        tmp, _ = data_files
        rc = run(
            ["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt",
             "--arch", "8,6,4", "--drop", "out", "--drop-rate", "0.5",
             "--iters", "4", "--seed", "1", "--out", tmp / "d.rsddl"]
        )
        assert rc == 0
        log = (tmp / "d.rsddl.log").read_text()
        assert "final_iteration_unperturbed=1" in log

    def test_config_file_precedence(self, data_files):
        tmp, _ = data_files
        cfgfile = tmp / "run.cfg"
        cfgfile.write_text("arch=8,6,4\nmode=joint\ndrop=none\niters=3\nmu=0.9\nseed=5\n")
        rc = run(
            ["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt",
             "--config", cfgfile, "--mu", "0.2", "--out", tmp / "c.rsddl"]
        )
        assert rc == 0
        model = load_model(tmp / "c.rsddl")
        assert model.config.mu == 0.2  # flag beats file
        assert model.config.outer_iters == 3  # file beats default
        assert model.config.seed == 5

    def test_bad_drop_rate_is_usage_error(self, data_files):
        tmp, _ = data_files
        rc = run(
            ["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt",
             "--drop-rate", "1.5", "--out", tmp / "x.rsddl"]
        )
        assert rc == 2
        assert not (tmp / "x.rsddl").exists()

    def test_defaults_are_train_config_defaults(self, data_files):
        tmp, _ = data_files
        assert run(["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt",
                    "--arch", "8,6,4", "--out", tmp / "m.rsddl"]) == 0
        assert (tmp / "m.rsddl.log").read_text().split("\n")[0] == (
            "config: mode=joint arch=8,6,4 activation=tanh lambda_s=1 row_s=1 lambda_weight=0.1 "
            "mu=0.5 eta1=1 eta2=1 gamma=0.1 drop=connect drop_rate=0.1 iters=15 inner_iters=5 "
            "test_iters=10 seed=0"
        )
        defaults = TrainConfig()
        budget = resolve_budget(defaults, Architecture((8, 6, 4)))
        assert load_model(tmp / "m.rsddl").config == dataclasses.replace(defaults, lambda_budget=budget)

    @pytest.mark.parametrize("deepest", [2, 4, 5, 6, 12, 23])
    def test_one_budget_flag_keeps_the_other_default(self, deepest):
        arch = Architecture((8, 6, deepest))
        default = resolve_budget(TrainConfig(), arch)
        for flag, given, other in (("--lambda-s", "per_column_s", "row_s"), ("--row-s", "row_s", "per_column_s")):
            args = build_parser().parse_args(["train", "--data", "d.csv", "--labels", "l.txt", "--out", "m",
                                              "--arch", f"8,6,{deepest}", flag, "2"])
            _, _, cfg = _effective_train_config(args)
            assert getattr(cfg.lambda_budget, given) == 2
            assert getattr(cfg.lambda_budget, other) == getattr(default, other)

    def test_missing_required_flag(self):
        assert run(["train", "--data", "whatever.csv"]) == 2

    def test_missing_data_file_is_runtime_error(self, tmp_path):
        rc = run(
            ["train", "--data", tmp_path / "missing.csv", "--labels", tmp_path / "missing.txt",
             "--out", tmp_path / "m.rsddl"]
        )
        assert rc == 1


class TestClassify:
    @pytest.fixture()
    def trained(self, tmp_path):
        train, xte, yte = two_class_mixture_data(n_train=40, n_test=20)
        save_matrix_csv(train.x, tmp_path / "train.csv")
        save_labels(train.labels, tmp_path / "train.labels")
        save_matrix_csv(xte, tmp_path / "test.csv")
        save_labels(yte, tmp_path / "test.labels")
        rc = run(
            ["train", "--data", tmp_path / "train.csv", "--labels", tmp_path / "train.labels",
             "--arch", "6,4,2", "--activation", "identity", "--drop", "none",
             "--iters", "8", "--seed", "7", "--out", tmp_path / "m.rsddl"]
        )
        assert rc == 0
        return tmp_path

    def test_two_layer_greedy_model_uses_greedy_encoder(self, data_files):
        tmp, ds = data_files
        rc = run(
            ["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt",
             "--arch", "8,4", "--mode", "greedy", "--iters", "4", "--seed", "3",
             "--out", tmp / "g.rsddl"]
        )
        assert rc == 0
        model = load_model(tmp / "g.rsddl")
        assert model.mode == "greedy" and len(model.dictionaries) == 2
        s = resolve_budget(model.config, model.architecture).per_column_s
        for rule in ("l0", "l1"):
            out = tmp / f"g_{rule}.tsv"
            assert run(["classify", "--model", tmp / "g.rsddl", "--data", tmp / "data.csv",
                        "--rule", rule, "--out", out]) == 0
            got = [int(line.split("\t")[1]) for line in out.read_text().splitlines()]
            want = []
            for j in range(ds.x.shape[1]):
                ref = class_distances_reference(model, greedy_encode(model, ds.x[:, j], s), rule)
                want.append(min(ref, key=lambda item: item[1])[0])
            assert got == want

    def test_both_rules_same_row_count(self, trained):
        tmp = trained
        for rule in ("l0", "l1"):
            rc = run(
                ["classify", "--model", tmp / "m.rsddl", "--data", tmp / "test.csv",
                 "--rule", rule, "--out", tmp / f"pred_{rule}.tsv"]
            )
            assert rc == 0
        a = (tmp / "pred_l0.tsv").read_text().strip().split("\n")
        b = (tmp / "pred_l1.tsv").read_text().strip().split("\n")
        assert len(a) == len(b) == 40

    def test_training_set_beats_permuted_control(self, trained):
        tmp = trained
        rc = run(
            ["classify", "--model", tmp / "m.rsddl", "--data", tmp / "train.csv",
             "--rule", "l0", "--out", tmp / "pred_train.tsv"]
        )
        assert rc == 0
        preds = np.array(
            [int(line.split("\t")[1]) for line in (tmp / "pred_train.tsv").read_text().strip().split("\n")]
        )
        truth = load_labels(tmp / "train.labels")
        acc = np.mean(preds == truth)
        perm = Rng(123).permutation(truth.size)
        control = np.mean(preds == truth[perm])
        assert acc >= control

    def test_unknown_rule_is_usage_error(self, trained):
        tmp = trained
        rc = run(
            ["classify", "--model", tmp / "m.rsddl", "--data", tmp / "test.csv",
             "--rule", "l2", "--out", tmp / "p.tsv"]
        )
        assert rc == 2

    def test_dimension_mismatch_is_runtime_error(self, trained, tmp_path):
        tmp = trained
        save_matrix_csv(np.ones((3, 4)), tmp_path / "bad.csv")
        rc = run(
            ["classify", "--model", tmp / "m.rsddl", "--data", tmp_path / "bad.csv",
             "--rule", "l0", "--out", tmp_path / "p.tsv"]
        )
        assert rc == 1


class TestEval:
    def test_hand_confusion_metrics(self, tmp_path, capsys):
        truth = [1] * 50 + [2] * 50
        pred = [1] * 45 + [2] * 5 + [1] * 15 + [2] * 35
        save_labels(truth, tmp_path / "truth.txt")
        save_labels(pred, tmp_path / "pred.txt")
        rc = run(["eval", "--pred", tmp_path / "pred.txt", "--truth", tmp_path / "truth.txt"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OA 0.8000" in out
        assert "AA 0.8000" in out
        assert "Kappa 0.6000" in out

    def test_perfect_predictions(self, tmp_path, capsys):
        save_labels([1, 2, 1], tmp_path / "truth.txt")
        save_labels([1, 2, 1], tmp_path / "pred.txt")
        rc = run(["eval", "--pred", tmp_path / "pred.txt", "--truth", tmp_path / "truth.txt"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OA 1.0000" in out and "AA 1.0000" in out and "Kappa 1.0000" in out

    def test_identical_pred_b_not_significant(self, tmp_path, capsys):
        save_labels([1, 2, 1, 2], tmp_path / "truth.txt")
        save_labels([1, 2, 2, 2], tmp_path / "pred.txt")
        rc = run(
            ["eval", "--pred", tmp_path / "pred.txt", "--truth", tmp_path / "truth.txt",
             "--pred-b", tmp_path / "pred.txt"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "McNemar z 0.00 (not significant)" in out

    def test_reads_prediction_file_format(self, tmp_path, capsys):
        save_labels([1, 2], tmp_path / "truth.txt")
        (tmp_path / "pred.tsv").write_text("0\t1\tl0\t0.5\n1\t2\tl0\t1.5\n")
        rc = run(["eval", "--pred", tmp_path / "pred.tsv", "--truth", tmp_path / "truth.txt"])
        assert rc == 0
        assert "OA 1.0000" in capsys.readouterr().out

    def test_length_mismatch_is_runtime_error(self, tmp_path):
        save_labels([1, 2, 1], tmp_path / "truth.txt")
        save_labels([1, 2], tmp_path / "pred.txt")
        assert run(["eval", "--pred", tmp_path / "pred.txt", "--truth", tmp_path / "truth.txt"]) == 1


class TestFeatures:
    @pytest.fixture()
    def cube_files(self, tmp_path):
        rng = Rng(19)
        values = rng.standard_normal((6, 6, 5))
        gt = np.zeros((6, 6), dtype=np.int64)
        gt[:3, :] = 1
        gt[3:, :] = 2
        save_cube(HsiCube(values, gt), tmp_path / "c.hsi", tmp_path / "c.gt")
        return tmp_path

    def test_defaults_write_feature_files(self, cube_files):
        tmp = cube_files
        rc = run(
            ["features", "--cube", tmp / "c.hsi", "--labels", tmp / "c.gt",
             "--dims", "6", "--out", tmp / "feat"]
        )
        assert rc == 0
        x = load_matrix_csv(tmp / "feat.csv")
        labels = load_labels(tmp / "feat.labels")
        assert x.shape == (6, 36)  # d rows per sample column
        assert labels.size == 36
        assert sorted(p.name for p in tmp.glob("feat*")) == ["feat.csv", "feat.labels"]

    def test_window_one_spectral(self, cube_files):
        tmp = cube_files
        rc = run(
            ["features", "--cube", tmp / "c.hsi", "--labels", tmp / "c.gt",
             "--window", "1", "--dims", "5", "--out", tmp / "spec"]
        )
        assert rc == 0
        assert load_matrix_csv(tmp / "spec.csv").shape == (5, 36)

    def test_missing_cube_flag_is_usage_error(self):
        assert run(["features", "--labels", "x", "--out", "y"]) == 2


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0
