import dataclasses

import numpy as np
import pytest

from rsddl.cli import _effective_train_config, build_parser, main
from rsddl.dataio import (
    CONFIG_KEYS, SETTING_KEYS, HsiCube, load_labels, load_matrix_csv, load_model, save_cube, save_labels,
    save_matrix_csv,
)
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

    @pytest.mark.parametrize("key", ["outer_iters", "drop-rate"])
    def test_unknown_config_key_is_usage_error(self, data_files, capsys, key):
        tmp, _ = data_files
        cfgfile = tmp / "run.cfg"
        cfgfile.write_text(f"arch=8,6,4\n{key}=2\n")
        rc = run(["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt",
                  "--config", cfgfile, "--out", tmp / "u.rsddl"])
        assert rc == 2
        assert f"unknown config key(s): {key}" in capsys.readouterr().err
        assert not (tmp / "u.rsddl").exists()

    def test_echo_reads_back_every_float(self, data_files):
        tmp, _ = data_files
        given = {"mu": "1e-300", "eta1": "0.30000000000000004", "eta2": "0.7",
                 "gamma": "0.123456789", "drop_rate": "0.012345678901234567"}
        flags = [a for key, v in given.items() for a in (f"--{key.replace('_', '-')}", v)]
        assert run(["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt", "--arch", "8,6,4",
                    "--iters", "1", "--drop", "out", *flags, "--out", tmp / "e.rsddl"]) == 0
        echo = dict(kv.split("=", 1) for kv in (tmp / "e.rsddl.log").read_text().split("\n")[0].split()[1:])
        assert echo["gamma"] == "0.123456789"
        for key, value in given.items():
            assert float(echo[key]) == float(value)

    def test_model_config_tokens_equal_echo_tokens(self, data_files):
        """The echo's tokens are the model file's settings lines, as
        ``key=value``, and its config tokens, key for key, in both modes and
        for both activations."""
        tmp, _ = data_files
        for mode, activation in (("joint", "tanh"), ("greedy", "identity")):
            assert run(["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt", "--arch", "8,6,4",
                        "--mode", mode, "--activation", activation, "--iters", "1", "--gamma", "0.123456789",
                        "--mu", "1e-300", "--drop-rate", "0.3", "--out", tmp / "e.rsddl"]) == 0
            echo = (tmp / "e.rsddl.log").read_text().split("\n")[0].split()
            lines = (tmp / "e.rsddl").read_text().split("\n")
            assert echo[:4] == ["config:", f"mode={mode}", "arch=8,6,4", f"activation={activation}"]
            assert [line.replace(" ", "=", 1) for line in lines[1:4]] == echo[1:4]
            stored = lines[4].split()
            assert stored[0] == "config" and echo[4:] == stored[1:]
            assert "gamma=0.123456789" in stored

    def test_config_file_from_model_reproduces_echo(self, data_files):
        tmp, _ = data_files
        base = ["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt", "--arch", "8,6,4"]
        assert run(base + ["--iters", "1", "--gamma", "0.123456789", "--eta2", "0.7", "--seed", "9",
                           "--drop", "out", "--drop-rate", "0.012345678901234567", "--out", tmp / "a.rsddl"]) == 0
        tokens = (tmp / "a.rsddl").read_text().split("\n")[4].split()[1:]
        (tmp / "run.cfg").write_text("".join(token + "\n" for token in tokens))
        assert run(base + ["--config", tmp / "run.cfg", "--out", tmp / "b.rsddl"]) == 0
        assert (tmp / "b.rsddl.log").read_text().split("\n")[0] == (tmp / "a.rsddl.log").read_text().split("\n")[0]
        assert (tmp / "b.rsddl").read_bytes() == (tmp / "a.rsddl").read_bytes()

    def test_repeated_config_key_is_usage_error(self, data_files, capsys):
        tmp, _ = data_files
        (tmp / "run.cfg").write_text("arch=8,6,4\niters=2\n# the same key again\niters=3\n")
        rc = run(["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt",
                  "--config", tmp / "run.cfg", "--out", tmp / "r.rsddl"])
        assert rc == 2
        assert f"{tmp / 'run.cfg'}:4: repeated config key 'iters'" in capsys.readouterr().err
        assert not (tmp / "r.rsddl").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--mu", "nan", "mu must be finite, got nan"),
            ("--gamma", "inf", "gamma must be finite, got inf"),
            ("--eta1", "-inf", "eta1 must be finite, got -inf"),
            ("--eta2", "nan", "eta2 must be finite, got nan"),
            ("--seed", str(2**64), f"seed must be an integer in [0, 2**64), got {2**64}"),
            ("--iters", "2.5", "config key iters='2.5' is not valid"),
        ],
    )
    def test_value_it_cannot_honour_is_usage_error(self, data_files, capsys, flag, value, message):
        tmp, _ = data_files
        rc = run(["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt", "--arch", "8,6,4",
                  f"{flag}={value}", "--out", tmp / "v.rsddl"])
        assert rc == 2
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not (tmp / "v.rsddl").exists()

    @pytest.mark.parametrize(
        "line, message",
        [("mode=layerwise", "config key mode='layerwise' is not valid"),
         ("arch=5,0,3", "atom counts must be positive, got (5, 0, 3)"),
         ("arch=5,x,3", "config key arch='5,x,3' is not valid"),
         ("activation=relu", "config key activation='relu' is not valid")],
    )
    def test_bad_setting_is_usage_error(self, data_files, capsys, line, message):
        tmp, _ = data_files
        (tmp / "run.cfg").write_text(line + "\n")
        rc = run(["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt",
                  "--config", tmp / "run.cfg", "--out", tmp / "s.rsddl"])
        assert rc == 2
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not (tmp / "s.rsddl").exists()

    @pytest.mark.parametrize("key, value", [("mode", "layerwise"), ("activation", "relu"),
                                            ("drop", "sometimes"), ("iters", "2.5")])
    def test_flag_and_config_line_give_one_usage_error(self, data_files, capsys, key, value):
        tmp, _ = data_files
        (tmp / "run.cfg").write_text(f"{key}={value}\n")
        base = ["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt", "--arch", "8,6,4",
                "--out", tmp / "k.rsddl"]
        errors = []
        for given in ([f"--{key}", value], ["--config", tmp / "run.cfg"]):
            assert run(base + given) == 2
            errors.append(capsys.readouterr().err)
            assert not (tmp / "k.rsddl").exists()
        assert errors[0] == errors[1] == f"usage error: config key {key}={value!r} is not valid\n"

    def test_no_lambda_weight(self, data_files, capsys):
        tmp, _ = data_files
        rc = run(["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt", "--arch", "8,6,4",
                  "--lambda-weight", "0.1", "--out", tmp / "w.rsddl"])
        assert rc == 2
        assert "--lambda-weight" in capsys.readouterr().err
        (tmp / "run.cfg").write_text("lambda_weight=0.1\n")
        rc = run(["train", "--data", tmp / "data.csv", "--labels", tmp / "labels.txt", "--arch", "8,6,4",
                  "--config", tmp / "run.cfg", "--out", tmp / "w.rsddl"])
        assert rc == 2
        assert "unknown config key(s): lambda_weight" in capsys.readouterr().err

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
            "config: mode=joint arch=8,6,4 activation=tanh lambda_s=1 row_s=1 "
            "mu=0.5 eta1=1.0 eta2=1.0 gamma=0.1 drop=connect drop_rate=0.1 iters=15 inner_iters=5 "
            "test_iters=10 seed=0"
        )
        defaults = TrainConfig()
        assert load_model(tmp / "m.rsddl").config == resolve_budget(defaults, Architecture((8, 6, 4)))

    @pytest.mark.parametrize("deepest", [2, 4, 5, 6, 12, 23])
    def test_one_budget_flag_keeps_the_other_default(self, deepest):
        arch = Architecture((8, 6, deepest))
        default = resolve_budget(TrainConfig(), arch)
        for flag, given, other in (("--lambda-s", "per_column_s", "row_s"), ("--row-s", "row_s", "per_column_s")):
            args = build_parser().parse_args(["train", "--data", "d.csv", "--labels", "l.txt", "--out", "m",
                                              "--arch", f"8,6,{deepest}", flag, "2"])
            _, _, cfg = _effective_train_config(args)
            assert getattr(cfg, given) == 2
            assert getattr(cfg, other) == getattr(default, other)

    def test_missing_required_flag(self):
        assert run(["train", "--data", "whatever.csv"]) == 2

    def test_missing_data_file_is_runtime_error(self, tmp_path):
        rc = run(
            ["train", "--data", tmp_path / "missing.csv", "--labels", tmp_path / "missing.txt",
             "--out", tmp_path / "m.rsddl"]
        )
        assert rc == 1


class TestKeyFlags:
    """A flag per key of a command's tables, none of them a fixed flag."""

    FIXED = {"--data", "--labels", "--out", "--log", "--config", "--cube"}

    @pytest.mark.parametrize("command, keys, fixed", [
        ("train", [key for key, _, _ in SETTING_KEYS + CONFIG_KEYS],
         ["--data", "d.csv", "--labels", "l.txt", "--out", "m"]),
        ("features", ["window", "dims"], ["--cube", "c.hsi", "--labels", "c.gt", "--out", "f"]),
    ], ids=["train", "features"])
    def test_every_key_has_a_flag(self, command, keys, fixed):
        for key in keys:
            flag = "--" + key.replace("_", "-")
            assert flag not in self.FIXED
            # any text is taken: the key's parse checks it, as for a config line
            args = build_parser().parse_args([command, *fixed, flag, "any text"])
            assert getattr(args, key) == "any text"
            assert all(getattr(args, other) is None for other in keys if other != key)


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

    def test_flag_beats_file_beats_default(self, cube_files, capsys):
        tmp = cube_files
        (tmp / "f.cfg").write_text("window=3\ndims=5\n")
        rc = run(["features", "--cube", tmp / "c.hsi", "--labels", tmp / "c.gt",
                  "--config", tmp / "f.cfg", "--dims", "4", "--out", tmp / "feat"])
        assert rc == 0
        assert "config: window=3 dims=4" in capsys.readouterr().err
        assert load_matrix_csv(tmp / "feat.csv").shape == (4, 36)

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--window", "x", "config key window='x' is not valid"),
         ("--window", "2.5", "config key window='2.5' is not valid"),
         ("--dims", "0", "dims must be >= 1, got 0")],
    )
    def test_bad_value_is_usage_error(self, cube_files, capsys, flag, value, message):
        tmp = cube_files
        rc = run(["features", "--cube", tmp / "c.hsi", "--labels", tmp / "c.gt", flag, value, "--out", tmp / "feat"])
        assert rc == 2
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not list(tmp.glob("feat*"))

    def test_missing_cube_flag_is_usage_error(self):
        assert run(["features", "--labels", "x", "--out", "y"]) == 2

    def test_unknown_config_key_is_usage_error(self, cube_files, capsys):
        tmp = cube_files
        (tmp / "f.cfg").write_text("dims=5\nwindow_size=3\n")
        rc = run(["features", "--cube", tmp / "c.hsi", "--labels", tmp / "c.gt",
                  "--config", tmp / "f.cfg", "--out", tmp / "feat"])
        assert rc == 2
        assert "unknown config key(s): window_size" in capsys.readouterr().err
        assert not list(tmp.glob("feat*"))


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert run([]) == 2

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0
