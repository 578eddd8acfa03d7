import dataclasses
import io
import math
import re

import numpy as np
import pytest

from rsddl import joint, numerics
from rsddl.dataio import make_dataset
from rsddl.greedy import Architecture, compose_reconstruction
from rsddl.joint import (
    DropMode,
    Model,
    TrainConfig,
    TrainingDivergedError,
    _class_layout,
    apply_dropconnect,
    apply_dropout,
    bregman_update,
    class_mean_matrix,
    joint_train,
    objective_value,
    resolve_budget,
    solve_P1,
    solve_P2,
    solve_P3,
    solve_P4,
    solve_P5,
    solve_P6,
)
from rsddl.numerics import DEAD_ATOM_TOL, Activation, Rng, normalize_columns, pinv
from rsddl.sparse import pursuit
import util
from util import (
    DEEP_ARCH,
    bregman_update_reference,
    column_layout,
    many_class_mixture,
    objective_value_reference,
    solve_P6_reference,
    support_sizes_reference,
    two_class_deep_factor_data,
)


IDENTITY = Activation.IDENTITY
TANH = Activation.TANH


def fd_gradient(cost, point, h=1e-6):
    """Central-difference gradient of a matrix -> scalar cost."""
    grad = np.zeros_like(point)
    it = np.nditer(point, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = point.copy()
        minus = point.copy()
        plus[idx] += h
        minus[idx] -= h
        grad[idx] = (cost(plus) - cost(minus)) / (2.0 * h)
        it.iternext()
    return grad


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.eta1 == 1.0 and cfg.eta2 == 1.0
        assert cfg.gamma == 0.1
        assert cfg.mu == 0.5
        assert cfg.drop_mode is DropMode.DROPCONNECT
        assert cfg.drop_rate == 0.10

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(mu=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(gamma=0.0)
        with pytest.raises(ValueError):
            TrainConfig(eta1=0.0)
        with pytest.raises(ValueError):
            TrainConfig(drop_rate=1.0)
        with pytest.raises(ValueError):
            TrainConfig(outer_iters=0)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(mu=math.nan), "mu must be finite"),
            (dict(mu=math.inf), "mu must be finite"),
            (dict(eta1=math.inf), "eta1 must be finite"),
            (dict(eta2=math.nan), "eta2 must be finite"),
            (dict(gamma=math.inf), "gamma must be finite"),
            (dict(drop_rate=math.nan), "drop_rate must be in"),
            (dict(seed=2**64), "seed must be an integer in"),
            (dict(seed=-1), "seed must be an integer in"),
        ],
        ids=["mu nan", "mu inf", "eta1 inf", "eta2 nan", "gamma inf", "drop_rate nan", "seed 2**64", "seed -1"],
    )
    def test_rejects_what_it_cannot_honour(self, change, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**change)

    @pytest.mark.parametrize(
        "name, value",
        [("seed", 1.5), ("seed", 2.0), ("outer_iters", 2.5), ("inner_iters", 3.0), ("test_iters", "4"),
         ("per_column_s", 1.5), ("row_s", 2.0), ("outer_iters", None)],
    )
    def test_rejects_counts_that_are_not_integers(self, name, value):
        """A count, budget or seed that is not an integer is rejected, never
        truncated: a float seed would train the truncated seed's model while
        the config held the float."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            TrainConfig(**{name: value})

    def test_numpy_integers_are_integers(self):
        cfg = TrainConfig(seed=np.uint64(2**64 - 1), outer_iters=np.int32(2), per_column_s=np.int64(1))
        assert cfg.seed == 2**64 - 1 and cfg.outer_iters == 2 and cfg.per_column_s == 1

    def test_budget_default_is_fifth_of_deepest(self):
        arch = Architecture((100, 50, 25))
        budget = resolve_budget(TrainConfig(), arch)
        assert budget.per_column_s == math.ceil(0.2 * 25) == 5
        assert budget.row_s == 5

    def test_explicit_budget_validated(self):
        cfg = TrainConfig(per_column_s=5, row_s=5)
        with pytest.raises(ValueError):
            resolve_budget(cfg, Architecture((8, 6, 4)))


def valid_model_args():
    """Keyword arguments of a valid 3-layer joint model: arch (4, 3, 2) on
    5-dim inputs and three stored codes of classes 1, 2, 2."""
    rng = Rng(3)
    return dict(
        dictionaries=[rng.standard_normal((5, 4)), rng.standard_normal((4, 3)), rng.standard_normal((3, 2))],
        architecture=Architecture((4, 3, 2)),
        features=rng.standard_normal((2, 3)),
        labels=[1, 2, 2],
        config=TrainConfig(seed=0),
    )


class TestModel:
    def test_normalizes_inputs(self):
        args = valid_model_args()
        args["features"] = args["features"].astype(np.float32)
        args["labels"] = np.array([1.0, 2.0, 2.0])  # whole-valued float class ids load
        model = Model(**args)
        assert isinstance(model.dictionaries, tuple)
        assert all(d.dtype == np.float64 and not d.flags.writeable for d in model.dictionaries)
        assert model.features.dtype == np.float64 and not model.features.flags.writeable
        assert model.labels.dtype == np.int64 and model.labels.tolist() == [1, 2, 2]
        assert model.dictionaries[0] is not args["dictionaries"][0]
        assert model.config == dataclasses.replace(args["config"], per_column_s=1, row_s=1)
        assert model.num_classes == 2

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(mode="layerwise"), "mode must be one of"),
            (dict(architecture=Architecture((4, 2))), "joint model needs exactly 3 layers"),
            (dict(mode="greedy", architecture=Architecture((4, 3, 2, 2))), "3 dictionaries for 4 layers"),
            (dict(architecture=Architecture((4, 3, 3))), "D3 has shape \\(3, 2\\), arch says 3 atoms"),
            (dict(architecture=Architecture((5, 3, 2))), "D1 has shape \\(5, 4\\), arch says 5 atoms"),
            (dict(dictionaries=[np.ones((5, 4)), np.ones((5, 3)), np.ones((3, 2))]), "D2 has 5 rows"),
            (dict(features=np.ones((3, 3))), "Z has shape \\(3, 3\\), not .* \\(2, 3\\)"),
            (dict(labels=[1, 2]), "Z has shape \\(2, 3\\), not .* \\(2, 2\\)"),
            (dict(labels=[1, 3, 3]), "class 2 of 1..3 has no stored code"),
            (dict(labels=[0, 1, 2]), "class ids starting at 1"),
            (dict(labels=[1, 2.5, 2]), "class ids must be whole numbers"),
            (dict(config=TrainConfig(per_column_s=3, row_s=1)), "per_column_s=3 exceeds atom count 2"),
            (dict(config=TrainConfig(per_column_s=1, row_s=3)), "row_s=3 exceeds atom count 2"),
        ],
        ids=["mode", "joint-depth", "dictionary-count", "atoms", "first-atoms", "chain", "z-rows",
             "z-columns", "missing-class", "class-zero", "fractional-class", "column-budget", "row-budget"],
    )
    def test_rejects(self, change, message):
        with pytest.raises(ValueError, match=message):
            Model(**{**valid_model_args(), **change})

    def test_greedy_model_of_any_depth(self):
        args = valid_model_args()
        model = Model(**{**args, "dictionaries": args["dictionaries"][:2], "architecture": Architecture((4, 3)),
                         "features": np.ones((3, 3)), "mode": "greedy"})
        assert model.architecture.depth == 2

    def test_frozen(self):
        model = Model(**valid_model_args())
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.mode = "greedy"
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.labels = np.array([1, 1, 2])

    def test_trained_model_holds_resolved_budget(self, deep_factor_model):
        _, model = deep_factor_model
        want = resolve_budget(TrainConfig(), model.architecture)
        assert (model.config.per_column_s, model.config.row_s) == (want.per_column_s, want.row_s)


class TestSolveP1:
    def test_identity_codes(self):
        rng = Rng(1)
        x = rng.standard_normal((6, 4))
        d1, z1 = solve_P1(x, np.eye(4))
        dn, scales = normalize_columns(x)
        assert np.allclose(d1, dn)
        assert np.allclose(z1, np.diag(scales))

    def test_planted_recovery(self):
        rng = Rng(2)
        d0, _ = normalize_columns(rng.standard_normal((8, 5)))
        z0 = rng.standard_normal((5, 12))
        x = d0 @ z0
        d1, z1 = solve_P1(x, z0)
        assert np.linalg.norm(x - d1 @ z1) < 1e-8
        # recovered up to column scaling (columns here already unit)
        assert np.allclose(np.abs(np.sum(d1 * d0, axis=0)), 1.0, atol=1e-8)

    def test_rank_deficient_matches_projector(self):
        rng = Rng(3)
        x = rng.standard_normal((6, 10))
        z1 = rng.standard_normal((4, 10))
        z1[3] = z1[0] + z1[1]  # rank 3
        d1, z1s = solve_P1(x, z1)
        assert np.all(np.isfinite(d1))
        # the residual equals the projection residual of X onto the row space
        proj = x @ (pinv(z1) @ z1)
        assert np.allclose(np.linalg.norm(x - d1 @ z1s), np.linalg.norm(x - proj), atol=1e-8)


@pytest.mark.filterwarnings("error")
class TestFitDictionary:
    """P1-P3 fit through ``rsddl.numerics.lstsq``: the normal equations of the
    nonzero code rows when every eigenvalue of their Gram exceeds 1e-8 of its
    trace, and ``target pinv(codes)`` otherwise."""

    @staticmethod
    def counted_pinv(monkeypatch) -> list:
        """The codes of each ``pinv`` call made through ``rsddl.numerics``,
        where every least-squares fit of the warm start and P1-P3 takes it."""
        calls = []

        def counted(a):
            calls.append(a)
            return pinv(a)

        monkeypatch.setattr(numerics, "pinv", counted)
        return calls

    def test_training_fits_match_the_pinv_oracle(self, monkeypatch):
        train, _ = many_class_mixture()
        fit, seen = joint._fit_dictionary, []

        def captured(target, codes, prev):
            got = fit(target, codes, prev)
            seen.append((target.copy(), codes.copy(), prev.copy(), got))
            return got

        pinv_calls = self.counted_pinv(monkeypatch)
        monkeypatch.setattr(joint, "_fit_dictionary", captured)
        joint_train(train, Architecture((42, 30, 21)), TrainConfig(drop_mode=DropMode.NONE, outer_iters=10, seed=7))
        assert len(seen) == 30 and pinv_calls == []  # nor did any of the warm start's fits
        for target, codes, prev, (d, scales) in seen:
            d_ref, scales_ref = util.fit_dictionary_reference(target, codes, prev)
            np.testing.assert_allclose(d, d_ref, rtol=0, atol=1e-10)
            np.testing.assert_allclose(scales, scales_ref, rtol=1e-10, atol=0)
            # with nothing to restore them from, both fits leave the same columns dead
            dead = np.linalg.norm(fit(target, codes, None)[0], axis=0) <= DEAD_ATOM_TOL
            dead_ref = np.linalg.norm(util.fit_dictionary_reference(target, codes, None)[0], axis=0)
            assert np.array_equal(dead, dead_ref <= DEAD_ATOM_TOL)

    def test_dependent_rows_take_pinv_bit_for_bit(self, monkeypatch):
        rng = Rng(3)
        target = rng.standard_normal((6, 10))
        codes = rng.standard_normal((4, 10))
        codes[3] = codes[0] + codes[1]  # rank 3
        pinv_calls = self.counted_pinv(monkeypatch)
        d, scales = joint._fit_dictionary(target, codes, None)
        d_ref, scales_ref = util.fit_dictionary_reference(target, codes, None)
        assert len(pinv_calls) == 1
        assert np.array_equal(d, d_ref) and np.array_equal(scales, scales_ref)

    @pytest.mark.parametrize("cond, pinv_calls", [(1e3, 0), (1e6, 1)])
    def test_gate_on_the_condition_number(self, monkeypatch, cond, pinv_calls):
        rng = Rng(8)
        left, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        right, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        codes = (left * np.geomspace(1.0, 1.0 / cond, 4)) @ right.T  # full rank, cond(codes) = cond
        target = rng.standard_normal((6, 12))
        assert np.linalg.matrix_rank(codes) == 4 and np.linalg.cond(codes) == pytest.approx(cond, rel=1e-6)
        calls = self.counted_pinv(monkeypatch)
        d, scales = joint._fit_dictionary(target, codes, None)
        d_ref, scales_ref = util.fit_dictionary_reference(target, codes, None)
        assert len(calls) == pinv_calls
        if pinv_calls:
            assert np.array_equal(d, d_ref) and np.array_equal(scales, scales_ref)
        else:
            np.testing.assert_allclose(d, d_ref, rtol=0, atol=1e-10)

    def test_zero_rows_stay_on_the_normal_equations(self, monkeypatch):
        rng = Rng(9)
        target = rng.standard_normal((6, 12))
        codes = rng.standard_normal((5, 12))
        codes[[1, 3]] = 0.0
        prev, _ = normalize_columns(rng.standard_normal((6, 5)))
        pinv_calls = self.counted_pinv(monkeypatch)
        d, scales = joint._fit_dictionary(target, codes, prev)
        assert pinv_calls == []
        assert np.array_equal(d[:, [1, 3]], prev[:, [1, 3]]) and scales[[1, 3]].tolist() == [1.0, 1.0]
        d_ref, scales_ref = util.fit_dictionary_reference(target, codes, prev)
        np.testing.assert_allclose(d, d_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scales, scales_ref, rtol=1e-12, atol=0)


class TestSolveP2P3:
    def test_identity_codes_recover_target(self):
        rng = Rng(4)
        z1 = rng.standard_normal((5, 4))
        d2 = solve_P2(z1, np.zeros_like(z1), np.eye(4), IDENTITY)
        dn, _ = normalize_columns(z1)
        assert np.allclose(d2, dn)

    def test_least_squares_local_optimality(self):
        # the fit underlying solve_P2 (before column renormalization) is the
        # least-squares optimum: no perturbed dictionary beats its residual
        rng = Rng(5)
        z1 = rng.standard_normal((6, 10)) * 0.4
        b1 = rng.standard_normal((6, 10)) * 0.05
        z2 = rng.standard_normal((4, 10))
        target = TANH.inverse(z1 - b1)
        fit = target @ pinv(z2)
        base = np.linalg.norm(target - fit @ z2)
        for k in range(20):
            delta = 1e-3 * Rng(k).standard_normal(fit.shape)
            assert base <= np.linalg.norm(target - (fit + delta) @ z2) + 1e-12

    def test_normalized_dictionary_spans_the_fit(self):
        rng = Rng(15)
        z1 = rng.standard_normal((6, 10)) * 0.4
        b1 = rng.standard_normal((6, 10)) * 0.05
        z2 = rng.standard_normal((4, 10))
        d2 = solve_P2(z1, b1, z2, TANH)
        fit = TANH.inverse(z1 - b1) @ pinv(z2)
        # unit columns, same column directions as the raw least-squares fit
        assert np.allclose(np.linalg.norm(d2, axis=0), 1.0, atol=1e-12)
        fn, _ = normalize_columns(fit)
        assert np.allclose(d2, fn, atol=1e-12)

    def test_shapes(self):
        rng = Rng(6)
        d2 = solve_P2(rng.standard_normal((5, 9)), np.zeros((5, 9)), rng.standard_normal((3, 9)), TANH)
        assert d2.shape == (5, 3)
        d3 = solve_P3(rng.standard_normal((3, 9)), np.zeros((3, 9)), rng.standard_normal((2, 9)), TANH)
        assert d3.shape == (3, 2)


class TestSolveP4:
    def test_identity_average(self):
        rng = Rng(7)
        d2 = rng.standard_normal((4, 3))
        z2 = rng.standard_normal((3, 6))
        x = rng.standard_normal((4, 6))
        z1 = solve_P4(x, np.eye(4), d2, z2, np.zeros((4, 6)), 1.0, TANH)
        assert np.allclose(z1, (x + TANH.forward(d2 @ z2)) / 2.0, atol=1e-10)

    def test_large_eta_limit(self):
        rng = Rng(8)
        d1 = rng.standard_normal((6, 5))
        d2 = rng.standard_normal((5, 4))
        z2 = rng.standard_normal((4, 7))
        b1 = 0.1 * rng.standard_normal((5, 7))
        x = rng.standard_normal((6, 7))
        target = TANH.forward(d2 @ z2) + b1
        z1 = solve_P4(x, d1, d2, z2, b1, 1e6, TANH)
        assert np.linalg.norm(z1 - target) / np.linalg.norm(target) < 1e-3

    def test_fd_gradient_zero(self):
        rng = Rng(9)
        d1 = rng.standard_normal((5, 4))
        d2 = rng.standard_normal((4, 3))
        z2 = rng.standard_normal((3, 3)) * 0.3
        b1 = rng.standard_normal((4, 3)) * 0.2
        x = rng.standard_normal((5, 3))
        eta1 = 1.0
        z1 = solve_P4(x, d1, d2, z2, b1, eta1, TANH)
        target = TANH.forward(d2 @ z2) + b1

        def cost(z):
            return float(np.sum((x - d1 @ z) ** 2) + eta1 * np.sum((z - target) ** 2))

        assert np.linalg.norm(fd_gradient(cost, z1)) < 1e-6


class TestSolveP5:
    def test_identity_average(self):
        rng = Rng(10)
        z1 = rng.standard_normal((4, 5)) * 0.3
        b1 = rng.standard_normal((4, 5)) * 0.1
        d3 = rng.standard_normal((4, 2))
        z = rng.standard_normal((2, 5))
        b2 = rng.standard_normal((4, 5)) * 0.1
        z2 = solve_P5(z1, b1, np.eye(4), d3, z, b2, 1.0, 1.0, TANH)
        expected = (TANH.inverse(z1 - b1) + TANH.forward(d3 @ z) + b2) / 2.0
        assert np.allclose(z2, expected, atol=1e-10)

    def test_eta1_zero_limit(self):
        rng = Rng(11)
        d2 = rng.standard_normal((5, 3))
        d3 = rng.standard_normal((3, 2))
        z = rng.standard_normal((2, 6))
        b2 = rng.standard_normal((3, 6)) * 0.2
        z1 = rng.standard_normal((5, 6)) * 0.3
        b1 = rng.standard_normal((5, 6)) * 0.1
        z2 = solve_P5(z1, b1, d2, d3, z, b2, 0.0, 1.0, TANH)
        assert np.allclose(z2, TANH.forward(d3 @ z) + b2, atol=1e-10)

    def test_fd_gradient_zero(self):
        rng = Rng(12)
        d2 = rng.standard_normal((4, 3))
        d3 = rng.standard_normal((3, 2))
        z = rng.standard_normal((2, 3)) * 0.4
        b2 = rng.standard_normal((3, 3)) * 0.2
        z1 = rng.standard_normal((4, 3)) * 0.3
        b1 = rng.standard_normal((4, 3)) * 0.1
        eta1, eta2 = 1.0, 1.0
        z2 = solve_P5(z1, b1, d2, d3, z, b2, eta1, eta2, TANH)
        top = TANH.inverse(z1 - b1)
        bottom = TANH.forward(d3 @ z) + b2

        def cost(c):
            return float(eta1 * np.sum((top - d2 @ c) ** 2) + eta2 * np.sum((c - bottom) ** 2))

        assert np.linalg.norm(fd_gradient(cost, z2)) < 1e-6


class TestSolveP6:
    def _inputs(self, seed=13, n_classes=2):
        # class 1 is columns 0-7, the other classes 8 columns each after it
        rng = Rng(seed)
        d3, _ = normalize_columns(rng.standard_normal((6, 4)))
        n = 8 * n_classes
        z2 = rng.standard_normal((6, n)) * 0.4
        b2 = rng.standard_normal((6, n)) * 0.1
        class_cols = {c: np.arange(8 * (c - 1), 8 * c) for c in range(1, n_classes + 1)}
        return d3, z2, b2, class_cols

    @staticmethod
    def _relax(n_classes, n):
        return np.ones((n, n_classes - 1, 4))

    def test_no_competitors_is_plain_somp(self):
        d3, z2, b2, class_cols = self._inputs(n_classes=1)
        c = self._relax(1, 8)
        layout = _class_layout(class_cols, 4)
        out = solve_P6(z2, b2, d3, np.zeros((4, 1)), layout, 2, 0.5, 0.1, 1.0, 5, None, c, TANH)
        expected = pursuit(d3, TANH.inverse(z2 - b2), 2, groups=np.zeros(8))
        assert np.array_equal(out, expected)

    def test_mu_zero_is_plain_somp(self):
        d3, z2, b2, class_cols = self._inputs()
        c = self._relax(2, 16)
        out = solve_P6(z2, b2, d3, np.zeros((4, 2)), _class_layout(class_cols, 4), 2, 0.0, 0.1, 1.0, 5, None, c, TANH)
        for cols in class_cols.values():
            expected = pursuit(d3, TANH.inverse(z2[:, cols] - b2[:, cols]), 2, groups=np.zeros(8))
            assert np.array_equal(out[:, cols], expected)
        assert np.all(c == 1.0)

    def test_row_budget_always_respected(self):
        d3, z2, b2, class_cols = self._inputs(n_classes=3)
        c = self._relax(3, 24)
        means = Rng(3).standard_normal((4, 3))
        out = solve_P6(z2, b2, d3, means, _class_layout(class_cols, 4), 1, 0.5, 0.1, 1.0, 5, None, c, TANH)
        for cols in class_cols.values():
            assert np.count_nonzero(np.abs(out[:, cols]).sum(axis=1)) <= 1

    def test_huge_mu_does_not_increase_overlap(self):
        # paired runs on a 2-class toy where both class blocks fit either atom
        rng = Rng(21)
        d3, _ = normalize_columns(rng.standard_normal((6, 4)))
        z2 = rng.standard_normal((6, 20)) * 0.3
        b2 = np.zeros_like(z2)
        class_cols = {1: np.arange(10), 2: np.arange(10, 20)}
        means = np.zeros((4, 2))
        means[:, 1] = 0.5 * np.abs(Rng(5).standard_normal(4))

        def run(mu):
            c = self._relax(2, 20)
            out = solve_P6(z2, b2, d3, means, _class_layout(class_cols, 4), 1, mu, 0.1, 1.0, 5, None, c, TANH)
            return set(np.nonzero(np.abs(out[:, class_cols[1]]).sum(axis=1))[0])

        competitor_support = {int(np.argmax(means[:, 1]))}
        overlap_zero = len(run(0.0) & competitor_support)
        overlap_huge = len(run(1e6) & competitor_support)
        assert overlap_huge <= overlap_zero


def solve_P6_contract(z2, b2, d3, means, class_cols, row_s, mu, gamma, eta2, inner_iters, p, c, act):
    """What ``solve_P6`` must return and leave in C, and the P it reads at its
    next call, given P and C as (column, competitor, atom) arrays: Z and P of
    ``solve_P6_reference`` run for ``inner_iters`` steps, and C of the
    reference run one step fewer (C as given, for one step).  Returns new
    ``(z, p, c)``; the inputs are kept."""
    p_ref, c_ref = np.transpose(p, (1, 2, 0)).copy(), np.transpose(c, (1, 2, 0)).copy()
    c_want = c_ref.copy()
    args = (row_s, mu, gamma, eta2)
    if inner_iters > 1:
        solve_P6_reference(z2, b2, d3, means, class_cols, *args, inner_iters - 1, p_ref.copy(), c_want, act)
    z = solve_P6_reference(z2, b2, d3, means, class_cols, *args, inner_iters, p_ref, c_ref, act)
    return z, column_layout(p_ref), column_layout(c_want)


class TestSolveP6MatchesTwoPass:
    """Consecutive calls of the one-pass ``solve_P6`` against
    ``solve_P6_reference``, the two-pass form over the (competitor, atom,
    column) layout that carries P from call to call: identical Z, and C as
    the reference leaves it one inner step earlier, since no step reads the
    last step's C update.  ``solve_P6`` stores no P: the first call reads
    P = 1, and each later one recomputes the P the previous call ended with
    from that call's class means and Z."""

    @staticmethod
    def _check(sizes, row_s=3, mu=0.5, gamma=0.1, eta2=1.0, inner_iters=5, atoms=7, seed=30, calls=3):
        rng = Rng(seed)
        n_classes = len(sizes)
        d3, _ = normalize_columns(rng.standard_normal((9, atoms)))
        d3 = d3 * (0.5 + rng.random(atoms))  # DropConnect leaves atoms off unit norm
        labels = rng.permutation(np.repeat(np.arange(1, n_classes + 1), sizes))
        class_cols = {c: np.flatnonzero(labels == c) for c in range(1, n_classes + 1)}
        n = labels.size
        layout = _class_layout(class_cols, atoms)
        means = rng.standard_normal((atoms, n_classes))
        c = column_layout(rng.standard_normal((n_classes - 1, atoms, n)))
        p_ref, c_ref = np.ones_like(c), c.copy()
        args = (row_s, mu, gamma, eta2, inner_iters)
        previous = None
        for _ in range(calls):
            z2 = 0.4 * rng.standard_normal((9, n))
            b2 = 0.1 * rng.standard_normal((9, n))
            z_ref, p_ref, c_ref = solve_P6_contract(z2, b2, d3, means, class_cols, *args, p_ref, c_ref, TANH)
            z = solve_P6(z2, b2, d3, means, layout, *args, previous, c, TANH)
            assert np.array_equal(z, z_ref)
            assert np.array_equal(c, c_ref)
            # the next call's snapshot is the means of this Z, as in joint_train
            previous, means = (means, z), class_mean_matrix(z, class_cols, n_classes)
        return z

    def test_uneven_class_sizes(self):
        for seed in range(5):
            self._check([1, 6, 3, 9, 2], seed=seed)
        self._check([4, 1, 7], inner_iters=1)
        self._check([5, 2, 8, 3], row_s=7, gamma=1.0, eta2=0.3, calls=2)
        # one atom: numpy would sum the 11 competitors of a column pairwise
        self._check([2, 3, 1, 4, 2, 3, 1, 2, 5, 2, 3, 1], row_s=1, atoms=1)

    def test_passes_over_several_slices(self, monkeypatch):
        # 40 classes of 3-5 columns: 39 competitors x 7 atoms = 273 elements
        # per column, so one pass spans three 2^14-element slices, the last short
        sizes = [3 + c % 3 for c in range(40)]
        assert sum(sizes) > 2 * (joint._PAIR_CHUNK // (39 * 7))
        self._check(sizes, row_s=2)
        monkeypatch.setattr(joint, "_PAIR_CHUNK", 7 * 39 * 7)  # slices of 7 columns
        self._check(sizes, row_s=2, seed=31)

    def test_mu_zero(self):
        z = self._check([3, 5, 2], mu=0.0)
        assert np.any(z != 0.0)

    def test_single_class(self):
        self._check([6])

    @pytest.mark.parametrize("inner_iters", [1, 2, 3, 4, 5])
    def test_inner_step_counts(self, inner_iters):
        # one step: C comes back as given; 40 classes span several slices
        self._check([1, 6, 3, 9, 2], inner_iters=inner_iters)
        self._check([3 + c % 3 for c in range(40)], row_s=2, inner_iters=inner_iters, calls=2)

    def test_kernel_calls_of_a_mixture_training(self, monkeypatch):
        # the benchmark's mixture workload: 16 classes, 60 dims, arch 42,30,21;
        # corr and y_sq sum the same terms in the same order in both layouts,
        # and the reference carries P from one outer iteration to the next
        calls = {"new": [], "old": []}

        def recorder(kernel, key):
            def recorded(prepared, corr, y_sq, s, groups):
                z = kernel(prepared, corr, y_sq, s, groups)
                calls[key].append((corr.copy(), np.array(y_sq), z))
                return z

            return recorded

        train, _ = many_class_mixture()
        class_cols = {c: np.asarray(train.class_index[c]) for c in range(1, train.num_classes + 1)}
        solve = joint.solve_P6
        carried = {}

        def both(z2, b2, d3, means, layout, row_s, mu, gamma, eta2, inner_iters, previous, c, act):
            args = (row_s, mu, gamma, eta2, inner_iters)
            p = carried["p"] if previous is not None else np.ones_like(c)
            mark = len(calls["old"])
            z_ref, carried["p"], c_ref = solve_P6_contract(z2, b2, d3, means, class_cols, *args, p, c, act)
            del calls["old"][mark : mark + inner_iters - 1]  # the shorter run, for C
            z = solve(z2, b2, d3, means, layout, *args, previous, c, act)
            assert np.array_equal(z, z_ref)
            assert np.array_equal(c, c_ref)
            return z

        monkeypatch.setattr(joint, "pursuit_gram", recorder(joint.pursuit_gram, "new"))
        monkeypatch.setattr(util, "pursuit_gram_reference", recorder(util.pursuit_gram_reference, "old"))
        monkeypatch.setattr(joint, "solve_P6", both)
        cfg = TrainConfig(drop_mode=DropMode.NONE, outer_iters=10, seed=7)
        joint_train(train, Architecture((42, 30, 21)), cfg)
        assert len(calls["new"]) == len(calls["old"]) == cfg.outer_iters * cfg.inner_iters
        for (corr, y_sq, z), (corr_ref, y_sq_ref, z_ref) in zip(calls["new"], calls["old"]):
            assert np.array_equal(corr, corr_ref)
            assert np.array_equal(y_sq, y_sq_ref)
            assert np.array_equal(z, z_ref)


class TestBregmanUpdate:
    @staticmethod
    def _inputs(seed=14, act=TANH):
        rng = Rng(seed)
        d2 = rng.standard_normal((5, 3))
        z2 = rng.standard_normal((3, 6)) * 0.3
        d3 = rng.standard_normal((3, 2))
        z = rng.standard_normal((2, 6)) * 0.3
        return {"z1": act.forward(d2 @ z2), "z2": z2, "z": z, "d2": d2, "d3": d3, "act": act}

    def test_feasible_point_keeps_b1_zero(self):
        inputs = self._inputs()
        b1, _, feas1, _ = bregman_update(np.zeros((5, 6)), np.zeros((3, 6)), **inputs)
        assert np.allclose(b1, 0.0, atol=1e-12)
        assert feas1 < 1e-12

    def test_double_update_is_involution(self):
        inputs = self._inputs()
        b1_0, b2_0 = Rng(1).standard_normal((5, 6)), Rng(2).standard_normal((3, 6))
        b1, b2, *_ = bregman_update(b1_0, b2_0, **inputs)
        b1, b2, *_ = bregman_update(b1, b2, **inputs)  # primals frozen: R - (R - B) == B
        assert np.allclose(b1, b1_0, atol=1e-12)
        assert np.allclose(b2, b2_0, atol=1e-12)

    def test_shapes_preserved(self):
        b1, b2, *_ = bregman_update(np.zeros((5, 6)), np.zeros((3, 6)), **self._inputs())
        assert (b1.shape, b2.shape) == ((5, 6), (3, 6))


class TestDropping:
    @staticmethod
    def _arrays():
        rng = Rng(15)
        return {
            "d1": rng.standard_normal((20, 100)),
            "d2": rng.standard_normal((100, 50)),
            "d3": rng.standard_normal((50, 10)),
            "z1": rng.standard_normal((100, 100)),
            "z2": rng.standard_normal((50, 100)),
        }

    def test_rate_zero_unchanged(self):
        a = self._arrays()
        z1, z2 = apply_dropout(a["z1"], a["z2"], 0.0, Rng(0))
        assert np.array_equal(z1, a["z1"]) and np.array_equal(z2, a["z2"])
        d1, _, _ = apply_dropconnect(a["d1"], a["d2"], a["d3"], 0.0, Rng(0))
        assert np.array_equal(d1, a["d1"])

    def test_dropout_fraction_concentrates(self):
        a = self._arrays()
        z1, _ = apply_dropout(a["z1"], a["z2"], 0.5, Rng(123))
        frac = np.mean(z1 == 0.0)
        assert 0.48 <= frac <= 0.52

    def test_dropout_never_touches_deepest_codes(self, monkeypatch):
        # a DropOut training hands P3 the very Z that P6 returned
        solve, fit = joint.solve_P6, joint.solve_P3
        returned, fitted = [], []

        def recorded_p6(*args):
            returned.append(solve(*args))
            return returned[-1]

        def recorded_p3(z2, b2, z, act, prev=None):
            fitted.append(z)
            return fit(z2, b2, z, act, prev=prev)

        monkeypatch.setattr(joint, "solve_P6", recorded_p6)
        monkeypatch.setattr(joint, "solve_P3", recorded_p3)
        cfg = TrainConfig(drop_mode=DropMode.DROPOUT, drop_rate=0.9, seed=7, outer_iters=3)
        joint_train(two_class_deep_factor_data(ncols=16), DEEP_ARCH, cfg)
        assert len(fitted) == cfg.outer_iters
        assert all(a is b for a, b in zip(fitted, returned))

    def test_dropconnect_fraction(self):
        a = self._arrays()
        for d in apply_dropconnect(a["d1"], a["d2"], a["d3"], 0.1, Rng(11)):
            frac = np.mean(d == 0.0)
            assert 0.05 <= frac <= 0.15

    @pytest.mark.parametrize("drop, names", [(apply_dropout, ("z1", "z2")), (apply_dropconnect, ("d1", "d2", "d3"))],
                             ids=["dropout", "dropconnect"])
    def test_masks_come_from_the_named_substreams(self, drop, names):
        # the tags Z1, Z2, D1, D2 and D3 fix which entries a seeded training drops
        a = self._arrays()
        dropped = drop(*(a[name] for name in names), 0.3, Rng(9))
        for name, out in zip(names, dropped, strict=True):
            mask = Rng(9).substream(name.upper()).random(a[name].shape) < 0.3
            assert np.array_equal(out, np.where(mask, 0.0, a[name]))

    def test_rate_validation(self):
        a = self._arrays()
        with pytest.raises(ValueError):
            apply_dropout(a["z1"], a["z2"], 1.0, Rng(0))
        with pytest.raises(ValueError):
            apply_dropconnect(a["d1"], a["d2"], a["d3"], -0.1, Rng(0))


class TestObjective:
    def test_hand_counted_small_case(self):
        x = np.eye(2)
        d = [np.eye(2), np.eye(2), np.eye(2)]
        z = np.array([[2.0, 0.0], [0.0, 0.0]])
        class_cols = {1: np.array([0]), 2: np.array([1])}
        act = IDENTITY
        # recon = z itself; data = ||x - z||^2 = 1 + 1 = 2
        # rows: class1 uses 1 row, class2 uses 0 (a budget, not a term)
        # diversity: mean_2 = (0,0); mean_1 = (2,0)
        #   c=1: mean_2 - z_1 = (-2,0) -> 1 nonzero
        #   c=2: mean_1 - z_2 = (2,0)  -> 1 nonzero
        means = class_mean_matrix(z, class_cols, 2)
        value, rows = objective_value(x, d, z, _class_layout(class_cols, 2), means, 0.5, act)
        assert value == pytest.approx(2.0 - 0.5 * 2)
        assert rows.tolist() == [1, 0]


class TestBookkeepingOnce:
    """``joint_train`` builds the class layout and its SOMP group table once,
    takes the class means once per outer iteration, the support sizes from
    the objective's row count and feas1 and feas2 from the relaxation sweep's
    residuals.  Each must equal its recomputation, bit for bit, and the sweep
    and the objective their oracles over the (competitor, atom, column)
    layout.  C changes only inside P6: each P6 gets it as the last left it."""

    @staticmethod
    def _data(case):
        rng = Rng(19)
        if case == "uneven":
            labels = rng.permutation(np.repeat([1, 2, 3, 4], [2, 9, 5, 1]))
        elif case == "one class":
            labels = np.ones(14, dtype=np.int64)
        else:  # 40 classes of 3-5 columns: 39 x 6 elements per column, three slices
            labels = rng.permutation(np.repeat(np.arange(1, 41), [3 + c % 3 for c in range(40)]))
        return make_dataset(rng.standard_normal((12, labels.size)), labels)

    @pytest.mark.parametrize("act", [TANH, IDENTITY], ids=["tanh", "identity"])
    @pytest.mark.parametrize("case", ["uneven", "one class", "40 classes"])
    def test_matches_recomputed(self, monkeypatch, case, act):
        data = self._data(case)
        n_classes = data.num_classes
        class_cols = {c: np.asarray(data.class_index[c]) for c in range(1, n_classes + 1)}
        solve, sweep, objective = joint.solve_P6, joint.bregman_update, joint.objective_value
        groups = joint.group_columns
        seen = {"z": None, "c": None, "layouts": set(), "sweeps": 0, "group tables": 0}

        def counted_groups(*args):
            seen["group tables"] += 1
            return groups(*args)

        def checked_p6(z2, b2, d3, class_means, layout, *args):
            # the snapshot is the means of Z as the last objective saw it
            assert np.array_equal(class_means, class_mean_matrix(seen["z"], class_cols, n_classes))
            c_relax = args[-2]
            assert seen["c"] is None or np.array_equal(c_relax, seen["c"])
            seen["layouts"].add(id(layout))
            z = solve(z2, b2, d3, class_means, layout, *args)
            seen["c"] = c_relax.copy()
            return z

        def checked_sweep(b1, b2, z1, z2, z, d2, d3, a):
            b1_ref, b2_ref = bregman_update_reference(b1, b2, z1, z2, z, d2, d3, a)
            b1, b2, *feas = sweep(b1, b2, z1, z2, z, d2, d3, a)
            assert feas == [
                float(np.linalg.norm(z1 - a.forward(d2 @ z2))),
                float(np.linalg.norm(z2 - a.forward(d3 @ z))),
            ]
            assert np.array_equal(b1, b1_ref) and np.array_equal(b2, b2_ref)
            seen["sweeps"] += 1
            return b1, b2, *feas

        def checked_objective(x, dicts, z, layout, means, mu, a):
            assert np.array_equal(means, class_mean_matrix(z, class_cols, n_classes))
            value, rows = objective(x, dicts, z, layout, means, mu, a)
            assert value == objective_value_reference(x, dicts, z, class_cols, mu, a)
            assert dict(zip(class_cols, rows.tolist())) == support_sizes_reference(z, class_cols)
            seen["layouts"].add(id(layout))
            seen["z"] = z.copy()
            return value, rows

        monkeypatch.setattr(joint, "solve_P6", checked_p6)
        monkeypatch.setattr(joint, "bregman_update", checked_sweep)
        monkeypatch.setattr(joint, "objective_value", checked_objective)
        monkeypatch.setattr(joint, "group_columns", counted_groups)
        cfg = TrainConfig(seed=3, outer_iters=3)
        model = joint_train(data, Architecture((10, 8, 6), activation=act), cfg)
        assert seen["sweeps"] == cfg.outer_iters and len(seen["layouts"]) == 1
        assert seen["group tables"] == 1
        assert len(_class_layout(class_cols, 6).slices) == (3 if case == "40 classes" else 1)
        assert model.fit_report.iterations[-1].support_sizes == support_sizes_reference(model.features, class_cols)


class TestJointTrain:
    def test_requires_three_layers(self):
        data = two_class_deep_factor_data()
        with pytest.raises(ValueError):
            joint_train(data, Architecture((8, 4)), TrainConfig(seed=1))

    def test_empty_class_rejected(self):
        x = Rng(0).standard_normal((6, 4))
        data = make_dataset(x, [1, 1, 1, 1], num_classes=2)
        with pytest.raises(ValueError):
            joint_train(data, Architecture((4, 3, 2)), TrainConfig(seed=1))

    def test_deterministic(self, deep_factor_model):
        data, model = deep_factor_model
        again = joint_train(data, DEEP_ARCH, TrainConfig(drop_mode=DropMode.NONE, seed=7))
        for a, b in zip(model.dictionaries, again.dictionaries):
            assert np.array_equal(a, b)
        assert np.array_equal(model.features, again.features)
        assert model.fit_report.lines == again.fit_report.lines

    def test_objective_and_feasibility_improve(self, deep_factor_model):
        _, model = deep_factor_model
        rep = model.fit_report
        assert rep.final_objective < rep.initial_objective
        assert rep.final_feas1 < rep.initial_feas1
        assert rep.final_feas2 < rep.initial_feas2

    def test_row_budgets_every_iteration(self, deep_factor_model):
        _, model = deep_factor_model
        budget = resolve_budget(model.config, model.architecture)
        for rec in model.fit_report.iterations:
            assert max(rec.support_sizes.values()) <= budget.row_s

    def test_unit_norm_dictionaries(self, deep_factor_model):
        _, model = deep_factor_model
        for d in model.dictionaries:
            assert np.allclose(np.linalg.norm(d, axis=0), 1.0, atol=1e-9)

    def test_log_stream_contains_recon_lines(self):
        data = two_class_deep_factor_data(ncols=16)
        log = io.StringIO()
        cfg = TrainConfig(drop_mode=DropMode.NONE, seed=3, outer_iters=3)
        model = joint_train(data, DEEP_ARCH, cfg, log=log)
        text = log.getvalue()
        assert "greedy_recon=" in text
        assert "joint_recon=" in text
        assert text.count("iter=") == 3
        assert model.fit_report.render() == text

    def test_drop_run_marks_final_iteration_unperturbed(self):
        data = two_class_deep_factor_data(ncols=16)
        cfg = TrainConfig(drop_mode=DropMode.DROPOUT, drop_rate=0.5, seed=3, outer_iters=4)
        model = joint_train(data, DEEP_ARCH, cfg)
        assert any("final_iteration_unperturbed=1" in line for line in model.fit_report.lines)

    def test_dropconnect_final_dictionaries_have_no_forced_zeros(self):
        data = two_class_deep_factor_data(ncols=16)
        cfg = TrainConfig(drop_mode=DropMode.DROPCONNECT, drop_rate=0.3, seed=3, outer_iters=4)
        model = joint_train(data, DEEP_ARCH, cfg)
        for d in model.dictionaries:
            assert np.count_nonzero(d) == d.size

    def test_mu_zero_supports_at_budget(self):
        data = two_class_deep_factor_data(ncols=16)
        cfg = TrainConfig(drop_mode=DropMode.NONE, seed=3, outer_iters=3, mu=0.0)
        model = joint_train(data, DEEP_ARCH, cfg)
        budget = resolve_budget(cfg, DEEP_ARCH)
        for rec in model.fit_report.iterations:
            assert max(rec.support_sizes.values()) <= budget.row_s

    def test_one_class_trains_as_plain_somp(self):
        # no competitors: P6 is plain SOMP on the data term; final values
        # pinned to the per-class trainer
        x = Rng(0).standard_normal((12, 30))
        cfg = TrainConfig(drop_mode=DropMode.NONE, seed=0, outer_iters=3)
        model = joint_train(make_dataset(x, [1] * 30), Architecture((8, 6, 4)), cfg)
        rep = model.fit_report
        assert rep.final_objective == pytest.approx(308.6658564282624, rel=1e-9)
        assert rep.final_feas1 == pytest.approx(13.143606540069044, rel=1e-9)
        assert rep.final_feas2 == pytest.approx(37.62662553396014, rel=1e-9)

    def test_mu_zero_trains_as_plain_somp(self):
        x = Rng(0).standard_normal((12, 30))
        cfg = TrainConfig(drop_mode=DropMode.NONE, seed=0, outer_iters=3, mu=0.0)
        model = joint_train(make_dataset(x, [1] * 15 + [2] * 15), Architecture((8, 6, 4)), cfg)
        rep = model.fit_report
        assert rep.final_objective == pytest.approx(308.6658564282624, rel=1e-9)
        assert rep.final_feas1 == pytest.approx(13.143606540069044, rel=1e-9)
        assert rep.final_feas2 == pytest.approx(37.62662553396014, rel=1e-9)

    def test_pair_chunk_width_leaves_model_unchanged(self, monkeypatch):
        # four classes of unequal size in shuffled order, DropConnect on; the
        # width sets the slices of P6 and of the objective, so the C of every
        # P6 and every objective must agree too
        rng = Rng(8)
        labels = rng.permutation(np.repeat([1, 2, 3, 4], [3, 9, 5, 7]))
        data = make_dataset(rng.standard_normal((12, labels.size)), labels)
        cfg = TrainConfig(seed=2, outer_iters=4)
        solve, objective = joint.solve_P6, joint.objective_value
        runs = []
        for chunk in (1, 2**40):
            seen = {"slices": set(), "c": [], "objective": []}

            def recorded_p6(*args, seen=seen):
                z = solve(*args)
                seen["slices"].add(len(args[4].slices))
                seen["c"].append(args[-2].copy())
                return z

            def recorded_objective(*args, seen=seen):
                value, rows = objective(*args)
                seen["slices"].add(len(args[3].slices))
                seen["objective"].append((value, rows.tolist()))
                return value, rows

            monkeypatch.setattr(joint, "_PAIR_CHUNK", chunk)
            monkeypatch.setattr(joint, "solve_P6", recorded_p6)
            monkeypatch.setattr(joint, "objective_value", recorded_objective)
            runs.append((joint_train(data, Architecture((10, 8, 6)), cfg), seen))
        (a, seen_a), (b, seen_b) = runs
        assert seen_a["slices"] == {labels.size} and seen_b["slices"] == {1}
        for da, db in zip(a.dictionaries, b.dictionaries):
            assert np.array_equal(da, db)
        assert np.array_equal(a.features, b.features)
        assert a.fit_report.lines == b.fit_report.lines
        assert len(seen_a["c"]) == cfg.outer_iters
        assert all(np.array_equal(ca, cb) for ca, cb in zip(seen_a["c"], seen_b["c"]))
        assert seen_a["objective"] == seen_b["objective"]

    def test_p6_state_is_one_pair_array(self, monkeypatch):
        # C is the only (column, competitor, atom) array P6 gets; P is recomputed
        # from the previous call's class means and the Z that call returned
        rng = Rng(8)
        labels = rng.permutation(np.repeat([1, 2, 3, 4], [3, 9, 5, 7]))
        data = make_dataset(rng.standard_normal((12, labels.size)), labels)
        solve = joint.solve_P6
        calls = []

        def recorded_p6(*args):
            z = solve(*args)
            calls.append((args, z))
            return z

        monkeypatch.setattr(joint, "solve_P6", recorded_p6)
        cfg = TrainConfig(seed=2, outer_iters=3)
        joint_train(data, Architecture((10, 8, 6)), cfg)
        assert len(calls) == cfg.outer_iters
        for i, (args, _) in enumerate(calls):
            pair_arrays = [a for a in args if isinstance(a, np.ndarray) and a.shape == (labels.size, 3, 6)]
            assert len(pair_arrays) == 1
            previous = args[10]
            if i == 0:
                assert previous is None
            else:
                prev_args, prev_z = calls[i - 1]
                assert previous[0] is prev_args[3] and previous[1] is prev_z

    def test_divergence_guard(self):
        rng = Rng(1)
        x = 1e7 * rng.standard_normal((20, 10))
        data = make_dataset(x, [1] * 5 + [2] * 5)
        with pytest.raises(TrainingDivergedError):
            joint_train(data, DEEP_ARCH, TrainConfig(drop_mode=DropMode.NONE, seed=1, outer_iters=2))

    def test_divergence_guard_trips_on_nan(self, monkeypatch):
        objective = joint.objective_value

        def nan_objective(*args):
            value, rows = objective(*args)
            return math.nan, rows

        monkeypatch.setattr(joint, "objective_value", nan_objective)
        data = two_class_deep_factor_data(ncols=16)
        with pytest.raises(TrainingDivergedError, match="objective nan is not within 1e\\+12 at iteration 1"):
            joint_train(data, DEEP_ARCH, TrainConfig(drop_mode=DropMode.NONE, seed=1, outer_iters=2))

    def test_model_summaries_consistent(self, deep_factor_model):
        _, model = deep_factor_model
        assert model.num_classes == 2
        assert model.mode == "joint"
