"""End-to-end acceptance suite.

Each test prints one PASS line (with the measured quantities) once its
assertions hold, so a verbose run documents every gate:

    pytest tests/test_acceptance.py -s
"""

from itertools import combinations

import numpy as np
import pytest

from rsddl.cli import main as cli_main
from rsddl.dataio import DataFormatError, load_model, save_labels, save_matrix_csv, save_model
from rsddl.greedy import Architecture
from rsddl.inference import predict_batch
from rsddl.joint import DropMode, TrainConfig, resolve_budget, solve_P4, solve_P5
from rsddl.metrics import average_accuracy, kappa, mcnemar_z, overall_accuracy
from rsddl.numerics import Activation, Rng
from rsddl.sparse import prox_push, pursuit
from util import (
    class_support,
    coherence,
    low_coherence_frame,
    planted_row_sparse,
    planted_sparse_signal,
    two_class_deep_factor_data,
)


def report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def test_01_binary_support_extraction():
    class1 = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.5, 0.7, 0.4],
            [0.0, 0.0, 0.0],
            [0.3, 0.2, 0.2],
            [0.0, 0.0, 0.0],
        ]
    )
    class2 = np.array(
        [
            [1.1, 0.5, 0.9, 1.2],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.1, 0.6, 0.4, 0.5],
            [0.0, 0.0, 0.0, 0.0],
            [0.2, 0.4, 0.4, 0.2],
        ]
    )
    s1 = class_support(class1)
    s2 = class_support(class2)
    assert s1.tolist() == [0, 0, 1, 0, 1, 0]
    assert s2.tolist() == [1, 0, 0, 1, 0, 1]
    report(1, "binary support extraction", f"supports {s1.tolist()} / {s2.tolist()}")


def test_02_reverse_shrinkage_grid():
    mu, gamma = 0.5, 0.1
    thr = mu / (2.0 * gamma)
    grid = np.linspace(-5.0, 5.0, 1000)
    out = prox_push(grid, mu, gamma)
    expected = np.where(thr < np.abs(grid), grid, np.where(grid >= 0, thr, -thr))
    assert np.array_equal(out, expected)
    assert prox_push(np.array([0.0]), mu, gamma)[0] == thr  # sign(0) = +1
    n_pass = int(np.sum(thr < np.abs(grid)))
    report(2, "reverse-shrinkage operator", f"1000-point grid exact, {n_pass} pass-through / {1000 - n_pass} pushed")


def test_03_pursuit_oracles():
    rng = Rng(1234)
    for trial in range(50):
        tr = rng.substream("omp", trial)
        d = low_coherence_frame(8, 12, tr)
        assert coherence(d) < 0.5
        sup, _, x = planted_sparse_signal(d, 2, tr)
        z = pursuit(d, x.reshape(-1, 1), 2)[:, 0]
        recovered = tuple(np.sort(np.nonzero(z)[0]))
        best, best_err = None, np.inf
        for cand in combinations(range(12), 2):
            coef, *_ = np.linalg.lstsq(d[:, cand], x, rcond=None)
            err = np.linalg.norm(x - d[:, cand] @ coef)
            if err < best_err - 1e-12:
                best_err, best = err, cand
        assert recovered == tuple(sup) == best, f"omp trial {trial} failed"

    for trial in range(20):
        tr = rng.substream("somp", trial)
        d = low_coherence_frame(10, 16, tr)
        assert coherence(d) < 0.5
        rows, z0, y = planted_row_sparse(d, 3, 5, tr)
        z = pursuit(d, y, 3, groups=np.zeros(y.shape[1]))
        assert np.array_equal(np.sort(np.nonzero(np.abs(z).sum(axis=1))[0]), rows), f"somp trial {trial}"
        assert np.allclose(z, z0, atol=1e-8)
    report(3, "pursuit oracles", "omp 50/50 brute-force matches, somp 20/20 planted recoveries")


def test_04_quadratic_subproblem_gradients():
    act = Activation.TANH

    def fd_gradient(cost, point, h=1e-6):
        grad = np.zeros_like(point)
        it = np.nditer(point, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus, minus = point.copy(), point.copy()
            plus[idx] += h
            minus[idx] -= h
            grad[idx] = (cost(plus) - cost(minus)) / (2.0 * h)
            it.iternext()
        return grad

    worst = 0.0
    for seed, cols in ((5, 4), (6, 1), (7, 3)):  # cols=1 covers the test-time solves
        rng = Rng(seed)
        d1 = rng.standard_normal((6, 5))
        d2 = rng.standard_normal((5, 4))
        d3 = rng.standard_normal((4, 3))
        x = rng.standard_normal((6, cols))
        z = rng.standard_normal((3, cols)) * 0.4
        z2 = rng.standard_normal((4, cols)) * 0.3
        b1 = rng.standard_normal((5, cols)) * 0.2
        b2 = rng.standard_normal((4, cols)) * 0.2
        eta1, eta2 = 1.0, 1.0

        z1_star = solve_P4(x, d1, act.forward(d2 @ z2), b1, eta1)
        target1 = act.forward(d2 @ z2) + b1

        def cost_p4(v):
            return float(np.sum((x - d1 @ v) ** 2) + eta1 * np.sum((v - target1) ** 2))

        g1 = np.linalg.norm(fd_gradient(cost_p4, z1_star))

        z2_star = solve_P5(z1_star, b1, d2, act.forward(d3 @ z), b2, eta1, eta2, act)
        top = act.inverse(z1_star - b1)
        bottom = act.forward(d3 @ z) + b2

        def cost_p5(v):
            return float(eta1 * np.sum((top - d2 @ v) ** 2) + eta2 * np.sum((v - bottom) ** 2))

        g2 = np.linalg.norm(fd_gradient(cost_p5, z2_star))
        worst = max(worst, g1, g2)
        assert g1 < 1e-6 and g2 < 1e-6
    report(4, "quadratic sub-problem stationarity", f"worst finite-difference gradient norm {worst:.2e}")


def test_05_joint_trainer_progress(deep_factor_model):
    _, model = deep_factor_model
    rep = model.fit_report
    budget = resolve_budget(model.config, model.architecture)
    assert rep.final_objective < rep.initial_objective
    assert rep.final_feas1 < rep.initial_feas1
    assert rep.final_feas2 < rep.initial_feas2
    for rec in rep.iterations:
        assert max(rec.support_sizes.values()) <= budget.row_s
    report(
        5,
        "joint trainer progress",
        "objective %.2f -> %.2f, feas1 %.2f -> %.2f, feas2 %.2f -> %.2f, row budgets held"
        % (
            rep.initial_objective,
            rep.final_objective,
            rep.initial_feas1,
            rep.final_feas1,
            rep.initial_feas2,
            rep.final_feas2,
        ),
    )


def test_06_end_to_end_classification(mixture_bundle):
    model = mixture_bundle["models"][DropMode.NONE]
    xte = mixture_bundle["x_test"]
    yte = mixture_bundle["y_test"]
    preds0 = predict_batch(model, xte, rule="l0")
    preds1 = predict_batch(model, xte, rule="l1")
    oa0 = float(np.mean([p.label for p in preds0] == yte))
    oa1 = float(np.mean([p.label for p in preds1] == yte))
    assert oa0 >= 0.95
    assert abs(oa0 - oa1) <= 0.05
    report(6, "end-to-end classification", f"OA l0={oa0:.3f} (>= 0.95), OA l1={oa1:.3f} (within 0.05)")


def test_07_greedy_vs_joint_reported(deep_factor_model):
    _, model = deep_factor_model
    lines = model.fit_report.render()
    assert "greedy_recon=" in lines
    assert "joint_recon=" in lines
    report(
        7,
        "greedy vs joint reconstruction reported",
        "greedy %.3f, joint %.3f in the run log"
        % (model.fit_report.greedy_reconstruction, model.fit_report.joint_reconstruction),
    )


def test_08_metric_values():
    cm = np.array([[45, 5], [15, 35]])
    assert abs(kappa(cm) - 0.6) <= 1e-9
    assert overall_accuracy(cm) == pytest.approx(0.80)
    assert average_accuracy(cm) == pytest.approx(0.80)
    imb = np.array([[9, 1], [0, 90]])
    assert average_accuracy(imb) == pytest.approx(0.95)
    assert overall_accuracy(imb) == pytest.approx(0.99)

    truth = np.ones(60, dtype=int)
    pred_a = np.ones(60, dtype=int)
    pred_b = np.ones(60, dtype=int)
    pred_b[:40] = 2
    pred_a[40:50] = 2
    z, significant = mcnemar_z(pred_a, pred_b, truth)
    assert abs(z - 4.2426) <= 1e-3
    assert significant
    report(8, "evaluation metrics", f"kappa=0.6000, OA/AA hand cases exact, McNemar z={z:.4f} significant")


def test_09_stochastic_regularization_direction(mixture_bundle):
    xte = mixture_bundle["x_test"]
    yte = mixture_bundle["y_test"]

    def oa(mode):
        preds = predict_batch(mixture_bundle["models"][mode], xte, rule="l0")
        return float(np.mean([p.label for p in preds] == yte))

    base = oa(DropMode.NONE)
    connect = oa(DropMode.DROPCONNECT)
    dropout = oa(DropMode.DROPOUT)
    assert abs(connect - base) <= 0.05
    assert dropout <= base + 0.02
    report(
        9,
        "stochastic regularization direction",
        f"no-drop {base:.3f}, connect@10% {connect:.3f} (within 0.05), out@15% {dropout:.3f} (no gain)",
    )


def test_10_cli_training_determinism(tmp_path):
    ds = two_class_deep_factor_data(ncols=20)
    save_matrix_csv(ds.x, tmp_path / "data.csv")
    save_labels(ds.labels, tmp_path / "labels.txt")
    flags = [
        "train", "--data", str(tmp_path / "data.csv"), "--labels", str(tmp_path / "labels.txt"),
        "--arch", "8,6,4", "--mode", "joint", "--drop", "connect", "--drop-rate", "0.1",
        "--iters", "6", "--seed", "7",
    ]
    assert cli_main(flags + ["--out", str(tmp_path / "a.rsddl")]) == 0
    assert cli_main(flags + ["--out", str(tmp_path / "b.rsddl")]) == 0
    a = (tmp_path / "a.rsddl").read_bytes()
    b = (tmp_path / "b.rsddl").read_bytes()
    assert a == b
    report(10, "training determinism", f"two runs byte-identical ({len(a)} bytes)")


def test_11_model_persistence(tmp_path, deep_factor_model):
    _, model = deep_factor_model
    p1 = tmp_path / "m1.rsddl"
    p2 = tmp_path / "m2.rsddl"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    content = p1.read_text()
    truncated = tmp_path / "trunc.rsddl"
    truncated.write_text(content[: len(content) // 2])
    with pytest.raises(DataFormatError):
        load_model(truncated)
    report(11, "model persistence", "save/load/save byte-identical, truncated file rejected cleanly")
