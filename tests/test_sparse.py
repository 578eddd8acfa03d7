from itertools import combinations

import numpy as np
import pytest

from rsddl.joint import solve_P6_class
from rsddl.numerics import Activation, Rng, normalize_columns
from rsddl.sparse import SparsityBudget, prox_push, pursuit, pursuit_gram
from util import (
    coherence,
    hard_threshold_per_column,
    low_coherence_frame,
    planted_row_sparse,
    planted_sparse_signal,
    pursuit_reference,
)


def omp(d, x, s):
    """The kernel on one signal, as a vector."""
    return pursuit(d, np.reshape(x, (-1, 1)), s)[:, 0]


def somp(d, y, s):
    return pursuit(d, y, s, rows=True)


class TestSparsityBudget:
    def test_positive(self):
        with pytest.raises(ValueError):
            SparsityBudget(0, 1)
        with pytest.raises(ValueError):
            SparsityBudget(1, 0)

    def test_validate_for(self):
        SparsityBudget(2, 2).validate_for(4)
        with pytest.raises(ValueError):
            SparsityBudget(5, 2).validate_for(4)


class TestHardThreshold:
    def test_single_max(self):
        out = hard_threshold_per_column(np.array([[0.1], [-5.0], [2.0]]), 1)
        assert out.tolist() == [[0.0], [-5.0], [0.0]]

    def test_tie_smaller_row_index(self):
        out = hard_threshold_per_column(np.array([[3.0], [3.0], [1.0]]), 1)
        assert out.tolist() == [[3.0], [0.0], [0.0]]

    def test_matches_bruteforce_best_support(self):
        rng = Rng(8)
        m = rng.standard_normal((10, 4))
        out = hard_threshold_per_column(m, 3)
        assert np.all(np.count_nonzero(out, axis=0) == 3)
        for j in range(4):
            col = m[:, j]
            best, best_err = None, np.inf
            for sup in combinations(range(10), 3):
                approx = np.zeros(10)
                approx[list(sup)] = col[list(sup)]
                err = np.linalg.norm(col - approx)
                if err < best_err - 1e-12:
                    best_err, best = err, approx
            assert np.allclose(out[:, j], best)

    def test_s_range(self):
        with pytest.raises(ValueError):
            hard_threshold_per_column(np.eye(3), 4)


class TestOmp:
    def test_canonical_basis(self):
        assert np.allclose(omp(np.eye(3), [0.0, 2.0, 0.0], 1), [0.0, 2.0, 0.0])

    def test_full_support_exact(self):
        assert np.allclose(omp(np.eye(3), [1.0, 2.0, 3.0], 3), [1.0, 2.0, 3.0])

    def test_planted_recovery_with_bruteforce_crosscheck(self):
        rng = Rng(1234)
        for trial in range(10):
            tr = rng.substream("omp", trial)
            d = low_coherence_frame(8, 12, tr)
            assert coherence(d) < 0.5
            sup, _, x = planted_sparse_signal(d, 2, tr)
            z = omp(d, x, 2)
            assert np.array_equal(np.sort(np.nonzero(z)[0]), sup)
            # brute-force oracle over all C(12, 2) supports
            best, best_err = None, np.inf
            for cand in combinations(range(12), 2):
                coef, *_ = np.linalg.lstsq(d[:, cand], x, rcond=None)
                err = np.linalg.norm(x - d[:, cand] @ coef)
                if err < best_err - 1e-12:
                    best_err, best = err, cand
            assert tuple(sup) == best

    def test_orthonormal_equals_hard_threshold(self):
        rng = Rng(77)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        x = rng.standard_normal(6)
        for s in range(1, 7):
            expected = hard_threshold_per_column((q.T @ x).reshape(-1, 1), s)[:, 0]
            assert np.allclose(omp(q, x, s), expected, atol=1e-9)

    def test_early_stop_on_small_residual(self):
        d = np.eye(4)
        z = omp(d, [0.0, 0.0, 3.0, 0.0], 3)
        assert np.count_nonzero(z) == 1  # stopped after one atom

    def test_zero_norm_column_rejected(self):
        # zero-norm atoms are skipped; a dictionary with no other atom is an error
        with pytest.raises(ValueError):
            omp(np.zeros((3, 3)), [1.0, 0.0, 0.0], 1)

    def test_budget_respected(self):
        rng = Rng(3)
        d = low_coherence_frame(8, 12, rng)
        x = rng.standard_normal(8)
        for s in (1, 2, 4):
            assert np.count_nonzero(omp(d, x, s)) <= s


class TestSomp:
    def test_identity_two_rows(self):
        y = np.zeros((4, 3))
        y[1] = [1.0, 2.0, 3.0]
        y[3] = [4.0, 5.0, 6.0]
        assert np.allclose(somp(np.eye(4), y, 2), y)

    def test_single_column_equals_omp(self):
        rng = Rng(21)
        d = low_coherence_frame(8, 12, rng)
        x = rng.standard_normal(8)
        for s in (1, 2, 3):
            assert np.allclose(somp(d, x.reshape(-1, 1), s)[:, 0], omp(d, x, s))

    def test_planted_shared_rows(self):
        rng = Rng(4321)
        for trial in range(5):
            tr = rng.substream("somp", trial)
            d = low_coherence_frame(10, 16, tr)
            rows, z0, y = planted_row_sparse(d, 3, 5, tr)
            z = somp(d, y, 3)
            assert np.array_equal(np.sort(np.nonzero(np.abs(z).sum(axis=1))[0]), rows)
            assert np.allclose(z, z0, atol=1e-8)

    def test_row_budget(self):
        rng = Rng(5)
        d = low_coherence_frame(10, 16, rng)
        y = rng.standard_normal((10, 6))
        z = somp(d, y, 4)
        assert np.count_nonzero(np.abs(z).sum(axis=1)) <= 4


class TestScaledWrappers:
    def test_omp_columns_rescales(self):
        rng = Rng(6)
        d = low_coherence_frame(8, 12, rng)
        scales = 0.5 + rng.random(12)
        d_scaled = d * scales
        sup, coef, x = planted_sparse_signal(d, 2, rng)
        z = pursuit(d_scaled, x.reshape(-1, 1), 2)
        assert np.allclose(d_scaled @ z, x.reshape(-1, 1), atol=1e-8)

    def test_dead_columns_skipped(self):
        d = np.eye(4)
        d[:, 2] = 0.0
        z = pursuit(d, np.array([[1.0], [2.0], [0.0], [0.5]]), 3)
        assert np.all(z[2] == 0.0)

    def test_somp_rows_rescales(self):
        rng = Rng(7)
        d = low_coherence_frame(10, 16, rng)
        scales = 0.5 + rng.random(16)
        rows, z0, y = planted_row_sparse(d, 3, 4, rng)
        z = pursuit(d * scales, y, 3, rows=True)
        assert np.allclose((d * scales) @ z, y, atol=1e-8)


class TestProxPush:
    def test_pass_through_above_threshold(self):
        assert prox_push(np.array([[3.0]]), 0.5, 0.1)[0, 0] == 3.0

    def test_pushed_to_threshold(self):
        assert prox_push(np.array([[1.0]]), 0.5, 0.1)[0, 0] == 2.5

    def test_zero_maps_positive(self):
        assert prox_push(np.array([[0.0]]), 0.5, 0.1)[0, 0] == 2.5

    def test_negative_side(self):
        assert prox_push(np.array([[-1.0]]), 0.5, 0.1)[0, 0] == -2.5
        assert prox_push(np.array([[-3.0]]), 0.5, 0.1)[0, 0] == -3.0

    def test_idempotent(self):
        rng = Rng(8)
        v = 4.0 * rng.standard_normal((10, 10))
        once = prox_push(v, 0.5, 0.1)
        assert np.array_equal(prox_push(once, 0.5, 0.1), once)

    def test_never_shrinks_below_threshold(self):
        rng = Rng(9)
        v = 4.0 * rng.standard_normal((20, 20))
        out = prox_push(v, 0.5, 0.1)
        thr = 0.5 / (2.0 * 0.1)
        assert np.all(np.abs(out) >= np.minimum(np.abs(v), thr) - 1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            prox_push(np.zeros((1, 1)), 0.0, 0.1)
        with pytest.raises(ValueError):
            prox_push(np.zeros((1, 1)), 0.5, 0.0)


class TestAgainstReference:
    """The batched Gram-form kernel against the per-column loop it replaced."""

    @staticmethod
    def _assert_same(z, ref, tol=1e-9):
        assert np.array_equal(z != 0.0, ref != 0.0)
        assert np.max(np.abs(z - ref)) <= tol

    def test_random_problems(self):
        rng = Rng(40)
        for trial in range(30):
            tr = rng.substream("random", trial)
            m, a, n = 6 + trial % 7, 5 + trial % 11, 1 + trial % 9
            d = tr.standard_normal((m, a)) * (0.3 + tr.random(a))
            y = tr.standard_normal((m, n))
            s = 1 + trial % min(m, a)
            for rows in (False, True):
                self._assert_same(pursuit(d, y, s, rows=rows), pursuit_reference(d, y, s, rows=rows))

    def test_exact_ties_go_to_smaller_index(self):
        d = np.eye(4)
        y = np.array([[1.0, 0.0, 2.0], [1.0, 3.0, -2.0], [0.0, 3.0, 2.0], [0.5, 0.0, 0.0]])
        for rows in (False, True):
            z = pursuit(d, y, 1, rows=rows)
            self._assert_same(z, pursuit_reference(d, y, 1, rows=rows), tol=0.0)
        assert np.argmax(pursuit(d, y, 1) != 0.0, axis=0).tolist() == [0, 1, 0]

    def test_early_stops_per_column(self):
        # an orthonormal dictionary, where OMP recovers every planted support
        rng = Rng(41)
        d, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        cols = []
        for k in (1, 2, 3, 1, 2):
            _, _, x = planted_sparse_signal(d, k, rng)
            cols.append(x)
        cols.append(np.zeros(8))
        y = np.stack(cols, axis=1)
        z = pursuit(d, y, 4)
        assert np.count_nonzero(z, axis=0).tolist() == [1, 2, 3, 1, 2, 0]
        self._assert_same(z, pursuit_reference(d, y, 4))
        rows, _, yr = planted_row_sparse(d, 2, 5, rng)
        zr = pursuit(d, yr, 4, rows=True)
        assert np.nonzero(np.abs(zr).sum(axis=1))[0].tolist() == rows.tolist()
        self._assert_same(zr, pursuit_reference(d, yr, 4, rows=True))

    def test_dead_atoms_and_budget_above_live_count(self):
        rng = Rng(42)
        d = rng.standard_normal((7, 6))
        d[:, [1, 4]] = 0.0
        y = rng.standard_normal((7, 5))
        for s in (2, 4, 6):
            for rows in (False, True):
                z = pursuit(d, y, s, rows=rows)
                assert np.all(z[[1, 4]] == 0.0)
                self._assert_same(z, pursuit_reference(d, y, s, rows=rows))

    def test_somp_on_one_column_equals_omp(self):
        rng = Rng(43)
        d = rng.standard_normal((9, 14))
        for trial in range(10):
            x = rng.substream(trial).standard_normal((9, 1))
            for s in (1, 3, 5):
                self._assert_same(pursuit(d, x, s, rows=True), pursuit(d, x, s), tol=1e-12)

    def test_gram_form_matches_explicit_system(self):
        rng = Rng(44)
        d = rng.standard_normal((8, 10))
        y = rng.standard_normal((8, 6))
        z = pursuit_gram(d.T @ d, d.T @ y, np.sum(y * y, axis=0), 3)
        assert np.array_equal(z, pursuit(d, y, 3))


def solve_P6_stacked(z2c, b2c, d3, competitor_means, row_s, mu, gamma, eta2, inner_iters, p, c_relax, act):
    """P6 as it was first written: SOMP on the explicitly stacked system."""
    target_top = act.inverse(z2c - b2c)
    competitors = sorted(competitor_means)
    a3 = d3.shape[1]
    eye = np.sqrt(gamma) * np.eye(a3)
    stacked_d = np.vstack([np.sqrt(eta2) * d3] + [eye] * len(competitors))
    z_c = np.zeros((a3, z2c.shape[1]))
    for _ in range(inner_iters):
        targets = [np.sqrt(eta2) * target_top]
        for k in competitors:
            targets.append(np.sqrt(gamma) * (competitor_means[k][:, None] + c_relax[k] - p[k]))
        z_c = pursuit_reference(stacked_d, np.vstack(targets), row_s, rows=True)
        for k in competitors:
            zbar = competitor_means[k][:, None]
            p[k] = prox_push(zbar - z_c + c_relax[k], mu, gamma)
        for k in competitors:
            zbar = competitor_means[k][:, None]
            c_relax[k] = p[k] - (zbar - z_c) - c_relax[k]
    return z_c


class TestP6GramForm:
    def test_matches_stacked_system(self):
        act = Activation()
        for seed, (n_comp, row_s, eta2, gamma) in enumerate(
            [(1, 2, 1.0, 0.1), (3, 3, 0.7, 0.25), (7, 2, 2.0, 0.05), (4, 5, 1.0, 1.0)]
        ):
            rng = Rng(100 + seed)
            d3, _ = normalize_columns(rng.standard_normal((9, 7)))
            d3 = d3 * (0.5 + rng.random(7))  # DropConnect leaves atoms off unit norm
            z2c = 0.4 * rng.standard_normal((9, 6))
            b2c = 0.1 * rng.standard_normal((9, 6))
            means = {k: rng.standard_normal(7) for k in range(2, 2 + n_comp)}
            p = {k: rng.standard_normal((7, 6)) for k in means}
            c = {k: rng.standard_normal((7, 6)) for k in means}
            p_ref = {k: v.copy() for k, v in p.items()}
            c_ref = {k: v.copy() for k, v in c.items()}
            out = solve_P6_class(z2c, b2c, d3, means, row_s, 0.5, gamma, eta2, 5, p, c, act)
            ref = solve_P6_stacked(z2c, b2c, d3, means, row_s, 0.5, gamma, eta2, 5, p_ref, c_ref, act)
            TestAgainstReference._assert_same(out, ref)
            for k in means:
                assert np.max(np.abs(p[k] - p_ref[k])) <= 1e-9
                assert np.max(np.abs(c[k] - c_ref[k])) <= 1e-9
