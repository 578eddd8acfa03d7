from itertools import combinations

import numpy as np
import pytest

import rsddl.inference
import rsddl.joint
import rsddl.sparse
from rsddl.greedy import Architecture
from rsddl.inference import predict_batch
from rsddl.joint import DropMode, TrainConfig, _class_layout, joint_train, resolve_budget, solve_P6
from rsddl.numerics import Activation, Rng, normalize_columns
from rsddl.sparse import group_columns, prox_push, pursuit, pursuit_gram, unit_gram
from util import (
    coherence,
    column_layout,
    hard_threshold_per_column,
    labels_of,
    low_coherence_frame,
    many_class_mixture,
    planted_row_sparse,
    planted_sparse_signal,
    pursuit_gram_reference,
    pursuit_reference,
)


def omp(d, x, s):
    """The kernel on one signal, as a vector."""
    return pursuit(d, np.reshape(x, (-1, 1)), s)[:, 0]


def somp(d, y, s):
    """The kernel with one group: one row support for every column."""
    return pursuit(d, y, s, groups=np.zeros(y.shape[1]))


def groupings(n):
    """The two ways :func:`pursuit_reference` pursues n columns, as
    ``(rows, groups)``: per column (OMP) and as one block (SOMP)."""
    return ((False, None), (True, np.zeros(n)))


class TestSparsityBudget:
    """The budgets a TrainConfig holds, per_column_s and row_s."""

    def test_positive(self):
        with pytest.raises(ValueError):
            TrainConfig(per_column_s=0, row_s=1)
        with pytest.raises(ValueError):
            TrainConfig(per_column_s=1, row_s=0)

    def test_validate_for(self):
        resolve_budget(TrainConfig(per_column_s=2, row_s=2), Architecture((4,)))
        with pytest.raises(ValueError):
            resolve_budget(TrainConfig(per_column_s=5, row_s=2), Architecture((4,)))


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
        z = somp(d * scales, y, 3)
        assert np.allclose((d * scales) @ z, y, atol=1e-8)


class TestProxPush:
    def test_pass_through_above_threshold(self):
        assert prox_push(np.array([[3.0]]), 0.5, 0.1)[0, 0] == 3.0

    def test_pushed_to_threshold(self):
        assert prox_push(np.array([[1.0]]), 0.5, 0.1)[0, 0] == 2.5

    def test_zero_maps_positive(self):
        assert prox_push(np.array([[0.0]]), 0.5, 0.1)[0, 0] == 2.5
        assert prox_push(np.array([[-0.0]]), 0.5, 0.1)[0, 0] == 2.5

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

    def test_out_matches_a_new_array(self):
        v = np.append(4.0 * Rng(10).standard_normal(30), [0.0, -0.0, 2.5, -2.5])
        want = prox_push(v, 0.5, 0.1)
        out = np.full_like(v, np.nan)
        assert prox_push(v, 0.5, 0.1, out=out) is out
        assert np.array_equal(np.signbit(out), np.signbit(want)) and np.array_equal(out, want)
        strided = np.full((v.size, 2), np.nan)[:, 0]
        prox_push(v, 0.5, 0.1, out=strided)
        assert np.array_equal(strided, want)
        same = v.copy()
        prox_push(same, 0.5, 0.1, out=same)
        assert np.array_equal(np.signbit(same), np.signbit(want)) and np.array_equal(same, want)

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
            for rows, groups in groupings(n):
                self._assert_same(pursuit(d, y, s, groups), pursuit_reference(d, y, s, rows=rows))

    def test_exact_ties_go_to_smaller_index(self):
        d = np.eye(4)
        y = np.array([[1.0, 0.0, 2.0], [1.0, 3.0, -2.0], [0.0, 3.0, 2.0], [0.5, 0.0, 0.0]])
        for rows, groups in groupings(3):
            z = pursuit(d, y, 1, groups)
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
        zr = somp(d, yr, 4)
        assert np.nonzero(np.abs(zr).sum(axis=1))[0].tolist() == rows.tolist()
        self._assert_same(zr, pursuit_reference(d, yr, 4, rows=True))

    def test_dead_atoms_and_budget_above_live_count(self):
        rng = Rng(42)
        d = rng.standard_normal((7, 6))
        d[:, [1, 4]] = 0.0
        y = rng.standard_normal((7, 5))
        for s in (2, 4, 6):
            for rows, groups in groupings(5):
                z = pursuit(d, y, s, groups)
                assert np.all(z[[1, 4]] == 0.0)
                self._assert_same(z, pursuit_reference(d, y, s, rows=rows))

    def test_somp_on_one_column_equals_omp(self):
        rng = Rng(43)
        d = rng.standard_normal((9, 14))
        for trial in range(10):
            x = rng.substream(trial).standard_normal((9, 1))
            for s in (1, 3, 5):
                self._assert_same(somp(d, x, s), pursuit(d, x, s), tol=1e-12)

    def test_gram_form_matches_explicit_system(self):
        rng = Rng(44)
        d = rng.standard_normal((8, 10))
        y = rng.standard_normal((8, 6))
        z = pursuit_gram(unit_gram(d.T @ d), d.T @ y, np.sum(y * y, axis=0), 3)
        assert np.array_equal(z, pursuit(d, y, 3))

    def test_groups_match_per_group_reference(self):
        # unequal groups in shuffled column order: a size-1 group, a group
        # that fits on one atom and stops early, and two dead atoms
        rng = Rng(45)
        d = rng.standard_normal((8, 9)) * (0.5 + rng.random(9))
        d[:, [2, 6]] = 0.0
        sizes = {3: 4, 7: 1, 1: 6, 5: 3}
        labels = rng.permutation(np.repeat(list(sizes), list(sizes.values())))
        y = rng.standard_normal((8, labels.size))
        early = labels == 1
        y[:, early] = np.outer(d[:, 4], rng.standard_normal(early.sum()))
        for s in (1, 3, 5):
            z = pursuit(d, y, s, labels)
            assert np.all(z[[2, 6]] == 0.0)
            for label in sizes:
                cols = labels == label
                self._assert_same(z[:, cols], pursuit_reference(d, y[:, cols], s, rows=True))
            assert np.count_nonzero(np.abs(z[:, early]).sum(axis=1)) == 1

    def test_groups_label_every_column(self):
        with pytest.raises(ValueError):
            pursuit(np.eye(3), np.ones((3, 4)), 1, np.zeros(3))

    def test_exact_fits_stop_at_any_scale(self):
        # planted 2-sparse signals with coefficients from 1e-2 to 1e6: where
        # ||y||^2 rounding exceeds residual_tol^2, an exact fit must still stop
        # and take no extra near-zero coefficients
        rng = Rng(46)
        for trial, scale in enumerate(np.logspace(-2, 6, 9)):
            tr = rng.substream("scale", trial)
            d = tr.standard_normal((30, 40))
            z0 = np.zeros((40, 24))
            for j in range(24):
                z0[tr.permutation(40)[:2], j] = scale * (0.5 + tr.random(2))
            y = d @ z0
            _, _, yr = planted_row_sparse(d, 2, 6, tr)
            yr = scale * yr
            for yy, groups, ref in (
                (y, None, pursuit_reference(d, y, 6)),
                (yr, np.zeros(6), pursuit_reference(d, yr, 6, rows=True)),
            ):
                z = pursuit(d, yy, 6, groups)
                assert np.count_nonzero(z, axis=0).tolist() == np.count_nonzero(ref, axis=0).tolist()
                assert np.all(np.count_nonzero(z, axis=0) <= 2)
                self._assert_same(z, ref, tol=1e-9 * scale)


class TestUnitGram:
    def test_dead_atoms(self):
        rng = Rng(47)
        d = rng.standard_normal((9, 12)) * (0.2 + 3.0 * rng.random(12))
        d[:, [0, 5, 11]] = 0.0
        y = rng.standard_normal((9, 7))
        g, norms, alive = unit_gram(d.T @ d)
        assert alive.tolist() == [i not in (0, 5, 11) for i in range(12)]
        assert np.allclose(norms, np.linalg.norm(d[:, alive], axis=0), rtol=1e-14)
        assert np.allclose(np.diag(g), 1.0, rtol=1e-14)
        for s in (1, 4, 9, 12):
            for rows, groups in groupings(7):
                cols = None if groups is None else group_columns(groups, 7)
                z = pursuit_gram((g, norms, alive), d.T @ y, np.sum(y * y, axis=0), s, cols)
                assert np.array_equal(z, pursuit(d, y, s, groups))
                assert np.all(z[[0, 5, 11]] == 0.0)
                TestAgainstReference._assert_same(z, pursuit_reference(d, y, s, rows=rows))


class TestMatchesPreviousKernel:
    """The Gram-Schmidt kernel against ``pursuit_gram_reference``, the kernel
    with one k x k solve per step that it replaced: identical outputs."""

    @staticmethod
    def _both(d, y, s, groups=None):
        prepared = unit_gram(d.T @ d)
        corr, y_sq = d.T @ y, np.sum(y * y, axis=0)
        cols = None if groups is None else group_columns(groups, y.shape[1])
        return pursuit_gram(prepared, corr, y_sq, s, cols), pursuit_gram_reference(prepared, corr, y_sq, s, groups)

    def test_random_omp_and_somp_with_uneven_groups(self):
        rng = Rng(60)
        for trial in range(200):
            tr = rng.substream("random", trial)
            m, a, n = 4 + trial % 13, 3 + trial % 17, 1 + trial % 11
            d = tr.standard_normal((m, a)) * (0.2 + tr.random(a))
            y = tr.standard_normal((m, n))
            s = 1 + trial % (a + 2)
            # labels 0..3 drawn at random: uneven groups in shuffled order
            labels = np.floor(4 * tr.random(n)).astype(np.int64)
            for groups in (None, labels, np.zeros(n)):
                z, ref = self._both(d, y, s, groups)
                assert np.array_equal(z, ref)

    def test_early_stops_and_exact_fits_at_any_scale(self):
        rng = Rng(61)
        for trial, scale in enumerate(np.logspace(-150, 150, 13)):
            tr = rng.substream("scale", trial)
            d = tr.standard_normal((20, 30))
            z0 = np.zeros((30, 12))
            for j in range(12):
                z0[tr.permutation(30)[: j % 4], j] = scale * (0.5 + tr.random(j % 4))
            y = d @ z0  # 0- to 3-sparse exact fits, including zero columns
            _, zr, yr = planted_row_sparse(d, 3, 8, tr)
            labels = np.array([0, 0, 1, 1, 1, 2, 2, 2])
            for yy, groups in ((y, None), (scale * yr, labels), (scale * yr, np.zeros(8))):
                for s in (2, 3, 6):
                    z, ref = self._both(d, yy, s, groups)
                    assert np.array_equal(z, ref)

    def test_dead_atoms_and_budget_at_or_above_live_count(self):
        rng = Rng(62)
        for trial in range(20):
            tr = rng.substream("dead", trial)
            d = tr.standard_normal((9, 7)) * (0.5 + tr.random(7))
            d[:, tr.permutation(7)[: 1 + trial % 3]] = 0.0
            live = int(np.count_nonzero(np.any(d != 0.0, axis=0)))
            y = tr.standard_normal((9, 6))
            for s in (live - 1, live, live + 1, 7, 10):
                for groups in (None, np.array([2, 0, 2, 1, 1, 2]), np.zeros(6)):
                    z, ref = self._both(d, y, max(s, 1), groups)
                    assert np.array_equal(z, ref)

    def test_picked_atoms_stay_out_at_rounding_level_scores(self):
        # once a0, a1 explain the part of y in range(D), every score is
        # rounding noise; a2 (a0 plus a direction y lacks) is still eligible
        # and must be picked, as the previous kernel did, rather than a picked
        # atom whose left-over score happens to be larger
        rng = Rng(65)
        for trial in range(40):
            tr = rng.substream(trial)
            d = np.zeros((5, 3))
            d[:3, :2] = tr.standard_normal((3, 2))
            d[:, 2] = d[:, 0] + np.eye(5)[3]
            y = np.zeros((5, 1))
            y[:3, 0] = d[:3, :2] @ tr.standard_normal(2)
            y[4, 0] = 3.0
            z, ref = self._both(d, y, 3)
            assert np.count_nonzero(ref) == 3
            assert np.array_equal(z, ref)

    def test_every_call_of_a_mixture_training_and_its_encodes(self, monkeypatch):
        # the shape of the benchmark's mixture workload: 16 classes, 60 dims, arch 42,30,21
        calls = []
        kernel = rsddl.sparse.pursuit_gram

        def recorded(prepared, corr, y_sq, s, cols=None):
            z = kernel(prepared, corr, y_sq, s, cols)
            calls.append((prepared, corr.copy(), np.array(y_sq), s, cols, z))
            return z

        for module in (rsddl.sparse, rsddl.joint, rsddl.inference):
            monkeypatch.setattr(module, "pursuit_gram", recorded)
        train, x_test = many_class_mixture()
        cfg = TrainConfig(drop_mode=DropMode.NONE, outer_iters=10, seed=7)
        model = joint_train(train, Architecture((42, 30, 21)), cfg)
        trained = len(calls)
        for j in range(x_test.shape[1]):
            predict_batch(model, x_test[:, j : j + 1])
        predict_batch(model, x_test)
        assert trained > 50 and len(calls) == trained + (x_test.shape[1] + 1) * cfg.test_iters
        assert any(call[4] is not None for call in calls)
        for prepared, corr, y_sq, s, cols, z in calls:
            groups = None if cols is None else labels_of(cols, corr.shape[1])
            assert np.array_equal(z, pursuit_gram_reference(prepared, corr, y_sq, s, groups))


class TestDependentAtoms:
    """An atom that the support already spans never enters it; the previous
    kernel took such atoms and fell back to a minimum-norm fit."""

    def test_duplicate_is_skipped_and_the_group_stops(self):
        # atom 2 is twice atom 0, and y keeps a part outside range(D)
        d = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        y = np.array([[1.0], [1.0], [1.0]])
        z = pursuit(d, y, 3)
        assert z[:, 0].tolist() == [1.0, 1.0, 0.0]
        prepared = unit_gram(d.T @ d)
        ref = pursuit_gram_reference(prepared, d.T @ y, np.sum(y * y, axis=0), 3)
        assert np.count_nonzero(ref) == 3  # the pinv fit splits atom 0's weight with atom 2
        assert np.allclose(d @ ref, d @ z, atol=1e-12)

    def test_scaled_and_sign_flipped_duplicates(self):
        rng = Rng(63)
        for trial in range(40):
            tr = rng.substream("dup", trial)
            d = tr.standard_normal((12, 8))  # tall: y keeps a part outside range(D)
            i, j = tr.permutation(8)[:2]
            d[:, j] = (-3.0, -1.0, 0.5, 2.0)[trial % 4] * d[:, i]
            y = tr.standard_normal((12, 5))
            prepared = unit_gram(d.T @ d)
            for groups in (None, np.array([0, 1, 0, 1, 1]), np.zeros(5)):
                cols = None if groups is None else group_columns(groups, 5)
                z = pursuit_gram(prepared, d.T @ y, np.sum(y * y, axis=0), 8, cols)
                ref = pursuit_gram_reference(prepared, d.T @ y, np.sum(y * y, axis=0), 8, groups)
                blocks = [[c] for c in range(5)] if groups is None else [np.flatnonzero(groups == g) for g in set(groups)]
                for block in blocks:
                    used = np.any(z[:, block] != 0.0, axis=1)
                    assert not (used[i] and used[j])
                    # the residual of the reference's support, fitted with minimum norm
                    ref_support = np.any(ref[:, block] != 0.0, axis=1)
                    fit, *_ = np.linalg.lstsq(d[:, ref_support], y[:, block], rcond=None)
                    want = y[:, block] - d[:, ref_support] @ fit
                    got = y[:, block] - d @ z[:, block]
                    assert np.max(np.abs(got - want)) <= 1e-9 * np.linalg.norm(y[:, block])


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
        # every class at once against the per-class stacked reference, with
        # unequal class sizes (one of a single column) in shuffled column order;
        # C as the reference leaves it one inner step earlier, since no step
        # reads the last step's C update
        act = Activation.TANH
        for seed, (n_classes, row_s, eta2, gamma) in enumerate(
            [(2, 2, 1.0, 0.1), (4, 3, 0.7, 0.25), (8, 2, 2.0, 0.05), (5, 5, 1.0, 1.0)]
        ):
            rng = Rng(100 + seed)
            d3, _ = normalize_columns(rng.standard_normal((9, 7)))
            d3 = d3 * (0.5 + rng.random(7))  # DropConnect leaves atoms off unit norm
            sizes = [1 + (3 * c + seed) % 6 for c in range(n_classes)]
            labels = rng.permutation(np.repeat(np.arange(1, n_classes + 1), sizes))
            class_cols = {c: np.where(labels == c)[0] for c in range(1, n_classes + 1)}
            n = labels.size
            z2 = 0.4 * rng.standard_normal((9, n))
            b2 = 0.1 * rng.standard_normal((9, n))
            means = rng.standard_normal((7, n_classes))
            p = rng.standard_normal((n_classes - 1, 7, n))
            c = rng.standard_normal((n_classes - 1, 7, n))
            p_ref, c_ref = p.copy(), c.copy()
            p, c = column_layout(p), column_layout(c)
            out = solve_P6(z2, b2, d3, means, _class_layout(class_cols, 7), row_s, 0.5, gamma, eta2, 5, p, c, act)
            lo = 0
            for k, cols in class_cols.items():
                block = slice(lo, lo + cols.size)  # class k's columns of P and C
                lo += cols.size
                others = [j for j in class_cols if j != k]
                p_k, c_k, c_5 = ({j: a[i, :, block].copy() for i, j in enumerate(others)} for a in (p_ref, c_ref, c_ref))
                inputs = (z2[:, cols], b2[:, cols], d3, {j: means[:, j - 1] for j in others}, row_s, 0.5, gamma, eta2)
                solve_P6_stacked(*inputs, 4, {j: a.copy() for j, a in p_k.items()}, c_k, act)  # C of four steps
                ref = solve_P6_stacked(*inputs, 5, p_k, c_5, act)  # Z and P of five
                TestAgainstReference._assert_same(out[:, cols], ref)
                for i, j in enumerate(others):
                    assert np.max(np.abs(p[block, i].T - p_k[j])) <= 1e-9
                    assert np.max(np.abs(c[block, i].T - c_k[j])) <= 1e-9
