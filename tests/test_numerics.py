import inspect
import warnings

import numpy as np
import pytest

from rsddl import numerics
from rsddl.numerics import (
    Activation,
    NumericsWarning,
    Rng,
    as_matrix,
    normalize_columns,
    pca_basis,
    lstsq,
    pinv,
)

from util import pca_fit_reference


def centered(x):
    """``x`` less its column mean: the data :func:`pca_basis` takes."""
    return x - x.mean(axis=1, keepdims=True)


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3))

    def test_diagonal_zero_singular_value_dropped(self):
        a = np.array([[2.0, 0.0], [0.0, 0.0]])
        assert np.allclose(pinv(a), [[0.5, 0.0], [0.0, 0.0]])

    def test_full_rank_penrose(self):
        rng = Rng(0)
        a = rng.standard_normal((5, 3))
        p = pinv(a)
        assert np.linalg.norm(a @ p @ a - a) < 1e-8

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_four_penrose_conditions(self, seed):
        rng = Rng(seed)
        a = rng.standard_normal((8, 5))
        if seed % 2:  # make it rank-deficient
            a[:, 4] = a[:, 0] + a[:, 1]
        p = pinv(a)
        scale = max(np.linalg.norm(a), 1.0)
        assert np.linalg.norm(a @ p @ a - a) / scale < 1e-7
        assert np.linalg.norm(p @ a @ p - p) / max(np.linalg.norm(p), 1.0) < 1e-7
        assert np.linalg.norm((a @ p).T - a @ p) / scale < 1e-7
        assert np.linalg.norm((p @ a).T - p @ a) / scale < 1e-7

    def test_zero_matrix(self):
        assert np.allclose(pinv(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            pinv(np.array([[np.nan, 1.0], [0.0, 1.0]]))


def _normal_draws(seed, a_shape, b_shape):
    rng = Rng(seed)
    return rng.standard_normal(a_shape), rng.standard_normal(b_shape)


# (a, b) of min ||b - a x||, which is the fit ``b' ~ x' a'``: x = lstsq(b.T, a.T).T
_WELL_CONDITIONED = {
    "identity": (np.eye(2), np.array([[3.0], [4.0]])),
    "normal-equation-oracle": _normal_draws(5, (6, 4), (6, 2)),
    "full-rank": _normal_draws(6, (7, 3), (7, 2)),
}


@pytest.mark.filterwarnings("error")
class TestLstsq:
    @staticmethod
    def counted_pinv(monkeypatch) -> list:
        calls = []

        def counted(a):
            calls.append(a)
            return pinv(a)

        monkeypatch.setattr(numerics, "pinv", counted)
        return calls

    @pytest.mark.parametrize("case", sorted(_WELL_CONDITIONED))
    def test_well_conditioned_matches_pinv(self, monkeypatch, case):
        a, b = _WELL_CONDITIONED[case]
        target, codes = b.T, a.T
        calls = self.counted_pinv(monkeypatch)
        d = lstsq(target, codes)
        assert calls == []
        assert np.max(np.abs(d - target @ pinv(codes))) <= 1e-10
        # independent oracle: explicit inverse of the normal matrix
        assert np.max(np.abs(d.T - np.linalg.inv(a.T @ a) @ (a.T @ b))) <= 1e-10
        if case == "identity":
            assert np.allclose(d.T, [[3.0], [4.0]], rtol=0, atol=1e-15)

    def test_dependent_rows_take_pinv(self, monkeypatch):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank 1, once a singular-normal-equations warning
        b = np.array([[1.0], [2.0]])
        calls = self.counted_pinv(monkeypatch)
        d = lstsq(b.T, a.T)
        assert len(calls) == 1
        assert np.array_equal(d, b.T @ pinv(a.T))

    def test_zero_rows_give_zero_columns_on_the_normal_equations(self, monkeypatch):
        rng = Rng(15)
        target = rng.standard_normal((6, 12))
        codes = rng.standard_normal((5, 12))
        codes[[1, 3]] = 0.0
        calls = self.counted_pinv(monkeypatch)
        d = lstsq(target, codes)
        assert calls == []
        assert np.all(d[:, [1, 3]] == 0.0)
        assert np.max(np.abs(d - target @ pinv(codes))) <= 1e-10

    @staticmethod
    def masked_route(target, codes):
        """The normal-equations fit through the gather of the live code rows
        and the scatter into a zero-filled D, whether or not a row is dead."""
        live = codes.any(axis=1)
        c = codes[live]
        fit = np.zeros((target.shape[0], codes.shape[0]))
        fit[:, live] = np.linalg.solve(c @ c.T, c @ target.T).T
        return fit

    @pytest.mark.parametrize("layout", ["C", "transposed"])
    def test_all_live_rows_match_the_masked_route(self, monkeypatch, layout):
        # greedy fits the codes side as lstsq(x.T, d.T): codes that are a transpose
        rng = Rng(16)
        target = rng.standard_normal((6, 30))
        codes = rng.standard_normal((8, 30)) if layout == "C" else rng.standard_normal((30, 8)).T
        calls = self.counted_pinv(monkeypatch)
        d = lstsq(target, codes)
        assert calls == []
        assert d.flags.c_contiguous
        assert np.array_equal(d, self.masked_route(target, codes))

    def test_a_dead_row_keeps_a_zero_column_beside_the_all_live_fit(self, monkeypatch):
        rng = Rng(17)
        target = rng.standard_normal((6, 30))
        codes = rng.standard_normal((8, 30))
        codes[5] = 0.0
        calls = self.counted_pinv(monkeypatch)
        d = lstsq(target, codes)
        assert calls == []
        assert d.flags.c_contiguous and np.all(d[:, 5] == 0.0)
        assert np.array_equal(d, self.masked_route(target, codes))
        assert np.array_equal(np.delete(d, 5, axis=1), lstsq(target, np.delete(codes, 5, axis=0)))

    def test_all_zero_codes_give_a_zero_fit(self, monkeypatch):
        calls = self.counted_pinv(monkeypatch)
        d = lstsq(Rng(2).standard_normal((3, 7)), np.zeros((4, 7)))
        assert calls == [] and d.shape == (3, 4) and np.all(d == 0.0)

    @pytest.mark.parametrize("smallest, pinv_calls", [(2e-8, 1), (4e-8, 0)])
    def test_gate_on_the_trace(self, monkeypatch, smallest, pinv_calls):
        # Gram eigenvalues 1, 1, 1 and ``smallest``: both above 1e-8 of the
        # largest, one below and one above 1e-8 of the trace (3 + smallest)
        rng = Rng(8)
        left, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        right, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        codes = (left * np.sqrt([1.0, 1.0, 1.0, smallest])) @ right.T
        target = rng.standard_normal((6, 12))
        eig = np.linalg.eigvalsh(codes @ codes.T)
        assert eig[0] >= 1e-8 * eig[-1] and eig[0] == pytest.approx(smallest, rel=1e-6)
        calls = self.counted_pinv(monkeypatch)
        d = lstsq(target, codes)
        assert len(calls) == pinv_calls
        if pinv_calls:
            assert np.array_equal(d, target @ pinv(codes))
        else:
            # the normal equations lose about cond(codes)^2 eps = 6e-9 relative
            assert np.max(np.abs(d - target @ pinv(codes))) <= 1e-7 * np.max(np.abs(d))

    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="column mismatch"):
            lstsq(np.ones((3, 4)), np.ones((2, 5)))


class TestPcaFit:
    def test_identical_columns_project_to_zero(self):
        x = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 5))
        with pytest.warns(NumericsWarning):
            basis = pca_basis(centered(x), 1)
        assert np.allclose(basis.T @ centered(x), 0.0)

    def test_line_cloud_basis(self):
        # points on y = x: eigendecomposition of the covariance by hand gives
        # the direction (1, 1)/sqrt(2)
        x = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        basis = pca_basis(centered(x), 1)
        assert np.allclose(np.abs(basis[:, 0]), 1.0 / np.sqrt(2.0), atol=1e-12)
        assert basis[0, 0] > 0  # sign convention

    def test_orthonormal_basis(self):
        rng = Rng(2)
        x = rng.standard_normal((6, 30))
        basis = pca_basis(centered(x), 4)
        assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-9)

    def test_full_rank_reconstruction(self):
        rng = Rng(3)
        x = rng.standard_normal((5, 40))
        c = centered(x)
        basis = pca_basis(c, 5)
        recon = basis @ (basis.T @ c)
        assert np.linalg.norm(recon - c) / np.linalg.norm(c) < 1e-8

    def test_rank_deficient_pads_orthonormal(self):
        rng = Rng(4)
        base = rng.standard_normal((6, 2))
        x = base @ rng.standard_normal((2, 20))  # rank 2
        with pytest.warns(NumericsWarning):
            basis = pca_basis(centered(x), 5)
        assert np.allclose(basis.T @ basis, np.eye(5), atol=1e-9)

    @pytest.mark.parametrize("shape, rank, d", [((3, 5), 0, 1), ((6, 20), 2, 5), ((20, 9), 2, 4)],
                             ids=["identical-columns", "rank2-wide", "rank2-tall"])
    def test_rank_deficient_takes_the_svd_bit_for_bit(self, shape, rank, d):
        # the data of the two tests above, and a tall rank-2 matrix
        rng = Rng(4)
        if rank:
            x = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        else:
            x = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, shape[1]))
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            _, want = pca_fit_reference(x, d)
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            got = pca_basis(centered(x), d)
        assert [(w.category, str(w.message)) for w in warned] == [
            (w.category, str(w.message)) for w in want_warned
        ]
        assert len(warned) == 1 and issubclass(warned[0].category, NumericsWarning)
        assert np.array_equal(got, want)

    def test_rank_deficient_warning_points_at_the_calling_line(self):
        def direct():
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                line = inspect.currentframe().f_lineno + 1
                pca_basis(centered(np.eye(3)), 3)  # rank 2
            return warned, line

        warned, line = direct()
        assert len(warned) == 1 and issubclass(warned[0].category, NumericsWarning)
        assert (warned[0].filename, warned[0].lineno) == (__file__, line)

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            pca_basis(centered(np.eye(3)), 4)

    def test_non_finite_input(self):
        with pytest.raises(ValueError, match="X contains NaN or Inf entries"):
            pca_basis(np.array([[np.nan, 1.0], [0.0, -1.0]]), 1)

    @pytest.mark.parametrize("shape, rank, d", [((60, 40), 40, 8), ((40, 60), 40, 8), ((6, 20), 2, 5)],
                             ids=["tall", "wide", "rank-deficient"])
    def test_input_is_not_written(self, shape, rank, d):
        rng = Rng(5)
        x = centered(rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1])) + 3.0)
        before = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericsWarning)
            pca_basis(x, d)
        assert np.array_equal(x, before)


def decaying_spectrum(shape, d, last, seed):
    """A ``shape`` matrix around a random mean whose centered singular values
    fall geometrically from 1 to ``last`` at index d-1 and on below it."""
    rows, cols = shape
    rng = Rng(seed)
    k = min(rows, cols - 1)  # centering leaves at most cols - 1 directions
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v = rng.standard_normal((cols, k))
    v, _ = np.linalg.qr(v - v.mean(axis=0))  # columns orthogonal to the ones vector
    return (u * last ** (np.arange(k) / (d - 1))) @ v.T + 3.0 * rng.standard_normal((rows, 1))


@pytest.fixture
def svd_calls(monkeypatch):
    """The matrices ``np.linalg.svd`` is called on from now on."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(a) or svd(a, *args, **kw))
    return calls


class TestPcaGramRoute:
    """``pca_basis`` from the smaller Gram matrix against the SVD fit it
    replaces (``util.pca_fit_reference``), on tall and wide data."""

    D = 8

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(60, 40), (40, 60), (200, 120), (120, 200)],
                             ids=["tall", "wide", "tall-large", "wide-large"])
    @pytest.mark.parametrize("last, tol", [(0.5, 1e-12), (1e-2, 1e-12), (1e-3, 1e-7), (1.2e-4, 1e-7)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_projections_match_the_svd_oracle(self, shape, last, tol, seed, svd_calls):
        x = decaying_spectrum(shape, self.D, last, seed)
        want_mean, want_basis = pca_fit_reference(x, self.D)
        c = x - want_mean
        svd_calls.clear()
        basis = pca_basis(c, self.D)
        assert svd_calls == []  # the Gram route: no SVD
        got, want = basis.T @ c, want_basis.T @ c
        rel = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert rel.max() <= tol
        # the sign convention: each column's first entry above 1e-12 is positive
        first = np.argmax(np.abs(basis) > 1e-12, axis=0)
        assert np.all(basis[first, np.arange(self.D)] > 0)
        assert np.allclose(basis.T @ basis, np.eye(self.D), atol=1e-7)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(60, 40), (40, 60)], ids=["tall", "wide"])
    @pytest.mark.parametrize("last", [8e-5, 1e-6])
    def test_below_the_gate_takes_the_svd_bit_for_bit(self, shape, last, svd_calls):
        x = decaying_spectrum(shape, self.D, last, 3)
        basis = pca_basis(centered(x), self.D)
        assert len(svd_calls) == 1
        _, want_basis = pca_fit_reference(x, self.D)
        assert np.array_equal(basis, want_basis)

    def test_the_gate_is_on_the_d_th_eigenvalue(self, svd_calls):
        # the same data fits its first components from the Gram matrix and
        # all of them, down past 1e-4 of the first singular value, by SVD
        x = decaying_spectrum((40, 60), self.D, 1e-5, 4)
        pca_basis(centered(x), 3)
        assert svd_calls == []
        pca_basis(centered(x), self.D)
        assert len(svd_calls) == 1


class TestActivation:
    def test_tanh_forward_zero(self):
        act = Activation.TANH
        assert act.forward(np.zeros((2, 2))).tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_tanh_roundtrip_point(self):
        act = Activation.TANH
        v = np.array([[1.2345]])
        assert abs(act.inverse(act.forward(v))[0, 0] - 1.2345) < 1e-9

    def test_tanh_roundtrip_band(self):
        act = Activation.TANH
        grid = np.linspace(-5.0, 5.0, 101).reshape(1, -1)
        assert np.max(np.abs(act.inverse(act.forward(grid)) - grid)) < 1e-9

    def test_tanh_clamp_at_saturation(self):
        assert numerics.TANH_CLAMP_EPS == 1e-6
        out = Activation.TANH.inverse(np.array([[1.0]]))
        assert np.isfinite(out[0, 0])
        assert out[0, 0] == np.arctanh(1.0 - 1e-6)

    def test_identity_is_identity(self):
        act = Activation.IDENTITY
        m = np.array([[3.0, -7.0]])
        assert np.array_equal(act.forward(m), m)
        assert np.array_equal(act.inverse(m), m)

    @pytest.mark.parametrize("eps", [1e-6, 0.25])
    def test_inverse_is_arctanh_of_np_clip_bit_for_bit(self, monkeypatch, eps):
        monkeypatch.setattr(numerics, "TANH_CLAMP_EPS", eps)
        # signed zeros, the clamp bounds and their neighbours, +-1, values far
        # beyond the clamp and a dense band inside it
        edges = [0.0, -0.0, 1.0, -1.0, 1.0 - eps, -1.0 + eps, 1e300, -1e300, 2.0, -3.5, 5e-324, -5e-324]
        edges += [np.nextafter(b, t) for b in (1.0 - eps, -1.0 + eps) for t in (-2.0, 2.0)]
        m = np.concatenate([edges, np.linspace(-1.5, 1.5, 302)]).reshape(-1, 6)
        want = np.arctanh(np.clip(m, -1.0 + eps, 1.0 - eps))
        got = Activation.TANH.inverse(m)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit, the sign of every zero included
        identity = Activation.IDENTITY.inverse(m)
        assert identity.tobytes() == m.tobytes()  # never clamped

    @pytest.mark.parametrize("act", list(Activation))
    def test_forward_and_inverse_never_write_into_their_argument(self, act):
        m = np.array([[0.0, -0.0, 1.0, -1.0, 3.0], [-3.0, 0.5, -0.5, 1e-7, 1.0 - 1e-7]])
        before = m.copy()
        for fn in (act.forward, act.inverse):
            out = fn(m)
            out[...] = 42.0  # a result is the caller's own array
            assert m.tobytes() == before.tobytes()
            assert not np.shares_memory(out, m)


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(Rng(42).standard_normal(16), Rng(42).standard_normal(16))
        assert np.array_equal(Rng(42).random(16), Rng(42).random(16))
        assert np.array_equal(Rng(42).permutation(31), Rng(42).permutation(31))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).standard_normal(16), Rng(2).standard_normal(16))

    def test_substreams_reproducible(self):
        a = Rng(9).substream("drop", 3, "Z1").random(8)
        b = Rng(9).substream("drop", 3, "Z1").random(8)
        assert np.array_equal(a, b)

    def test_substreams_independent(self):
        root = Rng(9)
        a = root.substream("a").random(8)
        b = root.substream("b").random(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [2**64, -1, 1.5, 0.0, np.float64(3.0), "7", None])
    def test_rejects_a_seed_outside_its_key(self, seed):
        """A seed is an integer in [0, 2**64); anything else is rejected, not
        masked or truncated onto another seed's stream."""
        with pytest.raises(ValueError, match="^seed must be an integer"):
            Rng(seed)

    def test_every_integer_seed_of_its_key(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(5)):
            assert Rng(seed).seed == int(seed)
        assert np.array_equal(Rng(np.int64(5)).random(4), Rng(5).random(4))

    def test_substream_isolated_from_parent(self):
        r1 = Rng(9)
        _ = r1.substream("x").random(100)
        r2 = Rng(9)
        assert np.array_equal(r1.standard_normal(5), r2.standard_normal(5))


class TestHelpers:
    def test_as_matrix_rejects_empty_and_1d(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            as_matrix(np.zeros(3))

    def test_normalize_columns(self):
        d = np.array([[3.0, 0.0], [4.0, 0.0]])
        dn, scales = normalize_columns(d)
        assert np.allclose(dn[:, 0], [0.6, 0.8])
        assert scales[0] == 5.0
        # dead column untouched, scale reported as 1
        assert np.allclose(dn[:, 1], 0.0)
        assert scales[1] == 1.0
