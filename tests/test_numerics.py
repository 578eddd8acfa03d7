import numpy as np
import pytest

from rsddl.numerics import (
    Activation,
    ActivationKind,
    NumericsWarning,
    Rng,
    as_matrix,
    normalize_columns,
    pca_fit,
    pinv,
    ridge_solve,
)


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


class TestRidgeSolve:
    def test_alpha_zero_identity(self):
        x = ridge_solve(np.eye(2), np.array([[3.0], [4.0]]))
        assert np.allclose(x, [[3.0], [4.0]])

    def test_matches_normal_equation_oracle(self):
        rng = Rng(5)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((6, 2))
        # independent oracle: explicit inverse of the 4x4 normal matrix
        oracle = np.linalg.inv(a.T @ a) @ (a.T @ b)
        assert np.allclose(ridge_solve(a, b), oracle, atol=1e-9)

    def test_alpha_zero_full_rank_matches_pinv(self):
        rng = Rng(6)
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((7, 2))
        assert np.allclose(ridge_solve(a, b), pinv(a) @ b, atol=1e-8)

    def test_singular_falls_back_with_warning(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank 1
        b = np.array([[1.0], [2.0]])
        with pytest.warns(NumericsWarning, match="fallback"):
            x = ridge_solve(a, b)
        assert np.allclose(x, pinv(a) @ b)


class TestPcaFit:
    def test_identical_columns_project_to_zero(self):
        x = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 5))
        with pytest.warns(NumericsWarning):
            mean, basis = pca_fit(x, 1)
        assert np.allclose(basis.T @ (x - mean), 0.0)

    def test_line_cloud_basis(self):
        # points on y = x: eigendecomposition of the covariance by hand gives
        # the direction (1, 1)/sqrt(2)
        x = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        _, basis = pca_fit(x, 1)
        assert np.allclose(np.abs(basis[:, 0]), 1.0 / np.sqrt(2.0), atol=1e-12)
        assert basis[0, 0] > 0  # sign convention

    def test_orthonormal_basis(self):
        rng = Rng(2)
        x = rng.standard_normal((6, 30))
        _, basis = pca_fit(x, 4)
        assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-9)

    def test_full_rank_reconstruction(self):
        rng = Rng(3)
        x = rng.standard_normal((5, 40))
        mean, basis = pca_fit(x, 5)
        centered = x - mean
        recon = basis @ (basis.T @ centered)
        assert np.linalg.norm(recon - centered) / np.linalg.norm(centered) < 1e-8

    def test_rank_deficient_pads_orthonormal(self):
        rng = Rng(4)
        base = rng.standard_normal((6, 2))
        x = base @ rng.standard_normal((2, 20))  # rank 2
        with pytest.warns(NumericsWarning):
            _, basis = pca_fit(x, 5)
        assert np.allclose(basis.T @ basis, np.eye(5), atol=1e-9)

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            pca_fit(np.eye(3), 4)


class TestActivation:
    def test_tanh_forward_zero(self):
        act = Activation()
        assert act.forward(np.zeros((2, 2))).tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_tanh_roundtrip_point(self):
        act = Activation()
        v = np.array([[1.2345]])
        assert abs(act.inverse(act.forward(v))[0, 0] - 1.2345) < 1e-9

    def test_tanh_roundtrip_band(self):
        act = Activation()
        grid = np.linspace(-5.0, 5.0, 101).reshape(1, -1)
        assert np.max(np.abs(act.inverse(act.forward(grid)) - grid)) < 1e-9

    def test_tanh_clamp_at_saturation(self):
        act = Activation(clamp_eps=1e-6)
        out = act.inverse(np.array([[1.0]]))
        assert np.isfinite(out[0, 0])
        assert out[0, 0] == np.arctanh(1.0 - 1e-6)

    def test_identity_is_identity(self):
        act = Activation(kind=ActivationKind.IDENTITY)
        m = np.array([[3.0, -7.0]])
        assert np.array_equal(act.forward(m), m)
        assert np.array_equal(act.inverse(m), m)

    def test_clamp_eps_positive(self):
        with pytest.raises(ValueError):
            Activation(clamp_eps=0.0)

    @pytest.mark.parametrize("eps", [1e-6, 0.25])
    def test_inverse_is_arctanh_of_np_clip_bit_for_bit(self, eps):
        # signed zeros, the clamp bounds and their neighbours, +-1, values far
        # beyond the clamp and a dense band inside it
        edges = [0.0, -0.0, 1.0, -1.0, 1.0 - eps, -1.0 + eps, 1e300, -1e300, 2.0, -3.5, 5e-324, -5e-324]
        edges += [np.nextafter(b, t) for b in (1.0 - eps, -1.0 + eps) for t in (-2.0, 2.0)]
        m = np.concatenate([edges, np.linspace(-1.5, 1.5, 302)]).reshape(-1, 6)
        want = np.arctanh(np.clip(m, -1.0 + eps, 1.0 - eps))
        got = Activation(clamp_eps=eps).inverse(m)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit, the sign of every zero included
        identity = Activation(kind=ActivationKind.IDENTITY, clamp_eps=eps).inverse(m)
        assert identity.tobytes() == m.tobytes()  # never clamped

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_forward_and_inverse_never_write_into_their_argument(self, kind):
        act = Activation(kind=kind)
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
