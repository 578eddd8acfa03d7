import warnings

import numpy as np
import pytest

from rsddl.greedy import (
    Architecture,
    compose_reconstruction,
    dict_learn,
    greedy_encode,
    greedy_train,
    layerwise_factorize,
)
from rsddl.numerics import Activation, ActivationKind, NumericsWarning, Rng, normalize_columns, pinv
from util import planted_dictionary_data


class TestArchitecture:
    def test_validation(self):
        with pytest.raises(ValueError):
            Architecture(())
        with pytest.raises(ValueError):
            Architecture((4, 0))

    def test_properties(self):
        arch = Architecture((16, 8, 4))
        assert arch.depth == 3
        assert arch.feature_dim == 4


class TestDictLearn:
    def test_identity_factorizes(self):
        d, z = dict_learn(np.eye(4), 4, 1, 20, Rng(3))
        assert np.linalg.norm(np.eye(4) - d @ z) < 1e-6

    def test_objective_nonincreasing(self):
        rng = Rng(12)
        x = rng.standard_normal((8, 30))
        history = []
        dict_learn(x, 10, 2, 25, Rng(4), callback=history.append)
        assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))

    def test_planted_factorization(self):
        _, _, x = planted_dictionary_data(seed=11, ncols=20, n_supports=4)
        d, z = dict_learn(x, 15, 3, 30, Rng(1))
        rel = np.linalg.norm(x - d @ z) / np.linalg.norm(x)
        assert rel < 0.05

    def test_unit_columns(self):
        rng = Rng(13)
        x = rng.standard_normal((6, 25))
        d, _ = dict_learn(x, 8, 2, 10, Rng(5))
        norms = np.linalg.norm(d, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_warns_when_atoms_exceed_samples(self):
        with pytest.warns(NumericsWarning):
            dict_learn(np.eye(3), 5, 1, 2, Rng(0))

    def test_unused_atoms_fit_without_fallback(self):
        # codes with all-zero rows used to send every dictionary step through
        # the pseudo-inverse fallback; the live-row solve gives the same atoms
        from rsddl.greedy import _fit_dictionary

        rng = Rng(15)
        x = rng.standard_normal((6, 12))
        z = rng.standard_normal((5, 12))
        z[[1, 3]] = 0.0
        _, _, planted = planted_dictionary_data(seed=11, ncols=20, n_supports=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericsWarning)
            d = _fit_dictionary(z, x)
            dict_learn(planted, 15, 3, 30, Rng(1))
        assert np.max(np.abs(d - (pinv(z.T) @ x.T).T)) <= 1e-10
        assert np.all(d[:, [1, 3]] == 0.0)

    def test_budget_respected(self):
        rng = Rng(14)
        x = rng.standard_normal((7, 20))
        _, z = dict_learn(x, 9, 3, 8, Rng(6))
        assert np.all(np.count_nonzero(z, axis=0) <= 3)


class TestGreedyTrain:
    def test_single_layer_equals_dict_learn(self):
        model, z = greedy_train(np.eye(4), Architecture((4,)), 1, 20, Rng(3))
        d_ref, z_ref = dict_learn(np.eye(4), 4, 1, 20, Rng(3).substream("layer", 0))
        assert np.array_equal(model.dictionaries[0], d_ref)
        assert np.array_equal(z, z_ref)

    def test_three_layer_shapes_and_budgets(self):
        rng = Rng(7)
        x = rng.standard_normal((20, 60))
        model, z = greedy_train(x, Architecture((16, 8, 4)), 2, 5, Rng(7))
        assert [d.shape for d in model.dictionaries] == [(20, 16), (16, 8), (8, 4)]
        assert np.all(np.isfinite(z))
        assert np.all(np.count_nonzero(z, axis=0) <= 2)

    def test_unit_columns_every_layer(self):
        rng = Rng(8)
        x = rng.standard_normal((12, 40))
        model, _ = greedy_train(x, Architecture((10, 6, 4)), 2, 6, Rng(8))
        for d in model.dictionaries:
            assert np.allclose(np.linalg.norm(d, axis=0), 1.0, atol=1e-9)

    def test_identity_two_layer_trifactorization(self):
        act = Activation(ActivationKind.IDENTITY)
        x = np.hstack([np.eye(8), np.eye(8), 0.5 * np.eye(8)])
        model, z = greedy_train(x, Architecture((8, 8), activation=act), 2, 20, Rng(4))
        recon = compose_reconstruction(model.dictionaries, z, act)
        assert np.linalg.norm(x - recon) / np.linalg.norm(x) < 0.1

    def test_layerwise_codes_chain(self):
        rng = Rng(9)
        x = rng.standard_normal((10, 30))
        arch = Architecture((8, 6, 4))
        dicts, codes = layerwise_factorize(x, arch, 2, 5, Rng(9))
        assert len(dicts) == len(codes) == 3
        assert codes[0].shape == (8, 30)
        assert codes[1].shape == (6, 30)
        assert codes[2].shape == (4, 30)


class TestGreedyEncode:
    def test_single_layer_identity(self):
        model, _ = greedy_train(np.eye(3), Architecture((3,)), 1, 5, Rng(0))
        model.dictionaries[0] = np.eye(3)
        assert np.allclose(greedy_encode(model, [0.0, 2.0, 0.0], 1), [0.0, 2.0, 0.0])

    def _trained(self):
        rng = Rng(9)
        d0, _ = normalize_columns(rng.standard_normal((12, 10)))
        x = d0 @ np.abs(rng.standard_normal((10, 30))) * 0.3
        arch = Architecture((8, 6, 4))
        model, z = greedy_train(x, arch, 2, 10, Rng(9))
        return x, arch, model, z

    def test_training_columns_within_twice_their_residual(self):
        x, arch, model, z = self._trained()
        recon = compose_reconstruction(model.dictionaries, z, arch.activation)
        train_res = np.linalg.norm(x - recon, axis=0)
        for j in range(x.shape[1]):
            ze = greedy_encode(model, x[:, j], 2)
            r = np.linalg.norm(
                x[:, j]
                - compose_reconstruction(model.dictionaries, ze.reshape(-1, 1), arch.activation).ravel()
            )
            assert r <= 2.0 * max(train_res[j], 1e-12)

    def test_full_budget_never_worse(self):
        # nested-support property of the final-layer fit: the exhaustive
        # budget's pursuit residual is minimal
        x, arch, model, _ = self._trained()
        d1, d2, d3 = model.dictionaries
        act = arch.activation

        def deep_residual(j, s):
            z1 = np.linalg.pinv(d1) @ x[:, [j]]
            z2 = np.linalg.pinv(d2) @ act.inverse(z1)
            target = act.inverse(z2)
            ze = greedy_encode(model, x[:, j], s)
            return np.linalg.norm(target.ravel() - d3 @ ze)

        for j in range(0, 30, 7):
            full = deep_residual(j, 4)
            for s in (1, 2, 3):
                assert full <= deep_residual(j, s) + 1e-9

    def test_dimension_mismatch(self):
        model, _ = greedy_train(np.eye(3), Architecture((3,)), 1, 3, Rng(0))
        with pytest.raises(ValueError):
            greedy_encode(model, [1.0, 2.0], 1)
