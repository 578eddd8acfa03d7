import dataclasses
import warnings

import numpy as np
import pytest

from rsddl.greedy import (
    Architecture,
    _als_factorize,
    compose_reconstruction,
    dict_learn,
    layerwise_factorize,
)
from rsddl.inference import encode_test, predict_batch
from rsddl.joint import Model, TrainConfig
from rsddl.numerics import Activation, NumericsWarning, Rng, lstsq, normalize_columns, pinv
from util import (
    MIXTURE_ARCH,
    als_factorize_reference,
    class_distances_reference,
    greedy_encode,
    many_class_mixture,
    planted_dictionary_data,
)


def greedy_model(x, arch, s, iters, rng, labels=None):
    """``rsddl train --mode greedy`` without the files: a ``greedy`` model
    with budget ``s`` (one class unless ``labels`` are given), and the
    deepest training codes."""
    dicts, codes = layerwise_factorize(x, arch, s, iters, rng)
    labels = np.ones(x.shape[1], dtype=np.int64) if labels is None else labels
    cfg = TrainConfig(per_column_s=s, row_s=s, seed=0)
    return Model(dicts, arch, codes[-1], labels, cfg, mode="greedy"), codes[-1]


class TestArchitecture:
    def test_validation(self):
        with pytest.raises(ValueError):
            Architecture(())
        with pytest.raises(ValueError):
            Architecture((4, 0))

    def test_atom_counts_are_integers(self):
        # a float count used to be truncated: (5.7, 3, 2) became (5, 3, 2)
        for atoms in ((5.7, 3, 2), (5.0, 3, 2), ("5", 3, 2)):
            with pytest.raises(ValueError, match="atom count must be an integer"):
                Architecture(atoms)
        arch = Architecture((np.int64(5), np.int32(3), 2))
        assert arch.atoms_per_layer == (5, 3, 2)
        assert all(type(a) is int for a in arch.atoms_per_layer)

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
        # a k-iteration run is the first k iterations of a longer one: the Rng
        # is drawn only for the initial dictionary
        history = []
        for k in range(1, 26):
            d, z = dict_learn(x, 10, 2, k, Rng(4))
            history.append(float(np.linalg.norm(x - d @ z)))
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
        rng = Rng(15)
        x = rng.standard_normal((6, 12))
        z = rng.standard_normal((5, 12))
        z[[1, 3]] = 0.0
        _, _, planted = planted_dictionary_data(seed=11, ncols=20, n_supports=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericsWarning)
            d = lstsq(x, z)
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
        dicts, codes = layerwise_factorize(np.eye(4), Architecture((4,)), 1, 20, Rng(3))
        d_ref, z_ref = dict_learn(np.eye(4), 4, 1, 20, Rng(3).substream("layer", 0))
        assert np.array_equal(dicts[0], d_ref)
        assert np.array_equal(codes[-1], z_ref)

    def test_three_layer_shapes_and_budgets(self):
        rng = Rng(7)
        x = rng.standard_normal((20, 60))
        dicts, codes = layerwise_factorize(x, Architecture((16, 8, 4)), 2, 5, Rng(7))
        z = codes[-1]
        assert [d.shape for d in dicts] == [(20, 16), (16, 8), (8, 4)]
        assert np.all(np.isfinite(z))
        assert np.all(np.count_nonzero(z, axis=0) <= 2)

    def test_unit_columns_every_layer(self):
        rng = Rng(8)
        x = rng.standard_normal((12, 40))
        dicts, _ = layerwise_factorize(x, Architecture((10, 6, 4)), 2, 6, Rng(8))
        for d in dicts:
            assert np.allclose(np.linalg.norm(d, axis=0), 1.0, atol=1e-9)

    def test_identity_two_layer_trifactorization(self):
        act = Activation.IDENTITY
        x = np.hstack([np.eye(8), np.eye(8), 0.5 * np.eye(8)])
        # the live code rows of the last layer are linearly dependent: their
        # fit takes pinv, as it always did, but no longer warns
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericsWarning)
            dicts, codes = layerwise_factorize(x, Architecture((8, 8), activation=act), 2, 20, Rng(4))
        recon = compose_reconstruction(dicts, codes[-1], act)
        assert np.linalg.norm(x - recon) / np.linalg.norm(x) < 0.1

    def test_wide_layer_takes_minimum_norm_fit(self):
        # more atoms than rows and than samples: singular by shape, solved
        # without the warning fallback
        x = Rng(0).standard_normal((6, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericsWarning)
            d, z = _als_factorize(x, 8, 3, Rng(1))
        assert d.shape == (6, 8) and z.shape == (8, 5)
        assert np.allclose(np.linalg.norm(d, axis=0), 1.0, atol=1e-12)
        assert np.linalg.norm(x - d @ z) <= 1e-10 * np.linalg.norm(x)
        # Z is the minimum-norm fit of X on the final D
        assert np.allclose(z, pinv(d) @ x, atol=1e-10)

    def test_als_matches_reference(self):
        x = many_class_mixture()[0].x  # 60 x 400: 80 atoms take the reference's shape switch
        for atoms in (30, 42, 60, 80):
            d, z = _als_factorize(x, atoms, 10, Rng(atoms))
            d_ref, z_ref = als_factorize_reference(x, atoms, 10, Rng(atoms))
            assert np.linalg.norm(d - d_ref) <= 1e-10 * np.linalg.norm(d_ref)
            assert np.linalg.norm(z - z_ref) <= 1e-10 * np.linalg.norm(z_ref)

    def test_layerwise_matches_reference(self):
        # the warm start of the benchmark's mixture: the reference ALS for the
        # upper layers, then dict_learn on the reference chain's target
        x = many_class_mixture()[0].x
        arch, rng = Architecture((42, 30, 21)), Rng(7).substream("init")
        dicts, codes = layerwise_factorize(x, arch, 4, 10, rng)
        target, refs = x, []
        for idx, atoms in enumerate(arch.atoms_per_layer[:-1]):
            d_ref, z_ref = als_factorize_reference(target, atoms, 10, rng.substream("layer", idx))
            refs.append((d_ref, z_ref))
            target = arch.activation.inverse(z_ref)
        refs.append(dict_learn(target, 21, 4, 10, rng.substream("layer", 2)))
        for d, z, (d_ref, z_ref) in zip(dicts, codes, refs):
            assert np.linalg.norm(d - d_ref) <= 1e-10 * np.linalg.norm(d_ref)
            assert np.linalg.norm(z - z_ref) <= 1e-10 * np.linalg.norm(z_ref)
        assert np.array_equal(codes[-1] != 0.0, refs[-1][1] != 0.0)

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
    """The greedy branch of ``encode_test`` (its oracle is ``util.greedy_encode``)."""

    def test_single_layer_identity(self):
        model, _ = greedy_model(np.eye(3), Architecture((3,)), 1, 5, Rng(0))
        model = dataclasses.replace(model, dictionaries=[np.eye(3)])
        assert np.allclose(encode_test(model, [[0.0], [2.0], [0.0]]), [[0.0], [2.0], [0.0]])

    def _trained(self, atoms=(8, 6, 4)):
        rng = Rng(9)
        d0, _ = normalize_columns(rng.standard_normal((12, 10)))
        x = d0 @ np.abs(rng.standard_normal((10, 30))) * 0.3
        arch = Architecture(atoms)
        model, z = greedy_model(x, arch, 2, 10, Rng(9), labels=1 + np.arange(30) % 2)
        return x, arch, model, z

    @staticmethod
    def _check_against_reference(model, x):
        """Batch and batches of one against the oracle: same supports,
        |dz| <= 1e-9 and the oracle code's l0/l1 labels."""
        s = model.config.per_column_s
        batch = encode_test(model, x)
        labels = {rule: [p.label for p in predict_batch(model, x, rule=rule)] for rule in ("l0", "l1")}
        for j in range(x.shape[1]):
            z_ref = greedy_encode(model, x[:, j], s)
            for z in (batch[:, j], encode_test(model, x[:, [j]])[:, 0]):
                assert np.array_equal(z != 0.0, z_ref != 0.0)
                assert np.max(np.abs(z - z_ref)) <= 1e-9
            for rule, got in labels.items():
                ref = class_distances_reference(model, z_ref, rule)
                best = min(score for _, score in ref)
                assert got[j] == next(c for c, score in ref if score == best)
                assert predict_batch(model, x[:, [j]], rule=rule)[0].label == got[j]

    @pytest.mark.parametrize("atoms", [(8, 6, 4), (8, 4), (4,)])
    def test_matches_reference(self, atoms):
        x, _, model, _ = self._trained(atoms)
        self._check_against_reference(model, x)

    def test_mixture_fixture_matches_reference(self, mixture_bundle):
        train = mixture_bundle["train"]
        model, _ = greedy_model(train.x, MIXTURE_ARCH, 1, 15, Rng(7), labels=train.labels)
        self._check_against_reference(model, mixture_bundle["x_test"][:, ::5])

    def test_training_columns_within_twice_their_residual(self):
        x, arch, model, z = self._trained()
        recon = compose_reconstruction(model.dictionaries, z, arch.activation)
        train_res = np.linalg.norm(x - recon, axis=0)
        test_recon = compose_reconstruction(model.dictionaries, encode_test(model, x), arch.activation)
        r = np.linalg.norm(x - test_recon, axis=0)
        assert np.all(r <= 2.0 * np.maximum(train_res, 1e-12))

    def test_full_budget_never_worse(self):
        # nested-support property of the final-layer fit: the exhaustive
        # budget's pursuit residual is minimal
        x, arch, model, _ = self._trained()
        d1, d2, d3 = model.dictionaries
        act = arch.activation
        target = act.inverse(np.linalg.pinv(d2) @ act.inverse(np.linalg.pinv(d1) @ x[:, 0:30:7]))

        def deep_residual(s):
            at_s = dataclasses.replace(model, config=TrainConfig(per_column_s=s, row_s=s, seed=0))
            return np.linalg.norm(target - d3 @ encode_test(at_s, x[:, 0:30:7]), axis=0)

        full = deep_residual(4)
        for s in (1, 2, 3):
            assert np.all(full <= deep_residual(s) + 1e-9)

    def test_dimension_mismatch(self):
        model, _ = greedy_model(np.eye(3), Architecture((3,)), 1, 3, Rng(0))
        with pytest.raises(ValueError):
            encode_test(model, [[1.0], [2.0]])
