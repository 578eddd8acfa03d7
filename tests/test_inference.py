import dataclasses
import weakref
from collections import Counter

import numpy as np
import pytest

from rsddl.greedy import Architecture, compose_reconstruction
from rsddl.inference import (
    _encoder,
    classify_l0,
    classify_l1,
    encode_test,
    format_prediction_lines,
    predict_batch,
)
import rsddl.inference
from rsddl.joint import DropMode, Model, TrainConfig, joint_train, resolve_budget, solve_P4, solve_P5
from rsddl.numerics import Activation, Rng
from util import (
    class_distances_reference,
    class_scores_reference,
    class_support,
    encode_reference,
    many_class_mixture,
    two_class_deep_factor_data,
)


# the two class blocks of the worked support-extraction example
CLASS1 = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.5, 0.7, 0.4],
        [0.0, 0.0, 0.0],
        [0.3, 0.2, 0.2],
        [0.0, 0.0, 0.0],
    ]
)
CLASS2 = np.array(
    [
        [1.1, 0.5, 0.9, 1.2],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.1, 0.6, 0.4, 0.5],
        [0.0, 0.0, 0.0, 0.0],
        [0.2, 0.4, 0.4, 0.2],
    ]
)


def toy_model():
    """Model storing the worked-example features (7 samples, 6 rows)."""
    features = np.hstack([CLASS1, CLASS2])
    labels = [1, 1, 1, 2, 2, 2, 2]
    arch = Architecture((6, 6, 6), activation=Activation.IDENTITY)
    dicts = [np.eye(6), np.eye(6), np.eye(6)]
    return Model(dicts, arch, features, labels, TrainConfig(seed=0))


class TestClassSupport:
    def test_first_block(self):
        assert class_support(CLASS1).tolist() == [0, 0, 1, 0, 1, 0]

    def test_second_block(self):
        assert class_support(CLASS2).tolist() == [1, 0, 0, 1, 0, 1]

    def test_all_zero(self):
        assert class_support(np.zeros((4, 3))).tolist() == [0, 0, 0, 0]


class TestClassifyShape:
    """A code matrix has one row per deepest atom; anything else is refused
    before a distance is taken."""

    @pytest.mark.parametrize("classify", [classify_l0, classify_l1])
    def test_a_vector_is_refused(self, classify):
        with pytest.raises(ValueError, match="Z must be 2-D"):
            classify(toy_model(), CLASS1[:, 0])

    @pytest.mark.parametrize("classify", [classify_l0, classify_l1])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_a_wrong_row_count_is_refused(self, classify, rows):
        # one row would broadcast against every atom
        with pytest.raises(ValueError, match=f"Z has {rows} rows, but the model's deepest layer has 6 atoms"):
            classify(toy_model(), np.full((rows, 2), 0.5))


class TestClassifyL0:
    def test_hand_counted_distances(self):
        model = toy_model()
        test_z = np.array([0.0, 0.0, 0.4, 0.0, 0.1, 0.0])
        # vs class-1 sample (0,0,0.5,0,0.3,0): rows 2 and 4 differ -> 2
        diffs1 = np.count_nonzero(np.abs(test_z - CLASS1[:, 0]) > 1e-8)
        assert diffs1 == 2
        # vs class-2 sample (1.1,0,0,0.1,0,0.2): 5 coordinates differ
        diffs2 = np.count_nonzero(np.abs(test_z - CLASS2[:, 0]) > 1e-8)
        assert diffs2 == 5
        (pred,) = classify_l0(model, test_z[:, None])
        assert pred.label == 1
        scores = dict(pred.per_class_score)
        assert scores[1] == 1.0  # nearest class-1 sample (0,0,0.4,0,0.2,0) differs on one row
        assert scores[2] == 5.0

    def test_exact_training_feature_distance_zero(self):
        model = toy_model()
        (pred,) = classify_l0(model, CLASS2[:, [1]])
        assert pred.label == 2
        assert pred.distance == 0.0

    def test_tie_breaks_to_smaller_class(self):
        features = np.array([[1.0, 0.0], [0.0, 1.0]])
        arch = Architecture((2, 2, 2), activation=Activation.IDENTITY)
        model = Model([np.eye(2)] * 3, arch, features, [1, 2], TrainConfig(seed=0))
        z = np.array([[2.0], [2.0]])  # distance 2 to both stored features
        (pred,) = classify_l0(model, z)
        assert pred.label == 1

    def test_equals_support_hamming_for_disjoint_supports(self):
        # with generic (never equal) nonzero values, the coordinate-difference
        # count is the support Hamming distance plus the support overlap; for
        # disjoint supports the two coincide exactly
        rng = Rng(31)
        for _ in range(20):
            sup = rng.permutation(8)
            a = np.zeros(8)
            b = np.zeros(8)
            a[sup[:3]] = 1.0 + rng.random(3)
            b[sup[3:6]] = 1.0 + rng.random(3)
            l0 = int(np.sum(np.abs(a - b) > 1e-8))
            hamming = int(np.sum((np.abs(a) > 1e-8) != (np.abs(b) > 1e-8)))
            assert l0 == hamming == 6

    def test_hamming_plus_overlap_identity(self):
        rng = Rng(32)
        for _ in range(20):
            a = np.zeros(10)
            b = np.zeros(10)
            a[rng.permutation(10)[:4]] = 1.0 + rng.random(4)
            b[rng.permutation(10)[:4]] = 2.5 + rng.random(4)  # never equal to a's values
            sa = np.abs(a) > 1e-8
            sb = np.abs(b) > 1e-8
            l0 = int(np.sum(np.abs(a - b) > 1e-8))
            assert l0 == int(np.sum(sa != sb)) + int(np.sum(sa & sb))


class TestClassifyL1:
    def test_hand_summed_distances(self):
        model = toy_model()
        test_z = np.array([0.0, 0.0, 0.4, 0.0, 0.1, 0.0])
        assert np.isclose(np.sum(np.abs(test_z - CLASS1[:, 0])), 0.3)
        assert np.isclose(np.sum(np.abs(test_z - CLASS2[:, 0])), 1.9)
        (pred,) = classify_l1(model, test_z[:, None])
        assert pred.label == 1

    def test_identical_zero_distance(self):
        model = toy_model()
        (pred,) = classify_l1(model, CLASS1[:, [2]])
        assert pred.distance == 0.0

    def test_scaling_invariance_of_argmin(self):
        model = toy_model()
        z = np.array([[0.0, 0.0, 0.4, 0.0, 0.1, 0.0]]).T
        (pred,) = classify_l1(model, z)
        scaled = dataclasses.replace(model, features=model.features * 3.0)
        (pred_scaled,) = classify_l1(scaled, z * 3.0)
        assert pred.label == pred_scaled.label

    def test_permutation_equivariance(self):
        model = toy_model()
        z = np.array([[0.0, 0.0, 0.4, 0.0, 0.1, 0.0]]).T
        (base,) = classify_l1(model, z)
        perm = Rng(5).permutation(7)
        shuffled = dataclasses.replace(model, features=model.features[:, perm], labels=model.labels[perm])
        (pred,) = classify_l1(shuffled, z)
        assert pred.label == base.label
        assert pred.per_class_score == base.per_class_score


def encoded_residual(model, x):
    """Each column's reconstruction residual ``||x - D1 phi(D2 phi(D3 z))||`` at
    its test code ``z``."""
    z = encode_test(model, x)
    return np.linalg.norm(x - compose_reconstruction(model.dictionaries, z, model.architecture.activation), axis=0)


class TestEncodeTest:
    def test_deterministic(self, deep_factor_model):
        data, model = deep_factor_model
        a = encode_test(model, data.x[:, [0]])
        b = encode_test(model, data.x[:, [0]])
        assert np.array_equal(a, b)

    def test_support_size_within_budget(self, deep_factor_model):
        data, model = deep_factor_model
        budget = resolve_budget(model.config, model.architecture)
        for j in range(0, data.n_samples, 5):
            z = encode_test(model, data.x[:, [j]])
            assert int(np.sum(np.abs(z) > 1e-8)) <= budget.per_column_s

    def test_training_columns_within_twice_training_residual(self, mixture_bundle):
        from rsddl.joint import DropMode

        train = mixture_bundle["train"]
        model = mixture_bundle["models"][DropMode.NONE]
        recon = compose_reconstruction(model.dictionaries, model.features, model.architecture.activation)
        col_res = np.linalg.norm(train.x - recon, axis=0)
        for j in range(0, train.n_samples, 4):
            x = train.x[:, [j]]
            assert encoded_residual(model, x)[0] <= 2.0 * max(col_res[j], 1e-12)

    def test_training_columns_typical_ratio_tanh_model(self, deep_factor_model):
        # relaxations restart at ones for test encoding, so individual tanh
        # columns can drift past 2x; the bulk stays close to training quality
        data, model = deep_factor_model
        recon = compose_reconstruction(model.dictionaries, model.features, model.architecture.activation)
        col_res = np.linalg.norm(data.x - recon, axis=0)
        ratios = []
        for j in range(data.n_samples):
            ratios.append(encoded_residual(model, data.x[:, [j]])[0] / max(col_res[j], 1e-12))
        assert np.median(ratios) <= 2.0
        assert np.mean(np.asarray(ratios) <= 2.0) >= 0.8

    def test_full_budget_never_worse_on_deep_fit(self, deep_factor_model):
        # relaxed-constraint property: on a fixed deep-layer target, the
        # exhaustive budget's pursuit residual is minimal over all budgets
        from rsddl.numerics import pinv
        from rsddl.sparse import pursuit

        data, model = deep_factor_model
        d1, d2, d3 = model.dictionaries
        act = model.architecture.activation
        a3 = model.architecture.feature_dim
        for j in (0, 7, 21):
            x = data.x[:, [j]]
            z1 = pinv(d1) @ x
            z2 = pinv(d2) @ act.inverse(z1)
            target = act.inverse(z2 - np.ones_like(z2))
            residuals = [
                np.linalg.norm(target - d3 @ pursuit(d3, target, s)) for s in range(1, a3 + 1)
            ]
            assert all(residuals[-1] <= r + 1e-9 for r in residuals)

    def test_dimension_mismatch(self, deep_factor_model):
        _, model = deep_factor_model
        with pytest.raises(ValueError, match="data dimension 3 does not match"):
            encode_test(model, np.ones((3, 1)))

    def test_a_vector_is_refused(self, deep_factor_model):
        data, model = deep_factor_model
        with pytest.raises(ValueError, match="must be 2-D"):
            encode_test(model, data.x[:, 0])

    def test_requires_three_layers(self):
        arch = Architecture((2, 2), activation=Activation.IDENTITY)
        with pytest.raises(ValueError, match="joint model needs exactly 3 layers"):
            Model(
                dictionaries=[np.eye(2), np.eye(2)],
                architecture=arch,
                features=np.eye(2),
                labels=np.array([1, 2]),
                config=TrainConfig(seed=0),
            )


def random_model(act, cfg, rng):
    """Model with random 12x9, 9x7 and 7x5 dictionaries and four stored codes."""
    dicts = [rng.standard_normal((12, 9)), 0.3 * rng.standard_normal((9, 7)), 0.3 * rng.standard_normal((7, 5))]
    arch = Architecture((9, 7, 5), activation=act)
    return Model(dicts, arch, rng.standard_normal((5, 4)), [1, 1, 2, 2], cfg)


class TestEncoderMaps:
    """The cached P4/P5 maps of the encoder against the training solves."""

    @pytest.mark.parametrize("act", [Activation.TANH, Activation.IDENTITY])
    @pytest.mark.parametrize("n", [1, 6])
    def test_maps_match_solves(self, act, n):
        rng = Rng(60).substream(act.value, n)
        for cfg in (TrainConfig(seed=0), TrainConfig(seed=0, eta1=0.3, eta2=2.5)):
            model = random_model(act, cfg, rng)
            d1, d2, d3 = model.dictionaries
            _, _, _, inv4, p4_x, p5_z1, p5_z = _encoder(model)
            x = rng.standard_normal((12, n))
            z2 = rng.standard_normal((7, n))
            b1 = rng.standard_normal((9, n))
            z1 = p4_x @ x + inv4 @ (cfg.eta1 * (act.forward(d2 @ z2) + b1))
            assert np.max(np.abs(z1 - solve_P4(x, d1, d2, z2, b1, cfg.eta1, act))) <= 1e-10
            # P5 at a Z1 - B1 inside the range of tanh
            z1 = b1 + 1.8 * rng.random((9, n)) - 0.9
            z = rng.standard_normal((5, n))
            b2 = rng.standard_normal((7, n))
            z2 = p5_z1 @ act.inverse(z1 - b1) + p5_z @ (act.forward(d3 @ z) + b2)
            ref = solve_P5(z1, b1, d2, d3, z, b2, cfg.eta1, cfg.eta2, act)
            assert np.max(np.abs(z2 - ref)) <= 1e-10


class TestRequestPath:
    """The calls of a one-sample request to a model of the benchmark's mixture
    shape (16 classes, arch 42,30,21, a budget of 5 of 21 atoms)."""

    @pytest.fixture(scope="class")
    def served(self):
        train, x_test = many_class_mixture(seed=3, n_test=1)
        model = joint_train(train, Architecture((42, 30, 21)), TrainConfig(drop_mode=DropMode.NONE, outer_iters=3, seed=3))
        predict_batch(model, x_test[:, :1])  # builds the per-model factors
        return model, x_test

    @staticmethod
    def _count(monkeypatch, counts, owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_one_pursuit_and_one_solve_per_test_iteration(self, served, monkeypatch):
        model, x_test = served
        counts = Counter()
        self._count(monkeypatch, counts, rsddl.inference, "pursuit_gram")
        self._count(monkeypatch, counts, np.linalg, "solve")
        for j in range(x_test.shape[1]):
            counts.clear()
            encode_test(model, x_test[:, [j]])
            assert counts == {"pursuit_gram": model.config.test_iters, "solve": model.config.test_iters}

    def test_predict_batch_calls_the_encoder_and_classifiers_by_module_name(self, served, monkeypatch):
        # the benchmark's tracer times a request by wrapping these module attributes
        model, x_test = served
        counts = Counter()
        for name in ("encode_test", "classify_l0", "classify_l1"):
            self._count(monkeypatch, counts, rsddl.inference, name)
        for rule in ("l0", "l1"):
            predict_batch(model, x_test[:, :1], rule=rule)
        assert counts == {"encode_test": 2, "classify_l0": 1, "classify_l1": 1}


class TestBatch:
    def test_predict_batch_and_format(self, deep_factor_model):
        data, model = deep_factor_model
        preds = predict_batch(model, data.x[:, :4], rule="l1")
        assert len(preds) == 4
        text = format_prediction_lines(preds)
        lines = text.strip().split("\n")
        assert len(lines) == 4
        first = lines[0].split("\t")
        assert first[0] == "0"
        assert first[2] == "l1"
        float(first[3])  # distance parses

    def test_unknown_rule(self, deep_factor_model):
        data, model = deep_factor_model
        with pytest.raises(ValueError):
            predict_batch(model, data.x[:, :2], rule="l2")


class TestBatchedEncoder:
    """The batched encoder and distance pass against the per-sample code they replaced."""

    @staticmethod
    def _check(model, x):
        batch = encode_test(model, x)
        preds = {rule: predict_batch(model, x, rule=rule) for rule in ("l0", "l1")}
        for j in range(x.shape[1]):
            z_ref = encode_reference(model, x[:, j])
            z = batch[:, j]
            assert np.array_equal(np.abs(z) > 1e-8, np.abs(z_ref) > 1e-8)
            assert np.max(np.abs(z - z_ref)) <= 1e-9
            single = encode_test(model, x[:, [j]])[:, 0]
            assert np.max(np.abs(single - z)) <= 1e-9
            for rule, pred in preds.items():
                ref = class_distances_reference(model, z, rule)
                best = min(score for _, score in ref)
                assert pred[j].label == next(c for c, score in ref if score == best)
                assert pred[j].per_class_score == ref
            assert preds["l0"][j].per_class_score == class_distances_reference(model, z_ref, "l0")

    def test_deep_factor_model(self, deep_factor_model):
        data, model = deep_factor_model
        self._check(model, data.x)

    def test_mixture_models(self, mixture_bundle):
        for model in mixture_bundle["models"].values():
            self._check(model, mixture_bundle["x_test"][:, ::5])

    def test_single_sample_is_batch_of_one(self, mixture_bundle):
        x = mixture_bundle["x_test"][:, ::5]
        assert x.shape[1] == 80
        for model in mixture_bundle["models"].values():
            batch = encode_test(model, x)
            labels = {rule: [p.label for p in predict_batch(model, x, rule=rule)] for rule in ("l0", "l1")}
            for j in range(x.shape[1]):
                single = encode_test(model, x[:, [j]])[:, 0]
                assert np.array_equal(single != 0.0, batch[:, j] != 0.0)
                assert np.max(np.abs(single - batch[:, j])) <= 1e-12
                for rule, batch_labels in labels.items():
                    assert predict_batch(model, x[:, [j]], rule=rule)[0].label == batch_labels[j]

    def test_distance_pass_is_chunked(self, deep_factor_model, monkeypatch):
        import rsddl.inference as inference

        data, model = deep_factor_model
        whole = predict_batch(model, data.x, rule="l1")
        monkeypatch.setattr(inference, "_DISTANCE_CHUNK", 3 * model.features.shape[1])
        chunked = predict_batch(model, data.x, rule="l1")
        assert [p.per_class_score for p in chunked] == [p.per_class_score for p in whole]


class TestDistancePass:
    """One array operation per chunk against the atom-by-atom row loop: the
    same distances and per-class scores, bit for bit."""

    @staticmethod
    def _check(model, z):
        classes = range(1, model.num_classes + 1)
        for rule, classify in (("l0", classify_l0), ("l1", classify_l1)):
            want = class_scores_reference(model, z, rule)
            preds = classify(model, z)
            assert [p.per_class_score for p in preds] == [list(zip(classes, row)) for row in want.tolist()]
            assert np.array_equal([p.distance for p in preds], want.min(axis=1))
            assert [p.label for p in preds] == (want.argmin(axis=1) + 1).tolist()

    @staticmethod
    def _model(rng, n_classes, per_class):
        """A joint model of 21 deepest atoms whose stored codes have 5 nonzeros each."""
        dicts = [rng.standard_normal((40, 30)), rng.standard_normal((30, 25)), rng.standard_normal((25, 21))]
        features = rng.standard_normal((21, n_classes * per_class))
        features[np.argsort(rng.random(features.shape), axis=0)[5:], np.arange(features.shape[1])] = 0.0
        labels = np.repeat(np.arange(1, n_classes + 1), per_class)
        return Model(dicts, Architecture((30, 25, 21)), features, labels, TrainConfig(seed=0))

    def test_one_training_sample(self):
        # a length-1 training axis, where numpy's sum over atoms would add pairwise
        rng = Rng(5)
        model = self._model(rng, 1, 1)
        z = rng.standard_normal((21, 40))
        z[rng.random((21, 40)) < 0.5] = 0.0
        self._check(model, z)
        for j in range(z.shape[1]):  # pairwise and atom-by-atom sums differ on about half of them
            self._check(model, z[:, [j]])

    def test_batch_over_several_chunks(self, monkeypatch):
        rng = Rng(6)
        model = self._model(rng, 16, 25)
        z = rng.standard_normal((21, 50))
        z[np.argsort(rng.random(z.shape), axis=0)[5:], np.arange(50)] = 0.0
        z[:, :8] = model.features[:, ::50]  # distance 0 to a stored code
        monkeypatch.setattr(rsddl.inference, "_DISTANCE_CHUNK", 3 * model.features.size)
        self._check(model, z)  # 17 chunks of at most 3 columns
        self._check(model, z[:, [9]])


class TestModelCache:
    """A model is frozen, so its cached factors never go stale; a model made
    by ``dataclasses.replace`` computes its own."""

    def test_assignment_is_refused(self):
        model = toy_model()
        for name, value in (("features", np.eye(6)), ("config", TrainConfig(seed=1)), ("cache", {})):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, value)
        with pytest.raises(ValueError, match="read-only"):
            model.features[0, 0] = 1.0

    def test_replaced_arrays_are_seen(self):
        model = toy_model()
        z = np.array([[0.0, 0.0, 0.4, 0.0, 0.1, 0.0]]).T
        x = z.copy()  # identity dictionaries
        before = classify_l1(model, z)
        encoded = encode_test(model, x)
        swapped = dataclasses.replace(model, features=np.hstack([CLASS2, CLASS1]), labels=[1, 1, 1, 1, 2, 2, 2])
        after = classify_l1(swapped, z)
        assert before[0].label == 1 and after[0].label == 2
        scaled = dataclasses.replace(model, dictionaries=[2.0 * np.eye(6), np.eye(6), np.eye(6)])
        assert not np.allclose(encode_test(scaled, x), encoded)
        assert classify_l1(model, z) == before
        assert np.array_equal(encode_test(model, x), encoded)

    def test_config_change_is_seen(self, deep_factor_model):
        data, model = deep_factor_model
        base = encode_test(model, data.x[:, :3])
        other = TrainConfig(seed=7, eta1=5.0, eta2=0.2)
        changed = encode_test(dataclasses.replace(model, config=other), data.x[:, :3])
        assert not np.allclose(base, changed)
        fresh = Model(model.dictionaries, model.architecture, model.features, model.labels, other)
        assert np.array_equal(changed, encode_test(fresh, data.x[:, :3]))
        assert np.array_equal(base, encode_test(model, data.x[:, :3]))

    def test_replaced_model_gets_own_factors(self):
        base = TrainConfig(seed=0)
        model = random_model(Activation.TANH, base, Rng(61))
        before = _encoder(model)
        for other in (dataclasses.replace(base, eta1=0.4), dataclasses.replace(base, eta2=3.0)):
            maps = _encoder(dataclasses.replace(model, config=other))
            fresh = Model(model.dictionaries, model.architecture, model.features, model.labels, other)
            for got, want, old in zip(maps[3:], _encoder(fresh)[3:], before[3:]):
                assert np.array_equal(got, want)
            assert any(not np.allclose(got, old) for got, old in zip(maps[3:], before[3:]))
        assert _encoder(model) is before

    def test_no_reference_cycle(self):
        import gc

        model = toy_model()
        predict_batch(model, np.eye(6), rule="l0")
        assert model.cache
        ref = weakref.ref(model)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
