import math

import numpy as np
import pytest

from boostlab.boosting import (BoostConfig, Classifier, ConfigError, Ensemble,
                               ModelFormatError, compute_gradients, from_json,
                               init_base_score, load_model, loss_value,
                               save_model, to_json, train, train_classifier)
from boostlab.dataset import CATEGORICAL, TARGET, DatasetError

from conftest import make_dataset, regression_dataset


class TestComputeGradients:
    def test_squared_error_analytic(self):
        g, h = compute_gradients("squared_error", np.array([1.0]), np.array([3.0]))
        assert g[0] == 2.0 and h[0] == 1.0

    def test_logistic_at_zero_score(self):
        g, h = compute_gradients("logistic", np.array([1.0]), np.array([0.0]))
        assert g[0] == pytest.approx(-0.5)
        assert h[0] == pytest.approx(0.25)

    def test_zero_gradient_at_minimizer(self):
        g, _ = compute_gradients("squared_error", np.array([2.5]), np.array([2.5]))
        assert g[0] == 0.0
        # logistic minimizer: raw -> +inf for y=1; at large raw g ~ 0
        g, _ = compute_gradients("logistic", np.array([1.0]), np.array([29.0]))
        assert abs(g[0]) < 1e-12

    def test_logistic_rejects_other_targets(self):
        with pytest.raises(ValueError, match="0,1"):
            compute_gradients("logistic", np.array([2.0]), np.array([0.0]))

    @pytest.mark.parametrize("loss,targets", [
        ("squared_error", None),
        ("logistic", None),
    ])
    def test_matches_central_finite_differences(self, loss, targets, rng):
        raws = rng.uniform(-3.0, 3.0, size=10)
        ys = (rng.integers(0, 2, size=10).astype(float) if loss == "logistic"
              else rng.uniform(-2.0, 2.0, size=10))
        eps = 1e-3  # balances O(eps^2) truncation vs cancellation noise

        def loss_at(y, raw):
            if loss == "squared_error":
                return 0.5 * (raw - y) ** 2
            p = 1.0 / (1.0 + math.exp(-raw))
            return -(y * math.log(p) + (1 - y) * math.log(1 - p))

        g, h = compute_gradients(loss, ys, raws)
        for i in range(10):
            num_g = (loss_at(ys[i], raws[i] + eps) - loss_at(ys[i], raws[i] - eps)) / (2 * eps)
            num_h = (loss_at(ys[i], raws[i] + eps) - 2 * loss_at(ys[i], raws[i])
                     + loss_at(ys[i], raws[i] - eps)) / eps ** 2
            assert g[i] == pytest.approx(num_g, rel=1e-6, abs=1e-9)
            assert h[i] == pytest.approx(num_h, rel=1e-6, abs=1e-9)


class TestInitBaseScore:
    def test_squared_error_mean(self):
        assert init_base_score("squared_error", np.array([1.0, 3.0])) == 2.0

    def test_logistic_log_odds(self):
        assert init_base_score("logistic", np.array([0.0, 1.0])) == 0.0

    def test_logistic_clips_pure_targets(self):
        base = init_base_score("logistic", np.array([1.0, 1.0, 1.0]))
        assert base == pytest.approx(math.log((1 - 1e-6) / 1e-6))

    def test_empty_targets(self):
        with pytest.raises(ValueError):
            init_base_score("squared_error", np.array([]))


class TestConfigValidation:
    def test_goss_requires_leaf_wise(self):
        with pytest.raises(ConfigError, match="leaf_wise"):
            BoostConfig(goss_a=0.2, goss_b=0.1).validate()

    def test_ordered_requires_oblivious(self):
        with pytest.raises(ConfigError, match="oblivious"):
            BoostConfig(ordered_blocks=4).validate()

    def test_goss_fractions(self):
        with pytest.raises(ConfigError):
            BoostConfig(grower="leaf_wise", goss_a=0.9, goss_b=0.2).validate()

    def test_defaults_valid(self):
        BoostConfig().validate()

    @pytest.mark.parametrize("field", ["lambda_", "gamma", "min_child_hessian"])
    def test_nan_regularization_rejected(self, field):
        with pytest.raises(ConfigError, match=">= 0"):
            BoostConfig(**{field: float("nan")}).validate()


class TestTrain:
    def test_zero_trees_predicts_base_score(self):
        ds = regression_dataset(n=20)
        ens = train(ds, BoostConfig(n_trees=0))
        assert len(ens.trees) == 0
        preds = ens.predict(ds)
        np.testing.assert_allclose(preds, ds.columns["y"].mean())

    def test_exact_interpolation(self, rng):
        # distinct rows, lam=0, gamma=0, full shrinkage: every instance gets
        # its own leaf and training error vanishes
        n = 16
        ds = make_dataset({"x0": rng.permutation(n).astype(float),
                           "y": rng.normal(size=n)}, kinds={"y": TARGET})
        cfg = BoostConfig(n_trees=8, learning_rate=1.0, lambda_=0.0, gamma=0.0,
                          max_depth=5, min_child_hessian=0.0)
        ens = train(ds, cfg)
        rmse = np.sqrt(np.mean((ens.predict(ds) - ds.columns["y"]) ** 2))
        assert rmse < 1e-9

    def test_beats_base_predictor(self):
        ds = regression_dataset(n=200, n_features=1, noise=0.01, seed=5)
        y = ds.columns["y"]
        ens = train(ds, BoostConfig(n_trees=100, learning_rate=0.1))
        rmse = np.sqrt(np.mean((ens.predict(ds) - y) ** 2))
        base_rmse = np.sqrt(np.mean((y - y.mean()) ** 2))
        assert rmse < base_rmse

    def test_monotone_training_loss(self):
        ds = regression_dataset(n=150, seed=3)
        y = ds.columns["y"]
        for alpha in (0.1, 0.5, 1.0):
            cfg = BoostConfig(n_trees=40, learning_rate=alpha, gamma=0.0)
            ens = train(ds, cfg)
            losses = [loss_value("squared_error", y, ens.predict(ds, n_trees=k))
                      for k in range(len(ens.trees) + 1)]
            diffs = np.diff(losses)
            assert np.all(diffs <= 1e-12), f"loss increased at alpha={alpha}"

    def test_missing_target_rejected(self):
        ds = make_dataset({"x0": [1.0, 2.0]})
        with pytest.raises(DatasetError, match="target"):
            train(ds, BoostConfig(n_trees=1))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_target_rejected(self, bad):
        ds = regression_dataset(n=20)
        ds.columns["y"][5] = bad
        with pytest.raises(DatasetError, match="infinite"):
            train(ds, BoostConfig(n_trees=1))

    def test_categorical_features_are_encoded(self):
        ds = make_dataset(
            {"c": ["a", "b", "a", "b"] * 5, "y": [1.0, 2.0, 1.0, 2.0] * 5},
            kinds={"c": CATEGORICAL, "y": TARGET})
        ens = train(ds, BoostConfig(n_trees=5, min_child_hessian=0.0))
        assert ens.feature_names == ["c=a", "c=b"]
        preds = ens.predict(ds)
        assert np.corrcoef(preds, ds.columns["y"])[0, 1] > 0.99

    def test_zero_base_score_flag(self):
        ds = regression_dataset(n=30)
        ens = train(ds, BoostConfig(n_trees=0, zero_base_score=True))
        np.testing.assert_array_equal(ens.predict(ds), 0.0)


class TestPredict:
    def test_leaf_arithmetic(self):
        ds = regression_dataset(n=30, seed=9)
        ens = train(ds, BoostConfig(n_trees=1, learning_rate=0.3))
        X = ens.feature_matrix(ds)
        expected = ens.base_score + 0.3 * ens.trees[0].predict_matrix(X)
        np.testing.assert_allclose(ens.predict(ds), expected, atol=1e-15)

    def test_single_leaf_contribution(self):
        # base 0.5, one tree whose only leaf weighs -0.625, shrinkage 0.3
        from boostlab.growers import DecisionTree, TreeNode
        tree = DecisionTree([TreeNode(is_leaf=True, weight=-0.625)])
        ens = Ensemble([tree], base_score=0.5, learning_rate=0.3,
                       loss="squared_error", feature_names=["x0"])
        out = ens.predict(np.array([[1.0]]))
        assert out[0] == pytest.approx(0.3125)

    def test_logistic_probability_at_zero(self):
        ds = make_dataset({"x0": [0.0, 1.0], "y": [0.0, 1.0]}, kinds={"y": TARGET})
        ens = train(ds, BoostConfig(n_trees=0, loss="logistic"))
        assert ens.predict_proba(ds)[0] == pytest.approx(0.5)

    def test_additivity(self):
        ds = regression_dataset(n=80, seed=2)
        ens = train(ds, BoostConfig(n_trees=10))
        X = ens.feature_matrix(ds)
        for j in range(1, len(ens.trees) + 1):
            upto = ens.predict(ds, n_trees=j)
            prev = ens.predict(ds, n_trees=j - 1)
            contrib = ens.learning_rate * ens.trees[j - 1].predict_matrix(X)
            np.testing.assert_allclose(upto, prev + contrib, atol=1e-12)

    def test_missing_feature_column_rejected(self):
        ds = regression_dataset(n=20)
        ens = train(ds, BoostConfig(n_trees=1))
        bad = make_dataset({"x0": [1.0]})
        with pytest.raises(DatasetError, match="missing feature column"):
            ens.predict(bad)


class TestDeterminismAndPersistence:
    def test_identical_runs_serialize_identically(self):
        for grower, extra in (("level_wise", {}), ("leaf_wise", {}),
                              ("oblivious", {}),
                              ("leaf_wise", {"goss_a": 0.3, "goss_b": 0.3}),
                              ("oblivious", {"ordered_blocks": 3})):
            ds = regression_dataset(n=60, seed=8)
            cfg = BoostConfig(n_trees=5, grower=grower, max_depth=3, **extra)
            a = to_json(train(ds, cfg))
            b = to_json(train(ds, cfg))
            assert a == b, grower

    def test_round_trip_predictions_bit_identical(self, tmp_path):
        ds = regression_dataset(n=100, seed=4)
        ens = train(ds, BoostConfig(n_trees=20, max_depth=4))
        path = tmp_path / "model.json"
        save_model(ens, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.predict(ds), ens.predict(ds))
        assert to_json(back) == to_json(ens)

    def test_seventeen_digit_floats_in_document(self):
        ds = regression_dataset(n=30, seed=6)
        ens = train(ds, BoostConfig(n_trees=1))
        text = to_json(ens)
        parsed = from_json(text)
        assert parsed.base_score == ens.base_score

    def test_corrupted_json_raises_with_diagnostics(self, tmp_path):
        ds = regression_dataset(n=20)
        ens = train(ds, BoostConfig(n_trees=1))
        text = to_json(ens)
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            from_json(text[:-10])

    def test_version_mismatch_rejected(self):
        with pytest.raises(ModelFormatError, match="version"):
            from_json('{"format": "boostlab.model", "version": 99}')

    def test_wrong_format_rejected(self):
        with pytest.raises(ModelFormatError, match="format"):
            from_json('{"format": "something.else", "version": 1}')


class TestClassifier:
    def test_two_value_target_maps_to_binary(self):
        ds = make_dataset({"x0": [0.0, 0.1, 1.0, 1.1] * 10,
                           "t": [1.0, 1.0, 2.0, 2.0] * 10}, kinds={"t": TARGET})
        clf = train_classifier(ds, BoostConfig(n_trees=20, max_depth=2,
                                               min_child_hessian=0.0))
        assert clf.classes == [1.0, 2.0]
        assert len(clf.ensembles) == 1
        pred = clf.predict_class(ds)
        np.testing.assert_array_equal(pred, ds.columns["t"])

    def test_three_classes_one_vs_rest(self):
        ds = make_dataset({"x0": [0.0, 1.0, 2.0] * 12,
                           "t": [0.0, 5.0, 9.0] * 12}, kinds={"t": TARGET})
        clf = train_classifier(ds, BoostConfig(n_trees=15, max_depth=2,
                                               min_child_hessian=0.0))
        assert clf.classes == [0.0, 5.0, 9.0]
        assert len(clf.ensembles) == 3
        proba = clf.predict_proba(ds)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(clf.predict_class(ds), ds.columns["t"])

    def test_classifier_round_trip(self, tmp_path):
        ds = make_dataset({"x0": [0.0, 1.0] * 15, "t": [3.0, 7.0] * 15},
                          kinds={"t": TARGET})
        clf = train_classifier(ds, BoostConfig(n_trees=5))
        path = tmp_path / "clf.json"
        save_model(clf, path)
        back = load_model(path)
        assert isinstance(back, Classifier)
        np.testing.assert_array_equal(back.predict_proba(ds), clf.predict_proba(ds))
