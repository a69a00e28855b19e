import json
import math
from dataclasses import replace

import numpy as np
import pytest

from boostlab import boosting, growers, strategies
from boostlab.boosting import (BoostConfig, Classifier, ConfigError, Ensemble,
                               ModelFormatError, compute_gradients, from_json,
                               init_base_score, load_model, loss_value,
                               prepare_features, save_model, to_json, train,
                               train_classifier)
from boostlab.dataset import CATEGORICAL, TARGET, Dataset, DatasetError, retype_target

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


class TestLossValue:
    def test_logistic_mean_log_loss(self):
        y, raw = np.array([1.0, 0.0, 1.0]), np.array([0.0, 2.0, -1.5])
        want = np.mean([math.log(2.0), math.log1p(math.exp(2.0)), math.log1p(math.exp(1.5))])
        assert loss_value("logistic", y, raw) == pytest.approx(want, rel=1e-12)

    def test_logistic_clips_raw_scores(self):
        # a wrong raw score of 1000 costs what one of RAW_SCORE_CLIP does:
        # finite, never log(0)
        y, raw = np.array([0.0, 1.0]), np.array([1000.0, -1000.0])
        clipped = np.array([boosting.RAW_SCORE_CLIP, -boosting.RAW_SCORE_CLIP])
        got = loss_value("logistic", y, raw)
        assert math.isfinite(got)
        assert got == loss_value("logistic", y, clipped)
        # 1 - sigmoid(30) keeps about 3 significant digits in float64
        assert got == pytest.approx(boosting.RAW_SCORE_CLIP, rel=1e-4)


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

    @pytest.mark.parametrize("changes", [
        {"lambda_": math.inf}, {"gamma": math.inf}, {"min_child_hessian": math.inf},
        {"grower": "leaf_wise", "goss_a": 0.2, "goss_b": math.nan},
    ], ids=["lambda", "gamma", "min_child_hessian", "goss_b"])
    def test_non_finite_values_rejected(self, changes):
        name = next(k for k in changes if k != "grower" and k != "goss_a")
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            BoostConfig(**changes).validate()

    def test_infinite_min_child_hessian_rejected_by_train(self):
        with pytest.raises(ConfigError, match="min_child_hessian must be finite"):
            train(regression_dataset(n=20), BoostConfig(n_trees=1, min_child_hessian=math.inf))

    def test_max_bins_limited_by_bin_code_width(self):
        BoostConfig(max_bins=65535).validate()
        with pytest.raises(ConfigError, match="max_bins must be <= 65535"):
            BoostConfig(max_bins=65536).validate()

    def test_negative_efb_max_conflicts_rejected(self):
        BoostConfig(efb_max_conflicts=0).validate()
        with pytest.raises(ConfigError, match="efb_max_conflicts must be >= 0"):
            train(regression_dataset(n=20), BoostConfig(n_trees=1, efb_max_conflicts=-1))


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_feature_rejected_before_binning(self, bad):
        # a split beside -inf would need threshold -inf, which no model
        # document can hold; NaN stays a missing value
        ds = make_dataset({"x": [bad, 1.0, 2.0, 3.0, 4.0, 5.0, np.nan],
                           "y": [10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
                          kinds={"y": TARGET})
        with pytest.raises(DatasetError, match="feature column 'x' contains infinite values"):
            train(ds, BoostConfig(n_trees=3))
        ds.columns["x"][0] = np.nan
        train(ds, BoostConfig(n_trees=3))

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

    def test_one_hot_columns_follow_the_data_label_table(self):
        rng = np.random.default_rng(4)
        c = rng.integers(0, 3, size=90)
        x = rng.normal(size=90)
        ds = make_dataset({"c": c, "x": x, "y": 2.0 * (c == 1) - (c == 2) + x},
                          kinds={"c": CATEGORICAL, "y": TARGET}, labels={"c": ["a", "b", "c"]})
        ens = train(ds, BoostConfig(n_trees=5, max_depth=3))
        # another label order, a label training never saw, and a missing cell
        table = ["c", "z", "a", "b"]
        cells = ["a", "b", "c", "z", None, "c", "b"]
        xs = np.linspace(-1.0, 1.0, len(cells))
        new = make_dataset({"c": [table.index(v) if v else -1 for v in cells], "x": xs},
                           kinds={"c": CATEGORICAL}, labels={"c": table})
        expected = np.column_stack(
            [xs if name == "x" else [float(v == name[2:]) for v in cells]
             for name in ens.feature_names])
        assert ens.feature_names == ["c=a", "c=b", "c=c", "x"]
        assert np.array_equal(ens.feature_matrix(new), expected)
        assert np.array_equal(ens.predict(new), ens.predict(expected))

    def test_single_label_categorical_is_not_a_feature(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=60)
        ds = make_dataset({"one": ["only"] * 60, "c": rng.choice(["a", "b"], size=60).tolist(),
                           "x": x, "y": 2.0 * x},
                          kinds={"one": CATEGORICAL, "c": CATEGORICAL, "y": TARGET})
        ens = train(ds, BoostConfig(n_trees=4, max_depth=2))
        assert ens.feature_names == [f"c={label}" for label in ds.labels["c"]] + ["x"]
        assert set(ens.categorical_levels) == {"c"}
        without = ds.select_columns(["c", "x", "y"])
        np.testing.assert_array_equal(ens.predict(ds), ens.predict(without))
        save_model(ens, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert to_json(back) == to_json(ens)
        np.testing.assert_array_equal(back.predict(ds), ens.predict(ds))

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
    def test_unwritable_model_leaves_the_file_untouched(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("previous model", encoding="utf-8")
        ens = train(regression_dataset(n=20), BoostConfig(n_trees=1))
        with pytest.raises(ModelFormatError, match="non-finite"):
            save_model(replace(ens, base_score=math.inf), path)
        assert path.read_text(encoding="utf-8") == "previous model"

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        ds = make_dataset({"x0": [0.0, 1.0, 2.0] * 10, "t": [0.0, 1.0, 0.0] * 10},
                          kinds={"t": TARGET})
        ds.columns["t"][4] = bad
        with pytest.raises(DatasetError, match="missing|infinite"):
            train_classifier(ds, BoostConfig(n_trees=2))


def _mixed_table(n=240, seed=0):
    """Sparse nonnegative columns (EFB bundles them), a three-level
    categorical, a dense column with NaNs and a regression target."""
    rng = np.random.default_rng(seed)
    cols = {}
    for j, density in enumerate((0.1, 0.15, 0.2, 0.3)):
        cols[f"s{j}"] = np.where(rng.random(n) < density, rng.integers(1, 6, size=n), 0)
    dense = rng.normal(size=n)
    cols["c"] = [("a", "b", "c")[k] for k in rng.integers(0, 3, size=n)]
    y = cols["s0"] - 2.0 * cols["s2"] + dense + rng.normal(scale=0.1, size=n)
    dense[rng.random(n) < 0.1] = np.nan
    cols["dense"] = dense
    cols["y"] = y
    return make_dataset(cols, kinds={"c": CATEGORICAL, "y": TARGET})


PREPARED_CONFIGS = {
    "level_wise": BoostConfig(n_trees=4, max_depth=4, max_bins=16),
    "leaf_wise_goss": BoostConfig(n_trees=4, grower="leaf_wise", max_leaves=8,
                                  max_bins=16, goss_a=0.3, goss_b=0.3),
    "oblivious": BoostConfig(n_trees=4, grower="oblivious", max_depth=4, max_bins=16),
    "ordered": BoostConfig(n_trees=3, grower="oblivious", max_depth=3, max_bins=16,
                           ordered_blocks=3),
}


class TestPreparedFeatures:
    @pytest.mark.parametrize("efb", [None, 0])
    @pytest.mark.parametrize("label", sorted(PREPARED_CONFIGS))
    def test_same_model_bytes(self, label, efb):
        ds = _mixed_table()
        cfg = replace(PREPARED_CONFIGS[label], efb_max_conflicts=efb)
        features = prepare_features(ds, cfg)
        expected = to_json(train(ds, cfg))
        assert to_json(train(ds, cfg, features=features)) == expected
        # reused again, and by a dataset that shares the feature arrays
        same = retype_target(ds.select_columns(ds.column_names), "y")
        assert to_json(train(same, cfg, features=features)) == expected

    def test_goss_after_another_model_on_shared_features(self):
        ds = _mixed_table()
        cfg = replace(PREPARED_CONFIGS["level_wise"], efb_max_conflicts=0)
        features = prepare_features(ds, cfg)
        train(ds, cfg, features=features)  # every row scores from its leaf slot
        goss = replace(PREPARED_CONFIGS["leaf_wise_goss"], efb_max_conflicts=0)
        expected = to_json(train(ds, goss))
        assert to_json(train(ds, goss, features=features)) == expected

    def test_classifier_prepares_once(self, monkeypatch):
        ds = _mixed_table()
        ds.columns["y"] = np.floor(np.clip(ds.columns["y"], -2.0, 2.9)) % 3.0
        cfg = BoostConfig(n_trees=3, max_depth=3, max_bins=16, efb_max_conflicts=0)
        expected = to_json(train_classifier(ds, cfg))
        calls = []
        bin_features = boosting.bin_features

        def counting(*args, **kwargs):
            calls.append(1)
            return bin_features(*args, **kwargs)
        monkeypatch.setattr(boosting, "bin_features", counting)
        clf = train_classifier(ds, cfg)
        assert len(clf.ensembles) == 3 and len(calls) == 1
        assert to_json(clf) == expected
        assert to_json(train_classifier(ds, cfg, prepare_features(ds, cfg))) == expected
        assert len(calls) == 2

    def test_other_column_arrays_rejected(self):
        ds = _mixed_table()
        cfg = PREPARED_CONFIGS["level_wise"]
        copied = Dataset(list(ds.schema), {k: v.copy() for k, v in ds.columns.items()},
                         dict(ds.labels))
        with pytest.raises(DatasetError, match="column arrays"):
            train(ds, cfg, features=prepare_features(copied, cfg))

    def test_other_feature_columns_rejected(self):
        ds = _mixed_table()
        cfg = PREPARED_CONFIGS["level_wise"]
        fewer = ds.select_columns(["s0", "s1", "y"])
        with pytest.raises(DatasetError, match="feature columns"):
            train(ds, cfg, features=prepare_features(fewer, cfg))
        with pytest.raises(DatasetError, match="feature columns"):
            train(fewer, cfg, features=prepare_features(ds, cfg))

    def test_other_label_tables_rejected(self):
        ds = _mixed_table()
        cfg = PREPARED_CONFIGS["level_wise"]
        relabelled = Dataset(list(ds.schema), dict(ds.columns), {"c": ["b", "a", "c"]})
        with pytest.raises(DatasetError, match="label tables"):
            train(ds, cfg, features=prepare_features(relabelled, cfg))

    @pytest.mark.parametrize("change", [{"max_bins": 8}, {"efb_max_conflicts": 0},
                                        {"efb_max_conflicts": 5}])
    def test_other_binning_settings_rejected(self, change):
        ds = _mixed_table()
        cfg = replace(PREPARED_CONFIGS["level_wise"], efb_max_conflicts=None)
        features = prepare_features(ds, replace(cfg, **change))
        with pytest.raises(ConfigError, match="max_bins"):
            train(ds, cfg, features=features)
        with pytest.raises(ConfigError, match="max_bins"):
            train_classifier(ds, cfg, features=features)


def _model_doc(grower="level_wise"):
    ds = regression_dataset(n=80, seed=2)
    return json.loads(to_json(train(ds, BoostConfig(n_trees=2, max_depth=3, grower=grower))))


def _first_leaf(doc):
    return next(nd for nd in doc["trees"][0]["nodes"] if "leaf" in nd)


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return mutate


def _unreachable_cycle(doc):
    """Two appended nodes that point at each other and back into the tree
    (its root and node 1), while nothing reachable points at them."""
    nodes = doc["trees"][0]["nodes"]
    a, b = len(nodes), len(nodes) + 1
    split = {"feature": 0, "threshold": 0.5, "default_left": True}
    nodes += [{**split, "left": b, "right": 0}, {**split, "left": a, "right": 1}]


MALFORMED = {
    "missing_trees": (lambda d: d.pop("trees"), r"model: missing 'trees'"),
    "missing_base_score": (lambda d: d.pop("base_score"), r"missing 'base_score'"),
    "nodes_not_a_list": (_set(["trees", 0, "nodes"], {"0": {"leaf": 1.0}}),
                         r"tree 0: 'nodes' must be a JSON array"),
    "string_leaf": (lambda d: _first_leaf(d).update(leaf="0.5"),
                    r"tree 0 node \d+: 'leaf' must be a number"),
    "feature_out_of_range": (_set(["trees", 0, "nodes", 0, "feature"], 99),
                             r"tree 0 node 0: 'feature' 99 is out of range \[0, 3\)"),
    "child_out_of_range": (_set(["trees", 0, "nodes", 0, "left"], 999),
                           r"tree 0 node 0: 'left' 999 is out of range"),
    "self_loop": (_set(["trees", 0, "nodes", 0, "left"], 0),
                  r"tree 0: node 0 is reached twice"),
    "shared_child": (lambda d: d["trees"][1]["nodes"][0].update(
                         right=d["trees"][1]["nodes"][0]["left"]),
                     r"tree 1: node \d+ is reached twice"),
    "unreachable_cycle": (_unreachable_cycle,
                          r"tree 0: node \d+ is not reachable from the root"),
    "missing_threshold": (lambda d: d["trees"][0]["nodes"][0].pop("threshold"),
                          r"tree 0 node 0: missing 'threshold'"),
    "bool_default_left": (_set(["trees", 0, "nodes", 0, "default_left"], 1),
                          r"tree 0 node 0: 'default_left' must be a JSON boolean"),
    # json.dumps writes these as NaN, Infinity and -Infinity, which to_json
    # could not write back
    "nan_config": (_set(["config", "lambda_"], math.nan),
                   r"^model: 'config' 'lambda_' must be finite, got nan$"),
    "inf_config": (_set(["config", "learning_rate"], math.inf),
                   r"^model: 'config' 'learning_rate' must be finite, got inf$"),
    "minus_inf_config": (_set(["config", "goss_a"], -math.inf),
                         r"^model: 'config' 'goss_a' must be finite, got -inf$"),
    # two features would read one column; train rejects such names
    "repeated_feature_name": (lambda d: d["feature_names"].__setitem__(2, "x0"),
                              r"^model: 'feature_names' repeats 'x0'$"),
    "negative_learning_rate": (_set(["learning_rate"], -0.5),
                               r"^model: 'learning_rate' must be in \(0, 1\], got -0.5$"),
    "zero_learning_rate": (_set(["learning_rate"], 0),
                           r"^model: 'learning_rate' must be in \(0, 1\], got 0.0$"),
    "learning_rate_above_one": (_set(["learning_rate"], 1.5),
                                r"^model: 'learning_rate' must be in \(0, 1\], got 1.5$"),
}


class TestModelDocumentValidation:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_ensemble_rejected_at_load(self, case):
        mutate, message = MALFORMED[case]
        doc = _model_doc()
        mutate(doc)
        with pytest.raises(ModelFormatError, match=message):
            from_json(json.dumps(doc))

    def test_overflowing_leaf_rejected(self):
        doc = _model_doc()
        _first_leaf(doc)["leaf"] = "BIG"
        text = json.dumps(doc).replace('"BIG"', "1e400")
        with pytest.raises(ModelFormatError, match=r"'leaf' must be finite"):
            from_json(text)

    def test_level_splits_must_match_nodes(self):
        doc = _model_doc("oblivious")
        tree = next(i for i, t in enumerate(doc["trees"]) if t["level_splits"])
        split = doc["trees"][tree]["level_splits"][0]
        split[0] = (split[0] + 1) % 3
        with pytest.raises(ModelFormatError, match=rf"tree {tree} node 0: does not match "
                                                   r"level split 0"):
            from_json(json.dumps(doc))
        doc = _model_doc("oblivious")
        doc["trees"][tree]["level_splits"].append([0, 0.5, True])
        with pytest.raises(ModelFormatError, match="full tree of depth"):
            from_json(json.dumps(doc))

    def test_classifier_ensemble_count_checked(self):
        ds = make_dataset({"x0": [0.0, 1.0, 2.0] * 10, "t": [0.0, 1.0, 2.0] * 10},
                          kinds={"t": TARGET})
        doc = json.loads(to_json(train_classifier(ds, BoostConfig(n_trees=2))))
        doc["ensembles"].pop()
        with pytest.raises(ModelFormatError, match="2 ensembles do not fit 3 classes"):
            from_json(json.dumps(doc))
        doc = json.loads(to_json(train_classifier(ds, BoostConfig(n_trees=2))))
        doc["ensembles"][2]["trees"][0]["nodes"][0]["leaf"] = None
        with pytest.raises(ModelFormatError, match=r"ensemble 2 tree 0 node 0: 'leaf'"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("classes", [[1.0, 1.0, 2.0], [0.0, 2.0, 1.0], [1.0, 0.0]])
    def test_classifier_classes_must_increase(self, classes):
        """train_classifier writes sorted distinct classes; repeated or
        unordered ones would let two ensembles report one label."""
        ds = make_dataset({"x0": [0.0, 1.0, 2.0] * 10, "t": [0.0, 1.0, 2.0] * 10},
                          kinds={"t": TARGET})
        doc = json.loads(to_json(train_classifier(ds, BoostConfig(n_trees=2))))
        doc["classes"] = classes
        doc["ensembles"] = doc["ensembles"][:1 if len(classes) == 2 else 3]
        with pytest.raises(ModelFormatError,
                           match=r"^classifier: 'classes' must be strictly increasing"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("grower", ["level_wise", "leaf_wise", "oblivious"])
    def test_valid_documents_still_round_trip(self, grower):
        text = json.dumps(_model_doc(grower))
        assert json.loads(to_json(from_json(text))) == json.loads(text)


class TestIntegerConfigFields:
    """The typed fields take their type only: integer fields integers, float
    fields non-bool numbers and zero_base_score a bool. Anything else, a
    missing value included, exits at validate() with ConfigError, before any
    training."""

    WANT = {"learning_rate": "a number", "lambda_": "a number", "goss_a": "a number",
            "zero_base_score": "a bool"}

    @pytest.mark.parametrize("changes", [
        {"max_depth": 2.5}, {"grower": "oblivious", "max_depth": 2.5}, {"n_trees": 2.5},
        {"n_trees": True}, {"n_trees": None}, {"max_bins": 16.5}, {"max_leaves": 4.0},
        {"grower": "oblivious", "ordered_blocks": 2.5}, {"ordered_permutations": 1.5},
        {"efb_max_conflicts": 0.5}, {"seed": 1.5}, {"seed": np.bool_(True)},
        {"learning_rate": "0.1"}, {"learning_rate": True}, {"lambda_": None},
        {"grower": "leaf_wise", "goss_a": "0.2", "goss_b": 0.1},
        {"zero_base_score": "yes"}, {"zero_base_score": np.bool_(True)},
    ], ids=["max_depth", "oblivious-max_depth", "n_trees", "n_trees-bool", "n_trees-none",
            "max_bins", "max_leaves", "ordered_blocks", "ordered_permutations",
            "efb_max_conflicts", "seed", "seed-numpy-bool", "learning_rate-str",
            "learning_rate-bool", "lambda-none", "goss_a-str", "zero_base_score-str",
            "zero_base_score-numpy-bool"])
    def test_non_integers_rejected_by_train(self, changes):
        name, value = [(k, v) for k, v in changes.items() if k != "grower"][0]
        want = self.WANT.get(name, "an integer")
        with pytest.raises(ConfigError, match=f"^{name} must be {want}, got {value!r}$"):
            train(regression_dataset(n=30), BoostConfig(**changes))

    def test_numpy_integers_accepted_with_the_same_echo(self):
        ds = regression_dataset(n=30)
        plain = BoostConfig(n_trees=2, max_depth=3, max_leaves=None, seed=1)
        numpy_ints = BoostConfig(n_trees=np.int64(2), max_depth=np.int32(3), seed=np.int64(1))
        assert to_json(train(ds, numpy_ints)) == to_json(train(ds, plain))


class TestTrainingRowScores:
    """train scores the rows a tree was grown on from their leaf slots and
    routes through route_codes only the rows GOSS left out."""

    def _record(self, monkeypatch):
        routed, kept = [], []
        route_codes = growers.DecisionTree.route_codes
        goss_select = strategies.goss_select

        def recording_route(tree, binned, rows):
            routed.append(np.array(rows))
            return route_codes(tree, binned, rows)

        def recording_select(*args, **kwargs):
            sample = goss_select(*args, **kwargs)
            kept.append(sample.kept)
            return sample

        monkeypatch.setattr(growers.DecisionTree, "route_codes", recording_route)
        monkeypatch.setattr(strategies, "goss_select", recording_select)
        return routed, kept

    def test_goss_routes_exactly_the_left_out_rows(self, monkeypatch):
        ds = regression_dataset(n=300)
        config = BoostConfig(n_trees=4, grower="leaf_wise", goss_a=0.2, goss_b=0.3,
                             max_depth=3)
        want = to_json(train(ds, config))
        routed, kept = self._record(monkeypatch)
        assert to_json(train(ds, config)) == want
        assert len(kept) == len(routed) == 4
        for rows, grown in zip(routed, kept):
            assert np.array_equal(rows, np.setdiff1d(np.arange(300), grown))

    @pytest.mark.parametrize("grower", ["level_wise", "leaf_wise", "oblivious"])
    def test_full_row_training_routes_nothing(self, monkeypatch, grower):
        ds = regression_dataset(n=300)
        configs = [BoostConfig(n_trees=3, grower=grower, max_depth=3)]
        if grower == "leaf_wise":  # GOSS at goss_a = 1 keeps every row
            configs.append(replace(configs[0], goss_a=1.0, goss_b=0.0))
        routed, _ = self._record(monkeypatch)
        for config in configs:
            train(ds, config)
        assert routed == []
