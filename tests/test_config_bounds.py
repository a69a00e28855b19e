"""BoostConfig bounds that depend on the grower: GOSS settings that sample
no small-gradient row, and oblivious depths past CatBoost's cap of 16. Each
is a ConfigError through the library, exit 2 through the CLI and a
RecipeError when a recipe is loaded."""

import json

import pytest

from boostlab.boosting import BoostConfig, ConfigError, train
from boostlab.cli import main
from boostlab.recipes import RecipeError, load_recipe

from conftest import regression_dataset


def _train_cli(tmp_path, n, *flags):
    """boostlab train on an n-row table of y = x; returns the exit code and
    the model path."""
    csv_path, schema, model = tmp_path / "d.csv", tmp_path / "s.json", tmp_path / "m.json"
    csv_path.write_text("x,y\n" + "".join(f"{i},{i}\n" for i in range(n)), encoding="utf-8")
    schema.write_text(json.dumps([{"name": "x"}, {"name": "y", "kind": "target"}]),
                      encoding="utf-8")
    code = main(["train", "--input", str(csv_path), "--schema", str(schema),
                 "--output", str(model), "--trees", "2", *flags])
    return code, model


@pytest.mark.parametrize("goss_b, n", [("0", 60), ("0.000001", 40)],
                         ids=["zero", "rounds-to-none"])
def test_goss_sampling_nothing_exits_2(tmp_path, capsys, goss_b, n):
    code, model = _train_cli(tmp_path, n, "--grower", "leaf_wise", "--goss-a", "0.5",
                             "--goss-b", goss_b)
    err = capsys.readouterr().err
    assert code == 2, err
    assert "goss_b" in err
    assert not model.exists()


def test_goss_b_zero_rejected_by_validate():
    with pytest.raises(ConfigError, match="goss_b > 0"):
        BoostConfig(grower="leaf_wise", goss_a=0.5, goss_b=0.0).validate()
    # every row is kept at goss_a = 1, so nothing needs sampling
    BoostConfig(grower="leaf_wise", goss_a=1.0, goss_b=0.0).validate()


def test_empty_goss_sample_is_a_config_error_from_train():
    config = BoostConfig(n_trees=1, grower="leaf_wise", goss_a=0.5, goss_b=1e-6)
    with pytest.raises(ConfigError, match="goss_b=1e-06 on 40 rows"):
        train(regression_dataset(n=40), config)


def test_oblivious_depth_bounded():
    BoostConfig(grower="oblivious", max_depth=16).validate()
    with pytest.raises(ConfigError, match="oblivious max_depth must be <= 16, got 17"):
        BoostConfig(grower="oblivious", max_depth=17).validate()
    # the other growers lay out no level of 2^depth leaves
    BoostConfig(grower="level_wise", max_depth=30).validate()


def test_deep_oblivious_exits_2(tmp_path, capsys):
    code, model = _train_cli(tmp_path, 60, "--grower", "oblivious", "--max-depth", "17")
    assert code == 2
    assert "max_depth must be <= 16" in capsys.readouterr().err
    assert not model.exists()


def test_deep_oblivious_recipe_rejected_at_load(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"name": "r", "schema": [{"name": "x"}], "analyses": [
        {"op": "train_importance", "features": ["x"], "target": "x", "grower": "oblivious",
         "max_depth": 17}]}))
    with pytest.raises(RecipeError, match=r"analysis 0 \(train_importance\): oblivious "
                                          r"max_depth must be <= 16"):
        load_recipe(path)
