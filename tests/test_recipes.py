import json
import re

import numpy as np
import pytest

from boostlab import boosting, forkpool, recipes
from boostlab.cli import main
from boostlab.dataset import apply_recipe, load_known_columns
from boostlab.recipes import (RecipeError, available_recipes, load_recipe,
                              run_recipe)

from fixtures import (write_covid19_csv, write_education_csv, write_mexican_csv,
                      write_region_csv)


def test_all_four_recipes_ship():
    assert available_recipes() == ["covid19-vax", "education-covid",
                                   "mexican-covid", "region-health"]


def test_unknown_recipe_rejected():
    with pytest.raises(RecipeError, match="unknown recipe"):
        load_recipe("nope")


class TestEducationRecipe:
    def test_full_run_on_shape_exact_fixture(self, tmp_path):
        csv_path = write_education_csv(tmp_path / "edu.csv")
        bundle = run_recipe("education-covid", csv_path, output_dir=tmp_path / "out")
        assert bundle["warnings"] == []
        assert bundle["rows_after_preprocess"] == 72
        assert bundle["columns_after_preprocess"] == 9  # CTDPercentage added
        anova = bundle["analyses"]["anova_education_race"]
        terms = {r["term"]: r for r in anova["rows"]}
        assert set(terms) == {"Education", "Race", "Residual"}
        assert 0.0 <= terms["Race"]["p_value"] <= 1.0
        for analysis in ("boxplot_by_race", "boxplot_by_education",
                         "interaction_education_race"):
            assert analysis in bundle["analyses"]
            out_json = tmp_path / "out" / "education-covid" / f"{analysis}.json"
            out_csv = tmp_path / "out" / "education-covid" / f"{analysis}.csv"
            assert out_json.exists() and out_csv.exists()

    def test_race_groups_cover_fixture(self, tmp_path):
        csv_path = write_education_csv(tmp_path / "edu.csv")
        bundle = run_recipe("education-covid", csv_path)
        groups = bundle["analyses"]["boxplot_by_race"]["groups"]
        assert {g["group"][0] for g in groups} == {"Hispanic", "Non-Hispanic White",
                                                   "Non-Hispanic Black"}
        assert all(g["count"] == 24 for g in groups)

    def test_strict_mode_rejects_wrong_shape(self, tmp_path):
        csv_path = write_education_csv(tmp_path / "edu.csv")
        # drop a row so the documented 72x8 check fails
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(RecipeError, match="71"):
            run_recipe("education-covid", csv_path, strict_shapes=True)
        bundle = run_recipe("education-covid", csv_path, strict_shapes=False)
        assert any("71" in w for w in bundle["warnings"])


class TestRegionRecipe:
    def test_cleaning_reaches_documented_shape(self, tmp_path):
        csv_path = write_region_csv(tmp_path / "region.csv")
        bundle = run_recipe("region-health", csv_path, output_dir=tmp_path / "out")
        assert bundle["warnings"] == []
        assert bundle["rows_after_preprocess"] == 1252
        assert bundle["columns_after_preprocess"] == 15

    def test_correlation_and_regression_outputs(self, tmp_path):
        csv_path = write_region_csv(tmp_path / "region.csv")
        bundle = run_recipe("region-health", csv_path)
        corr = bundle["analyses"]["condition_correlation"]
        assert len(corr["labels"]) == 12
        mat = np.array(corr["r"], dtype=float)
        assert mat.shape == (12, 12)
        reg = bundle["analyses"]["covid_regression"]
        assert reg["train_rows"] == 939 and reg["test_rows"] == 313
        assert abs(reg["observed_fraction"] - 0.75) < 0.01
        assert reg["rmse_train"] < reg["rmse_test"] * 2  # sanity, not a bound
        assert len(reg["ranking"]) == 10
        # the fixture builds the target into AllCause/AllNatural most strongly
        top3 = {r["feature"] for r in reg["ranking"][:3]}
        assert top3 & {"AllCause", "AllNatural"}


class TestMexicanRecipe:
    def test_fifty_row_fixture_runs_all_analyses(self, tmp_path):
        csv_path = write_mexican_csv(tmp_path / "mex.csv", n=50)
        bundle = run_recipe("mexican-covid", csv_path, output_dir=tmp_path / "out")
        names = set(bundle["analyses"])
        assert {"chi2_diabetes", "chi2_asthma", "chi2_cardiovascular",
                "chi2_hypertension", "chi2_renal_chronic", "chi2_tobacco"} <= names
        assert {"oblivious_10_full", "oblivious_100_full", "oblivious_1000_full",
                "oblivious_10_modified", "oblivious_100_modified",
                "oblivious_1000_modified", "level_wise_modified",
                "leaf_wise_2000_modified"} <= names
        chi = bundle["analyses"]["chi2_diabetes"]
        assert chi["dof"] == 1
        assert 0.0 <= chi["p_value"] <= 1.0
        # pending results (label 3) filtered, so only two outcome classes remain
        assert len(chi["table"]["col_labels"]) == 2
        for name in ("oblivious_1000_full", "leaf_wise_2000_modified"):
            imp = bundle["analyses"][name]
            assert imp["classes"] == [1.0, 2.0]
            assert len(imp["ranking"]) >= 10
        # giveaway features only appear in the full runs
        full_feats = {r["feature"] for r in
                      bundle["analyses"]["oblivious_10_full"]["ranking"]}
        mod_feats = {r["feature"] for r in
                     bundle["analyses"]["oblivious_10_modified"]["ranking"]}
        assert "intubed" in full_feats and "intubed" not in mod_feats

    def test_planted_association_is_detected(self, tmp_path):
        csv_path = write_mexican_csv(tmp_path / "mex.csv", n=400, seed=3)
        recipe = load_recipe("mexican-covid")
        recipe.analyses = [a for a in recipe.analyses
                           if a["name"] in ("chi2_diabetes", "oblivious_100_modified")]
        bundle = run_recipe(recipe, csv_path)
        assert bundle["analyses"]["chi2_diabetes"]["p_value"] < 0.001
        imp = bundle["analyses"]["oblivious_100_modified"]
        top5 = [r["feature"] for r in imp["ranking"][:5]]
        assert "diabetes" in top5

    def test_features_prepared_once_per_feature_set(self, tmp_path, monkeypatch):
        csv_path = write_mexican_csv(tmp_path / "mex.csv", n=60, seed=1)
        recipe = load_recipe("mexican-covid")
        recipe.analyses = [a for a in recipe.analyses
                           if a["op"] == "chi2" or int(a.get("trees", 0)) <= 100]
        keys = {(tuple(a["features"]), a.get("max_bins"), a.get("efb"))
                for a in recipe.analyses if a["op"] == "train_importance"}
        assert len(keys) == 2 and len(recipe.analyses) == 6 + 5
        calls = []
        bin_features = boosting.bin_features

        def counting(*args, **kwargs):
            calls.append(1)
            return bin_features(*args, **kwargs)
        monkeypatch.setattr(boosting, "bin_features", counting)
        run_recipe(recipe, csv_path, output_dir=tmp_path / "shared")
        assert len(calls) == len(keys)
        # with nothing prepared (features=None) every fit bins its own
        # features, and the report is the same to the byte; on one CPU the
        # analyses run in this process, where the calls are counted. The 10-
        # and 100-tree oblivious analyses of each feature set share one fit,
        # so the 5 training analyses fit 3 models
        monkeypatch.setattr(recipes, "prepare_features", lambda ds, config: None)
        monkeypatch.setattr(forkpool, "cpu_count", lambda: 1)
        run_recipe(recipe, csv_path, output_dir=tmp_path / "own")
        assert len(calls) == len(keys) + 3
        shared, own = tmp_path / "shared", tmp_path / "own"
        files = sorted(p.relative_to(shared) for p in shared.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(own) for p in own.rglob("*") if p.is_file())
        for rel in files:
            assert (shared / rel).read_bytes() == (own / rel).read_bytes(), rel


class TestCovid19Recipe:
    def test_with_population(self, tmp_path):
        csv_path = write_covid19_csv(tmp_path / "vax.csv", with_population=True)
        bundle = run_recipe("covid19-vax", csv_path, output_dir=tmp_path / "out")
        assert bundle["warnings"] == []
        assert bundle["rows_after_preprocess"] == 24
        assert bundle["columns_after_preprocess"] == 15
        corr = bundle["analyses"]["vaccination_correlation"]
        labels = corr["labels"]
        mat = np.array(corr["r"], dtype=float)
        i = labels.index("Full-Dose")
        j = labels.index("State-Cases-Percentage")
        assert mat[i, j] < 0  # vaccination anti-correlates with case share

    def test_without_population_skips_derivation(self, tmp_path):
        csv_path = write_covid19_csv(tmp_path / "vax.csv", with_population=False)
        bundle = run_recipe("covid19-vax", csv_path)
        assert any("State-Cases-Percentage" in w for w in bundle["warnings"])
        assert "vaccination_correlation" not in bundle["analyses"]
        assert "cases_by_mask_mandate" not in bundle["analyses"]


class TestDeterminism:
    def test_repeated_runs_write_identical_bytes(self, tmp_path):
        csv_path = write_mexican_csv(tmp_path / "mex.csv", n=40)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        run_recipe("mexican-covid", csv_path, output_dir=out1, seed=0)
        run_recipe("mexican-covid", csv_path, output_dir=out2, seed=0)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_seed_recorded_in_report(self, tmp_path):
        csv_path = write_education_csv(tmp_path / "edu.csv")
        out = tmp_path / "out"
        run_recipe("education-covid", csv_path, output_dir=out, seed=17)
        report = json.loads((out / "education-covid" / "report.json").read_text())
        assert report["seed"] == 17


@pytest.mark.parametrize("analyses, message", [
    ([{"op": "chi2", "a": "x"}], "r: analysis 0 (chi2) needs ['b']"),
    ([{"op": "anova2", "response": "x", "factor_a": "f"}],
     "r: analysis 0 (anova2) needs ['factor_b']"),
    ([{"op": "group_summary"}], "r: analysis 0 (group_summary) needs ['value', 'by']"),
    ([{"op": "train_importance", "features": ["x"]}],
     "r: analysis 0 (train_importance) needs ['target']"),
    ([{"op": "split_regression", "target": "x"}],
     "r: analysis 0 (split_regression) needs ['features']"),
    ([{"op": "chi2", "a": "x", "b": "x"}, {"op": "tukey", "value": "x"}],
     "r: analysis 1: unknown op 'tukey'"),
    ({"op": "chi2"}, "r: expected a list of analysis objects, got {'op': 'chi2'}"),
    (["chi2"], "r: analysis 0 is not an object: 'chi2'"),
    ([{"op": ["chi2"]}], "r: analysis 0: unknown op ['chi2']"),
    ([{"op": "chi2", "a": "x", "b": "x"},
      {"op": "train_importance", "features": ["x"], "target": "x",
       "task": "classificaton"}],
     "r: analysis 1 (train_importance): 'task' must be 'regression' or "
     "'classification', got 'classificaton'"),
    ([{"op": "train_importance", "features": ["x"], "target": "x", "task": 3}],
     "r: analysis 0 (train_importance): 'task' must be 'regression' or "
     "'classification', got 3"),
    ([{"op": "train_importance", "features": ["x"], "target": "x", "max_depth": 0}],
     "r: analysis 0 (train_importance): max_depth must be >= 1"),
    ([{"op": "split_regression", "features": ["x"], "target": "x", "grower": "nope"}],
     "r: analysis 0 (split_regression): unknown grower 'nope'"),
    ([{"op": "train_importance", "features": ["x"], "target": "x", "max_leaves": 0}],
     "r: analysis 0 (train_importance): max_leaves must be >= 2"),
    ([{"op": "train_importance", "features": ["x"], "target": "x", "efb": "no"}],
     "r: analysis 0 (train_importance): 'efb' must be true or false, got 'no'"),
    ([{"op": "split_regression", "features": ["x"], "target": "x",
       "train_fraction": 2.0}],
     "r: analysis 0 (split_regression): 'train_fraction' must be in (0, 1), got 2.0"),
], ids=["chi2-key", "anova2-key", "group_summary-keys", "train_importance-key",
        "split_regression-key", "unknown-op", "not-a-list", "not-an-object",
        "op-not-a-string", "task-misspelled", "task-int", "max-depth-zero",
        "unknown-grower", "max-leaves-zero", "efb-string", "train-fraction-above-one"])
def test_malformed_analyses_rejected_at_load(tmp_path, analyses, message):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"name": "r", "schema": [{"name": "x"}],
                                "analyses": analyses}))
    with pytest.raises(RecipeError) as info:
        load_recipe(path)
    assert str(info.value) == message


@pytest.mark.parametrize("rename, message", [
    (lambda r: r.analyses[0].update(name="../../escaped"),
     "analysis 0 (chi2): 'name' must be a plain file name"),
    (lambda r: setattr(r, "name", "../escaped"), "recipe needs a string 'name'"),
    (lambda r: r.analyses[1].update(name=r.analyses[0]["name"]),
     "analysis 1 repeats the name 'chi2_diabetes'"),
], ids=["analysis-escape", "recipe-escape", "analysis-repeated"])
def test_names_set_in_code_checked_before_any_data_is_read(tmp_path, rename, message):
    """A loaded recipe renamed in code gets load_recipe's name checks too:
    nothing is read or written, inside or outside the output directory."""
    recipe = load_recipe("mexican-covid")
    assert recipe.analyses[0]["name"] == "chi2_diabetes"
    rename(recipe)
    out_dir = tmp_path / "a" / "b" / "out"
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(RecipeError, match=re.escape(message)):
        run_recipe(recipe, tmp_path / "absent.csv", output_dir=out_dir)
    assert sorted(tmp_path.rglob("*")) == before


class TestStepOrder:
    """Preprocess steps run one by one, in the order the recipe lists them."""

    SCHEMA = [{"name": "region", "kind": "categorical"},
              {"name": "cases", "missing_marker": "NA"},
              {"name": "pop", "missing_marker": "NA"}]
    NO_POP = {"op": "filter_rows", "column": "pop", "excluded": [0]}
    RATE = {"op": "add_ratio_column", "new_name": "rate", "num": "cases", "den": "pop",
            "scale": 100}

    def write(self, tmp_path, steps, rows):
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps({"name": "r", "schema": self.SCHEMA,
                                      "preprocess": steps}))
        data = tmp_path / "d.csv"
        data.write_text("region,cases,pop\n" + "".join(f"{r}\n" for r in rows))
        return recipe, data

    def preprocessed(self, recipe, data):
        recipe = load_recipe(recipe)
        ds, _ = load_known_columns(data, recipe.schema, recipe.optional_columns)
        return apply_recipe(ds, recipe.spec)

    def test_filter_before_derive_skips_a_filtered_zero_denominator(self, tmp_path):
        recipe, data = self.write(tmp_path, [self.NO_POP, self.RATE],
                                  ["a,5,100", "b,0,0", "c,3,50"])
        ds, warnings = self.preprocessed(recipe, data)
        assert warnings == []
        np.testing.assert_array_equal(ds.columns["rate"], [5.0, 6.0])
        assert main(["recipe", "--recipe", str(recipe), "--input", str(data),
                     "--output-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "r" / "report.json").read_text())
        assert report["rows_after_preprocess"] == 2

    def test_derive_before_filter_still_exits_2(self, tmp_path, capsys):
        recipe, data = self.write(tmp_path, [self.RATE, self.NO_POP],
                                  ["a,5,100", "b,0,0", "c,3,50"])
        assert main(["recipe", "--recipe", str(recipe), "--input", str(data),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: zero denominator in 'pop' at row 1\n"

    def test_two_drop_missing_steps_run_one_after_the_other(self, tmp_path):
        # the first step drops 'region', then the row missing 'cases'; only
        # then does the second drop 'cases', so that row stays dropped
        recipe, data = self.write(tmp_path, [
            {"op": "drop_missing", "columns": ["region"]},
            {"op": "drop_missing", "columns": ["cases"]},
        ], ["a,5,100", "b,NA,40", "c,3,NA", "d,2,10"])
        ds, _ = self.preprocessed(recipe, data)
        assert ds.column_names == ["pop"]
        np.testing.assert_array_equal(ds.columns["pop"], [100.0, 10.0])

    def test_word_excluded_from_a_numeric_column_exits_2(self, tmp_path, capsys):
        recipe, data = self.write(tmp_path, [
            self.RATE, {"op": "filter_rows", "column": "pop", "excluded": [0, "zero"]}],
            ["a,5,100", "b,1,40"])
        assert main(["recipe", "--recipe", str(recipe), "--input", str(data),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: r: preprocess step 1 (filter_rows): 'excluded' value 'zero' is not a "
            "number, and column 'pop' is numeric\n")
        assert not (tmp_path / "out").exists()

    def test_numbers_spelled_as_strings_are_excluded_from_a_numeric_column(self, tmp_path):
        recipe, data = self.write(tmp_path, [
            {"op": "filter_rows", "column": "pop", "excluded": ["0", 40]}],
            ["a,5,100", "b,0,0", "c,1,40"])
        ds, _ = self.preprocessed(recipe, data)
        np.testing.assert_array_equal(ds.columns["pop"], [100.0])
