import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from boostlab.boosting import BoostConfig, Ensemble
from boostlab.cli import main

from fixtures import write_education_csv, write_mexican_csv


def write_schema(path, entries):
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def make_training_csv(path, n=60, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=n)
    x1 = rng.normal(size=n)
    y = 2.0 * x0 - x1 + rng.normal(scale=0.05, size=n)
    lines = ["x0,x1,y"] + [f"{float(a)!r},{float(b)!r},{float(c)!r}"
                           for a, b, c in zip(x0, x1, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


REG_SCHEMA = [{"name": "x0"}, {"name": "x1"}, {"name": "y", "kind": "target"}]


class TestIngest:
    def test_summary_json(self, tmp_path, capsys):
        csv_path = make_training_csv(tmp_path / "d.csv")
        schema = write_schema(tmp_path / "s.json", REG_SCHEMA)
        out = tmp_path / "summary.json"
        code = main(["ingest", "--input", str(csv_path), "--schema", str(schema),
                     "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_rows"] == 60
        assert [c["name"] for c in doc["columns"]] == ["x0", "x1", "y"]

    def test_missing_schema_is_validation_error(self, tmp_path):
        csv_path = make_training_csv(tmp_path / "d.csv")
        assert main(["ingest", "--input", str(csv_path)]) == 2

    def test_bad_file_is_validation_error(self, tmp_path):
        schema = write_schema(tmp_path / "s.json", REG_SCHEMA)
        assert main(["ingest", "--input", str(tmp_path / "none.csv"),
                     "--schema", str(schema)]) == 2

    @pytest.mark.parametrize("doc", [
        {"a": 1},                                      # not a list
        [{"name": "x0"}, "x1"],                        # an entry that is not an object
        [{"name": "x0"}, {"kind": "numeric"}],         # an entry without a name
        [{"name": "x0"}, {"name": 7}],                 # a name that is not a string
    ])
    def test_malformed_schema_exits_2(self, tmp_path, capsys, doc):
        csv_path = make_training_csv(tmp_path / "d.csv")
        schema = write_schema(tmp_path / "s.json", doc)
        assert main(["ingest", "--input", str(csv_path), "--schema", str(schema)]) == 2
        err = capsys.readouterr().err
        assert "schema" in err and "Error" not in err

    def test_recipe_schema_entry_without_name_exits_2(self, tmp_path, capsys):
        csv_path = make_training_csv(tmp_path / "d.csv")
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps({"name": "r", "schema": [{"name": "x0"},
                                                              {"kind": "numeric"}]}))
        assert main(["recipe", "--recipe", str(recipe), "--input", str(csv_path),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "schema entry 1" in capsys.readouterr().err


class TestTrainPredict:
    def train(self, tmp_path, *extra):
        csv_path = make_training_csv(tmp_path / "d.csv")
        schema = write_schema(tmp_path / "s.json", REG_SCHEMA)
        model = tmp_path / "model.json"
        code = main(["train", "--input", str(csv_path), "--schema", str(schema),
                     "--output", str(model), "--trees", "10", "--max-depth", "3",
                     *extra])
        assert code == 0
        return csv_path, schema, model

    def test_round_trip_predictions_are_byte_identical(self, tmp_path):
        csv_path, schema, model = self.train(tmp_path)
        p1 = tmp_path / "p1.csv"
        p2 = tmp_path / "p2.csv"
        assert main(["predict", "--model", str(model), "--input", str(csv_path),
                     "--output", str(p1)]) == 0
        # reload the model through its file and predict again
        assert main(["predict", "--model", str(model), "--input", str(csv_path),
                     "--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "prediction"

    @pytest.mark.parametrize("labels, loss, ensembles", [
        (None, "squared_error", 1),
        ([0.0, 1.0], "logistic", 1),  # one logistic ensemble: raw score and probability
        ([1.0, 2.0], "logistic", 1),  # a binary classifier
        ([0.0, 1.0, 2.0], "logistic", 3),  # one ensemble per class
    ])
    def test_predict_scores_each_ensemble_once(self, tmp_path, monkeypatch, labels, loss,
                                               ensembles):
        csv_path = make_training_csv(tmp_path / "d.csv")
        if labels is not None:  # the target cut into len(labels) classes
            rows = list(csv.reader(csv_path.open(encoding="utf-8")))
            y = np.array([float(r[2]) for r in rows[1:]])
            cuts = np.quantile(y, np.linspace(0, 1, len(labels) + 1)[1:-1])
            rows[1:] = [r[:2] + [repr(labels[c])] for r, c in zip(rows[1:], np.digitize(y, cuts))]
            csv.writer(csv_path.open("w", newline="", encoding="utf-8")).writerows(rows)
        schema = write_schema(tmp_path / "s.json", REG_SCHEMA)
        model = tmp_path / "model.json"
        assert main(["train", "--input", str(csv_path), "--schema", str(schema), "--loss", loss,
                     "--trees", "3", "--output", str(model)]) == 0
        scored = []
        predict = Ensemble.predict

        def counted(self, *args, **kwargs):
            scored.append(id(self))
            return predict(self, *args, **kwargs)

        monkeypatch.setattr(Ensemble, "predict", counted)
        assert main(["predict", "--model", str(model), "--input", str(csv_path),
                     "--output", str(tmp_path / "p.csv")]) == 0
        assert len(scored) == len(set(scored)) == ensembles

    def test_unset_training_flags_take_the_boost_config_defaults(self, tmp_path):
        csv_path = make_training_csv(tmp_path / "d.csv")
        schema = write_schema(tmp_path / "s.json", REG_SCHEMA)
        model = tmp_path / "model.json"
        assert main(["train", "--input", str(csv_path), "--schema", str(schema),
                     "--output", str(model)]) == 0
        assert json.loads(model.read_text())["config"] == asdict(BoostConfig())

    def test_train_is_deterministic(self, tmp_path):
        _, _, m1 = self.train(tmp_path)
        text1 = m1.read_bytes()
        _, _, m2 = self.train(tmp_path)
        assert text1 == m2.read_bytes()

    def test_corrupt_model_exits_1(self, tmp_path):
        csv_path, schema, model = self.train(tmp_path)
        corrupted = model.read_text()[:-5]
        model.write_text(corrupted)
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--input", str(csv_path),
                     "--output", str(out)]) == 1

    def test_malformed_model_exits_1_at_load(self, tmp_path, capsys):
        csv_path, schema, model = self.train(tmp_path)
        doc = json.loads(model.read_text())
        doc["trees"][0]["nodes"][0]["feature"] = 99
        model.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--input", str(csv_path),
                     "--output", str(out)]) == 1
        assert "tree 0 node 0: 'feature' 99 is out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_ordered_oblivious_flags_route(self, tmp_path):
        _, _, model = self.train(tmp_path, "--grower", "oblivious",
                                 "--ordered-blocks", "4")
        doc = json.loads(model.read_text())
        assert doc["config"]["grower"] == "oblivious"
        assert doc["config"]["ordered_blocks"] == 4
        assert all("level_splits" in t for t in doc["trees"])

    def test_goss_flags_route(self, tmp_path):
        _, _, model = self.train(tmp_path, "--grower", "leaf_wise",
                                 "--goss-a", "0.4", "--goss-b", "0.4")
        doc = json.loads(model.read_text())
        assert doc["config"]["goss_a"] == 0.4

    def test_invalid_flag_combo_exits_2(self, tmp_path):
        csv_path = make_training_csv(tmp_path / "d.csv")
        schema = write_schema(tmp_path / "s.json", REG_SCHEMA)
        code = main(["train", "--input", str(csv_path), "--schema", str(schema),
                     "--output", str(tmp_path / "m.json"), "--goss-a", "0.5",
                     "--goss-b", "0.2"])  # goss without leaf_wise
        assert code == 2

    def test_nan_lambda_exits_2(self, tmp_path):
        csv_path = make_training_csv(tmp_path / "d.csv")
        schema = write_schema(tmp_path / "s.json", REG_SCHEMA)
        code = main(["train", "--input", str(csv_path), "--schema", str(schema),
                     "--output", str(tmp_path / "m.json"), "--lambda", "nan"])
        assert code == 2
        assert not (tmp_path / "m.json").exists()

    def test_infinite_feature_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("x,y\n-inf,10\n1,0\n2,0\n3,0\n4,0\n5,0\n", encoding="utf-8")
        schema = write_schema(tmp_path / "s.json", [{"name": "x"},
                                                    {"name": "y", "kind": "target"}])
        code = main(["train", "--input", str(csv_path), "--schema", str(schema),
                     "--output", str(tmp_path / "m.json"), "--trees", "3"])
        assert code == 2
        assert "feature column 'x' contains infinite values" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_classification_via_target_flag(self, tmp_path):
        csv_path = write_mexican_csv(tmp_path / "mex.csv", n=60)
        schema_entries = [{"name": n, "kind": "categorical"}
                          for n in ("diabetes", "obesity", "tobacco", "cov-res")]
        schema = write_schema(tmp_path / "s.json", schema_entries)
        model = tmp_path / "clf.json"
        code = main(["train", "--input", str(csv_path), "--schema", str(schema),
                     "--target", "cov-res", "--loss", "logistic",
                     "--trees", "5", "--output", str(model)])
        assert code == 0
        doc = json.loads(model.read_text())
        assert doc["format"] == "boostlab.classifier"
        preds = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--input", str(csv_path),
                     "--output", str(preds)]) == 0
        header = preds.read_text().splitlines()[0]
        assert header.startswith("class,")


EDU_SCHEMA = [{"name": n, "kind": "categorical"}
              for n in ("Data as of", "Start Date", "End Date", "Sex", "Education", "Race")] \
    + [{"name": "COVID-19 Deaths"}, {"name": "Total Deaths"}]


def _cell(value):
    """A JSON result value as the CSV writer spells it (None: an empty cell)."""
    return "" if value is None else str(value)


class TestCsvTables:
    """chi2, anova, corr and summary .csv tables: fixed headers, and rows that
    carry the same values as the command's JSON result."""

    def run(self, tmp_path, argv):
        csv_path = write_education_csv(tmp_path / "edu.csv")
        schema = write_schema(tmp_path / "s.json", EDU_SCHEMA)
        base = argv + ["--input", str(csv_path), "--schema", str(schema)]
        assert main(base + ["--output", str(tmp_path / "t.csv")]) == 0
        assert main(base + ["--output", str(tmp_path / "t.json")]) == 0
        with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        return header, rows, json.loads((tmp_path / "t.json").read_text())

    def test_chi2(self, tmp_path):
        header, rows, doc = self.run(tmp_path, ["chi2", "--a", "Sex", "--b", "Education"])
        assert header == ["a", "b", "statistic", "dof", "p_value"]
        assert rows == [["Sex", "Education", _cell(doc["statistic"]), _cell(doc["dof"]),
                         _cell(doc["p_value"])]]

    def test_anova(self, tmp_path):
        header, rows, doc = self.run(tmp_path, ["anova", "--response", "Total Deaths",
                                                "--factor", "Race", "--factor2", "Sex"])
        assert header == ["term", "sum_sq", "dof", "mean_sq", "F", "p_value"]
        assert [r[0] for r in rows] == ["Race", "Sex", "Residual"]
        assert rows == [[_cell(r[k]) for k in header] for r in doc["rows"]]

    def test_corr(self, tmp_path):
        header, rows, doc = self.run(tmp_path, ["corr", "--columns",
                                                "COVID-19 Deaths,Total Deaths"])
        assert header == ["matrix", "label", "COVID-19 Deaths", "Total Deaths"]
        assert rows == [[kind, lbl] + [_cell(v) for v in vals]
                        for kind in ("r", "r_squared")
                        for lbl, vals in zip(doc["labels"], doc[kind])]
        assert [r[:2] for r in rows] == [["r", "COVID-19 Deaths"], ["r", "Total Deaths"],
                                         ["r_squared", "COVID-19 Deaths"],
                                         ["r_squared", "Total Deaths"]]

    def test_summary(self, tmp_path):
        header, rows, doc = self.run(tmp_path, ["summary", "--value", "COVID-19 Deaths",
                                                "--by", "Race,Sex"])
        assert header == ["group", "count", "mean", "median", "q1", "q3", "min", "max"]
        assert len(rows) == 6
        assert rows == [["|".join(g["group"])] + [_cell(g[k]) for k in header[1:]]
                        for g in doc["groups"]]

    # each statistics command's flags and the recipe analysis step they describe
    COMMANDS = [
        (["chi2", "--a", "Sex", "--b", "Education"],
         {"op": "chi2", "a": "Sex", "b": "Education"}),
        (["anova", "--response", "Total Deaths", "--factor", "Race"],
         {"op": "anova1", "response": "Total Deaths", "factor": "Race"}),
        (["anova", "--response", "Total Deaths", "--factor", "Race", "--factor2", "Sex"],
         {"op": "anova2", "response": "Total Deaths", "factor_a": "Race", "factor_b": "Sex"}),
        (["corr", "--columns", "COVID-19 Deaths, Total Deaths"],
         {"op": "correlation", "columns": ["COVID-19 Deaths", "Total Deaths"]}),
        (["summary", "--value", "COVID-19 Deaths", "--by", "Race,Sex"],
         {"op": "group_summary", "value": "COVID-19 Deaths", "by": ["Race", "Sex"]}),
    ]

    @pytest.mark.parametrize("argv, spec", COMMANDS,
                             ids=["chi2", "anova1", "anova2", "corr", "summary"])
    def test_same_bytes_as_the_recipe_analysis(self, tmp_path, argv, spec):
        self.run(tmp_path, argv)
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps({"name": "r", "schema": EDU_SCHEMA,
                                      "analyses": [{**spec, "name": "t"}]}))
        assert main(["recipe", "--recipe", str(recipe), "--input", str(tmp_path / "edu.csv"),
                     "--output-dir", str(tmp_path / "out")]) == 0
        for suffix in ("json", "csv"):
            assert (tmp_path / f"t.{suffix}").read_bytes() == \
                (tmp_path / "out" / "r" / f"t.{suffix}").read_bytes()

    def test_anova_categorical_response_exits_2(self, tmp_path, capsys):
        csv_path = write_education_csv(tmp_path / "edu.csv")
        schema = write_schema(tmp_path / "s.json", EDU_SCHEMA)
        assert main(["anova", "--input", str(csv_path), "--schema", str(schema),
                     "--response", "Sex", "--factor", "Race"]) == 2
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps({"name": "r", "schema": EDU_SCHEMA, "analyses": [
            {"op": "anova1", "response": "Sex", "factor": "Race"}]}))
        assert main(["recipe", "--recipe", str(recipe), "--input", str(csv_path),
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("error: response 'Sex' must be numeric\n") == 2


class TestImportanceAndReport:
    def test_importance_ranking(self, tmp_path):
        csv_path = make_training_csv(tmp_path / "d.csv")
        schema = write_schema(tmp_path / "s.json", REG_SCHEMA)
        model = tmp_path / "model.json"
        main(["train", "--input", str(csv_path), "--schema", str(schema),
              "--output", str(model), "--trees", "20"])
        out = tmp_path / "imp.json"
        assert main(["importance", "--model", str(model), "--normalized",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        ranking = doc["ranking"]
        assert ranking[0]["feature"] == "x0"  # dominant coefficient
        assert sum(r["value"] for r in ranking) == pytest.approx(1.0)
        csv_out = tmp_path / "imp.csv"
        assert main(["importance", "--model", str(model),
                     "--output", str(csv_out)]) == 0
        assert csv_out.read_text().splitlines()[0] == "feature,value"

    def test_report_describes_model(self, tmp_path):
        csv_path = make_training_csv(tmp_path / "d.csv")
        schema = write_schema(tmp_path / "s.json", REG_SCHEMA)
        model = tmp_path / "model.json"
        main(["train", "--input", str(csv_path), "--schema", str(schema),
              "--output", str(model), "--trees", "7"])
        out = tmp_path / "report.json"
        assert main(["report", "--model", str(model), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_trees"] == 7
        assert doc["loss"] == "squared_error"
        assert doc["feature_names"] == ["x0", "x1"]

    def test_report_rejects_non_finite_config(self, tmp_path, capsys):
        csv_path = make_training_csv(tmp_path / "d.csv")
        schema = write_schema(tmp_path / "s.json", REG_SCHEMA)
        model = tmp_path / "model.json"
        main(["train", "--input", str(csv_path), "--schema", str(schema),
              "--output", str(model), "--trees", "2"])
        text = model.read_text()
        assert '"gamma":0,' in text
        model.write_text(text.replace('"gamma":0,', '"gamma":1e999,'))  # loads as inf
        out = tmp_path / "report.json"
        assert main(["report", "--model", str(model), "--output", str(out)]) == 1
        assert "'config' 'gamma' must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()


class TestStatsCommands:
    def test_chi2_command(self, tmp_path):
        csv_path = write_mexican_csv(tmp_path / "mex.csv", n=80)
        schema = write_schema(tmp_path / "s.json",
                              [{"name": "diabetes", "kind": "categorical"},
                               {"name": "cov-res", "kind": "categorical"}])
        # lenient ingest is recipe-only; build a small file with just 2 cols
        import csv as _csv
        with open(csv_path) as fh:
            rows = list(_csv.reader(fh))
        header = rows[0]
        di = header.index("diabetes")
        ci = header.index("cov-res")
        small = tmp_path / "small.csv"
        with open(small, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["diabetes", "cov-res"])
            w.writerows([[r[di], r[ci]] for r in rows[1:]])
        out = tmp_path / "chi2.json"
        assert main(["chi2", "--input", str(small), "--schema", str(schema),
                     "--a", "diabetes", "--b", "cov-res", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["dof"] == 2  # three cov-res levels in the raw file
        assert 0.0 <= doc["p_value"] <= 1.0

    def test_anova_command_one_and_two_way(self, tmp_path):
        csv_path = write_education_csv(tmp_path / "edu.csv")
        schema = write_schema(tmp_path / "s.json", [
            {"name": "Data as of", "kind": "categorical"},
            {"name": "Start Date", "kind": "categorical"},
            {"name": "End Date", "kind": "categorical"},
            {"name": "Sex", "kind": "categorical"},
            {"name": "Education", "kind": "categorical"},
            {"name": "Race", "kind": "categorical"},
            {"name": "COVID-19 Deaths"}, {"name": "Total Deaths"}])
        out = tmp_path / "anova.json"
        assert main(["anova", "--input", str(csv_path), "--schema", str(schema),
                     "--response", "Total Deaths", "--factor", "Race",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [r["term"] for r in doc["rows"]] == ["Race", "Residual"]
        assert main(["anova", "--input", str(csv_path), "--schema", str(schema),
                     "--response", "Total Deaths", "--factor", "Race",
                     "--factor2", "Sex", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [r["term"] for r in doc["rows"]] == ["Race", "Sex", "Residual"]

    def test_corr_command(self, tmp_path, capsys):
        csv_path = make_training_csv(tmp_path / "d.csv")
        schema = write_schema(tmp_path / "s.json", REG_SCHEMA)
        assert main(["corr", "--input", str(csv_path), "--schema", str(schema),
                     "--columns", "x0,x1,y"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["labels"] == ["x0", "x1", "y"]
        r = np.array(doc["r"], dtype=float)
        assert r[0, 2] > 0.5  # y is built mostly from x0

    def test_summary_command(self, tmp_path):
        csv_path = write_education_csv(tmp_path / "edu.csv")
        schema = write_schema(tmp_path / "s.json", [
            {"name": "Data as of", "kind": "categorical"},
            {"name": "Start Date", "kind": "categorical"},
            {"name": "End Date", "kind": "categorical"},
            {"name": "Sex", "kind": "categorical"},
            {"name": "Education", "kind": "categorical"},
            {"name": "Race", "kind": "categorical"},
            {"name": "COVID-19 Deaths"}, {"name": "Total Deaths"}])
        out = tmp_path / "summary.csv"
        assert main(["summary", "--input", str(csv_path), "--schema", str(schema),
                     "--value", "COVID-19 Deaths", "--by", "Race,Sex",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "group,count,mean,median,q1,q3,min,max"
        assert len(lines) == 1 + 6  # 3 races x 2 sexes


class TestRecipeCommand:
    def test_recipe_end_to_end(self, tmp_path):
        csv_path = write_education_csv(tmp_path / "edu.csv")
        out_dir = tmp_path / "out"
        assert main(["recipe", "--recipe", "education-covid", "--input",
                     str(csv_path), "--output-dir", str(out_dir)]) == 0
        assert (out_dir / "education-covid" / "report.json").exists()

    def test_strict_shapes_flag(self, tmp_path):
        csv_path = write_education_csv(tmp_path / "edu.csv")
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["recipe", "--recipe", "education-covid", "--input",
                     str(csv_path), "--output-dir", str(tmp_path / "o"),
                     "--strict-shapes"]) == 2


TWO_COLUMN_SCHEMA = [{"name": "x0"}, {"name": "x1"}]


class TestMalformedRecipe:
    """A malformed recipe document exits 2 with the step and key named."""

    @pytest.mark.parametrize("text, message", [
        (json.dumps({"schema": TWO_COLUMN_SCHEMA}), "needs a string 'name'"),
        (json.dumps({"name": "r"}), "r: recipe needs a 'schema'"),
        (json.dumps({"name": "r", "schema": TWO_COLUMN_SCHEMA,
                     "preprocess": [{"column": "x0"}]}),
         "r: preprocess step 0 needs an 'op'"),
        (json.dumps({"name": "r", "schema": TWO_COLUMN_SCHEMA,
                     "analyses": [{"op": "chi2", "a": "x0", "b": "x1"},
                                  {"name": "c", "a": "x0", "b": "x1"}]}),
         "r: analysis 1 needs an 'op'"),
        (json.dumps({"name": "r", "schema": TWO_COLUMN_SCHEMA,
                     "preprocess": [{"op": "filter_rows", "excluded": [1]}]}),
         "r: preprocess step 0 (filter_rows) needs ['column']"),
        (json.dumps([{"name": "r", "schema": TWO_COLUMN_SCHEMA}]), "must hold an object"),
        ('{"name": "r", "schema": [', "is not valid JSON"),
    ], ids=["no-name", "no-schema", "step-without-op", "analysis-without-op",
            "filter-without-column", "top-level-list", "invalid-json"])
    def test_exits_2(self, tmp_path, capsys, text, message):
        csv_path = make_training_csv(tmp_path / "d.csv")
        recipe = tmp_path / "r.json"
        recipe.write_text(text, encoding="utf-8")
        assert main(["recipe", "--recipe", str(recipe), "--input", str(csv_path),
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Error" not in err
        assert not (tmp_path / "out").exists()


class TestRecipeValueTypes:
    """A recipe value of the wrong type exits 2 at load, naming the analysis
    index and the key, before any data is read."""

    @pytest.mark.parametrize("doc, message", [
        ({"analyses": [{"op": "correlation", "columns": ["x0", "x1"]},
                       {"op": "train_importance", "features": ["x0"], "target": "x1",
                        "trees": "many"}]},
         "r: analysis 1 (train_importance): 'trees' must be an integer, got 'many'"),
        ({"expected_shape": 5},
         "r: 'expected_shape' must be a pair of integers or nulls, got 5"),
        ({"analyses": [{"op": "correlation", "columns": "x0"}]},
         "r: analysis 0 (correlation): 'columns' must be a list of strings, got 'x0'"),
        ({"analyses": [{"op": "split_regression", "features": ["x0"], "target": "x1",
                        "train_fraction": "0.5"}]},
         "r: analysis 0 (split_regression): 'train_fraction' must be a number, got '0.5'"),
        ({"analyses": [{"op": "train_importance", "features": [0], "target": "x1"}]},
         "r: analysis 0 (train_importance): 'features' must be a list of strings, got [0]"),
        ({"analyses": [{"op": "train_importance", "features": ["x0"], "target": "x1",
                        "task": "classificaton"}]},
         "r: analysis 0 (train_importance): 'task' must be 'regression' or "
         "'classification', got 'classificaton'"),
        ({"analyses": [{"op": "train_importance", "features": ["x0"], "target": "x1",
                        "max_depth": 0}]},
         "r: analysis 0 (train_importance): max_depth must be >= 1"),
        ({"analyses": [{"op": "correlation", "columns": ["x0", "x1"]},
                       {"op": "train_importance", "features": ["x0"], "target": "x1",
                        "grower": "nope"}]},
         "r: analysis 1 (train_importance): unknown grower 'nope'"),
        ({"analyses": [{"op": "split_regression", "features": ["x0"], "target": "x1",
                        "train_fraction": 2.0}]},
         "r: analysis 0 (split_regression): 'train_fraction' must be in (0, 1), got 2.0"),
        ({"analyses": [{"op": "chi2", "a": ["x0"], "b": "x1"}]},
         "r: analysis 0 (chi2): 'a' must be a string, got ['x0']"),
        ({"analyses": [{"op": "group_summary", "value": {"v": 1}, "by": ["x0"]}]},
         "r: analysis 0 (group_summary): 'value' must be a string, got {'v': 1}"),
        ({"analyses": [{"op": "train_importance", "features": ["x0"], "target": ["x1"]}]},
         "r: analysis 0 (train_importance): 'target' must be a string, got ['x1']"),
        ({"preprocess": [{"op": "add_ratio_column", "new_name": "r", "num": ["x0"],
                          "den": "x1"}]},
         "r: preprocess step 0 (add_ratio_column): 'num' must be a string, got ['x0']"),
        ({"analyses": [{"op": "anova1", "response": "x0", "factor": 3}]},
         "r: analysis 0 (anova1): 'factor' must be a string, got 3"),
        ({"preprocess": [{"op": "drop_missing"},
                         {"op": "add_ratio_column", "new_name": 5, "num": "x0", "den": "x1"}]},
         "r: preprocess step 1 (add_ratio_column): 'new_name' must be a string, got 5"),
        ({"preprocess": [{"op": "filter_rows", "column": "x0", "excluded": [["a"]]}]},
         "r: preprocess step 0 (filter_rows): 'excluded' must be a list of strings and "
         "numbers, got [['a']]"),
        ({"analyses": [{"op": "chi2", "a": "x0", "b": "x1", "trees": 5}]},
         "r: analysis 0 (chi2): unknown key 'trees'"),
        ({"preprocess": [{"op": "add_ratio_column", "new_name": "r", "num": "x0", "den": "x1",
                          "scale": 10 ** 400}]},
         "r: preprocess step 0 (add_ratio_column): 'scale' must be a number, got 1000"),
    ], ids=["trees-string", "expected-shape-int", "columns-string",
            "train-fraction-string", "features-not-strings", "task-misspelled",
            "max-depth-zero", "grower-unknown", "train-fraction-above-one", "chi2-a-list",
            "group-summary-value-object", "target-list", "ratio-num-list",
            "anova1-factor-int", "ratio-new-name-int", "excluded-nested-list",
            "key-the-op-does-not-read", "scale-beyond-float"])
    def test_exits_2(self, tmp_path, capsys, doc, message):
        csv_path = make_training_csv(tmp_path / "d.csv")
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps({"name": "r", "schema": TWO_COLUMN_SCHEMA, **doc}),
                          encoding="utf-8")
        assert main(["recipe", "--recipe", str(recipe), "--input", str(csv_path),
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Error" not in err
        assert not (tmp_path / "out").exists()


class TestTrainConfigBoundary:
    """Config values that used to train into a stray exception, or into a model
    whose config echo could not be written, exit 2 before a model file exists."""

    def run_train(self, tmp_path, csv_path, *flags):
        schema = write_schema(tmp_path / "s.json", REG_SCHEMA)
        code = main(["train", "--input", str(csv_path), "--schema", str(schema),
                     "--output", str(tmp_path / "m.json"), "--trees", "2", *flags])
        assert not (tmp_path / "m.json").exists()
        return code

    def test_nan_goss_b_exits_2(self, tmp_path, capsys):
        csv_path = make_training_csv(tmp_path / "d.csv")
        assert self.run_train(tmp_path, csv_path, "--grower", "leaf_wise",
                              "--goss-a", "0.2", "--goss-b", "nan") == 2
        assert "goss_b must be finite, got nan" in capsys.readouterr().err

    def test_infinite_gamma_exits_2(self, tmp_path, capsys):
        csv_path = make_training_csv(tmp_path / "d.csv")
        assert self.run_train(tmp_path, csv_path, "--gamma", "inf") == 2
        assert "gamma must be finite, got inf" in capsys.readouterr().err

    def test_infinite_lambda_exits_2(self, tmp_path, capsys):
        csv_path = make_training_csv(tmp_path / "d.csv")
        assert self.run_train(tmp_path, csv_path, "--lambda", "inf") == 2
        assert "lambda_ must be finite, got inf" in capsys.readouterr().err

    def test_more_ordered_blocks_than_rows_exits_2(self, tmp_path, capsys):
        csv_path = make_training_csv(tmp_path / "d.csv", n=10)
        assert self.run_train(tmp_path, csv_path, "--grower", "oblivious",
                              "--ordered-blocks", "20") == 2
        err = capsys.readouterr().err
        assert "ordered_blocks=20 exceeds the 10 training rows" in err
        assert "Error" not in err

    def test_negative_efb_max_conflicts_exits_2(self, tmp_path, capsys):
        csv_path = make_training_csv(tmp_path / "d.csv", n=30)
        assert self.run_train(tmp_path, csv_path, "--efb-max-conflicts", "-1") == 2
        err = capsys.readouterr().err
        assert "efb_max_conflicts must be >= 0" in err
        assert "Error" not in err

    def test_max_bins_beyond_uint16_codes_exits_2(self, tmp_path, capsys):
        # more distinct values than a uint16 bin code can index
        csv_path = make_training_csv(tmp_path / "d.csv", n=66_000)
        assert self.run_train(tmp_path, csv_path, "--max-bins", "70000",
                              "--max-depth", "1") == 2
        err = capsys.readouterr().err
        assert "max_bins must be <= 65535" in err
        assert "Error" not in err


class TestRecipeFileNames:
    """Recipe and analysis names become report file names, so each must be a
    plain file name and every analysis name unique: otherwise exit 2 before
    any data is read, with nothing written inside or outside --output-dir."""

    CORR = {"op": "correlation", "columns": ["x0", "x1"]}

    @pytest.mark.parametrize("doc, message", [
        ({"name": "../up"}, "needs a string 'name' that is a plain file name, got '../up'"),
        ({"name": ".."}, "needs a string 'name' that is a plain file name, got '..'"),
        ({"name": ""}, "needs a string 'name' that is a plain file name, got ''"),
        ({"name": "a\\b"}, "needs a string 'name' that is a plain file name, got 'a\\\\b'"),
        ({"analyses": [{**CORR, "name": "../../escape"}]},
         "r: analysis 0 (correlation): 'name' must be a plain file name"),
        ({"analyses": [CORR, {**CORR, "name": "sub/dir"}]},
         "r: analysis 1 (correlation): 'name' must be a plain file name"),
        ({"analyses": [{**CORR, "name": 5}]}, "NUL), got 5"),
        ({"analyses": [{**CORR, "name": "."}]}, "NUL), got '.'"),
        ({"analyses": [{**CORR, "name": "a\0b"}]}, "NUL), got 'a\\x00b'"),
        ({"analyses": [CORR, {**CORR, "columns": ["x1", "x0"]}]},
         "r: analysis 1 repeats the name 'correlation'"),
    ], ids=["recipe-parent-path", "recipe-dotdot", "recipe-empty", "recipe-backslash",
            "analysis-escape", "analysis-subdir", "analysis-int", "analysis-dot",
            "analysis-nul", "analysis-repeated"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, doc, message):
        csv_path = make_training_csv(tmp_path / "d.csv")
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps({"name": "r", "schema": TWO_COLUMN_SCHEMA, **doc}),
                          encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        out_dir = tmp_path / "a" / "b" / "out"
        assert main(["recipe", "--recipe", str(recipe), "--input", str(csv_path),
                     "--output-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Error" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_distinct_plain_names_run(self, tmp_path):
        csv_path = make_training_csv(tmp_path / "d.csv")
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps({
            "name": "r v1.0", "schema": TWO_COLUMN_SCHEMA,
            "analyses": [self.CORR, {**self.CORR, "name": "corr again..x"}]}),
            encoding="utf-8")
        assert main(["recipe", "--recipe", str(recipe), "--input", str(csv_path),
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert {p.name for p in (tmp_path / "out" / "r v1.0").iterdir()} == {
            "report.json", "correlation.json", "correlation.csv", "corr again..x.json",
            "corr again..x.csv"}
