"""The CSV boundary in dataset.py: one row rule for both readers, the
projected reader against the exact-header one, and the one table writer."""

import csv
import io
import json

import numpy as np
import pytest

from boostlab.boosting import load_model
from boostlab.cli import _predictions_table, main
from boostlab.dataset import (CATEGORICAL, NUMERIC, ColumnSchema, Dataset, DatasetError,
                              load_csv, load_known_columns, write_csv, write_table)
from boostlab.recipes import _csv_rows, run_recipe

from fixtures import write_education_csv

SCHEMA = [ColumnSchema("a"), ColumnSchema("b", CATEGORICAL)]


def reference_table(header, rows) -> bytes:
    """A header and rows as csv.writer spells them in the canonical dialect,
    which is what each command wrote with its own writer before write_table."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, delimiter=",", quotechar='"', doublequote=True,
                        skipinitialspace=False, lineterminator="\n",
                        quoting=csv.QUOTE_MINIMAL)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


class TestRowRule:
    @pytest.mark.parametrize("load", [
        lambda p: load_csv(p, SCHEMA),
        lambda p: load_known_columns(p, SCHEMA),
    ], ids=["load_csv", "load_known_columns"])
    @pytest.mark.parametrize("text, match", [
        ("a,b\n1,x\n2\n", r"row 2 has 1 cells, expected 2"),           # short row
        ("a,b\n1,x\n2,y,z\n", r"row 2 has 3 cells, expected 2"),       # long row
        ("a,b\n1,x\n\n3,y\n", r"row 2 has 0 cells, expected 2"),       # blank line
        ("a,b,a\n1,x,2\n", r"header repeats column\(s\) \['a'\]"),     # duplicate name
    ], ids=["short-row", "long-row", "blank-line", "duplicate-header"])
    def test_malformed_rows_raise(self, tmp_path, load, text, match):
        p = tmp_path / "t.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(DatasetError, match=match):
            load(p)


class TestProjection:
    def test_projected_read_equals_exact_read_of_projected_file(self, tmp_path):
        schema = [ColumnSchema("a", NUMERIC, "NA"), ColumnSchema("b", CATEGORICAL, "?")]
        optional = [ColumnSchema("c", CATEGORICAL), ColumnSchema("absent")]
        wide = tmp_path / "wide.csv"
        wide.write_text("id,b,a,c\n"
                        "1,x,1.5,p\n"
                        "2,?,NA,q\n"
                        "3,\"y,z\",-2,p\n"
                        "4,x,0.25,r\n", encoding="utf-8")
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("a,b,c\n"
                          "1.5,x,p\n"
                          "NA,?,q\n"
                          "-2,\"y,z\",p\n"
                          "0.25,x,r\n", encoding="utf-8")
        got, raw_cols = load_known_columns(wide, schema, optional)
        want = load_csv(narrow, schema + optional[:1])
        assert raw_cols == 4
        assert got.schema == want.schema
        for name in want.column_names:
            np.testing.assert_array_equal(got.columns[name], want.columns[name])
            assert got.columns[name].dtype == want.columns[name].dtype
        assert got.labels == want.labels


class TestWriteCsv:
    def test_missing_categorical_without_marker_rejected(self, tmp_path):
        ds = Dataset([ColumnSchema("c", CATEGORICAL)],
                     {"c": np.array([0, -1, 1], dtype=np.int32)}, {"c": ["x", "y"]})
        p = tmp_path / "t.csv"
        with pytest.raises(DatasetError, match="'c' has missing values but no missing_marker"):
            write_csv(ds, p)
        assert not p.exists()

    def test_missing_categorical_with_marker_round_trips(self, tmp_path):
        ds = Dataset([ColumnSchema("c", CATEGORICAL, "NA")],
                     {"c": np.array([0, -1, 1], dtype=np.int32)}, {"c": ["x", "y"]})
        p = tmp_path / "t.csv"
        write_csv(ds, p)
        back = load_csv(p, ds.schema)
        np.testing.assert_array_equal(back.columns["c"], [0, -1, 1])
        assert back.labels == {"c": ["x", "y"]}


class TestWriteTable:
    def test_dialect_spelling(self, tmp_path):
        p = tmp_path / "t.csv"
        write_table(p, ["a", "b,c"], [['x"y', None], [1.5, "two\nlines"]])
        assert p.read_bytes() == b'a,"b,c"\n"x""y",\n1.5,"two\nlines"\n'

    def test_predictions_csv_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        x0, x1 = rng.normal(size=40).tolist(), rng.normal(size=40).tolist()
        data = tmp_path / "d.csv"
        data.write_text("x0,x1,y\n" + "".join(
            f"{a!r},{b!r},{2 * a - b!r}\n" for a, b in zip(x0, x1)), encoding="utf-8")
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps([{"name": "x0"}, {"name": "x1"},
                                      {"name": "y", "kind": "target"}]))
        model, preds = tmp_path / "m.json", tmp_path / "p.csv"
        assert main(["train", "--input", str(data), "--schema", str(schema),
                     "--output", str(model), "--trees", "5"]) == 0
        assert main(["predict", "--model", str(model), "--input", str(data),
                     "--output", str(preds)]) == 0
        loaded = load_model(model)
        ds, _ = load_known_columns(data, [ColumnSchema("x0"), ColumnSchema("x1")])
        assert preds.read_bytes() == reference_table(*_predictions_table(loaded, ds))

    def test_recipe_analysis_csv_bytes(self, tmp_path):
        csv_path = write_education_csv(tmp_path / "edu.csv")
        bundle = run_recipe("education-covid", csv_path, output_dir=tmp_path / "out")
        out = tmp_path / "out" / "education-covid"
        assert bundle["analyses"]
        for name, result in bundle["analyses"].items():
            assert (out / f"{name}.csv").read_bytes() == reference_table(*_csv_rows(result))


class TestMarkerSpelledValue:
    """write_csv refuses a present value spelled like its column's
    missing_marker, which load_csv would read back as missing."""

    @pytest.mark.parametrize("schema, columns, labels", [
        ([ColumnSchema("b", CATEGORICAL, missing_marker="NA")],
         {"b": np.array([0, -1, 1], dtype=np.int32)}, {"b": ["NA", "y"]}),
        ([ColumnSchema("a", NUMERIC, missing_marker="0.0")],
         {"a": np.array([1.5, 0.0, np.nan])}, {}),
    ], ids=["categorical-label", "numeric-value"])
    def test_rejected_before_the_file_is_opened(self, tmp_path, schema, columns, labels):
        path = tmp_path / "out.csv"
        with pytest.raises(DatasetError, match="missing_marker"):
            write_csv(Dataset(schema, columns, labels), path)
        assert not path.exists()

    def test_marker_unused_by_values_round_trips(self, tmp_path):
        schema = [ColumnSchema("a", NUMERIC, missing_marker="0"),
                  ColumnSchema("b", CATEGORICAL, missing_marker="NA")]
        ds = Dataset(schema, {"a": np.array([0.0, np.nan, 2.5]),
                              "b": np.array([0, -1, 1], dtype=np.int32)},
                     {"b": ["n/a", "y"]})
        write_csv(ds, tmp_path / "out.csv")
        back = load_csv(tmp_path / "out.csv", schema)
        np.testing.assert_array_equal(back.columns["a"], ds.columns["a"])
        np.testing.assert_array_equal(back.columns["b"], ds.columns["b"])
        assert back.labels["b"] == ["n/a", "y"]


class TestFieldLimit:
    """A cell longer than csv.field_size_limit() is refused the same way
    whether or not the file is quoted: csv.reader decides for both readers."""

    def test_plain_and_quoted_fail_alike(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        p = tmp_path / "t.csv"
        schema = tmp_path / "s.json"
        schema.write_text(json.dumps([{"name": "a"}, {"name": "b", "kind": "categorical"}]))
        rows = [["a", "b"], ["1", "x"], ["2", "y" * (limit + 1)]]
        messages = []
        for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
            with open(p, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n", quoting=quoting).writerows(rows)
            assert (b'"' in p.read_bytes()) == (quoting == csv.QUOTE_ALL)
            for load in (load_csv, load_known_columns):
                with pytest.raises(DatasetError) as info:
                    load(p, SCHEMA)
                messages.append(str(info.value))
            assert main(["ingest", "--input", str(p), "--schema", str(schema)]) == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == f"{p}: line 3: field larger than field limit ({limit})"
        assert messages[2] == f"error: {messages[0]}\n"
        assert messages == messages[:3] * 2
        assert csv.field_size_limit() == limit

    def test_a_cell_at_the_limit_loads(self, tmp_path):
        limit = csv.field_size_limit()
        p = tmp_path / "t.csv"
        p.write_text(f"a,b\n1,{'y' * limit}\n", encoding="utf-8")
        ds = load_csv(p, SCHEMA)
        assert ds.labels["b"] == ["y" * limit]
