import warnings

import numpy as np
import pytest

from boostlab.boosting import BoostConfig, train
from boostlab.dataset import (CATEGORICAL, NUMERIC, TARGET, ColumnSchema, Dataset,
                              DatasetError, add_ratio_column, bin_features,
                              drop_missing, filter_rows, load_csv, one_hot_encode,
                              one_hot_source, retype_target, train_test_split,
                              write_csv)

from conftest import make_dataset
from oracles import quantile_cut_reference


def write_text(path, text):
    path.write_text(text, encoding="utf-8")


class TestLoadCsv:
    def test_basic_three_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        write_text(p, "a,b\n1.5,x\n2.5,y\n3.5,x\n")
        ds = load_csv(p, [ColumnSchema("a"), ColumnSchema("b", CATEGORICAL)])
        assert ds.n_rows == 3
        assert len(ds.schema) == 2
        np.testing.assert_array_equal(ds.columns["a"], [1.5, 2.5, 3.5])
        assert ds.labels["b"] == ["x", "y"]
        np.testing.assert_array_equal(ds.columns["b"], [0, 1, 0])

    def test_missing_marker_becomes_nan(self, tmp_path):
        p = tmp_path / "t.csv"
        write_text(p, "a\n1\nNA\n3\n")
        ds = load_csv(p, [ColumnSchema("a", NUMERIC, missing_marker="NA")])
        assert np.isnan(ds.columns["a"][1])
        assert ds.columns["a"][0] == 1.0

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        write_text(p, "a\n1\nabc\n")
        with pytest.raises(DatasetError, match=r"row 2.*'a'.*'abc'"):
            load_csv(p, [ColumnSchema("a")])

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "t.csv"
        write_text(p, "a,b\n1,2\n")
        with pytest.raises(DatasetError, match="header mismatch"):
            load_csv(p, [ColumnSchema("a"), ColumnSchema("c")])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such file"):
            load_csv(tmp_path / "nope.csv", [ColumnSchema("a")])

    def test_header_order_insensitive(self, tmp_path):
        p = tmp_path / "t.csv"
        write_text(p, "b,a\nx,1\n")
        ds = load_csv(p, [ColumnSchema("a"), ColumnSchema("b", CATEGORICAL)])
        assert ds.column_names == ["a", "b"]
        assert ds.columns["a"][0] == 1.0

    def test_round_trip(self, tmp_path):
        ds = make_dataset(
            {"a": [1.25, float("nan"), -3.0], "b": ["x", "y", "x"], "t": [0.0, 1.0, 0.5]},
            kinds={"b": CATEGORICAL, "t": TARGET})
        ds = Dataset([ColumnSchema("a", NUMERIC, "NA")] + ds.schema[1:], ds.columns, ds.labels)
        p = tmp_path / "rt.csv"
        write_csv(ds, p)
        back = load_csv(p, ds.schema)
        np.testing.assert_array_equal(back.columns["a"], ds.columns["a"])
        np.testing.assert_array_equal(back.columns["b"], ds.columns["b"])
        np.testing.assert_array_equal(back.columns["t"], ds.columns["t"])
        assert back.labels == ds.labels


class TestAddRatioColumn:
    def test_percentage(self):
        ds = make_dataset({"covid": [25.0, 10.0], "total": [100.0, 40.0]})
        out = add_ratio_column(ds, "pct", "covid", "total", scale=100.0)
        np.testing.assert_allclose(out.columns["pct"], [25.0, 25.0])
        assert out.column_names == ["covid", "total", "pct"]
        np.testing.assert_array_equal(out.columns["covid"], ds.columns["covid"])

    def test_identity_ratio(self):
        ds = make_dataset({"a": [3.0, 7.0], "b": [3.0, 7.0]})
        out = add_ratio_column(ds, "r", "a", "b", scale=100.0)
        np.testing.assert_allclose(out.columns["r"], [100.0, 100.0])

    def test_zero_denominator_names_row(self):
        ds = make_dataset({"a": [1.0, 2.0], "b": [5.0, 0.0]})
        with pytest.raises(DatasetError, match="row 1"):
            add_ratio_column(ds, "r", "a", "b")

    def test_name_collision(self):
        ds = make_dataset({"a": [1.0], "b": [2.0]})
        with pytest.raises(DatasetError, match="already exists"):
            add_ratio_column(ds, "a", "a", "b")


class TestFilterRows:
    def test_excludes_values(self):
        ds = make_dataset({"t": [1.0, 2.0, 3.0, 1.0, 3.0]}, kinds={"t": TARGET})
        out = filter_rows(ds, "t", [3])
        assert out.n_rows == 3
        np.testing.assert_array_equal(out.columns["t"], [1.0, 2.0, 1.0])

    def test_empty_exclusion_is_identity(self):
        ds = make_dataset({"t": [1.0, 2.0]})
        out = filter_rows(ds, "t", [])
        np.testing.assert_array_equal(out.columns["t"], ds.columns["t"])

    def test_excluding_everything_gives_zero_rows(self):
        ds = make_dataset({"t": [1.0, 1.0]})
        assert filter_rows(ds, "t", [1]).n_rows == 0

    def test_categorical_filter_compacts_labels(self):
        ds = make_dataset({"c": ["a", "b", "c", "b"]}, kinds={"c": CATEGORICAL})
        out = filter_rows(ds, "c", ["b"])
        assert out.labels["c"] == ["a", "c"]
        np.testing.assert_array_equal(out.columns["c"], [0, 1])

    def test_disjoint_filters_commute(self):
        ds = make_dataset({"t": [1.0, 2.0, 3.0, 4.0, 5.0]})
        ab = filter_rows(filter_rows(ds, "t", [1]), "t", [5])
        ba = filter_rows(filter_rows(ds, "t", [5]), "t", [1])
        np.testing.assert_array_equal(ab.columns["t"], ba.columns["t"])

    def test_unknown_column(self):
        ds = make_dataset({"t": [1.0]})
        with pytest.raises(DatasetError):
            filter_rows(ds, "nope", [1])


class TestDropMissing:
    def test_drops_rows_with_missing(self):
        ds = make_dataset({"a": [1, 2, np.nan, 4, 5], "b": [1, 2, 3, 4, 5]})
        out = drop_missing(ds, [])
        assert out.n_rows == 4

    def test_identity_when_clean(self):
        ds = make_dataset({"a": [1.0, 2.0]})
        out = drop_missing(ds, [])
        np.testing.assert_array_equal(out.columns["a"], ds.columns["a"])

    def test_drops_columns_first(self):
        ds = make_dataset({"a": [1.0, np.nan], "junk": [np.nan, np.nan]})
        out = drop_missing(ds, ["junk"])
        assert out.column_names == ["a"]
        assert out.n_rows == 1

    def test_unknown_column(self):
        ds = make_dataset({"a": [1.0]})
        with pytest.raises(DatasetError):
            drop_missing(ds, ["zz"])


class TestOneHotEncode:
    def test_three_levels(self):
        ds = make_dataset({"c": ["A", "B", "C", "B"]}, kinds={"c": CATEGORICAL})
        out = one_hot_encode(ds, "c")
        assert out.column_names == ["c=A", "c=B", "c=C"]
        np.testing.assert_array_equal(out.columns["c=B"], [0, 1, 0, 1])
        row1 = [out.columns[n][1] for n in out.column_names]
        assert row1 == [0, 1, 0]

    def test_two_levels_partition(self):
        ds = make_dataset({"c": ["A", "B", "A"]}, kinds={"c": CATEGORICAL})
        out = one_hot_encode(ds, "c")
        total = out.columns["c=A"] + out.columns["c=B"]
        np.testing.assert_array_equal(total, np.ones(3))

    def test_missing_gives_all_zero(self):
        ds = make_dataset({"c": np.array([0, 1, -1], dtype=np.int32)},
                          kinds={"c": CATEGORICAL}, labels={"c": ["A", "B"]})
        out = one_hot_encode(ds, "c")
        assert out.columns["c=A"][2] == 0 and out.columns["c=B"][2] == 0

    def test_single_level_rejected(self):
        ds = make_dataset({"c": ["A", "A"]}, kinds={"c": CATEGORICAL})
        with pytest.raises(DatasetError, match="one-hot"):
            one_hot_encode(ds, "c")

    @pytest.mark.parametrize("name, source", [
        ("c=A", ("c", "A")), ("c=x=y", ("c", "x=y")), ("c=", None), ("c", None),
        ("d=A", None), ("=A", None)])
    def test_one_hot_source(self, name, source):
        assert one_hot_source(name, {"c": ["A", "B"]}) == source

    def test_preserves_rows_adds_k_minus_1_columns(self):
        ds = make_dataset({"x": [1.0, 2.0, 3.0], "c": ["A", "B", "C"]},
                          kinds={"c": CATEGORICAL})
        out = one_hot_encode(ds, "c")
        assert out.n_rows == ds.n_rows
        assert len(out.schema) == len(ds.schema) + 3 - 1


class TestBinFeatures:
    def test_distinct_fits_one_bin_per_value(self):
        ds = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]})
        b = bin_features(ds, max_bins=4)
        assert b.n_bins("x") == 4
        np.testing.assert_array_equal(b.bins["x"], [0, 1, 2, 3])

    def test_equal_mass_halves_cut_at_midpoint(self):
        # derived via the quantile-rule enumeration in oracles.py
        ds = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]})
        b = bin_features(ds, max_bins=2)
        np.testing.assert_allclose(b.boundaries["x"], [2.5, 4.0])
        np.testing.assert_array_equal(b.bins["x"], [0, 0, 1, 1])
        ref = quantile_cut_reference([1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_allclose(b.boundaries["x"], ref)

    def test_constant_column_single_bin(self):
        ds = make_dataset({"x": [5.0, 5.0, 5.0]})
        b = bin_features(ds, max_bins=8)
        assert b.n_bins("x") == 1

    def test_quantile_rule_matches_reference_on_random_data(self, rng):
        for _ in range(10):
            vals = np.round(rng.normal(size=50), 1)
            ds = make_dataset({"x": vals})
            b = bin_features(ds, max_bins=7)
            np.testing.assert_allclose(b.boundaries["x"],
                                       quantile_cut_reference(vals, 7))

    def test_bins_bracket_values(self, rng):
        vals = rng.normal(size=100)
        ds = make_dataset({"x": vals})
        b = bin_features(ds, max_bins=9)
        edges = b.boundaries["x"]
        idx = b.bins["x"].astype(int)
        assert np.all(vals <= edges[idx])
        has_lower = idx > 0
        assert np.all(vals[has_lower] > edges[idx[has_lower] - 1])
        assert len(np.unique(idx)) <= 9

    @pytest.mark.parametrize("max_bins", [2, 3, 7, 32, 300])
    def test_codes_and_edges_follow_the_rule_with_ties_and_missing(self, rng, max_bins):
        # value pools with long runs of equal values (signed zeros among
        # them), NaN cells, and both sides of len(unique) <= max_bins; the
        # last ten trials draw values near +-1.7e308, between which a + b
        # overflows, after the other pools so that their draws stay the same
        for trial in range(50):
            n = int(rng.integers(1, 400))
            if trial < 40:
                pool = [rng.normal(size=n), np.round(rng.exponential(size=n), 1),
                        rng.choice([-0.0, 0.0, 1.0, 2.5, -3.0], size=n),
                        rng.integers(-5, 6, size=n).astype(float)][trial % 4]
            else:
                pool = rng.uniform(1.0e308, 1.79e308, size=n)
                pool[rng.random(n) < 0.3] = 1.7e308
                pool *= rng.choice([-1.0, 1.0], size=n)
            vals = pool.astype(np.float64)
            vals[rng.random(n) < 0.15] = np.nan
            b = bin_features(make_dataset({"x": vals}), max_bins=max_bins)
            edges = b.boundaries["x"]
            if np.isnan(vals).all():
                np.testing.assert_array_equal(edges, [np.inf])
            else:
                np.testing.assert_array_equal(edges, quantile_cut_reference(vals, max_bins))
            want = np.searchsorted(edges, vals, side="left")
            want[np.isnan(vals)] = len(edges)
            assert b.bins["x"].dtype == (np.uint8 if len(edges) < 256 else np.uint16)
            np.testing.assert_array_equal(b.bins["x"], want)

    def test_huge_values_get_finite_sorted_edges_and_split(self):
        # (a + b) / 2 overflows between values above half the largest float
        ds = make_dataset({"x": [1e308, 1.5e308, 1e308, 1.7e308], "y": [0.0, 1.0, 0.0, 1.0]},
                          kinds={"y": TARGET})
        huge = np.linspace(1e308, 1.7e308, 20)
        wide = make_dataset({"x": np.concatenate((-huge[::-1], huge))})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            b = bin_features(ds, max_bins=256)
            quantiles = bin_features(wide, max_bins=4)
        np.testing.assert_array_equal(b.boundaries["x"], [1.25e308, 1.6e308, 1.7e308])
        np.testing.assert_array_equal(b.bins["x"], [0, 1, 0, 2])
        edges = quantiles.boundaries["x"]
        assert np.isfinite(edges).all() and np.all(np.diff(edges) > 0)
        np.testing.assert_array_equal(quantiles.bins["x"],
                                      np.searchsorted(edges, wide.columns["x"]))
        tree = train(ds, BoostConfig(n_trees=1, max_depth=1)).trees[0]
        assert (tree.feature[0], tree.threshold[0]) == (0, 1.25e308)

    def test_missing_maps_to_reserved_bin(self):
        ds = make_dataset({"x": [1.0, np.nan, 2.0]})
        b = bin_features(ds, max_bins=4)
        assert b.bins["x"][1] == b.missing_bin("x")

    def test_max_bins_too_small(self):
        ds = make_dataset({"x": [1.0, 2.0]})
        with pytest.raises(DatasetError):
            bin_features(ds, max_bins=1)


class TestTrainTestSplit:
    def test_1252_rows_at_three_quarters(self):
        ds = make_dataset({"x": np.arange(1252, dtype=float)})
        tr, te = train_test_split(ds, 0.75, seed=0)
        assert (tr.n_rows, te.n_rows) == (939, 313)
        assert tr.n_rows + te.n_rows == 1252
        assert abs(tr.n_rows / 1252 - 0.75) < 0.01

    def test_even_split(self):
        ds = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]})
        tr, te = train_test_split(ds, 0.5, seed=3)
        assert (tr.n_rows, te.n_rows) == (2, 2)

    def test_deterministic_given_seed(self):
        ds = make_dataset({"x": np.arange(50, dtype=float)})
        a1, b1 = train_test_split(ds, 0.6, seed=7)
        a2, b2 = train_test_split(ds, 0.6, seed=7)
        np.testing.assert_array_equal(a1.columns["x"], a2.columns["x"])
        np.testing.assert_array_equal(b1.columns["x"], b2.columns["x"])

    def test_partition_property(self):
        ds = make_dataset({"x": np.arange(31, dtype=float)})
        tr, te = train_test_split(ds, 0.75, seed=11)
        merged = np.sort(np.concatenate([tr.columns["x"], te.columns["x"]]))
        np.testing.assert_array_equal(merged, np.arange(31, dtype=float))

    def test_fraction_out_of_range(self):
        ds = make_dataset({"x": [1.0, 2.0]})
        with pytest.raises(DatasetError):
            train_test_split(ds, 1.0, seed=0)


class TestRetypeTarget:
    def test_numeric_column_marked(self):
        ds = make_dataset({"a": [1.0, 2.0], "b": [0.0, 1.0]})
        out = retype_target(ds, "b")
        assert out.target_name() == "b"

    def test_categorical_numeric_labels_become_values(self):
        ds = make_dataset({"c": ["2", "1", "2"]}, kinds={"c": CATEGORICAL})
        out = retype_target(ds, "c")
        np.testing.assert_array_equal(out.columns["c"], [2.0, 1.0, 2.0])

    def test_previous_target_reverts(self):
        ds = make_dataset({"a": [1.0], "b": [2.0]}, kinds={"a": TARGET})
        out = retype_target(ds, "b")
        assert out.schema_for("a").kind == NUMERIC
        assert out.target_name() == "b"
