import numpy as np
import pytest

from boostlab.boosting import BoostConfig, train
from boostlab.dataset import CATEGORICAL, TARGET
from boostlab.special import gamma_q, incomplete_beta
from boostlab.stats import (ContingencyTable, StatsError, chi_squared_test,
                            contingency_table, feature_importance, group_summary,
                            one_way_anova, pearson_correlation_matrix,
                            ranked_importance, two_way_anova)

from conftest import make_dataset
from oracles import (f_tail_quadrature, gamma_q_quadrature, group_summary_reference,
                     incomplete_beta_quadrature)


class TestSpecialFunctions:
    def test_chi2_critical_value(self):
        # chi2=3.84146 at 1 dof sits at the 5% tail
        q = gamma_q(0.5, 1.92073)
        assert q == pytest.approx(0.0500, abs=1e-4)
        assert q == pytest.approx(gamma_q_quadrature(0.5, 1.92073), abs=1e-10)

    def test_against_quadrature_grid(self):
        for s in (0.5, 1.0, 2.5, 7.0):
            for x in (0.1, 1.0, 3.0, 12.0):
                assert gamma_q(s, x) == pytest.approx(
                    gamma_q_quadrature(s, x), abs=1e-10)

    def test_q_at_zero_is_one(self):
        for s in (0.5, 1.0, 4.0):
            assert gamma_q(s, 0.0) == 1.0

    def test_q_monotone_decreasing(self):
        xs = np.linspace(0.0, 30.0, 200)
        qs = [gamma_q(1.7, float(x)) for x in xs]
        assert all(a >= b for a, b in zip(qs, qs[1:]))
        assert qs[-1] < 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_q(-1.0, 2.0)
        with pytest.raises(ValueError):
            gamma_q(1.0, -0.1)
        with pytest.raises(ValueError):
            incomplete_beta(1.0, 1.0, 1.5)

    def test_beta_uniform_case(self):
        for x in (0.0, 0.3, 1.0):
            assert incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-10)

    def test_beta_symmetry_at_half(self):
        for a in (1.0, 2.0, 5.0):
            assert incomplete_beta(a, a, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_beta_against_quadrature(self):
        for a, b, x in [(2.0, 0.5, 0.228), (0.5, 0.5, 1 / 26), (3.0, 4.0, 0.7),
                        (1.5, 2.5, 0.1)]:
            assert incomplete_beta(a, b, x) == pytest.approx(
                incomplete_beta_quadrature(a, b, x), abs=1e-10)

    def test_p_values_in_unit_interval(self, rng):
        for _ in range(50):
            s = float(rng.uniform(0.2, 20))
            x = float(rng.uniform(0, 40))
            assert 0.0 <= gamma_q(s, x) <= 1.0


class TestContingencyTable:
    def test_counts(self):
        ds = make_dataset({"a": ["A", "A", "B", "B"], "b": ["x", "y", "x", "x"]},
                          kinds={"a": CATEGORICAL, "b": CATEGORICAL})
        t = contingency_table(ds, "a", "b")
        np.testing.assert_array_equal(t.counts, [[1, 1], [2, 0]])
        assert t.row_labels == ["A", "B"]
        assert t.col_labels == ["x", "y"]

    def test_single_level_row_gives_dof_zero_error(self):
        ds = make_dataset({"a": ["A", "A"], "b": ["x", "y"]},
                          kinds={"a": CATEGORICAL, "b": CATEGORICAL})
        t = contingency_table(ds, "a", "b")
        assert t.counts.shape == (1, 2)
        with pytest.raises(StatsError, match="2x2"):
            chi_squared_test(t)

    def test_empty_dataset_rejected(self):
        ds = make_dataset({"a": np.array([], dtype=np.int32),
                           "b": np.array([], dtype=np.int32)},
                          kinds={"a": CATEGORICAL, "b": CATEGORICAL},
                          labels={"a": [], "b": []})
        with pytest.raises(StatsError, match="empty"):
            contingency_table(ds, "a", "b")

    def test_non_categorical_rejected(self):
        ds = make_dataset({"a": [1.0, 2.0], "b": ["x", "y"]},
                          kinds={"b": CATEGORICAL})
        with pytest.raises(StatsError, match="categorical"):
            contingency_table(ds, "a", "b")


class TestChiSquared:
    def test_2x2_fixture(self):
        # closed form for 2x2: n(ad-bc)^2 / (r1 r2 c1 c2) = 60*300^2/30^4
        t = ContingencyTable(["r1", "r2"], ["c1", "c2"],
                             np.array([[10, 20], [20, 10]]))
        res = chi_squared_test(t)
        assert res.statistic == pytest.approx(6.6667, abs=1e-3)
        closed_form = 60 * (10 * 10 - 20 * 20) ** 2 / (30 * 30 * 30 * 30)
        assert res.statistic == pytest.approx(closed_form, rel=1e-12)
        assert res.dof == 1
        assert res.p_value == pytest.approx(0.00982, abs=1e-4)
        assert res.p_value == pytest.approx(
            gamma_q_quadrature(0.5, res.statistic / 2), abs=1e-10)
        np.testing.assert_allclose(res.expected, [[15, 15], [15, 15]])

    def test_proportional_rows_give_zero(self):
        t = ContingencyTable(["r1", "r2"], ["c1", "c2"],
                             np.array([[10, 10], [20, 20]]))
        res = chi_squared_test(t)
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)

    def test_statistic_homogeneity(self, rng):
        counts = rng.integers(1, 30, size=(3, 4))
        base = chi_squared_test(ContingencyTable(list("abc"), list("wxyz"), counts))
        for k in (2, 3, 7):
            scaled = chi_squared_test(
                ContingencyTable(list("abc"), list("wxyz"), counts * k))
            assert scaled.statistic == pytest.approx(k * base.statistic, rel=1e-12)

    def test_zero_marginal_rejected(self):
        t = ContingencyTable(["r1", "r2"], ["c1", "c2"],
                             np.array([[0, 0], [20, 10]]))
        with pytest.raises(StatsError, match="zero"):
            chi_squared_test(t)


class TestOneWayAnova:
    def fixture(self):
        return make_dataset(
            {"y": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
             "g": ["A", "A", "A", "B", "B", "B"]}, kinds={"g": CATEGORICAL})

    def test_two_group_fixture(self):
        table = one_way_anova(self.fixture(), "y", "g")
        term = table.terms[0]
        assert term.sum_sq == pytest.approx(13.5)
        assert table.residual.sum_sq == pytest.approx(4.0)
        assert term.f_stat == pytest.approx(13.5)
        assert term.p_value == pytest.approx(0.0213, abs=1e-3)
        assert term.p_value == pytest.approx(
            f_tail_quadrature(13.5, 1, 4), abs=1e-10)

    def test_identical_means_give_f_zero(self):
        ds = make_dataset({"y": [1.0, 2.0, 1.0, 2.0], "g": ["A", "A", "B", "B"]},
                          kinds={"g": CATEGORICAL})
        table = one_way_anova(ds, "y", "g")
        assert table.terms[0].f_stat == pytest.approx(0.0, abs=1e-12)
        assert table.terms[0].p_value == pytest.approx(1.0)

    def test_affine_response_invariance(self):
        base = one_way_anova(self.fixture(), "y", "g").terms[0].f_stat
        ds = self.fixture()
        shifted = make_dataset({"y": 3.0 * ds.columns["y"] - 7.0,
                                "g": ["A", "A", "A", "B", "B", "B"]},
                               kinds={"g": CATEGORICAL})
        assert one_way_anova(shifted, "y", "g").terms[0].f_stat == pytest.approx(
            base, rel=1e-12)

    def test_single_group_rejected(self):
        ds = make_dataset({"y": [1.0, 2.0], "g": ["A", "A"]}, kinds={"g": CATEGORICAL})
        with pytest.raises(StatsError, match="2"):
            one_way_anova(ds, "y", "g")

    def test_categorical_response_rejected(self):
        # not analysed on its label codes
        ds = make_dataset({"Sex": ["f", "m", "f", "m"], "Race": ["a", "a", "b", "b"]},
                          kinds={"Sex": CATEGORICAL, "Race": CATEGORICAL})
        with pytest.raises(StatsError, match="^response 'Sex' must be numeric$"):
            one_way_anova(ds, "Sex", "Race")


class TestTwoWayAnova:
    def fixture(self):
        return make_dataset(
            {"y": [1.0, 2.0, 3.0, 5.0],
             "A": ["a1", "a1", "a2", "a2"],
             "B": ["b1", "b2", "b1", "b2"]},
            kinds={"A": CATEGORICAL, "B": CATEGORICAL})

    def test_balanced_2x2(self):
        table = two_way_anova(self.fixture(), "y", "A", "B")
        a, b = table.terms
        assert a.sum_sq == pytest.approx(6.25, abs=1e-10)
        assert b.sum_sq == pytest.approx(2.25, abs=1e-10)
        assert table.residual.sum_sq == pytest.approx(0.25, abs=1e-10)
        assert a.f_stat == pytest.approx(25.0, rel=1e-9)
        assert b.f_stat == pytest.approx(9.0, rel=1e-9)
        # exact F(1,1) tail: 1 - (2/pi) atan(sqrt(F))
        import math
        assert a.p_value == pytest.approx(1 - 2 / math.pi * math.atan(5.0), abs=1e-9)
        assert b.p_value == pytest.approx(1 - 2 / math.pi * math.atan(3.0), abs=1e-9)
        assert a.p_value == pytest.approx(0.1257, abs=1e-3)
        assert b.p_value == pytest.approx(0.2048, abs=1e-3)

    def test_balanced_decomposition(self, rng):
        # balanced design: factor sums of squares + residual = total
        levels_a = np.repeat(["a1", "a2", "a3"], 8)
        levels_b = np.tile(np.repeat(["b1", "b2"], 4), 3)
        y = rng.normal(size=24)
        ds = make_dataset({"y": y, "A": levels_a, "B": levels_b},
                          kinds={"A": CATEGORICAL, "B": CATEGORICAL})
        table = two_way_anova(ds, "y", "A", "B")
        total = ((y - y.mean()) ** 2).sum()
        explained = sum(t.sum_sq for t in table.terms) + table.residual.sum_sq
        assert explained == pytest.approx(total, rel=1e-9)

    def test_single_level_factor_rejected(self):
        ds = make_dataset({"y": [1.0, 2.0], "A": ["a", "b"], "B": ["c", "c"]},
                          kinds={"A": CATEGORICAL, "B": CATEGORICAL})
        with pytest.raises(StatsError):
            two_way_anova(ds, "y", "A", "B")

    def test_row_order_invariance(self, rng):
        ds = self.fixture()
        perm = rng.permutation(4)
        shuffled = ds.take_rows(perm)
        t1 = two_way_anova(ds, "y", "A", "B")
        t2 = two_way_anova(shuffled, "y", "A", "B")
        for r1, r2 in zip(t1.terms, t2.terms):
            assert r1.sum_sq == pytest.approx(r2.sum_sq, rel=1e-10)
            assert r1.p_value == pytest.approx(r2.p_value, rel=1e-10)

    def test_confounded_design_rejected(self):
        ds = make_dataset({"y": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                           "A": ["a", "a", "b", "b", "c", "c"],
                           "B": ["x", "x", "y", "y", "z", "z"]},
                          kinds={"A": CATEGORICAL, "B": CATEGORICAL})
        with pytest.raises(StatsError, match="singular|confounded"):
            two_way_anova(ds, "y", "A", "B")

    def test_categorical_response_rejected(self):
        ds = make_dataset({"Sex": ["f", "m", "f", "m"], "A": ["a1", "a1", "a2", "a2"],
                           "B": ["b1", "b2", "b1", "b2"]},
                          kinds={"Sex": CATEGORICAL, "A": CATEGORICAL, "B": CATEGORICAL})
        with pytest.raises(StatsError, match="^response 'Sex' must be numeric$"):
            two_way_anova(ds, "Sex", "A", "B")


class TestCorrelation:
    def test_hand_computed_fixture(self):
        ds = make_dataset({"x": [1.0, 2.0, 3.0, 4.0], "y": [1.0, 3.0, 2.0, 4.0]})
        cm = pearson_correlation_matrix(ds, ["x", "y"])
        assert cm.matrix[0, 1] == pytest.approx(0.8)
        assert cm.r_squared[0, 1] == pytest.approx(0.64)

    def test_perfect_linear(self):
        x = np.arange(10, dtype=float)
        ds = make_dataset({"x": x, "up": 2 * x + 1, "down": -2 * x})
        cm = pearson_correlation_matrix(ds, ["x", "up", "down"])
        assert cm.matrix[0, 1] == pytest.approx(1.0)
        assert cm.matrix[0, 2] == pytest.approx(-1.0)

    def test_affine_invariance_of_sign(self, rng):
        x = rng.normal(size=50)
        for a in (2.5, -0.3):
            ds = make_dataset({"x": x, "z": a * x + 1.0})
            cm = pearson_correlation_matrix(ds, ["x", "z"])
            assert cm.matrix[0, 1] == pytest.approx(np.sign(a), abs=1e-12)

    def test_matrix_invariants(self, rng):
        cols = {f"c{i}": rng.normal(size=30) for i in range(4)}
        ds = make_dataset(cols)
        cm = pearson_correlation_matrix(ds, list(cols))
        np.testing.assert_allclose(cm.matrix, cm.matrix.T, atol=1e-12)
        np.testing.assert_array_equal(np.diag(cm.matrix), np.ones(4))
        assert np.all(np.abs(cm.matrix) <= 1.0)

    def test_constant_column_undefined(self):
        ds = make_dataset({"x": [1.0, 2.0, 3.0], "c": [5.0, 5.0, 5.0]})
        cm = pearson_correlation_matrix(ds, ["x", "c"])
        assert np.isnan(cm.matrix[0, 1])
        assert cm.matrix[0, 0] == 1.0


class TestGroupSummary:
    def test_quartile_rule(self):
        ds = make_dataset({"v": [1.0, 2.0, 3.0, 4.0, 5.0], "g": ["a"] * 5},
                          kinds={"g": CATEGORICAL})
        (s,) = group_summary(ds, "v", ["g"])
        assert (s.q1, s.median, s.q3) == (1.5, 3.0, 4.5)
        assert (s.minimum, s.maximum, s.count) == (1.0, 5.0, 5)

    def test_single_value_group(self):
        ds = make_dataset({"v": [7.0], "g": ["a"]}, kinds={"g": CATEGORICAL})
        (s,) = group_summary(ds, "v", ["g"])
        assert s.minimum == s.q1 == s.median == s.q3 == s.maximum == 7.0

    def test_groups_independent(self):
        ds = make_dataset({"v": [1.0, 2.0, 10.0, 20.0],
                           "g": ["a", "a", "b", "b"]}, kinds={"g": CATEGORICAL})
        a, b = group_summary(ds, "v", ["g"])
        assert (a.mean, b.mean) == (1.5, 15.0)

    def test_multi_key_groups(self):
        ds = make_dataset({"v": [1.0, 2.0, 3.0, 4.0],
                           "g": ["a", "a", "b", "b"],
                           "s": ["m", "f", "m", "f"]},
                          kinds={"g": CATEGORICAL, "s": CATEGORICAL})
        groups = group_summary(ds, "v", ["g", "s"])
        assert [g.group for g in groups] == [("a", "m"), ("a", "f"), ("b", "m"), ("b", "f")]

    def test_matches_row_by_row_grouping(self):
        # missing cells in every column, three grouping columns, a label only
        # incomplete rows use and one no row uses; values repeat, so groups
        # hold ties, and the bits of every number must agree
        rng = np.random.default_rng(31)
        n = 3000
        v = rng.integers(-20, 20, size=n) / 4.0
        v[rng.random(n) < 0.1] = -0.0       # ties with 0.0 that sort either way
        v[rng.random(n) < 0.05] = np.nan
        codes = {name: rng.integers(-1, k, size=n).astype(np.int32)
                 for name, k in (("a", 3), ("b", 5), ("c", 2))}
        codes["b"][np.isnan(v)] = 5          # "b5" appears only on incomplete rows
        labels = {"a": ["x", "y", "z"], "b": [f"b{i}" for i in range(7)], "c": ["m", "f"]}
        ds = make_dataset({"v": v, **codes}, kinds=dict.fromkeys(codes, CATEGORICAL),
                          labels=labels)
        got = group_summary(ds, "v", ["b", "a", "c"])
        want = group_summary_reference(ds, "v", ["b", "a", "c"])
        assert len(got) > 20
        assert not {"b5", "b6"} & {g.group[0] for g in got}

        def bits(groups):
            return [(g.group, g.count, np.array([g.mean, g.median, g.q1, g.q3, g.minimum,
                                                 g.maximum]).tobytes()) for g in groups]

        assert bits(got) == bits(want)


class TestFeatureImportance:
    def train_simple(self, rng, n_trees=5):
        x0 = rng.normal(size=120)
        cols = {"x0": x0, "x1": rng.normal(size=120), "x2": rng.normal(size=120),
                "y": (x0 > 0).astype(float)}
        ds = make_dataset(cols, kinds={"y": TARGET})
        return train(ds, BoostConfig(n_trees=n_trees, max_depth=3))

    def test_step_target_ranks_its_feature_first(self, rng):
        ens = self.train_simple(rng)
        report = feature_importance(ens, metric="gain")
        ranking = report.ranking()
        assert ranking[0][0] == "x0"
        assert ranking[0][1] > ranking[1][1]

    def test_gain_conservation_with_recorded_splits(self, rng):
        ens = self.train_simple(rng)
        report = feature_importance(ens, metric="gain")
        total_recorded = sum(gain for tree in ens.trees
                             for _, gain in tree.split_records())
        assert report.gain.sum() == pytest.approx(total_recorded, rel=1e-12)

    def test_single_split_tree(self):
        from boostlab.growers import DecisionTree, TreeNode
        from boostlab.boosting import Ensemble
        tree = DecisionTree([
            TreeNode(is_leaf=False, feature=2, threshold=0.5, left=1, right=2,
                     gain=6.25),
            TreeNode(is_leaf=True, weight=-1.0),
            TreeNode(is_leaf=True, weight=1.0)])
        ens = Ensemble([tree], 0.0, 0.1, "squared_error", ["a", "b", "c"])
        report = feature_importance(ens)
        np.testing.assert_allclose(report.gain, [0.0, 0.0, 6.25])
        np.testing.assert_array_equal(report.split_count, [0, 0, 1])

    def test_empty_ensemble_normalization_rejected(self):
        from boostlab.boosting import Ensemble
        ens = Ensemble([], 0.0, 0.1, "squared_error", ["a"])
        report = feature_importance(ens, normalized=False)
        np.testing.assert_array_equal(report.gain, [0.0])
        with pytest.raises(StatsError, match="normalize"):
            feature_importance(ens, normalized=True)

    def test_normalized_fractions_sum_to_one(self, rng):
        ens = self.train_simple(rng)
        report = feature_importance(ens, metric="gain", normalized=True)
        assert report.values().sum() == pytest.approx(1.0)
        assert np.all(report.values() >= 0.0)

    @pytest.mark.parametrize("metric", ["gain", "split_count"])
    def test_ranking_breaks_ties_by_name_as_ranked_importance_does(self, rng, metric):
        # two constant features never split: their zero values tie, and
        # their names sort against feature order
        x = rng.normal(size=120)
        cols = {"x": x, "zb": np.zeros(120), "za": np.ones(120), "y": (x > 0).astype(float)}
        ens = train(make_dataset(cols, kinds={"y": TARGET}), BoostConfig(n_trees=3, max_depth=2))
        ranking = feature_importance(ens, metric).ranking()
        assert ens.feature_names == ["x", "zb", "za"]
        assert ranking == [("x", ranking[0][1]), ("za", 0.0), ("zb", 0.0)]
        assert ranking == ranked_importance([ens], metric)[1]
