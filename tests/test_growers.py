import numpy as np
import pytest

from boostlab.dataset import bin_features
from boostlab.growers import (HistogramBuilder, NodeStats, build_histogram,
                              find_best_split_histogram, find_best_split_presorted,
                              grow_leaf_wise, grow_level_wise, grow_oblivious,
                              leaf_weight, node_stats, split_gain)
from boostlab.boosting import BoostConfig
from boostlab.strategies import BundledHistograms, FeatureBundle, efb_bundle

from conftest import make_dataset
from oracles import (best_leaf_value, brute_force_best_split, bundled_histograms_reference,
                     level_histograms_reference, objective_reduction)


def config(**kw):
    base = dict(lambda_=0.0, gamma=0.0, max_depth=6, max_leaves=None,
                min_child_hessian=0.0)
    base.update(kw)
    return BoostConfig(**base)


def feature_dataset(X):
    return make_dataset({f"x{i}": X[:, i] for i in range(X.shape[1])})


class TestLeafWeight:
    def test_matches_quadratic_minimizer(self):
        stats = NodeStats(sum_g=1.0 + 2.0 - 0.5, sum_h=3.0, count=3)
        w = leaf_weight(stats, lam=1.0)
        assert w == pytest.approx(-0.625, abs=1e-15)
        oracle = best_leaf_value([1.0, 2.0, -0.5], [1.0, 1.0, 1.0], 1.0)
        assert w == pytest.approx(oracle, abs=1e-12)

    def test_zero_gradient_gives_zero(self):
        assert leaf_weight(NodeStats(0.0, 5.0, 5), lam=2.0) == 0.0

    def test_single_instance(self):
        assert leaf_weight(NodeStats(2.0, 1.0, 1), lam=0.0) == -2.0

    def test_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            leaf_weight(NodeStats(1.0, 0.0, 1), lam=0.0)


class TestSplitGain:
    def test_matches_objective_reduction(self):
        left = NodeStats(-2.0, 1.0, 1)
        right = NodeStats(3.0, 1.0, 1)
        gain = split_gain(left, right, lam=0.0, gamma=0.0)
        assert gain == pytest.approx(6.25, abs=1e-12)
        oracle = objective_reduction([-2.0, 3.0], [1.0, 1.0], [True, False], 0.0, 0.0)
        assert gain == pytest.approx(oracle, abs=1e-12)

    def test_gamma_dominates_mirrored_split(self):
        left = NodeStats(-1.0, 2.0, 3)
        right = NodeStats(1.0, 2.0, 3)
        assert split_gain(left, right, lam=0.0, gamma=10.0) < 0.0

    def test_degenerate_right_is_minus_gamma(self):
        parent = NodeStats(4.0, 3.0, 5)
        empty = NodeStats(0.0, 0.0, 0)
        gain = split_gain(parent, empty, lam=1.0, gamma=0.7)
        assert gain == pytest.approx(-0.7, abs=1e-15)

    def test_random_cases_match_oracle(self, rng):
        for _ in range(25):
            g = rng.normal(size=8)
            h = rng.uniform(0.1, 2.0, size=8)
            mask = np.zeros(8, dtype=bool)
            mask[: rng.integers(1, 8)] = True
            lam = float(rng.uniform(0, 2))
            left = NodeStats(g[mask].sum(), h[mask].sum(), int(mask.sum()))
            right = NodeStats(g[~mask].sum(), h[~mask].sum(), int((~mask).sum()))
            gain = split_gain(left, right, lam, 0.3)
            oracle = objective_reduction(g, h, mask, lam, 0.3)
            assert gain == pytest.approx(oracle, rel=1e-9, abs=1e-10)


class TestPresortedFinder:
    def test_two_point_fixture(self):
        ds = make_dataset({"x0": [1.0, 2.0]})
        cand = find_best_split_presorted(np.arange(2), ds, np.array([-2.0, 3.0]),
                                         np.array([1.0, 1.0]), lam=0.0, gamma=0.0)
        assert cand.feature == 0
        assert cand.threshold == pytest.approx(1.5)
        assert cand.gain == pytest.approx(6.25, abs=1e-12)
        assert (cand.left.count, cand.right.count) == (1, 1)

    def test_constant_feature_returns_none(self):
        ds = make_dataset({"x0": [2.0, 2.0, 2.0]})
        cand = find_best_split_presorted(np.arange(3), ds, np.array([1.0, -1.0, 2.0]),
                                         np.ones(3), lam=0.0, gamma=0.0)
        assert cand is None

    def test_tie_prefers_lower_feature(self):
        ds = make_dataset({"x0": [1.0, 2.0], "x1": [1.0, 2.0]})
        cand = find_best_split_presorted(np.arange(2), ds, np.array([-2.0, 3.0]),
                                         np.ones(2), lam=0.0, gamma=0.0)
        assert cand.feature == 0

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 40))
            m = int(rng.integers(1, 4))
            X = rng.normal(size=(n, m))
            g = rng.normal(size=n)
            h = rng.uniform(0.2, 1.5, size=n)
            ds = feature_dataset(X)
            cand = find_best_split_presorted(np.arange(n), ds, g, h, 0.5, 0.0)
            oracle = brute_force_best_split(X, g, h, 0.5, 0.0)
            if oracle is None:
                assert cand is None
                continue
            assert (cand.feature, cand.threshold) == (oracle[0], pytest.approx(oracle[1]))
            assert cand.gain == pytest.approx(oracle[2], rel=1e-10, abs=1e-10)


class TestHistogram:
    def test_single_instance(self):
        ds = make_dataset({"x0": [1.0, 2.0, 3.0]})
        b = bin_features(ds, max_bins=4)
        hist = build_histogram(np.array([1]), b, np.array([0, 5.0, 0]),
                               np.array([0, 2.0, 0]))
        assert hist.sum_g[0, 1] == 5.0
        assert hist.sum_h[0, 1] == 2.0
        assert hist.count[0].sum() == 1

    def test_sibling_subtraction(self, rng):
        X = rng.normal(size=(60, 3))
        ds = feature_dataset(X)
        b = bin_features(ds, max_bins=8)
        g = rng.normal(size=60)
        h = rng.uniform(0.5, 1.5, size=60)
        idx = np.arange(60)
        left, right = idx[:35], idx[35:]
        parent = build_histogram(idx, b, g, h)
        hl = build_histogram(left, b, g, h)
        hr = build_histogram(right, b, g, h)
        diff = parent.subtract(hl)
        np.testing.assert_allclose(diff.sum_g, hr.sum_g, atol=1e-12)
        np.testing.assert_allclose(diff.sum_h, hr.sum_h, atol=1e-12)
        np.testing.assert_array_equal(diff.count, hr.count)

    def test_totals_match_node_stats(self, rng):
        X = rng.normal(size=(40, 2))
        ds = feature_dataset(X)
        b = bin_features(ds, max_bins=6)
        g = rng.normal(size=40)
        h = rng.uniform(0.5, 1.5, size=40)
        idx = np.arange(40)
        hist = build_histogram(idx, b, g, h)
        stats = node_stats(idx, g, h)
        for fi in range(2):
            assert hist.sum_g[fi].sum() == pytest.approx(stats.sum_g, rel=1e-12)
            assert hist.sum_h[fi].sum() == pytest.approx(stats.sum_h, rel=1e-12)
            assert hist.count[fi].sum() == stats.count

    def test_fast_builder_matches_reference(self, rng):
        X = rng.normal(size=(80, 3))
        X[rng.random(size=(80, 3)) < 0.1] = np.nan
        ds = feature_dataset(X)
        b = bin_features(ds, max_bins=8)
        g = rng.normal(size=80)
        h = rng.uniform(0.5, 1.5, size=80)
        builder = HistogramBuilder(b)
        for size in (3, 80):  # both the flat and per-feature paths
            idx = np.sort(rng.choice(80, size=size, replace=False))
            fast = builder(idx, b, g, h)
            ref = build_histogram(idx, b, g, h)
            np.testing.assert_allclose(fast.sum_g, ref.sum_g, atol=1e-12)
            np.testing.assert_array_equal(fast.count, ref.count)


class TestHistogramKernel:
    """HistogramBuilder against build_histogram and the per-leaf loop, bit for bit."""

    N = 6000

    @pytest.fixture(scope="class")
    def table(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([rng.normal(size=self.N),            # > 255 bins: uint16 codes
                             rng.integers(0, 3, size=self.N),
                             rng.integers(0, 40, size=self.N),
                             rng.normal(size=self.N).round(1),
                             np.zeros(self.N),
                             rng.exponential(size=self.N)])
        X[rng.random(X.shape) < 0.07] = np.nan
        binned = bin_features(feature_dataset(X), max_bins=300)
        assert {binned.bins[n].dtype.type for n in binned.feature_names} == {np.uint8, np.uint16}
        return binned, rng.normal(size=self.N) * 10.0, rng.uniform(0.01, 2.0, size=self.N)

    def _node_sizes(self, builder):
        limit = builder.FLAT_LIMIT // builder.n_units
        assert limit + 1 < self.N - 5  # both accumulation paths are reached
        return (1, 37, limit, limit + 1, self.N - 5, self.N)

    def test_call_matches_build_histogram(self, table):
        binned, g, h = table
        builder = HistogramBuilder(binned)
        rng = np.random.default_rng(0)
        for size in self._node_sizes(builder):
            idx = np.sort(rng.choice(self.N, size=size, replace=False))
            got = builder(idx, binned, g, h)
            ref = build_histogram(idx, binned, g, h)
            assert np.array_equal(got.sum_g, ref.sum_g)
            assert np.array_equal(got.sum_h, ref.sum_h)
            assert got.count.dtype == ref.count.dtype
            assert np.array_equal(got.count, ref.count)

    @pytest.mark.parametrize("n_leaves", [1, 4, 32])
    def test_level_histograms_match_per_leaf_loop(self, table, n_leaves):
        binned, g, h = table
        builder = HistogramBuilder(binned)
        rng = np.random.default_rng(n_leaves)
        for size in self._node_sizes(builder):
            idx = np.sort(rng.choice(self.N, size=size, replace=False))
            leaf_pos = rng.integers(0, n_leaves, size=size)
            got = builder.level_histograms(idx, leaf_pos, n_leaves, binned, g, h)
            ref = level_histograms_reference(build_histogram, idx, leaf_pos, n_leaves,
                                             binned, g, h)
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_singleton_bundles_match_kernel(self, table):
        binned, g, h = table
        plain = HistogramBuilder(binned)
        singles = [FeatureBundle([fi], [0.0], [0.0]) for fi in range(len(binned.feature_names))]
        bundled = BundledHistograms(binned, singles)
        assert bundled.n_units == plain.n_units
        rng = np.random.default_rng(5)
        for size in self._node_sizes(plain):
            idx = np.sort(rng.choice(self.N, size=size, replace=False))
            got, ref = bundled(idx, binned, g, h), plain(idx, binned, g, h)
            for a, b in ((got.sum_g, ref.sum_g), (got.sum_h, ref.sum_h),
                         (got.count, ref.count)):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
            leaf_pos = rng.integers(0, 4, size=size)
            got = bundled.level_histograms(idx, leaf_pos, 4, binned, g, h)
            ref = plain.level_histograms(idx, leaf_pos, 4, binned, g, h)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)


class TestFullNodeCounts:
    """A builder counts a node of every row once and copies the counts on
    later calls: bit for bit what a fresh builder and the references give,
    on both accumulation paths, with and without EFB bundles."""

    N = 3000

    @pytest.fixture(scope="class")
    def table(self):
        rng = np.random.default_rng(12)
        level = rng.integers(0, 4, size=self.N)
        X = np.column_stack([*(level == k for k in range(4)),  # exclusive: EFB bundles them
                             rng.exponential(size=self.N), rng.normal(size=self.N)])
        X[:, -1][rng.random(self.N) < 0.1] = np.nan
        binned = bin_features(feature_dataset(X.astype(np.float64)), max_bins=300)
        return binned, efb_bundle(binned, 0)

    def builder(self, table, bundled, flat):
        binned, bundles = table
        builder = BundledHistograms(binned, bundles) if bundled else HistogramBuilder(binned)
        assert (builder.n_units < len(binned.feature_names)) == bundled
        # the instance's limit picks the path a node of every row takes
        builder.FLAT_LIMIT = builder.n_units * self.N if flat else 0
        return builder

    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("bundled", [False, True])
    def test_repeated_full_nodes_match_a_fresh_builder(self, table, bundled, flat):
        binned, bundles = table
        rng = np.random.default_rng(int(bundled) + 2 * int(flat))
        every = np.arange(self.N)
        one_leaf = np.zeros(self.N, dtype=np.int64)
        builder = self.builder(table, bundled, flat)
        for trial in range(3):
            g, h = rng.normal(size=self.N), rng.uniform(0.1, 2.0, size=self.N)
            subset = np.sort(rng.choice(self.N, size=self.N // 3, replace=False))
            for idx in (every, subset):  # a row subset neither reads nor fills the cache
                fresh = self.builder(table, bundled, flat)
                got, want = builder(idx, binned, g, h), fresh(idx, binned, g, h)
                assert np.array_equal(got.stats, want.stats)
                if bundled:
                    ref = [r[0] for r in bundled_histograms_reference(binned, bundles, idx, g, h)]
                else:
                    ref = build_histogram(idx, binned, g, h).stats
                for a, b in zip(got.stats, ref):
                    assert np.array_equal(a, b)
                got = builder.level_histograms(idx, one_leaf[:len(idx)], 1, binned, g, h)
                want = fresh.level_histograms(idx, one_leaf[:len(idx)], 1, binned, g, h)
                assert np.array_equal(got, want)
            assert builder._full_counts is not None

    def test_no_builder_reads_another_builders_counts(self, table):
        binned, _ = table
        first, second = HistogramBuilder(binned), HistogramBuilder(binned)
        g, h = np.ones(self.N), np.ones(self.N)
        first(np.arange(self.N), binned, g, h)
        assert first._full_counts is not None and second._full_counts is None
        first._full_counts[:] = -1.0  # a poisoned cache shows only in its own builder
        counts = second(np.arange(self.N), binned, g, h).count
        assert np.array_equal(counts, build_histogram(np.arange(self.N), binned, g, h).count)


class TestHistogramFinder:
    def test_matches_presorted_when_bins_cover_values(self, rng):
        for _ in range(15):
            n = int(rng.integers(6, 50))
            m = int(rng.integers(1, 4))
            X = np.round(rng.normal(size=(n, m)), 1)
            g = rng.normal(size=n)
            h = rng.uniform(0.2, 1.5, size=n)
            ds = feature_dataset(X)
            b = bin_features(ds, max_bins=64)
            idx = np.arange(n)
            hist = build_histogram(idx, b, g, h)
            cand_h = find_best_split_histogram(hist, node_stats(idx, g, h), b, 0.5, 0.0)
            cand_p = find_best_split_presorted(idx, ds, g, h, 0.5, 0.0)
            if cand_p is None:
                assert cand_h is None
                continue
            assert cand_h.feature == cand_p.feature
            assert cand_h.threshold == pytest.approx(cand_p.threshold, abs=1e-12)
            assert cand_h.gain == pytest.approx(cand_p.gain, rel=1e-10)

    def test_single_bin_returns_none(self):
        ds = make_dataset({"x0": [3.0, 3.0, 3.0]})
        b = bin_features(ds, max_bins=4)
        idx = np.arange(3)
        g = np.array([1.0, -2.0, 0.5])
        h = np.ones(3)
        hist = build_histogram(idx, b, g, h)
        assert find_best_split_histogram(hist, node_stats(idx, g, h), b, 0.0, 0.0) is None

    def test_missing_routed_to_better_side(self):
        # 4 real values force a split at 2.5; the two missing rows carry
        # positive gradient that pairs with the right side's positive block
        x = np.array([1.0, 2.0, 3.0, 4.0, np.nan, np.nan])
        g = np.array([-2.0, -2.0, 3.0, 3.0, 3.0, 3.0])
        h = np.ones(6)
        ds = make_dataset({"x0": x})
        b = bin_features(ds, max_bins=8)
        idx = np.arange(6)
        hist = build_histogram(idx, b, g, h)
        cand = find_best_split_histogram(hist, node_stats(idx, g, h), b, 0.0, 0.0)
        # exhaustive two-sided check from the oracle
        oracle = brute_force_best_split(x[:, None], g, h, 0.0, 0.0)
        assert cand.default_left is False
        assert oracle[3] is False
        assert cand.threshold == pytest.approx(oracle[1])
        assert cand.gain == pytest.approx(oracle[2], rel=1e-12)
        assert cand.left.count == 2 and cand.right.count == 4

    def test_tied_routings_agree_across_finders(self):
        # threshold 1.0 with missing right and 2.5 with missing left tie on
        # gain; every finder must take the lower threshold
        x = np.array([2.0, 2.0, 0.0, np.nan, 3.0, 2.0])
        g = np.array([1.0, 0.0, 1.0, 0.0, 1.0, -2.0])
        h = np.ones(6)
        ds = make_dataset({"x0": x})
        b = bin_features(ds, max_bins=256)
        idx = np.arange(6)
        hist = build_histogram(idx, b, g, h)
        cand_h = find_best_split_histogram(hist, node_stats(idx, g, h), b, 1.0, 0.0)
        cand_p = find_best_split_presorted(idx, ds, g, h, 1.0, 0.0)
        oracle = brute_force_best_split(x[:, None], g, h, 1.0, 0.0)
        assert (oracle[1], oracle[3]) == (pytest.approx(1.0), False)
        for cand in (cand_h, cand_p):
            assert cand.threshold == pytest.approx(oracle[1], abs=1e-12)
            assert cand.default_left is oracle[3]
            assert cand.gain == pytest.approx(oracle[2], rel=1e-12)

    def test_min_child_hessian_rejects(self):
        ds = make_dataset({"x0": [1.0, 2.0]})
        b = bin_features(ds, max_bins=4)
        idx = np.arange(2)
        g = np.array([-2.0, 3.0])
        h = np.ones(2)
        hist = build_histogram(idx, b, g, h)
        cand = find_best_split_histogram(hist, node_stats(idx, g, h), b, 0.0, 0.0,
                                         min_child_hessian=1.5)
        assert cand is None


def xor_dataset():
    """XOR cells with slightly unbalanced counts (3/4/4/5); a perfectly
    balanced XOR gives every first split exactly zero gain, which the
    gain<=0 pruning rule would (correctly) refuse to make."""
    cells = [([0.0, 0.0], 3), ([0.0, 1.0], 4), ([1.0, 0.0], 4), ([1.0, 1.0], 5)]
    rows = [cell for cell, k in cells for _ in range(k)]
    X = np.array(rows)
    y = np.logical_xor(X[:, 0] > 0.5, X[:, 1] > 0.5).astype(float)
    return X, y


class TestLevelWise:
    def test_depth_one_is_a_stump(self, rng):
        X = rng.normal(size=(30, 2))
        g = rng.normal(size=30)
        h = np.ones(30)
        ds = feature_dataset(X)
        b = bin_features(ds, max_bins=32)
        tree = grow_level_wise(np.arange(30), b, g, h, config(max_depth=1))
        assert tree.n_leaves <= 2
        assert tree.depth() <= 1

    def test_xor_recovered_at_depth_two(self):
        X, y = xor_dataset()
        g = 0.0 - y  # squared loss at zero predictions
        h = np.ones(len(y))
        ds = feature_dataset(X)
        b = bin_features(ds, max_bins=4)
        tree = grow_level_wise(np.arange(len(y)), b, g, h, config(max_depth=2))
        assert tree.n_leaves == 4
        # with weights applied, every cell is fit exactly: zero squared loss
        preds = tree.predict_matrix(X)
        np.testing.assert_allclose(preds, y, atol=1e-12)

    def test_no_positive_gain_gives_single_leaf(self):
        ds = make_dataset({"x0": [1.0, 2.0, 3.0, 4.0]})
        b = bin_features(ds, max_bins=4)
        g = np.zeros(4)
        h = np.ones(4)
        tree = grow_level_wise(np.arange(4), b, g, h, config(gamma=1.0))
        assert tree.n_leaves == 1
        assert tree.nodes[0].weight == 0.0

    def test_exact_mode_equals_histogram_mode(self, rng):
        # with every distinct value in its own bin the two finders enumerate
        # the same partitions; thresholds may differ inside value gaps of a
        # node, so identity is asserted on structure, weights, and routing.
        # nodes are kept at a size where equal-gain ties cannot arise from
        # one partition being expressible through two different features
        for _ in range(5):
            n = int(rng.integers(80, 160))
            X = rng.normal(size=(n, 3))
            g = rng.normal(size=n)
            h = rng.uniform(0.3, 1.2, size=n)
            ds = feature_dataset(X)
            b = bin_features(ds, max_bins=256)
            cfg = config(max_depth=3, lambda_=1.0)
            t_hist = grow_level_wise(np.arange(n), b, g, h, cfg)
            t_exact = grow_level_wise(np.arange(n), b, g, h, cfg, exact=True)
            assert len(t_hist.nodes) == len(t_exact.nodes)
            for nh, ne in zip(t_hist.nodes, t_exact.nodes):
                assert nh.is_leaf == ne.is_leaf
                if nh.is_leaf:
                    assert nh.weight == pytest.approx(ne.weight, abs=1e-12)
                else:
                    assert nh.feature == ne.feature
            np.testing.assert_array_equal(t_hist.predict_matrix(X),
                                          t_exact.predict_matrix(X))

    def test_stats_conservation_at_splits(self, rng):
        n = 60
        X = rng.normal(size=(n, 2))
        g = rng.normal(size=n)
        h = rng.uniform(0.5, 1.5, size=n)
        ds = feature_dataset(X)
        b = bin_features(ds, max_bins=16)
        idx = np.arange(n)
        hist = build_histogram(idx, b, g, h)
        parent = node_stats(idx, g, h)
        cand = find_best_split_histogram(hist, parent, b, 0.5, 0.0)
        merged = cand.left + cand.right
        assert merged.count == parent.count
        assert merged.sum_g == pytest.approx(parent.sum_g, rel=1e-12)
        assert merged.sum_h == pytest.approx(parent.sum_h, rel=1e-12)


class TestLeafWise:
    def test_two_leaves_is_a_stump(self, rng):
        n = 40
        X = rng.normal(size=(n, 2))
        g = rng.normal(size=n)
        h = np.ones(n)
        ds = feature_dataset(X)
        b = bin_features(ds, max_bins=16)
        t_leaf = grow_leaf_wise(np.arange(n), b, g, h, config(max_leaves=2))
        t_level = grow_level_wise(np.arange(n), b, g, h, config(max_depth=1))
        assert t_leaf.n_leaves == 2
        assert t_leaf.nodes[0].feature == t_level.nodes[0].feature
        assert t_leaf.nodes[0].threshold == t_level.nodes[0].threshold

    def test_monotone_data_grows_a_path(self):
        # 4^x gradients: isolating the largest remaining value always beats
        # any other split, so best-first growth peels one instance at a time
        # and the tree becomes a path (depth = leaves - 1)
        x = np.arange(16, dtype=float)
        g = -(4.0 ** x)
        h = np.ones(16)
        ds = make_dataset({"x0": x})
        b = bin_features(ds, max_bins=16)
        tree = grow_leaf_wise(np.arange(16), b, g, h,
                              config(max_leaves=5, max_depth=10))
        assert tree.n_leaves == 5
        assert tree.depth() == 4  # leaves - 1: a path, unlike level-wise

    def test_split_order_follows_gain_ranking(self):
        x = np.arange(16, dtype=float)
        g = -(4.0 ** x)
        h = np.ones(16)
        ds = make_dataset({"x0": x})
        b = bin_features(ds, max_bins=16)
        idx = np.arange(16)
        # exhaustive check: the root takes the global argmax split, and the
        # next split is the argmax within the splittable (left) child
        root_cand = find_best_split_histogram(build_histogram(idx, b, g, h),
                                              node_stats(idx, g, h), b, 0.0, 0.0)
        tree = grow_leaf_wise(idx, b, g, h, config(max_leaves=3, max_depth=10))
        assert tree.nodes[0].threshold == pytest.approx(root_cand.threshold)
        left = idx[x <= root_cand.threshold]
        left_cand = find_best_split_histogram(build_histogram(left, b, g, h),
                                              node_stats(left, g, h), b, 0.0, 0.0)
        left_node = tree.nodes[tree.nodes[0].left]
        assert not left_node.is_leaf
        assert left_node.threshold == pytest.approx(left_cand.threshold)

    def test_matches_level_wise_with_full_leaf_budget(self, rng):
        # 16 distinct rows, uniform-ish gains: both strategies exhaust the
        # same positive-gain splits and end with the same leaf partition
        x = np.arange(16, dtype=float)
        g = rng.normal(size=16)
        h = np.ones(16)
        ds = make_dataset({"x0": x})
        b = bin_features(ds, max_bins=16)
        cfg_leaf = config(max_leaves=16, max_depth=4)
        cfg_level = config(max_depth=4)
        t_leaf = grow_leaf_wise(np.arange(16), b, g, h, cfg_leaf)
        t_level = grow_level_wise(np.arange(16), b, g, h, cfg_level)
        X = x[:, None]
        np.testing.assert_allclose(t_leaf.predict_matrix(X),
                                   t_level.predict_matrix(X), atol=1e-12)


class TestOblivious:
    def test_depth_one_equals_level_wise_stump(self, rng):
        n = 50
        X = rng.normal(size=(n, 3))
        g = rng.normal(size=n)
        h = np.ones(n)
        ds = feature_dataset(X)
        b = bin_features(ds, max_bins=16)
        t_obl = grow_oblivious(np.arange(n), b, g, h, config(max_depth=1))
        t_lvl = grow_level_wise(np.arange(n), b, g, h, config(max_depth=1))
        assert t_obl.level_splits[0][0] == t_lvl.nodes[0].feature
        assert t_obl.level_splits[0][1] == pytest.approx(t_lvl.nodes[0].threshold)

    def test_xor_uses_both_features(self):
        X, y = xor_dataset()
        g = 0.0 - y
        h = np.ones(len(y))
        ds = feature_dataset(X)
        b = bin_features(ds, max_bins=4)
        tree = grow_oblivious(np.arange(len(y)), b, g, h, config(max_depth=2))
        used = {f for f, _, _ in tree.level_splits}
        assert used == {0, 1}
        np.testing.assert_allclose(tree.predict_matrix(X), y, atol=1e-12)

    def test_structure_invariants(self, rng):
        n = 64
        X = rng.normal(size=(n, 3))
        g = rng.normal(size=n)
        h = np.ones(n)
        ds = feature_dataset(X)
        b = bin_features(ds, max_bins=16)
        tree = grow_oblivious(np.arange(n), b, g, h, config(max_depth=3))
        depth = len(tree.level_splits)
        assert tree.n_leaves == 2 ** depth
        # identical (feature, threshold) across every node of a level
        for level in range(depth):
            fi, thr, _ = tree.level_splits[level]
            for p in range(2 ** level):
                node = tree.nodes[2 ** level - 1 + p]
                assert (node.feature, node.threshold) == (fi, thr)

    def test_level_choice_maximizes_total_gain(self, rng):
        # exhaustive evaluation of all (feature, bin) pairs at the root level
        n = 40
        X = np.round(rng.normal(size=(n, 2)), 1)
        g = rng.normal(size=n)
        h = np.ones(n)
        ds = feature_dataset(X)
        b = bin_features(ds, max_bins=32)
        tree = grow_oblivious(np.arange(n), b, g, h, config(max_depth=1))
        fi, thr, _ = tree.level_splits[0]
        best = None
        for f_idx, name in enumerate(b.feature_names):
            for edge in b.boundaries[name][:-1]:
                mask = X[:, f_idx] <= edge
                if not mask.any() or mask.all():
                    continue
                gain = objective_reduction(g, h, mask, 0.0, 0.0)
                if best is None or gain > best[0]:
                    best = (gain, f_idx, edge)
        assert (fi, thr) == (best[1], pytest.approx(best[2]))

    def test_empty_leaves_have_zero_weight(self):
        # second level must split only one side, leaving empty leaves
        x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 3.0])
        g = np.array([5.0, 5.0, -1.0, -1.0, -7.0, -9.0])
        h = np.ones(6)
        ds = make_dataset({"x0": x})
        b = bin_features(ds, max_bins=8)
        tree = grow_oblivious(np.arange(6), b, g, h, config(max_depth=2))
        weights = tree.leaf_weight_vector()
        counts = np.zeros(len(weights))
        pos = np.zeros(6, dtype=int)
        for fi, thr, _ in tree.level_splits:
            pos = 2 * pos + (x > thr).astype(int)
        np.add.at(counts, pos, 1)
        assert (counts == 0).any()
        np.testing.assert_array_equal(weights[counts == 0], 0.0)


class TestArgmaxContract:
    def test_both_finders_match_brute_force(self, rng):
        for _ in range(10):
            n = int(rng.integers(20, 200))
            m = int(rng.integers(1, 5))
            X = rng.normal(size=(n, m))
            g = rng.normal(size=n)
            h = rng.uniform(0.2, 2.0, size=n)
            ds = feature_dataset(X)
            b = bin_features(ds, max_bins=256)
            idx = np.arange(n)
            oracle = brute_force_best_split(X, g, h, 1.0, 0.0)
            cand_p = find_best_split_presorted(idx, ds, g, h, 1.0, 0.0)
            hist = build_histogram(idx, b, g, h)
            cand_b = find_best_split_histogram(hist, node_stats(idx, g, h), b, 1.0, 0.0)
            assert (cand_p.feature, cand_b.feature) == (oracle[0], oracle[0])
            assert cand_p.threshold == pytest.approx(oracle[1], abs=1e-12)
            assert cand_b.threshold == pytest.approx(oracle[1], abs=1e-12)
            assert cand_p.gain == pytest.approx(oracle[2], rel=1e-10)
            assert cand_b.gain == pytest.approx(oracle[2], rel=1e-10)


def test_binned_dataset_is_not_mutated(rng):
    X = rng.normal(size=(80, 3))
    X[rng.random((80, 3)) < 0.1] = np.nan
    b = bin_features(feature_dataset(X), max_bins=16)
    g = rng.normal(size=80)
    h = rng.uniform(0.5, 1.5, size=80)
    idx = np.arange(80)
    before = dict(vars(b))
    find_best_split_histogram(build_histogram(idx, b, g, h), node_stats(idx, g, h),
                              b, 1.0, 0.0)
    grow_level_wise(idx, b, g, h, config(max_depth=3))
    grow_leaf_wise(idx, b, g, h, config(max_depth=3, max_leaves=5))
    grow_oblivious(idx, b, g, h, config(max_depth=3))
    after = vars(b)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


class TestLeafSlots:
    """with_slots=True hands back each training row's leaf node id; reading
    node_weights() there equals routing the row through the tree."""

    GROWERS = {
        "level_wise": lambda *a: grow_level_wise(*a, config(max_depth=4), with_slots=True),
        "exact": lambda *a: grow_level_wise(*a, config(max_depth=4), exact=True,
                                            with_slots=True),
        "leaf_wise": lambda *a: grow_leaf_wise(*a, config(max_depth=5, max_leaves=9),
                                               with_slots=True),
        "oblivious": lambda *a: grow_oblivious(*a, config(max_depth=3), with_slots=True),
    }

    @pytest.mark.parametrize("grower", GROWERS)
    @pytest.mark.parametrize("subset", [False, True], ids=["all-rows", "subset"])
    def test_slots_equal_routing(self, rng, grower, subset):
        n = 300
        X = rng.normal(size=(n, 4))
        X[rng.random((n, 4)) < 0.1] = np.nan
        g = rng.normal(size=n)
        h = rng.uniform(0.5, 1.5, size=n)
        b = bin_features(feature_dataset(X), max_bins=16)
        idx = np.flatnonzero(rng.random(n) < 0.6) if subset else np.arange(n)
        tree, slots = self.GROWERS[grower](idx, b, g, h)
        assert slots.shape == idx.shape
        assert all(tree.nodes[s].is_leaf for s in np.unique(slots))
        assert tree.node_weights()[slots].tobytes() == tree.predict_matrix(X[idx]).tobytes()
