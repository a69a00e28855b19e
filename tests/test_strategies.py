import numpy as np
import pytest

from boostlab.boosting import BoostConfig, train
from boostlab.dataset import TARGET, bin_features
from boostlab.strategies import (BundledHistograms, FeatureBundle, efb_bundle,
                                 efb_decode, efb_encode, goss_select,
                                 goss_variance_gain, ordered_gradients,
                                 ordered_schedule)
from boostlab.growers import build_histogram
from boostlab.boosting import compute_gradients, _tree_doc

from conftest import make_dataset
from oracles import (bundled_histograms_reference, efb_bundle_reference,
                     goss_variance_gain_reference)


class TestGossSelect:
    def test_full_keep(self):
        g = np.array([1.0, -2.0, 0.5])
        s = goss_select(g, a=1.0, b=0.0, seed=0)
        np.testing.assert_array_equal(s.top_set, [0, 1, 2])
        assert len(s.sampled_set) == 0

    def test_documented_four_instance_case(self):
        g = np.array([4.0, -3.0, 1.0, -0.5])
        s = goss_select(g, a=0.5, b=0.5, seed=42)
        np.testing.assert_array_equal(s.top_set, [0, 1])
        assert len(s.sampled_set) == 1
        assert s.sampled_set[0] in (2, 3)
        assert s.amplification == pytest.approx(1.0)

    def test_empty_sample_rejected(self):
        g = np.array([4.0, -3.0, 1.0, -0.5])
        with pytest.raises(ValueError, match="amplification"):
            goss_select(g, a=0.5, b=0.1, seed=0)
        with pytest.raises(ValueError, match="b > 0"):
            goss_select(g, a=0.5, b=0.0, seed=0)

    def test_ties_broken_by_lower_index(self):
        g = np.array([1.0, -1.0, 1.0, 1.0])
        s = goss_select(g, a=0.5, b=0.5, seed=0)
        np.testing.assert_array_equal(s.top_set, [0, 1])

    def test_deterministic_given_seed(self, rng):
        g = rng.normal(size=100)
        s1 = goss_select(g, 0.2, 0.3, seed=7)
        s2 = goss_select(g, 0.2, 0.3, seed=7)
        np.testing.assert_array_equal(s1.sampled_set, s2.sampled_set)

    def test_weighted_gradient_sum(self, rng):
        g = rng.normal(size=50)
        s = goss_select(g, 0.3, 0.4, seed=1)
        w = s.weights(50)
        direct = g[s.top_set].sum() + s.amplification * g[s.sampled_set].sum()
        assert (w * g).sum() == pytest.approx(direct, rel=1e-12)

    def test_sizes(self, rng):
        g = rng.normal(size=100)
        s = goss_select(g, 0.25, 0.5, seed=0)
        assert len(s.top_set) == 25            # ceil(0.25 * 100)
        assert len(s.sampled_set) == 38        # round(0.5 * 75)
        assert not set(s.top_set) & set(s.sampled_set)


class TestGossTopByPartition:
    """goss_select finds the top set without sorting; it must keep exactly the
    first k of a stable argsort of -|g|, ties at the k-th |g| going to the
    lower index first."""

    @pytest.mark.parametrize("a", [0.05, 0.2, 0.37, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_stable_argsort_under_ties(self, seed, a):
        rng = np.random.default_rng(seed)
        # few distinct magnitudes, both signs: long runs of ties everywhere,
        # including around the k-th value
        g = rng.integers(-4, 5, size=503) * 0.25
        n = len(g)
        k = int(np.ceil(a * n))
        order = np.argsort(-np.abs(g), kind="stable")
        s = goss_select(g, a, 0.5, seed=3)
        np.testing.assert_array_equal(s.top_set, np.sort(order[:k]))
        assert len(s.top_set) == k
        rest = np.sort(order[k:])
        assert np.isin(s.sampled_set, rest).all()
        n_b = int(np.floor(0.5 * len(rest) + 0.5))
        np.testing.assert_array_equal(
            s.sampled_set, np.sort(np.random.default_rng(3).choice(rest, n_b, replace=False)))


class TestGossVarianceGain:
    def test_documented_value(self):
        # top = {g=4 at x<=d, g=-3 at x>d}, sampled = {g=1 at x>d}, one
        # instance outside the kept set; amplification (1-a)/b = 1
        values = np.array([0.0, 1.0, 1.0, 0.5])
        g = np.array([4.0, -3.0, 1.0, -0.5])
        ds = make_dataset({"x0": values})
        binned = bin_features(ds, max_bins=4)
        from boostlab.strategies import GossSample
        sample = GossSample(0.5, 0.5, np.array([0, 1]), np.array([2]), 1.0)
        v = goss_variance_gain(sample, g, feature=0, d=0.0, binned=binned)
        assert v == pytest.approx(4.5, abs=1e-12)
        ref = goss_variance_gain_reference(values, g, [0, 1], [2], 1.0, 0.0)
        assert v == pytest.approx(ref, abs=1e-12)

    def test_full_keep_equals_unsampled_variance_gain(self, rng):
        n = 40
        values = rng.normal(size=n)
        g = rng.normal(size=n)
        ds = make_dataset({"x0": values})
        binned = bin_features(ds, max_bins=64)
        s = goss_select(g, a=1.0, b=0.0, seed=0)
        d = float(np.median(values))
        v = goss_variance_gain(s, g, 0, d, binned)
        left = values <= d
        expected = (g[left].sum() ** 2 / left.sum()
                    + g[~left].sum() ** 2 / (~left).sum()) / n
        assert v == pytest.approx(expected, rel=1e-12)

    def test_zero_gradients_give_zero(self):
        values = np.array([0.0, 1.0, 2.0, 3.0])
        ds = make_dataset({"x0": values})
        binned = bin_features(ds, max_bins=4)
        s = goss_select(np.array([0.0, 0.0, 0.0, 0.0]), 1.0, 0.0, seed=0)
        for d in (0.5, 1.5, 2.5):
            assert goss_variance_gain(s, np.zeros(4), 0, d, binned) == 0.0

    def test_empty_side_raises(self):
        values = np.array([1.0, 2.0])
        ds = make_dataset({"x0": values})
        binned = bin_features(ds, max_bins=4)
        s = goss_select(np.array([1.0, 2.0]), 1.0, 0.0, seed=0)
        with pytest.raises(ValueError, match="empty side"):
            goss_variance_gain(s, np.array([1.0, 2.0]), 0, 5.0, binned)


class TestGossTraining:
    def test_full_keep_reproduces_unsampled_trees(self):
        ds = make_dataset(
            {"x0": np.arange(40, dtype=float),
             "y": np.sin(np.arange(40) / 5.0)}, kinds={"y": TARGET})
        base = BoostConfig(n_trees=5, grower="leaf_wise", max_depth=3)
        with_goss = BoostConfig(n_trees=5, grower="leaf_wise", max_depth=3,
                                goss_a=1.0, goss_b=0.0)
        t0 = [_tree_doc(t) for t in train(ds, base).trees]
        t1 = [_tree_doc(t) for t in train(ds, with_goss).trees]
        assert t0 == t1


class TestEfbBundle:
    def test_mutually_exclusive_features_bundle(self):
        ds = make_dataset({"f1": [1.0, 2.0, 0.0, 0.0], "f2": [0.0, 0.0, 3.0, 4.0]})
        bundles = efb_bundle(ds, max_conflicts=0)
        assert len(bundles) == 1
        assert sorted(bundles[0].members) == [0, 1]

    def test_conflicting_features_stay_apart(self):
        ds = make_dataset({"f1": [1.0, 0.0, 2.0], "f2": [3.0, 0.0, 1.0]})
        bundles = efb_bundle(ds, max_conflicts=0)
        assert len(bundles) == 2

    def test_conflict_budget_allows_merge(self):
        ds = make_dataset({"f1": [1.0, 0.0, 2.0], "f2": [3.0, 4.0, 0.0]})
        assert len(efb_bundle(ds, max_conflicts=0)) == 2
        assert len(efb_bundle(ds, max_conflicts=1)) == 1

    def test_one_hot_block_forms_single_bundle(self):
        codes = np.arange(24) % 6
        cols = {f"c={k}": (codes == k).astype(float) for k in range(6)}
        ds = make_dataset(cols)
        bundles = efb_bundle(ds, max_conflicts=0)
        assert len(bundles) == 1
        assert len(bundles[0].members) == 6

    def test_features_with_missing_stay_single(self):
        ds = make_dataset({"f1": [1.0, 0.0, np.nan], "f2": [0.0, 2.0, 0.0]})
        bundles = efb_bundle(ds, max_conflicts=0)
        assert all(len(b.members) == 1 for b in bundles)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_conflicts", [0, 3, 40, 5000])
    def test_matches_mask_intersection_reference(self, seed, max_conflicts):
        rng = np.random.default_rng(seed)
        n = 400
        cols = {}
        for j, density in enumerate((0.02, 0.05, 0.1, 0.1, 0.2, 0.3, 0.5, 0.9)):
            v = np.where(rng.random(n) < density, rng.integers(1, 9, size=n), 0)
            cols[f"s{j}"] = v.astype(np.float64)
        cols["zero"] = np.zeros(n)
        cols["nan"] = np.where(rng.random(n) < 0.05, np.nan, cols["s1"])
        cols["neg"] = np.where(rng.random(n) < 0.1, -1.0, 0.0)
        cols["dense"] = rng.normal(size=n)
        ds = make_dataset(cols)
        for data in (ds, bin_features(ds, max_bins=16)):
            got = [(b.members, b.offsets, b.widths) for b in efb_bundle(data, max_conflicts)]
            assert got == efb_bundle_reference(data, max_conflicts)
        assert any(len(members) > 1 for members, _, _ in got)


class TestEfbEncodeDecode:
    def test_offset_arithmetic(self):
        bundle = FeatureBundle(members=[0, 1], offsets=[0.0, 10.0], widths=[10.0, 5.0])
        member, value = efb_decode(13.0, bundle)
        assert (member, value) == (1, 3.0)
        member, value = efb_decode(10.0, bundle)
        assert (member, value) == (0, 10.0)

    def test_zero_reserved(self):
        bundle = FeatureBundle([0, 1], [0.0, 10.0], [10.0, 5.0])
        assert efb_decode(0.0, bundle) == (None, 0.0)

    def test_out_of_range_rejected(self):
        bundle = FeatureBundle([0, 1], [0.0, 10.0], [10.0, 5.0])
        with pytest.raises(ValueError, match="outside"):
            efb_decode(20.0, bundle)

    def test_round_trip_on_exclusive_fixture(self, rng):
        n = 60
        f1 = np.zeros(n)
        f2 = np.zeros(n)
        rows = rng.permutation(n)
        f1[rows[:25]] = rng.uniform(0.5, 9.0, size=25)
        f2[rows[30:55]] = rng.uniform(0.5, 4.0, size=25)
        ds = make_dataset({"f1": f1, "f2": f2})
        bundles = efb_bundle(ds, 0)
        assert len(bundles) == 1
        enc = efb_encode(ds, bundles)
        name = enc.column_names[0]
        bundle = bundles[0]
        feats = [f1, f2]
        for i in range(n):
            member, value = efb_decode(float(enc.columns[name][i]), bundle)
            if member is None:
                assert f1[i] == 0.0 and f2[i] == 0.0
            else:
                assert feats[bundle.members.index(member)][i] == pytest.approx(value)

    def test_encode_keeps_singletons(self):
        ds = make_dataset({"dense": [1.0, 2.0, 3.0], "alone": [4.0, 5.0, 6.0]})
        bundles = efb_bundle(ds, 0)
        enc = efb_encode(ds, bundles)
        assert set(enc.column_names) == {"dense", "alone"}


class TestEfbLossless:
    def test_bundled_histograms_match_direct(self, rng):
        n = 120
        f1 = np.zeros(n)
        f2 = np.zeros(n)
        dense = rng.normal(size=n)
        rows = rng.permutation(n)
        f1[rows[:40]] = rng.uniform(1, 5, size=40)
        f2[rows[60:100]] = rng.uniform(1, 3, size=40)
        ds = make_dataset({"f1": f1, "f2": f2, "dense": dense})
        binned = bin_features(ds, max_bins=16)
        bundles = efb_bundle(binned, 0)
        builder = BundledHistograms(binned, bundles)
        g = rng.normal(size=n)
        h = rng.uniform(0.5, 1.5, size=n)
        for size in (7, 120):  # flat and per-unit accumulation paths
            idx = np.sort(rng.choice(n, size=size, replace=False))
            got = builder(idx, binned, g, h)
            ref = build_histogram(idx, binned, g, h)
            np.testing.assert_allclose(got.sum_g, ref.sum_g, atol=1e-12)
            np.testing.assert_allclose(got.sum_h, ref.sum_h, atol=1e-12)
            np.testing.assert_array_equal(got.count, ref.count)

    def test_training_predictions_identical(self, rng):
        n = 300
        cols = {}
        for j in range(4):
            col = np.zeros(n)
            hot = rng.permutation(n)[: n // 4]
            col[hot] = rng.uniform(0.5, 4.0, size=len(hot))
            cols[f"s{j}"] = col
        cols["y"] = (2 * cols["s0"] - cols["s1"] + 0.5 * cols["s2"]
                     + rng.normal(scale=0.05, size=n))
        ds = make_dataset(cols, kinds={"y": TARGET})
        plain = train(ds, BoostConfig(n_trees=10, max_depth=4))
        bundled = train(ds, BoostConfig(n_trees=10, max_depth=4, efb_max_conflicts=0))
        np.testing.assert_allclose(bundled.predict(ds), plain.predict(ds), atol=1e-12)


def _sparse_table(n, seed):
    """Nonnegative sparse columns with 1, 4, 12 and ~150 nonzero bins, an
    all-zero column, a dense column with NaNs, and partial overlaps so that a
    positive conflict budget puts rows with two nonzero members in a bundle."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    cols = {name: np.zeros(n) for name in ("hot0", "hot1", "multi", "mid", "long", "zero")}
    cols["hot0"][order[:n // 5]] = 1.0
    cols["hot1"][order[n // 5:n // 3]] = 1.0
    cols["multi"][order[n // 3 - 40:n // 2]] = rng.integers(1, 5, size=n // 2 - n // 3 + 40)
    cols["mid"][order[n // 2 - 30:2 * n // 3]] = rng.integers(1, 13, size=2 * n // 3 - n // 2 + 30)
    cols["long"][order[2 * n // 3:]] = rng.integers(1, 151, size=n - 2 * n // 3)
    dense = rng.normal(size=n)
    dense[rng.random(n) < 0.05] = np.nan
    cols["dense"] = dense
    return make_dataset(cols)


class TestBundledHistogramsExact:
    """BundledHistograms against the per-member loop reference, bit for bit."""

    N = 12000

    @pytest.fixture(scope="class")
    def table(self):
        binned = bin_features(_sparse_table(self.N, 7), max_bins=255)
        rng = np.random.default_rng(3)
        return binned, rng.normal(size=self.N) * 100.0, rng.uniform(0.01, 2.0, size=self.N)

    def _node_sizes(self, builder):
        limit = builder.FLAT_LIMIT // builder.n_units
        assert limit + 1 < self.N  # both accumulation paths are reached
        return (1, 37, limit, limit + 1, self.N - 5, self.N)

    def _builder(self, binned, max_conflicts):
        bundles = efb_bundle(binned, max_conflicts)
        shared = [bd for bd in bundles if len(bd.members) > 1]
        assert max(len(bd.members) for bd in shared) >= 3
        off_zero = [sum((binned.bins[binned.feature_names[fi]] != 0).astype(int)
                        for fi in bd.members) for bd in shared]
        # rows where the first member wins exist only under a conflict budget
        assert any((k > 1).any() for k in off_zero) == (max_conflicts > 0)
        return BundledHistograms(binned, bundles), bundles

    @pytest.mark.parametrize("max_conflicts", [0, 60])
    def test_call_matches_reference(self, table, max_conflicts):
        binned, g, h = table
        builder, bundles = self._builder(binned, max_conflicts)
        rng = np.random.default_rng(max_conflicts)
        for size in self._node_sizes(builder):
            idx = np.sort(rng.choice(self.N, size=size, replace=False))
            got = builder(idx, binned, g, h)
            sg, sh, cnt = bundled_histograms_reference(binned, bundles, idx, g, h)
            assert np.array_equal(got.sum_g, sg[0])
            assert np.array_equal(got.sum_h, sh[0])
            assert got.count.dtype == np.int64
            assert np.array_equal(got.count, cnt[0])

    @pytest.mark.parametrize("max_conflicts", [0, 60])
    @pytest.mark.parametrize("n_leaves", [1, 4])
    def test_level_histograms_match_reference(self, table, max_conflicts, n_leaves):
        binned, g, h = table
        builder, bundles = self._builder(binned, max_conflicts)
        rng = np.random.default_rng(n_leaves)
        for size in self._node_sizes(builder):
            idx = np.sort(rng.choice(self.N, size=size, replace=False))
            leaf_pos = rng.integers(0, n_leaves, size=size)
            got = builder.level_histograms(idx, leaf_pos, n_leaves, binned, g, h)
            ref = bundled_histograms_reference(binned, bundles, idx, g, h, leaf_pos, n_leaves)
            for a, b in zip(got, ref):
                assert a.shape == (n_leaves, len(binned.feature_names), binned.hist_width)
                assert np.array_equal(a, b)


class TestOrderedSchedule:
    def test_contiguous_blocks_cover_everything(self):
        sched = ordered_schedule(10, n_permutations=2, n_blocks=3, seed=0)
        for p in range(2):
            blocks = sched.block_of[p]
            assert blocks.min() == 0 and blocks.max() == 2
            assert len(blocks) == 10
            # block sizes follow the contiguous partition of the permutation
            sizes = np.bincount(blocks)
            assert sizes.sum() == 10 and sizes.min() >= 3

    def test_single_block_gradients_at_base(self):
        sched = ordered_schedule(6, 1, 1, seed=0)
        y = np.arange(6, dtype=float)
        base_preds = [np.full((1, 6), 2.0)]
        grad_fn = lambda t, p: compute_gradients("squared_error", t, p)
        g, h, _ = ordered_gradients(sched, grad_fn, y, base_preds)
        np.testing.assert_allclose(g, 2.0 - y)

    def test_strict_mode_blocks_are_singletons(self):
        sched = ordered_schedule(8, 1, 8, seed=1)
        assert sorted(np.bincount(sched.block_of[0])) == [1] * 8
        # prefix of block j is exactly the first j elements of the permutation
        sigma = sched.permutations[0]
        for j in range(8):
            np.testing.assert_array_equal(
                np.sort(sched.prefix_indices(0, j)), np.sort(sigma[:j]))

    def test_too_many_blocks_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            ordered_schedule(4, 1, 5, seed=0)

    def test_deterministic(self):
        a = ordered_schedule(20, 2, 4, seed=3)
        b = ordered_schedule(20, 2, 4, seed=3)
        for pa, pb in zip(a.permutations, b.permutations):
            np.testing.assert_array_equal(pa, pb)


class TestOrderedNoLeakage:
    def test_perturbing_target_never_touches_earlier_blocks(self):
        # strict schedule on 8 rows: for every i, flipping y_i must leave the
        # gradients of all other instances at or before i's block unchanged.
        # The constant starting score must not be fit to the targets (a mean
        # base score couples every instance), so this runs in the
        # zero-base-score mode.
        rng = np.random.default_rng(0)
        n = 8
        x = np.arange(n, dtype=float)
        y = rng.normal(size=n)
        ds = make_dataset({"x0": x, "y": y}, kinds={"y": TARGET})
        cfg = BoostConfig(n_trees=3, grower="oblivious", max_depth=2,
                          ordered_blocks=n, min_child_hessian=0.0,
                          zero_base_score=True)

        def gradients_per_iteration(targets):
            from boostlab import strategies
            from boostlab.boosting import compute_gradients
            import boostlab.growers as growers
            base = 0.0
            sched = strategies.ordered_schedule(n, 1, n, (cfg.seed & 0xFFFFFFFF, 0, 1))
            block_preds = [np.full((n, n), base)]
            X = x[:, None]
            out = []
            binned = bin_features(ds.select_columns(["x0"]), cfg.max_bins)
            for t in range(cfg.n_trees):
                g, h, per_perm = strategies.ordered_gradients(
                    sched, lambda tt, pp: compute_gradients("squared_error", tt, pp),
                    targets, block_preds)
                out.append((g.copy(), sched.block_of[0].copy()))
                gp, hp = per_perm[0]
                for j in range(1, n):
                    idxj = sched.prefix_indices(0, j)
                    tree = growers.grow_oblivious(idxj, binned, gp, hp, cfg)
                    block_preds[0][j] += cfg.learning_rate * tree.predict_matrix(X)
            return out

        baseline = gradients_per_iteration(y)
        for i in range(n):
            y2 = y.copy()
            y2[i] += 1.0
            perturbed = gradients_per_iteration(y2)
            for (g0, blocks), (g1, _) in zip(baseline, perturbed):
                same_or_earlier = blocks <= blocks[i]
                same_or_earlier[i] = False  # g_i depends on y_i directly
                np.testing.assert_array_equal(g0[same_or_earlier], g1[same_or_earlier])

    def test_training_runs_end_to_end(self):
        ds = make_dataset({"x0": np.arange(20, dtype=float),
                           "y": np.arange(20, dtype=float) % 3},
                          kinds={"y": TARGET})
        ens = train(ds, BoostConfig(n_trees=4, grower="oblivious", max_depth=2,
                                    ordered_blocks=4, ordered_permutations=2))
        assert len(ens.trees) == 4
