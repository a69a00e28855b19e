"""Missing-right is scored only on features with missing values in the training
table. Every finder and grower must return exactly what the padded scan that
tries both routings on every feature (kept in oracles.py) returns: feature,
threshold, default_left, gain and child stats, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostlab import boosting, growers
from boostlab.boosting import BoostConfig, train
from boostlab.dataset import TARGET, bin_features
from boostlab.growers import (HistogramBuilder, ObliviousWorkspace, _oblivious_split,
                              find_best_split_histogram, find_best_split_presorted, node_stats)
from boostlab.strategies import BundledHistograms, efb_bundle, goss_select

from conftest import make_dataset
from oracles import (histogram_split_reference, oblivious_split_reference,
                     ordered_trees_reference, presorted_split_reference)


def mixed_table(n, seed, nan_rate=0.1, with_target=False):
    """Six features: two NaN-free normals, one NaN-free 3-level column, two
    NaN-bearing normals, and one NaN-bearing 4-level column."""
    rng = np.random.default_rng(seed)
    cols = {"clean0": rng.normal(size=n),
            "clean1": np.round(rng.normal(size=n), 1),
            "clean_lvl": rng.integers(0, 3, size=n).astype(float)}
    for name, v in (("nan0", rng.normal(size=n)),
                    ("nan1", np.round(rng.normal(size=n), 1)),
                    ("nan_lvl", rng.integers(0, 4, size=n).astype(float))):
        v[rng.random(n) < nan_rate] = np.nan
        cols[name] = v
    g = rng.normal(size=n)
    h = rng.uniform(0.1, 2.0, size=n)
    if with_target:
        cols["y"] = (cols["clean0"] - np.nan_to_num(cols["nan0"]) + cols["clean_lvl"]
                     + rng.normal(scale=0.3, size=n))
        return make_dataset(cols, kinds={"y": TARGET}), g, h
    return make_dataset(cols), g, h


def assert_histogram_finder_exact(hist, stats, binned, lam, gamma, mch):
    got = find_best_split_histogram(hist, stats, binned, lam, gamma, mch)
    want = histogram_split_reference(hist, stats, binned, lam, gamma, mch)
    assert got == want


def assert_level_exact(stacked, leaf_pos, n_leaves, gi, hi, binned, lam, gamma):
    sums = (np.bincount(leaf_pos, weights=gi, minlength=n_leaves),
            np.bincount(leaf_pos, weights=hi, minlength=n_leaves),
            np.bincount(leaf_pos, minlength=n_leaves))
    hist = np.asarray(stacked)
    before = hist.tobytes()
    got = _oblivious_split(hist, np.stack(sums), binned, lam, gamma, ObliviousWorkspace())
    assert hist.tobytes() == before  # the scan reads the level's histograms in place
    want = oblivious_split_reference(stacked, *sums, binned, lam, gamma)
    if want is None:
        assert got is None
        return
    assert got[:4] == want[:4]
    assert got[4].tolist() == want[4].tolist()


def test_missing_features_lists_the_nan_bearing_columns():
    ds, _, _ = mixed_table(300, seed=0)
    binned = bin_features(ds, max_bins=16)
    np.testing.assert_array_equal(binned.missing_features, [3, 4, 5])
    assert bin_features(ds.select_columns(["clean0", "clean1"]), 16).missing_features.size == 0


class TestFindersMatchPaddedScan:
    @pytest.mark.parametrize("lam, gamma, mch", [(1.0, 0.0, 0.0), (0.0, 0.3, 0.0),
                                                 (0.5, 0.0, 3.0)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_histogram_finder_on_built_and_derived_nodes(self, seed, lam, gamma, mch):
        ds, g, h = mixed_table(400, seed)
        binned = bin_features(ds, max_bins=32)
        hist_fn = HistogramBuilder(binned)
        rng = np.random.default_rng(seed + 10)
        parent_idx = np.sort(rng.choice(400, size=300, replace=False))
        child = np.sort(rng.choice(parent_idx, size=120, replace=False))
        sibling = np.setdiff1d(parent_idx, child)
        parent = hist_fn(parent_idx, binned, g, h)
        built = hist_fn(child, binned, g, h)
        derived = parent.subtract(built)  # missing sums here may be tiny nonzeros
        for idx, hist in ((parent_idx, parent), (child, built), (sibling, derived)):
            assert_histogram_finder_exact(hist, node_stats(idx, g, h), binned, lam, gamma, mch)

    def test_node_whose_nan_feature_rows_hold_no_nan(self):
        ds, g, h = mixed_table(400, seed=3, nan_rate=0.3)
        binned = bin_features(ds, max_bins=32)
        nan0 = np.isnan(ds.column("nan0"))
        idx = np.flatnonzero(~nan0)
        hist = HistogramBuilder(binned)(idx, binned, g, h)
        assert hist.count[3, binned.bin_counts[3]] == 0
        assert_histogram_finder_exact(hist, node_stats(idx, g, h), binned, 1.0, 0.0, 0.0)
        got = find_best_split_presorted(idx, ds, g, h, 1.0, 0.0)
        assert got == presorted_split_reference(idx, ds, g, h, 1.0, 0.0)

    @pytest.mark.parametrize("max_conflicts", [0, 50])
    def test_histogram_finder_on_bundled_goss_nodes(self, max_conflicts):
        n = 600
        rng = np.random.default_rng(4)
        g = rng.normal(size=n)
        h = rng.uniform(0.1, 1.0, size=n)
        sample = goss_select(g, 0.2, 0.2, seed=5)
        kept = sample.kept
        cols = {f"s{j}": np.where(rng.random(n) < 0.1, rng.integers(1, 5, n), 0).astype(float)
                for j in range(6)}
        # NaNs only on rows GOSS did not keep: the feature has missing values
        # in the table but none in the sampled node
        dropped = np.setdiff1d(np.arange(n), kept)
        unsampled_nan = rng.normal(size=n)
        unsampled_nan[rng.choice(dropped, size=40, replace=False)] = np.nan
        cols["unsampled_nan"] = unsampled_nan
        sampled_nan = rng.normal(size=n)
        sampled_nan[rng.random(n) < 0.2] = np.nan
        cols["sampled_nan"] = sampled_nan
        binned = bin_features(make_dataset(cols), max_bins=16)
        assert binned.missing_features.tolist() == [6, 7]
        hist_fn = BundledHistograms(binned, efb_bundle(binned, max_conflicts))
        w = sample.weights(n)
        gw, hw = g * w, h * w
        hist = hist_fn(kept, binned, gw, hw)
        assert hist.count[6, binned.bin_counts[6]] == 0
        assert_histogram_finder_exact(hist, node_stats(kept, gw, hw), binned, 1.0, 0.0, 0.0)
        half = kept[::2]
        derived = hist.subtract(hist_fn(half, binned, gw, hw))
        rest = np.setdiff1d(kept, half)
        assert_histogram_finder_exact(derived, node_stats(rest, gw, hw), binned, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_presorted_finder(self, seed):
        ds, g, h = mixed_table(150, seed)
        rng = np.random.default_rng(seed)
        for idx in (np.arange(150), np.sort(rng.choice(150, size=60, replace=False))):
            for lam, gamma, mch in ((1.0, 0.0, 0.0), (0.0, 0.2, 2.0)):
                got = find_best_split_presorted(idx, ds, g, h, lam, gamma, mch)
                want = presorted_split_reference(idx, ds, g, h, lam, gamma, mch)
                assert got == want

    @pytest.mark.parametrize("max_conflicts", [None, 0, 50])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_oblivious_level_scan(self, seed, max_conflicts):
        ds, g, h = mixed_table(500, seed)
        binned = bin_features(ds, max_bins=32)
        hist_fn = (HistogramBuilder(binned) if max_conflicts is None
                   else BundledHistograms(binned, efb_bundle(binned, max_conflicts)))
        rng = np.random.default_rng(seed)
        indices = np.sort(rng.choice(500, size=400, replace=False))
        for n_leaves in (1, 2, 8):
            leaf_pos = rng.integers(0, n_leaves, size=len(indices))
            stacked = hist_fn.level_histograms(indices, leaf_pos, n_leaves, binned, g, h)
            for lam, gamma in ((1.0, 0.0), (0.0, 0.5)):
                assert_level_exact(stacked, leaf_pos, n_leaves, g[indices], h[indices],
                                   binned, lam, gamma)
        # a level whose stacked histograms come by subtraction
        side = rng.random(len(indices)) < 0.4
        leaf_pos = rng.integers(0, 4, size=len(indices))
        whole = hist_fn.level_histograms(indices, leaf_pos, 4, binned, g, h)
        part = hist_fn.level_histograms(indices[side], leaf_pos[side], 4, binned, g, h)
        derived = tuple(a - b for a, b in zip(whole, part))
        assert_level_exact(derived, leaf_pos[~side], 4, g[indices][~side], h[indices][~side],
                           binned, 1.0, 0.0)


def _with_padded_scan(monkeypatch):
    monkeypatch.setattr(growers, "find_best_split_histogram", histogram_split_reference)
    monkeypatch.setattr(growers, "find_best_split_presorted", presorted_split_reference)
    monkeypatch.setattr(growers, "_oblivious_split",
                        lambda hist, totals, binned, lam, gamma, ws:
                        oblivious_split_reference(hist, *totals, binned, lam, gamma))


@pytest.mark.parametrize("efb", [None, 0, 50])
@pytest.mark.parametrize("grower, extra", [
    ("level_wise", {}),
    ("leaf_wise", {"max_leaves": 9}),
    ("leaf_wise", {"max_leaves": 9, "goss_a": 0.2, "goss_b": 0.3}),
    ("oblivious", {}),
    ("oblivious", {"ordered_blocks": 4}),
], ids=["level_wise", "leaf_wise", "goss", "oblivious", "ordered"])
def test_models_match_padded_scan(monkeypatch, grower, extra, efb):
    ds, _, _ = mixed_table(400, seed=6, with_target=True)
    config = BoostConfig(n_trees=4, grower=grower, max_depth=4, seed=0,
                         efb_max_conflicts=efb, **extra)
    got = boosting.to_json(train(ds, config))
    _with_padded_scan(monkeypatch)
    assert got == boosting.to_json(train(ds, config))


def test_exact_level_wise_matches_padded_scan(monkeypatch):
    ds, g, h = mixed_table(200, seed=7)
    binned = bin_features(ds, max_bins=256)
    config = BoostConfig(max_depth=4, lambda_=1.0)
    idx = np.arange(200)
    got = growers.grow_level_wise(idx, binned, g, h, config, exact=True)
    _with_padded_scan(monkeypatch)
    assert got == growers.grow_level_wise(idx, binned, g, h, config, exact=True)


@pytest.mark.parametrize("permutations", [1, 2])
def test_ordered_prefix_models_routed_only_where_read(permutations):
    # prefix model j is read on blocks <= j only; routing just those rows
    # must leave every returned tree unchanged
    ds, _, _ = mixed_table(300, seed=8, with_target=True)
    config = BoostConfig(n_trees=3, grower="oblivious", max_depth=3, seed=2,
                         ordered_blocks=5, ordered_permutations=permutations)
    assert train(ds, config).trees == ordered_trees_reference(ds, config)


@pytest.mark.parametrize("n_trees", [1, 3])
@pytest.mark.parametrize("permutations", [1, 2])
def test_ordered_training_skips_the_unread_last_refits(monkeypatch, permutations, n_trees):
    # one main fit on every row per round, and each of the P * (B - 1) prefix
    # models refit after every round but the last, whose refits no returned
    # tree reads
    ds, _, _ = mixed_table(300, seed=8, with_target=True)
    config = BoostConfig(n_trees=n_trees, grower="oblivious", max_depth=3, seed=2,
                         ordered_blocks=5, ordered_permutations=permutations)
    want = ordered_trees_reference(ds, config)
    fitted_rows = []
    grow = growers.grow_oblivious

    def counting_grow(indices, *args, **kwargs):
        fitted_rows.append(len(indices))
        return grow(indices, *args, **kwargs)

    monkeypatch.setattr(growers, "grow_oblivious", counting_grow)
    assert train(ds, config).trees == want
    assert len(fitted_rows) == n_trees + (n_trees - 1) * permutations * (5 - 1)
    assert fitted_rows.count(ds.n_rows) == n_trees


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(8, 60), m=st.integers(1, 5),
       nan_mask=st.integers(0, 31), levels=st.integers(2, 6),
       lam=st.sampled_from([0.0, 0.5, 1.0]), gamma=st.sampled_from([0.0, 0.1]),
       mch=st.sampled_from([0.0, 1.0]))
def test_property_finders_equal_padded_scan(seed, n, m, nan_mask, levels, lam, gamma, mch):
    rng = np.random.default_rng(seed)
    cols = {}
    for j in range(m):
        v = rng.integers(0, levels, size=n).astype(float) if j % 2 else rng.normal(size=n)
        if nan_mask >> j & 1:
            v[rng.random(n) < 0.25] = np.nan
        cols[f"x{j}"] = v
    ds = make_dataset(cols)
    g = rng.normal(size=n)
    h = rng.uniform(0.0, 2.0, size=n)
    binned = bin_features(ds, max_bins=8)
    hist_fn = HistogramBuilder(binned)
    idx = np.flatnonzero(rng.random(n) < 0.7)
    if len(idx) < 2:
        idx = np.arange(n)
    hist = hist_fn(idx, binned, g, h)
    stats = node_stats(idx, g, h)
    assert_histogram_finder_exact(hist, stats, binned, lam, gamma, mch)
    assert (find_best_split_presorted(idx, ds, g, h, lam, gamma, mch)
            == presorted_split_reference(idx, ds, g, h, lam, gamma, mch))
    leaf_pos = rng.integers(0, 4, size=len(idx))
    stacked = hist_fn.level_histograms(idx, leaf_pos, 4, binned, g, h)
    assert_level_exact(stacked, leaf_pos, 4, g[idx], h[idx], binned, lam, gamma)
