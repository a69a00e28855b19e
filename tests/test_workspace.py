"""The oblivious level loop writes every level-sized intermediate into an
ObliviousWorkspace that one training run reuses across levels and fits: one
buffer per role, grown to the largest level it has served. A reused
workspace must change no bit: the same trees and leaf slots as fresh
calls, every level's split equal to the padded scan (tests/oracles.py), the
same model JSON when threads train on shared features, and less memory
allocated once it is warm."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from boostlab import growers
from boostlab.boosting import BoostConfig, prepare_features, to_json, train
from boostlab.dataset import CATEGORICAL, TARGET
from boostlab.growers import HistogramBuilder, ObliviousWorkspace, grow_oblivious
from boostlab.strategies import BundledHistograms

from conftest import make_dataset
from oracles import oblivious_split_reference


def sparse_table(n, seed, nan_rate, with_target=False, n_numeric=4):
    """Categorical columns (sparse one-hot features, which EFB bundles) and
    n_numeric numeric columns, with about nan_rate of each missing."""
    rng = np.random.default_rng(seed)
    cols, kinds = {}, {}
    for j, k in enumerate((3, 6, 12)):
        cols[f"c{j}"] = [f"v{v}" for v in rng.integers(0, k, size=n)]
        kinds[f"c{j}"] = CATEGORICAL
    for j in range(n_numeric):
        v = rng.normal(size=n) if j % 2 else np.round(rng.normal(size=n), 1)
        if nan_rate:
            v[rng.random(n) < nan_rate] = np.nan
        cols[f"x{j}"] = v
    if with_target:
        cols["y"] = (np.nan_to_num(cols["x0"]) - np.nan_to_num(cols["x1"])
                     + (np.array(cols["c0"]) == "v1") + rng.normal(scale=0.5, size=n))
        kinds["y"] = TARGET
    return make_dataset(cols, kinds), rng.normal(size=n), rng.uniform(0.5, 1.5, size=n)


def checked_scan(monkeypatch):
    """Make every level the grower scans assert that it equals the padded
    scan; returns the list the checked level sizes are appended to."""
    scan = growers._oblivious_split
    levels = []

    def checking(hist, totals, binned, lam, gamma, ws):
        want = oblivious_split_reference(hist, *totals, binned, lam, gamma)
        before = hist.tobytes()
        got = scan(hist, totals, binned, lam, gamma, ws)
        # the grower subtracts the built side from hist right after the scan
        assert hist.tobytes() == before
        if want is None:
            assert got is None
        else:
            assert got[:4] == want[:4]
            assert got[4].tolist() == want[4].tolist()
        levels.append(totals.shape[1])
        return got

    monkeypatch.setattr(growers, "_oblivious_split", checking)
    return levels


# (max_depth, rows) of consecutive fits on one workspace: deepest first,
# then shallower levels whose views take the leading cells of the same
# buffers, then a 1/16 prefix of the rows at depth 4 and 6
FITS = [(6, "all"), (2, "all"), (4, "all"), (4, "prefix"), (6, "prefix")]
# (nan_rate, n_numeric) of the two tables; the second has no missing
# feature and fewer features
TABLES = [(0.1, 4), (0.0, 3)]


@pytest.mark.parametrize("efb", [None, 0, 50], ids=["plain", "efb-0", "efb-50"])
def test_reused_workspace_matches_fresh_calls_and_padded_scan(monkeypatch, efb):
    levels = checked_scan(monkeypatch)
    # one workspace for both tables, which have other histogram dimensions;
    # in reverse order it first serves the narrower table, so every role
    # grows on the wider one and the missing-right roles are first made there
    for tables in (TABLES, TABLES[::-1]):
        workspace = ObliviousWorkspace()
        for nan_rate, n_numeric in tables:
            ds, g, h = sparse_table(1600, seed=3, nan_rate=nan_rate, n_numeric=n_numeric)
            features = prepare_features(ds, BoostConfig(efb_max_conflicts=efb, max_bins=32))
            binned, hist_fn = features.binned, features.hist_fn
            assert isinstance(hist_fn, BundledHistograms) == (efb is not None)
            assert (binned.missing_features.size > 0) == (nan_rate > 0)
            for depth, rows in FITS:
                idx = np.arange(ds.n_rows if rows == "all" else ds.n_rows // 16)
                cfg = BoostConfig(grower="oblivious", max_depth=depth, lambda_=1.0, gamma=0.0)
                levels.clear()
                tree, slots = grow_oblivious(idx, binned, g, h, cfg, hist_fn=hist_fn,
                                             with_slots=True, workspace=workspace)
                assert levels == [2 ** d for d in range(depth)]  # every level was scanned
                fresh, fresh_slots = grow_oblivious(idx, binned, g, h, cfg, hist_fn=hist_fn,
                                                    with_slots=True)
                assert repr(tree) == repr(fresh)
                assert slots.tobytes() == fresh_slots.tobytes()
                assert len(tree.level_splits) == depth


def test_default_builder_and_role_buffers(monkeypatch):
    ds, g, h = sparse_table(400, seed=4, nan_rate=0.1)
    binned = prepare_features(ds, BoostConfig()).binned
    workspace = ObliviousWorkspace()
    cfg = BoostConfig(grower="oblivious", max_depth=3)
    idx = np.arange(ds.n_rows)
    got = grow_oblivious(idx, binned, g, h, cfg, workspace=workspace)
    assert got == grow_oblivious(idx, binned, g, h, cfg, hist_fn=HistogramBuilder(binned))
    # each scan's histograms and its (prefix, right) sums, by level size
    split_sums, scans = growers._split_sums, {}

    def recording(stacked, totals, nb, out=None):
        scans[stacked.shape[1]] = (stacked, *out)
        return split_sums(stacked, totals, nb, out)

    monkeypatch.setattr(growers, "_split_sums", recording)
    assert grow_oblivious(idx, binned, g, h, cfg, workspace=workspace) == got
    assert sorted(scans) == [1, 2, 4]
    # successive level sizes keep their histograms in different buffers; a
    # warm fit keeps levels 1 and 4 in the same one
    assert not np.shares_memory(scans[2][0], scans[4][0])
    assert not np.shares_memory(scans[1][0], scans[2][0])
    assert np.shares_memory(scans[1][0], scans[4][0])
    for hist, prefix, right in scans.values():
        assert not np.shares_memory(hist, prefix)
        assert not np.shares_memory(hist, right)


def test_first_fit_grows_every_role_and_the_second_reuses_them(monkeypatch):
    ds, g, h = sparse_table(800, seed=5, nan_rate=0.1)
    features = prepare_features(ds, BoostConfig(efb_max_conflicts=0))
    cfg = BoostConfig(grower="oblivious", max_depth=5)
    idx = np.arange(ds.n_rows)
    want, want_slots = grow_oblivious(idx, features.binned, g, h, cfg,
                                      hist_fn=features.hist_fn, with_slots=True)
    assert len(want.level_splits) == 5
    # the buffers each role's views came from, in order, distinct ones only
    array, buffers = ObliviousWorkspace.array, {}

    def recording(self, role, shape, dtype=np.float64):
        view = array(self, role, shape, dtype)
        seen = buffers.setdefault(role, [])
        if not seen or seen[-1] is not view.base:
            seen.append(view.base)
        return view

    monkeypatch.setattr(ObliviousWorkspace, "array", recording)
    workspace = ObliviousWorkspace()
    first = {}
    for fit in range(2):
        tree, slots = grow_oblivious(idx, features.binned, g, h, cfg,
                                     hist_fn=features.hist_fn, with_slots=True,
                                     workspace=workspace)
        assert repr(tree) == repr(want)
        assert slots.tobytes() == want_slots.tobytes()
        if fit == 0:
            assert set(buffers) == {"hist0", "hist1", "right", "miss_left", "miss_right",
                                    "flag0", "flag1", "totals"}
            # the level-sized roles grow with the levels; the totals do not
            assert all(len(seen) > 1 for role, seen in buffers.items() if role != "totals")
            first = {role: len(seen) for role, seen in buffers.items()}
    assert {role: len(seen) for role, seen in buffers.items()} == first


@pytest.mark.parametrize("efb", [None, 50], ids=["plain", "efb-50"])
def test_threads_sharing_training_features_write_sequential_bytes(efb):
    ds, _, _ = sparse_table(600, seed=6, nan_rate=0.1, with_target=True)
    configs = [BoostConfig(n_trees=4, grower="oblivious", max_depth=5, efb_max_conflicts=efb),
               BoostConfig(n_trees=3, grower="oblivious", max_depth=4, ordered_blocks=4,
                           efb_max_conflicts=efb)]
    features = prepare_features(ds, configs[0])
    sequential = [to_json(train(ds, c, features)) for c in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so shared scratch would collide
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = list(pool.map(lambda c: to_json(train(ds, c, features)), configs * 3,
                                     timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential * 3


def test_warm_workspace_traces_a_lower_peak():
    ds, g, h = sparse_table(4000, seed=7, nan_rate=0.1)
    features = prepare_features(ds, BoostConfig(max_bins=64))
    cfg = BoostConfig(grower="oblivious", max_depth=6)
    idx = np.arange(ds.n_rows)
    workspace = ObliviousWorkspace()

    def traced_peak(ws):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tree = grow_oblivious(idx, features.binned, g, h, cfg,
                                  hist_fn=features.hist_fn, workspace=ws)
            return tracemalloc.get_traced_memory()[1] - base, tree
        finally:
            tracemalloc.stop()

    first, tree = traced_peak(workspace)
    assert len(tree.level_splits) == 6
    warm, again = traced_peak(workspace)
    fresh, _ = traced_peak(ObliviousWorkspace())
    assert again == tree
    assert warm < fresh
    assert warm < first


def _level_inputs(efb):
    """A table, its binned features and histogram builder, and node sizes on
    both sides of the builder's flat-path limit."""
    ds, g, h = sparse_table(6000, seed=8, nan_rate=0.1)
    features = prepare_features(ds, BoostConfig(efb_max_conflicts=efb, max_bins=32))
    limit = features.hist_fn.FLAT_LIMIT // features.hist_fn.n_units
    assert limit + 1 < ds.n_rows  # both accumulation paths are reached
    return features.binned, features.hist_fn, g, h, (37, limit, limit + 1, ds.n_rows)


@pytest.mark.parametrize("efb", [None, 0, 50], ids=["plain", "efb-0", "efb-50"])
def test_level_histograms_write_every_other_leaf_of_a_buffer(efb):
    binned, hist_fn, g, h, sizes = _level_inputs(efb)
    m, w = len(binned.feature_names), binned.hist_width
    rng = np.random.default_rng(9)
    for size in sizes:
        idx = np.sort(rng.choice(binned.n_rows, size=size, replace=False))
        leaf_pos = rng.integers(0, 4, size=size)
        want = hist_fn.level_histograms(idx, leaf_pos, 4, binned, g, h)
        buf = np.full((3, 8, m, w), np.nan)
        got = hist_fn.level_histograms(idx, leaf_pos, 4, binned, g, h, out=buf[:, 1::2])
        assert np.shares_memory(got, buf)
        assert buf[:, 1::2].tobytes() == want.tobytes()
        assert np.isnan(buf[:, ::2]).all()


@pytest.mark.parametrize("efb", [None, 50], ids=["plain", "efb-50"])
def test_level_histograms_refuse_an_out_they_cannot_view(efb):
    binned, hist_fn, g, h, _ = _level_inputs(efb)
    m, w = len(binned.feature_names), binned.hist_width
    idx = np.arange(binned.n_rows)
    leaf_pos = idx % 2
    for out in (np.empty((3, 2, m, w + 1))[..., :w], np.empty((3, 2, m, w), order="F")):
        with pytest.raises(ValueError, match="cannot be viewed"):
            hist_fn.level_histograms(idx, leaf_pos, 2, binned, g, h, out=out)
