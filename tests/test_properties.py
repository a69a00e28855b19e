"""Properties that hold on any table: GOSS that keeps every row trains the
trees of unsampled training, a row's prediction does not depend on the
order of the rows predicted with it, routing training rows on their bin
codes sends each row where routing its raw value does, a column's bin
codes are a binary search of its values over its edges, and a fit of k
trees is the first k trees of a longer fit."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostlab import growers
from boostlab.boosting import LOSSES, BoostConfig, to_json, train
from boostlab.dataset import CATEGORICAL, TARGET, Dataset, _bin_column, bin_features
from boostlab.growers import _codes_go_right, _goes_left
from boostlab.recipes import _importance

from conftest import make_dataset
from oracles import partition_reference

GROWERS = {
    "level_wise": {},
    "leaf_wise": {"grower": "leaf_wise", "max_leaves": 5},
    "goss": {"grower": "leaf_wise", "max_leaves": 5, "goss_a": 0.3, "goss_b": 0.4},
    "oblivious": {"grower": "oblivious"},
    "ordered": {"grower": "oblivious", "ordered_blocks": 3},
}


def random_table(rng, n, m, nan_rate, binary=False):
    """m numeric columns, every other one with NaNs, one categorical column
    whose one-hot features EFB can bundle, and a target reading both (0/1
    when binary)."""
    cols = {}
    for j in range(m):
        v = rng.normal(size=n) if j % 2 else np.round(rng.normal(size=n), 1)
        if j % 2 == 0:
            v[rng.random(n) < nan_rate] = np.nan
        cols[f"x{j}"] = v
    cols["c"] = rng.integers(0, 4, size=n)
    y = np.nan_to_num(cols["x0"]) + (cols["c"] == 1) + rng.normal(scale=0.5, size=n)
    cols["y"] = (y > np.median(y)).astype(np.float64) if binary else y
    return make_dataset(cols, kinds={"c": CATEGORICAL, "y": TARGET},
                        labels={"c": ["a", "b", "c", "d"]})


def without_config(model) -> str:
    return to_json(replace(model, config={}))


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(8, 80), m=st.integers(1, 4),
       nan_rate=st.sampled_from([0.0, 0.2, 0.5]), max_leaves=st.integers(2, 8),
       loss=st.sampled_from(LOSSES), efb=st.sampled_from([None, 0, 3]))
def test_property_goss_keeping_every_row_trains_the_unsampled_trees(seed, n, m, nan_rate,
                                                                    max_leaves, loss, efb):
    rng = np.random.default_rng(seed)
    ds = random_table(rng, n, m, nan_rate, binary=loss == "logistic")
    plain = BoostConfig(n_trees=3, grower="leaf_wise", max_depth=4, max_leaves=max_leaves,
                        max_bins=8, loss=loss, min_child_hessian=0.0, efb_max_conflicts=efb,
                        seed=seed % 7)
    every_row = replace(plain, goss_a=1.0, goss_b=0.0)
    want, got = train(ds, plain), train(ds, every_row)
    assert got.config["goss_a"] == 1.0 and want.config["goss_a"] is None
    assert without_config(got) == without_config(want)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(8, 60), m=st.integers(1, 4),
       nan_rate=st.sampled_from([0.0, 0.3]), grower=st.sampled_from(sorted(GROWERS)),
       rows=st.integers(1, 30))
def test_property_predictions_do_not_depend_on_row_order(seed, n, m, nan_rate, grower, rows):
    rng = np.random.default_rng(seed)
    model = train(random_table(rng, n, m, nan_rate),
                  BoostConfig(n_trees=2, max_depth=3, max_bins=8, min_child_hessian=0.0,
                              seed=seed % 7, **GROWERS[grower]))
    # unseen rows, the categorical column one-hot expanded at predict time
    holdout = random_table(rng, rows, m, nan_rate)
    order = rng.permutation(rows)
    shuffled = Dataset(list(holdout.schema),
                       {name: np.asarray(column)[order]
                        for name, column in holdout.columns.items()},
                       dict(holdout.labels))
    want = model.predict(holdout)
    assert model.predict(shuffled).tobytes() == want[order].tobytes()
    X = model.feature_matrix(holdout)
    assert model.predict(X[order]).tobytes() == want[order].tobytes()


@pytest.mark.parametrize("max_bins", [8, 64, 255, 256, 400])
@settings(max_examples=4, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nan_rate=st.sampled_from([0.0, 0.1, 0.5]))
def test_property_bin_code_routing_equals_raw_value_routing(seed, max_bins, nan_rate):
    """For every bin position and both missing routings, _codes_go_right on
    a column's codes is ~_goes_left on its values at that bin's upper edge:
    on columns with NaNs, -0.0 beside 0.0, ties, and more distinct values
    than max_bins (the thinned-quantile binning), in uint8 and uint16 codes."""
    rng = np.random.default_rng(seed)
    n = 1000
    wide = rng.normal(size=n)
    wide[:100] = wide[0]  # a run of ties across a quantile cut
    wide[100:150] = rng.choice([-0.0, 0.0], size=50)
    cols = {
        "wide": wide,  # thinned: more distinct values than any max_bins here
        "ties": rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=n),
        "ints": rng.permutation(np.arange(n) % 300).astype(np.float64),
        "empty": np.full(n, np.nan),  # every row in the missing bin
    }
    for name in ("wide", "ties", "ints"):
        cols[name][rng.random(n) < nan_rate] = np.nan
    binned = bin_features(make_dataset(cols), max_bins)
    if max_bins < 256:
        assert all(binned.bins[name].dtype == np.uint8 for name in cols)
    if max_bins == 400:  # over 255 bins, thinned ("wide") and one per value ("ints")
        assert binned.bins["wide"].dtype == binned.bins["ints"].dtype == np.uint16
    for name in binned.feature_names:
        values, codes, edges = cols[name], binned.bins[name], binned.boundaries[name]
        for pos, edge in enumerate(edges.tolist()):
            for default_left in (False, True):
                want = ~_goes_left(values, edge, default_left)
                got = _codes_go_right(codes, pos, default_left, len(edges))
                assert np.array_equal(got, want), (name, pos, default_left)


@pytest.mark.parametrize("grower", ["level_wise", "leaf_wise", "goss"])
@pytest.mark.parametrize("efb", [None, 0, 50])
@pytest.mark.parametrize("max_bins", [16, 400])
def test_code_routing_grows_the_raw_value_routing_trees(monkeypatch, grower, efb, max_bins):
    """The level-wise and leaf-wise growers split a node's rows on their bin
    codes by index: the models of partition_reference, which splits them on
    raw values by boolean masks, to the byte (NaNs in half the columns; at
    400 bins the continuous columns take uint16 codes)."""
    rng = np.random.default_rng(max_bins + (efb or 0))
    ds = random_table(rng, 1500, 4, 0.2)
    config = BoostConfig(n_trees=4, max_depth=5, max_bins=max_bins, efb_max_conflicts=efb,
                         seed=3, **GROWERS[grower])
    got = to_json(train(ds, config))
    monkeypatch.setattr(growers, "_partition", lambda indices, binned, cand, exact:
                        partition_reference(indices, binned, cand))
    assert got == to_json(train(ds, config))
    if max_bins == 400:
        assert bin_features(ds, max_bins).bins["x1"].dtype == np.uint16


LEVELS = [-0.0, 0.0, 1.0, 2.0, 97.0, -3.0, 0.5, 1e-300, 2.0 ** 60, np.nan]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 400),
       levels=st.lists(st.sampled_from(LEVELS) | st.integers(-300, 300).map(float),
                       min_size=1, max_size=40),
       max_bins=st.sampled_from([2, 3, 8, 255, 256, 400]), exact=st.booleans())
def test_property_bin_codes_are_a_binary_search_over_the_edges(seed, n, levels, max_bins,
                                                               exact):
    """Codes are np.searchsorted(edges, values, side="left"), NaN in the
    missing bin len(edges), in the narrowest dtype that holds it; with at
    most max_bins distinct values (exactly max_bins when exact) the edges are
    the midpoints of np.unique's values, then its last. Drawn columns mix
    integer levels (binned through a value table) with -0.0 beside 0.0, NaN,
    a fraction, a tiny and a huge value (binned by binary search)."""
    rng = np.random.default_rng(seed)
    values = rng.choice(np.array(levels), size=n)
    finite = values[~np.isnan(values)]
    distinct = np.unique(finite)
    if exact:
        max_bins = max(2, len(distinct))
    codes, edges = _bin_column(values, max_bins, "x")
    if finite.size == 0:  # an all-NaN column: one empty bin, every row missing
        assert edges.tolist() == [np.inf] and codes.tolist() == [1] * n
        return
    if len(distinct) <= max_bins:
        want = np.append((distinct[:-1] + distinct[1:]) / 2.0, distinct[-1])
        assert edges.tobytes() == want.tobytes()
    assert codes.dtype == (np.uint8 if len(edges) + 1 <= 256 else np.uint16)
    assert np.array_equal(codes, np.searchsorted(edges, values, side="left"))


@pytest.mark.parametrize("values, max_bins", [
    ([np.nan, np.nan], 4),                           # all NaN
    ([5.0, 5.0, np.nan], 4),                         # one distinct value
    ([-0.0, 0.0, 1.0, -0.0, np.nan], 2),             # -0.0 beside 0.0, exactly max_bins
    (list(range(300)) * 2 + [np.nan], 300),          # exactly max_bins, uint16 codes
    ([0.0, 1e6, 3.0, 2.0], 8),                       # integers spanning more steps than rows
    ([0.0, 0.5, 1.0, 0.5, 2.0, 1.5], 8),             # fractions in a short span
])
def test_bin_codes_on_edge_columns(values, max_bins):
    values = np.array(values, dtype=np.float64)
    codes, edges = _bin_column(values, max_bins, "x")
    assert np.array_equal(codes, np.searchsorted(edges, values, side="left"))
    assert codes.dtype == (np.uint8 if len(edges) + 1 <= 256 else np.uint16)
    if max_bins == 300:
        assert codes.dtype == np.uint16 and len(edges) == 300


PREFIX_GROWERS = {
    "level_wise": {},
    "goss": {"grower": "leaf_wise", "max_leaves": 5, "goss_a": 0.3, "goss_b": 0.4},
    "oblivious": {"grower": "oblivious"},
    # ordered boosting runs in chunks of ordered_blocks rounds: a longer fit
    # of more than 3 trees crosses a chunk boundary
    "ordered": {"grower": "oblivious", "ordered_blocks": 3},
}


@pytest.mark.parametrize("grower", sorted(PREFIX_GROWERS))
@settings(max_examples=5, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(12, 80), m=st.integers(1, 4),
       nan_rate=st.sampled_from([0.0, 0.3]), loss=st.sampled_from(LOSSES),
       efb=st.sampled_from([None, 0]), k=st.integers(0, 4), more=st.integers(1, 4))
def test_property_a_fit_of_k_trees_is_a_longer_fits_first_k(grower, seed, n, m, nan_rate,
                                                             loss, efb, k, more):
    """train(k trees) is train(K trees) truncated to its first k trees, to
    the byte, and the recipes' importance of the two is the same: what lets
    a recipe fit analyses that differ only in 'trees' once."""
    rng = np.random.default_rng(seed)
    ds = random_table(rng, n, m, nan_rate, binary=loss == "logistic")
    config = BoostConfig(n_trees=k, max_depth=3, max_bins=8, loss=loss, min_child_hessian=0.0,
                         efb_max_conflicts=efb, seed=seed % 7, **PREFIX_GROWERS[grower])
    short = train(ds, config)
    longer = train(ds, replace(config, n_trees=max(k + more, 4)))
    prefix = replace(longer, trees=longer.trees[:k])
    assert without_config(prefix) == without_config(short)
    assert _importance([prefix]) == _importance([short])
