"""Properties that hold on any table: GOSS that keeps every row trains the
trees of unsampled training, and a row's prediction does not depend on the
order of the rows predicted with it."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from boostlab.boosting import LOSSES, BoostConfig, to_json, train
from boostlab.dataset import CATEGORICAL, TARGET, Dataset

from conftest import make_dataset

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
