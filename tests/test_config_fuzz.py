"""BoostConfig values drawn at random, valid and not: validate raises only
ConfigError, and a small valid config trains on a small table with missing
values, or raises ConfigError or DatasetError, and the model it trains
predicts finite values.

A config starts from values each field accepts (the pairs that must go
together drawn together) and then has up to two fields set to values of the
wrong kind or range: NaN, infinities, negatives, zero, huge numbers, bools,
strings, None and huge integers."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostlab.boosting import GROWERS, LOSSES, BoostConfig, ConfigError, train
from boostlab.dataset import CATEGORICAL, TARGET, DatasetError

from conftest import make_dataset

VALID = {
    "n_trees": [0, 1, 2],
    "learning_rate": [1e-300, 0.1, 1.0],
    "lambda_": [0.0, 1e-12, 1.0, 1e300],
    "gamma": [0.0, 0.5, 1e300],
    "max_depth": [1, 2, 3],
    "max_leaves": [None, 2, 3, 8],
    "min_child_hessian": [0.0, 1.0, 1e300],
    "max_bins": [2, 3, 16, 256],
    "grower": list(GROWERS),
    "loss": list(LOSSES),
    "efb_max_conflicts": [None, 0, 1, 2 ** 70],
    # more rows than any table, so train rejects it
    "ordered_blocks": [None] * 6 + [1, 3, 41],
    "ordered_permutations": [1, 2],
    "zero_base_score": [False, True],
    "seed": [0, 1, -1, 2 ** 64, -2 ** 70],
}
# (goss_a, goss_b): unset, sampling, keeping every row, and pairs validate refuses
GOSS = [(None, None)] * 9 + [(0.2, 0.3), (0.5, 1e-6), (1.0, 0.0), (0.5, 0.0), (0.9, 0.2),
                             (0.3, None)]
INVALID = [math.nan, math.inf, -math.inf, -1, 0, -0.5, 1e300, True, False, "x", "1", None,
           2 ** 70, -2 ** 70]
FIELDS = sorted(VALID) + ["goss_a", "goss_b"]


@st.composite
def configs(draw):
    values = {name: draw(st.sampled_from(pool)) for name, pool in VALID.items()}
    values["goss_a"], values["goss_b"] = draw(st.sampled_from(GOSS))
    n_bad = draw(st.sampled_from([0, 0, 0, 1, 2]))
    for name in draw(st.lists(st.sampled_from(FIELDS), min_size=n_bad, max_size=n_bad,
                              unique=True)):
        values[name] = draw(st.sampled_from(INVALID))
    return BoostConfig(**values)


@st.composite
def tables(draw):
    """2-40 rows: two numeric columns with missing values, a categorical
    column and a 0/1 target, which both losses accept."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = {f"x{i}": rng.normal(size=n) for i in range(2)}
    for col in cols.values():
        col[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = np.nan
    cols["c"] = [f"v{v}" for v in rng.integers(0, 3, size=n)]
    cols["y"] = (rng.random(n) < 0.5).astype(float)
    return make_dataset(cols, {"c": CATEGORICAL, "y": TARGET})


# GOSS settings that sample no small-gradient row: goss_b = 0, and a goss_b
# whose share of 20 rows rounds to none
SAMPLES_NOTHING = [BoostConfig(n_trees=1, max_depth=2, grower="leaf_wise", goss_a=0.5,
                               goss_b=goss_b) for goss_b in (0.0, 1e-6)]
TABLE_40 = make_dataset({"x": np.arange(40.0), "y": np.arange(40.0) % 2}, {"y": TARGET})


def _trainable(config):
    """Small enough to train here: few trees, shallow, few permutations."""
    return (config.n_trees <= 2 and config.max_depth <= 3
            and config.ordered_permutations <= 2)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(config=configs(), ds=tables())
@example(config=SAMPLES_NOTHING[0], ds=TABLE_40)
@example(config=SAMPLES_NOTHING[1], ds=TABLE_40)
def test_configs_validate_and_train_or_raise_config_errors(config, ds):
    try:
        config.validate()
    except ConfigError:
        return
    if not _trainable(config):
        return
    try:
        model = train(ds, config)
    except (ConfigError, DatasetError):
        return
    assert np.isfinite(model.predict(ds)).all(), config
