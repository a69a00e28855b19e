"""Level-wise and leaf-wise growth run one best-first loop. These tests hold
it to the two separate loops it replaced (tests/oracles.py) and check that
nodes which can never be split get no histogram."""

import numpy as np
import pytest

from boostlab.boosting import BoostConfig, prepare_features
from boostlab.dataset import CATEGORICAL, bin_features
from boostlab.growers import HistogramBuilder, grow_leaf_wise, grow_level_wise
from boostlab.strategies import BundledHistograms, goss_select

from conftest import make_dataset
from oracles import leaf_wise_reference, level_wise_reference


def mixed_table(rng, n=500):
    """Categorical columns (sparse one-hot features, which EFB bundles) plus
    numeric columns with about 10% NaN."""
    cols, kinds = {}, {}
    for j, k in enumerate((3, 6, 12)):
        cols[f"c{j}"] = [f"v{v}" for v in rng.integers(0, k, size=n)]
        kinds[f"c{j}"] = CATEGORICAL
    for j in range(3):
        v = rng.normal(size=n)
        v[rng.random(n) < 0.1] = np.nan
        cols[f"x{j}"] = v
    return make_dataset(cols, kinds)


def gradients(rng, n, tied):
    """Continuous gradients, or +-1 gradients with unit hessians, whose
    equal-gain splits exercise the tie-break."""
    if tied:
        return rng.choice([-1.0, 1.0], size=n), np.ones(n)
    return rng.normal(size=n), rng.uniform(0.5, 1.5, size=n)


def config(**kw):
    base = dict(lambda_=1.0, gamma=0.0, max_depth=4, max_leaves=None,
                min_child_hessian=0.5)
    base.update(kw)
    return BoostConfig(**base)


# name -> (grower, reference, config, keyword arguments, what must bind)
CASES = {
    "level-hist": (grow_level_wise, level_wise_reference, config(), {}, "depth"),
    "level-exact": (grow_level_wise, level_wise_reference, config(), {"exact": True},
                    "depth"),
    "level-efb-0": (grow_level_wise, level_wise_reference, config(efb_max_conflicts=0),
                    {}, "depth"),
    "level-efb-50": (grow_level_wise, level_wise_reference, config(efb_max_conflicts=50),
                     {}, "depth"),
    "leaf-budget": (grow_leaf_wise, leaf_wise_reference, config(max_depth=8, max_leaves=9),
                    {}, "leaves"),
    "leaf-no-budget": (grow_leaf_wise, leaf_wise_reference, config(max_depth=3), {},
                       "depth"),
    "leaf-depth": (grow_leaf_wise, leaf_wise_reference, config(max_depth=3, max_leaves=60),
                   {}, "depth"),
    "leaf-efb-50": (grow_leaf_wise, leaf_wise_reference,
                    config(max_depth=6, max_leaves=12, efb_max_conflicts=50), {}, "leaves"),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("subset", [False, True], ids=["all-rows", "goss"])
@pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
def test_same_nodes_and_slots_as_the_two_loops(rng, case, subset, tied):
    grower, reference, cfg, kw, binds = CASES[case]
    ds = mixed_table(rng)
    features = prepare_features(ds, cfg)
    if cfg.efb_max_conflicts is not None:
        assert isinstance(features.hist_fn, BundledHistograms)
        kw = dict(kw, hist_fn=features.hist_fn)
    g, h = gradients(rng, ds.n_rows, tied)
    idx = np.arange(ds.n_rows)
    if subset:
        sample = goss_select(g, 0.2, 0.3, 7)
        w = sample.weights(ds.n_rows)
        idx, g, h = sample.kept, g * w, h * w
    tree, slots = grower(idx, features.binned, g, h, cfg, with_slots=True, **kw)
    ref, ref_slots = reference(idx, features.binned, g, h, cfg, with_slots=True, **kw)
    assert repr(tree.nodes) == repr(ref.nodes)
    assert slots.tobytes() == ref_slots.tobytes()
    # the limit the case is named for is the one that stopped growth
    if binds == "leaves":
        assert tree.n_leaves == cfg.max_leaves
    else:
        assert tree.depth() == cfg.max_depth


class CountingBuilder:
    """A HistogramBuilder that records the rows of every histogram it builds."""

    def __init__(self, binned):
        self.inner = HistogramBuilder(binned)
        self.built = []

    def __call__(self, indices, binned, g, h):
        self.built.append(indices.copy())
        return self.inner(indices, binned, g, h)


def node_rows(tree, X, indices):
    """(depth, rows) of every node of tree, routing X's rows at indices."""
    out = {}
    stack = [(0, 0, indices)]
    while stack:
        nid, depth, rows = stack.pop()
        out[nid] = (depth, rows)
        node = tree.nodes[nid]
        if not node.is_leaf:
            v = X[rows, node.feature]
            left = (v <= node.threshold) | (np.isnan(v) & node.default_left)
            stack += [(node.left, depth + 1, rows[left]), (node.right, depth + 1, rows[~left])]
    return out


class TestUnsplittableNodesGetNoHistogram:
    def setup_binned(self, rng, n=400):
        X = rng.normal(size=(n, 3))
        X[rng.random((n, 3)) < 0.1] = np.nan
        b = bin_features(make_dataset({f"x{i}": X[:, i] for i in range(3)}), max_bins=32)
        g, h = rng.normal(size=n), rng.uniform(0.5, 1.5, size=n)
        return X, b, g, h, np.arange(n)

    @pytest.mark.parametrize("grow", [
        lambda *a, hist_fn: grow_level_wise(*a, config(max_depth=1), hist_fn=hist_fn),
        lambda *a, hist_fn: grow_leaf_wise(*a, config(max_depth=6, max_leaves=2),
                                           hist_fn=hist_fn),
    ], ids=["level-depth-1", "leaf-2-leaves"])
    def test_a_stump_builds_only_the_root(self, rng, grow):
        X, b, g, h, idx = self.setup_binned(rng)
        counting = CountingBuilder(b)
        tree = grow(idx, b, g, h, hist_fn=counting)
        assert tree.n_leaves == 2
        assert len(counting.built) == 1
        assert counting.built[0].tobytes() == idx.tobytes()

    def test_no_histogram_at_max_depth(self, rng):
        X, b, g, h, idx = self.setup_binned(rng)
        counting = CountingBuilder(b)
        tree = grow_level_wise(idx, b, g, h, config(max_depth=3), hist_fn=counting)
        assert tree.depth() == 3
        nodes = node_rows(tree, X, idx)
        depth_of = {rows.tobytes(): depth for depth, rows in nodes.values()}
        built_depths = [depth_of[rows.tobytes()] for rows in counting.built]
        assert max(built_depths) == 2
        # the root, plus the smaller child of each split whose children can split
        splits_above = sum(1 for nid, (depth, _) in nodes.items()
                           if depth < 2 and not tree.nodes[nid].is_leaf)
        assert len(counting.built) == 1 + splits_above
