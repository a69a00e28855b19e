"""Trees are held as per-node arrays. Their level-by-level routing must
predict exactly what walking the TreeNode records off a stack predicts, and
routing training rows on their bin codes exactly what routing their raw
values predicts; the model document must survive a load and save byte for
byte, a tree rebuilt from tree.nodes must be the same tree, and the loader's
array reachability check must agree with the depth-first one it replaced
(both in oracles.py)."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostlab import growers
from boostlab.boosting import (BoostConfig, Ensemble, ModelFormatError, from_json,
                               prepare_features, to_json, train)
from boostlab.dataset import CATEGORICAL, TARGET, bin_features
from boostlab.growers import DecisionTree, TreeNode, grow_level_wise

from conftest import make_dataset, regression_dataset
from oracles import predict_matrix_reference, reachability_reference

CONFIGS = {
    "level_wise": {},
    "leaf_wise": {"grower": "leaf_wise", "max_leaves": 5},
    "goss": {"grower": "leaf_wise", "max_leaves": 5, "goss_a": 0.3, "goss_b": 0.4},
    "oblivious": {"grower": "oblivious"},
    "ordered": {"grower": "oblivious", "ordered_blocks": 3},
}


def random_table(rng, n, m, nan_rate):
    """m numeric columns, every other one with NaNs, one categorical column
    whose one-hot features EFB can bundle, and a target reading both."""
    cols = {}
    for j in range(m):
        v = rng.normal(size=n) if j % 2 else np.round(rng.normal(size=n), 1)
        if j % 2 == 0:
            v[rng.random(n) < nan_rate] = np.nan
        cols[f"x{j}"] = v
    cols["c"] = rng.integers(0, 4, size=n)
    cols["y"] = np.nan_to_num(cols["x0"]) + (cols["c"] == 1) + rng.normal(scale=0.5, size=n)
    return make_dataset(cols, kinds={"c": CATEGORICAL, "y": TARGET},
                        labels={"c": ["a", "b", "c", "d"]})


def assert_same_routing(tree, X):
    want = predict_matrix_reference(tree, X)
    assert tree.predict_matrix(X).tobytes() == want.tobytes()
    rebuilt = DecisionTree(tree.nodes, tree.level_splits)
    assert rebuilt == tree
    assert rebuilt.predict_matrix(X).tobytes() == want.tobytes()


def assert_routes_on_codes(tree, binned, X, subset):
    """route_codes gives predict_matrix's bytes on the training rows X, all
    of them and the sorted rows subset, or raises where a threshold is not a
    bin edge (an exact split)."""
    inner = tree.left >= 0
    if not all(t in binned.boundaries[binned.feature_names[f]]
               for f, t in zip(tree.feature[inner], tree.threshold[inner])):
        with pytest.raises(ValueError, match="not at a bin edge"):
            tree.route_codes(binned, np.arange(len(X)))
        return
    for rows in (np.arange(len(X)), subset):
        assert tree.route_codes(binned, rows).tobytes() == tree.predict_matrix(X[rows]).tobytes()


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(12, 60), m=st.integers(1, 4),
       nan_rate=st.sampled_from([0.0, 0.2, 0.5]), max_depth=st.integers(1, 4),
       efb=st.sampled_from([None, 0, 3]))
@example(seed=11, n=300, m=2, nan_rate=0.2, max_depth=4, efb=0)
def test_property_arrays_route_save_and_rebuild_like_the_nodes(seed, n, m, nan_rate,
                                                               max_depth, efb):
    rng = np.random.default_rng(seed)
    ds = random_table(rng, n, m, nan_rate)
    wide = n > 255  # the explicit example: x1 takes uint16 codes, -0.0 next to 0.0
    if wide:
        ds.columns["x1"][:2] = (-0.0, 0.0)
    base = BoostConfig(n_trees=2, max_depth=max_depth, max_bins=2 * n if wide else 8,
                       seed=seed % 7, min_child_hessian=0.0, efb_max_conflicts=efb)
    features = prepare_features(ds, base)
    binned = features.binned
    assert not wide or binned.bins["x1"].dtype == np.uint16
    X = np.column_stack([binned.source.columns[name] for name in binned.feature_names])
    # the training rows, and unseen rows with NaNs in every column
    holdout = rng.normal(size=(15, X.shape[1]))
    holdout[rng.random(holdout.shape) < 0.3] = np.nan
    models = [train(ds, BoostConfig(**{**vars(base), **extra}), features)
              for extra in CONFIGS.values()]
    g, h = rng.normal(size=n), rng.uniform(0.5, 1.5, size=n)
    exact = grow_level_wise(np.arange(n), binned, g, h, base, exact=True)
    models.append(Ensemble([exact], 0.0, 0.1, "squared_error", list(binned.feature_names)))
    subset = np.flatnonzero(rng.random(n) < 0.5)
    for model in models:
        text = to_json(model)
        assert to_json(from_json(text)) == text
        for tree in model.trees:
            for rows in (X, holdout):
                assert_same_routing(tree, rows)
            assert_routes_on_codes(tree, binned, X, subset)


def test_routing_edge_cases():
    # a single leaf, a row of NaNs and no rows at all
    X = np.array([[np.nan, 2.0], [1.5, np.nan], [0.5, 2.0]])
    stump = DecisionTree([TreeNode(is_leaf=True, weight=-0.25)])
    assert stump.predict_matrix(X).tolist() == [-0.25] * 3
    tree = DecisionTree([
        TreeNode(is_leaf=False, feature=0, threshold=1.0, default_left=False, left=1, right=2),
        TreeNode(is_leaf=True, weight=1.0),
        TreeNode(is_leaf=False, feature=1, threshold=1.5, default_left=True, left=3, right=4),
        TreeNode(is_leaf=True, weight=2.0),
        TreeNode(is_leaf=True, weight=3.0)])
    for rows in (X, X[:0]):
        assert_same_routing(tree, rows)
    assert tree.predict_matrix(X).tolist() == [3.0, 2.0, 1.0]
    assert (tree.n_leaves, tree.depth()) == (3, 2)
    assert tree.split_records() == [(0, 0.0), (1, 0.0)]
    # on codes: edges 0.5, 1.5, 2.0, NaN goes left; a threshold between or past
    # the edges is none
    binned = bin_features(make_dataset({"x": [0.0, 1.0, np.nan, 2.0]}), max_bins=4)
    for threshold, want in ((1.5, [1.0, 1.0, 1.0, 2.0]), (1.0, None), (3.0, None)):
        split = DecisionTree([
            TreeNode(is_leaf=False, feature=0, threshold=threshold, left=1, right=2),
            TreeNode(is_leaf=True, weight=1.0), TreeNode(is_leaf=True, weight=2.0)])
        if want is None:
            with pytest.raises(ValueError, match="not at a bin edge"):
                split.route_codes(binned, np.arange(4))
        else:
            assert split.route_codes(binned, np.arange(4)).tolist() == want
    assert stump.route_codes(binned, np.array([1, 3])).tolist() == [-0.25] * 2


def test_no_tree_node_is_built_to_train_predict_save_or_load(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a TreeNode was built")

    monkeypatch.setattr(growers.TreeNode, "__init__", refuse)
    ds = regression_dataset(n=120, seed=4)
    for extra in CONFIGS.values():
        model = train(ds, BoostConfig(n_trees=2, max_depth=3, efb_max_conflicts=0, **extra))
        loaded = from_json(to_json(model))
        assert loaded.predict(ds).tobytes() == model.predict(ds).tobytes()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 7), st.integers(0, 7))),
                min_size=1, max_size=8))
def test_property_reachability_agrees_with_depth_first_walk(children):
    """children[i] is None for a leaf, else node i's (left, right) taken
    modulo the node count. Both checks accept the same trees and name the
    same unreachable node; where a node is reached twice, the depth-first
    walk names the first it meets and the array check the lowest."""
    n = len(children)
    docs, nodes = [], []
    for c in children:
        if c is None:
            docs.append({"leaf": 0.5})
            nodes.append(TreeNode(is_leaf=True, weight=0.5))
        else:
            left, right = c[0] % n, c[1] % n
            docs.append({"feature": 0, "threshold": 0.0, "default_left": True,
                         "left": left, "right": right})
            nodes.append(TreeNode(is_leaf=False, feature=0, left=left, right=right))
    doc = json.loads(to_json(Ensemble([DecisionTree([TreeNode(is_leaf=True)])], 0.0, 0.1,
                                      "squared_error", ["x0"])))
    doc["trees"][0]["nodes"] = docs
    try:
        reachability_reference(nodes, "model tree 0")
        want = None
    except ModelFormatError as exc:
        want = str(exc)
    try:
        from_json(json.dumps(doc))
        got = None
    except ModelFormatError as exc:
        got = str(exc)
    if want is not None and "reached twice" in want:
        assert got is not None and "reached twice" in got
    else:
        assert got == want


@pytest.mark.parametrize("mutate, message", [
    (lambda t: t["nodes"][2].update(threshold=9.0), "node 2: does not match level split 1"),
    (lambda t: t["nodes"][1].update(default_left=not t["nodes"][1]["default_left"]),
     "node 1: does not match level split 1"),
    (lambda t: t["level_splits"][1].append(0), "node 1: does not match level split 1"),
    (lambda t: t["nodes"][0].update(left=2, right=1), "node 0: does not match level split 0"),
], ids=["threshold", "default_left", "long-split", "swapped-children"])
def test_level_split_checks_name_the_lowest_failing_node(mutate, message):
    ds = regression_dataset(n=80, seed=2)
    doc = json.loads(to_json(train(ds, BoostConfig(n_trees=1, max_depth=2,
                                                   grower="oblivious"))))
    tree = doc["trees"][0]
    assert len(tree["level_splits"]) == 2
    mutate(tree)
    with pytest.raises(ModelFormatError, match=message):
        from_json(json.dumps(doc))
