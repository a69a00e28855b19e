"""Model documents mutated at random paths, loaded through from_json: whatever
a key holds or lacks, loading raises ModelFormatError or gives a model that
predicts finite values.

The documents start as a level-wise model, an oblivious model (whose trees
carry level_splits) and a three-class classifier, trained on a small table
with NaNs and a categorical column (so categorical_levels is not empty).
Each example deletes one object key, or sets 1-3 paths to JSON values that
the loader must reject where a field needs another kind or a finite number."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostlab.boosting import (BoostConfig, Classifier, ModelFormatError, from_json, to_json,
                               train, train_classifier)
from boostlab.dataset import CATEGORICAL, TARGET

from conftest import make_dataset

VALUES = [None, True, False, 0, -1, 2, 10 ** 400, 1e308, -0.0, "", "x", [], {}, [0],
          math.nan, math.inf]


def _documents():
    rng = np.random.default_rng(0)
    n = 60
    x0, x1 = rng.normal(size=n), rng.normal(size=n)
    x1[rng.random(n) < 0.2] = np.nan
    cols = {"x0": x0, "x1": x1, "c": [f"v{v}" for v in rng.integers(0, 3, size=n)],
            "y": x0 + np.nan_to_num(x1) + rng.normal(scale=0.1, size=n)}
    kinds = {"c": CATEGORICAL, "y": TARGET}
    ds = make_dataset(cols, kinds)
    cols["y"] = np.digitize(cols["y"], [-0.5, 0.5]).astype(float)
    three = make_dataset(cols, kinds)
    models = [train(ds, BoostConfig(n_trees=3, max_depth=2, grower="level_wise")),
              train(ds, BoostConfig(n_trees=3, max_depth=2, grower="oblivious")),
              train_classifier(three, BoostConfig(n_trees=2, max_depth=2))]
    return [json.loads(to_json(m)) for m in models]


DOCUMENTS = _documents()


def _paths(node, prefix=()):
    """Every path below node, as tuples of object keys and array indices."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = [list(_paths(doc)) for doc in DOCUMENTS]
# a categorical_levels key that names no feature
NO_FEATURE = copy.deepcopy(DOCUMENTS[0])
NO_FEATURE["categorical_levels"]["nope"] = ["a"]
# every number finite, but base_score 1e308 plus leaves of 1e308 overflow a score
OVERFLOW = copy.deepcopy(DOCUMENTS[0])
OVERFLOW.update(learning_rate=1.0, base_score=1e308)
for tree in OVERFLOW["trees"]:
    for node in tree["nodes"]:
        if "leaf" in node:
            node["leaf"] = 1e308


def _parent(doc, path):
    """The container holding path's last step, or None where an earlier
    mutation replaced or removed part of the path."""
    node = doc
    for step in path[:-1]:
        try:
            node = node[step]
        except (KeyError, IndexError, TypeError):
            return None
    ok = ((isinstance(node, dict) and path[-1] in node)
          or (isinstance(node, list) and isinstance(path[-1], int) and path[-1] < len(node)))
    return node if ok else None


@st.composite
def mutations(draw):
    """A base document with one key deleted or 1-3 paths set."""
    i = draw(st.integers(0, len(DOCUMENTS) - 1))
    doc = copy.deepcopy(DOCUMENTS[i])
    if draw(st.booleans()):
        path = draw(st.sampled_from([p for p in PATHS[i] if isinstance(p[-1], str)]))
        del _parent(doc, path)[path[-1]]
        return doc
    for path in draw(st.lists(st.sampled_from(PATHS[i]), min_size=1, max_size=3)):
        parent = _parent(doc, path)
        if parent is not None:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return doc


def _predictions(model, X):
    if isinstance(model, Classifier):
        return [e.predict(X[:, :len(e.feature_names)]) for e in model.ensembles] \
            + [model.predict_proba(X[:, :len(model.ensembles[0].feature_names)])]
    return [model.predict(X[:, :len(model.feature_names)])]


@pytest.mark.parametrize("i", range(len(DOCUMENTS)))
def test_unmutated_documents_load(i):
    # else every mutation would be rejected and the fuzz would show nothing
    assert json.loads(to_json(from_json(json.dumps(DOCUMENTS[i])))) == DOCUMENTS[i]


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(doc=mutations())
@example(doc=NO_FEATURE)
@example(doc=OVERFLOW)
def test_mutated_documents_load_or_raise_model_format_error(doc):
    try:
        model = from_json(json.dumps(doc))
    except ModelFormatError:
        return
    # five rows, one all-missing, wide enough for any document's features
    X = np.random.default_rng(1).normal(size=(5, 8))
    X[2] = np.nan
    for pred in _predictions(model, X):
        assert np.isfinite(pred).all(), doc
