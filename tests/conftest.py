import multiprocessing
import os

import numpy as np
import pytest

from boostlab.dataset import CATEGORICAL, NUMERIC, TARGET, ColumnSchema, Dataset


def make_dataset(columns, kinds=None, labels=None):
    """Build a Dataset from plain dicts: columns name->array, kinds name->kind.

    Categorical columns may be given as integer code arrays (labels supplied)
    or as lists of strings (interned here, first-seen order).
    """
    kinds = kinds or {}
    labels = dict(labels or {})
    schema = []
    data = {}
    for name, values in columns.items():
        kind = kinds.get(name, NUMERIC)
        schema.append(ColumnSchema(name, kind))
        if kind == CATEGORICAL and name not in labels:
            table, seen, codes = [], {}, []
            for v in values:
                if v not in seen:
                    seen[v] = len(table)
                    table.append(v)
                codes.append(seen[v])
            labels[name] = table
            data[name] = np.asarray(codes, dtype=np.int32)
        elif kind == CATEGORICAL:
            data[name] = np.asarray(values, dtype=np.int32)
        else:
            data[name] = np.asarray(values, dtype=np.float64)
    return Dataset(schema, data, labels)


def regression_dataset(n=200, n_features=3, noise=0.01, seed=0):
    """y = 3*x0 - 2*x1 + noise, remaining features pure noise."""
    rng = np.random.default_rng(seed)
    cols = {f"x{i}": rng.normal(size=n) for i in range(n_features)}
    y = 3.0 * cols["x0"]
    if n_features > 1:
        y = y - 2.0 * cols["x1"]
    cols["y"] = y + rng.normal(scale=noise, size=n)
    return make_dataset(cols, kinds={"y": TARGET})


def assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no child, running or exited, to wait for
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
