"""Recipe documents drawn from the op table, run end to end through the CLI on
a small fixture: whatever the keys hold, the run exits 0 or 2, never 1.

Each key's value is drawn either from the values its kind accepts or from
any JSON kind (string, list, number, object, null). 'trees' and 'max_depth'
stay in 1-4 whatever kind they are drawn as: a deep oblivious fit allocates
2^depth leaves whatever the rows."""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostlab import forkpool, recipes
from boostlab.boosting import GROWERS
from boostlab.cli import main

SCHEMA = [{"name": "g", "kind": "categorical", "missing_marker": "NA"},
          {"name": "h", "kind": "categorical"},
          {"name": "x", "missing_marker": "NA"}, {"name": "v"}, {"name": "y"}]
ROWS = ["a,p,1,2,0.5", "b,q,2,3,1.5", "a,q,0,4,2.5", "b,p,3,0,0.25",
        "NA,p,NA,5,3.0", "a,q,4,6,1.0", "b,p,5,7,2.0", "a,p,6,8,0.75"]
COLUMNS = [c["name"] for c in SCHEMA] + ["nope", "r"]

names = st.sampled_from(COLUMNS)
numeric = st.sampled_from(["x", "v", "y", "g"])
numbers = st.one_of(st.integers(-2, 70),
                    st.sampled_from([0.0, 0.5, 1.5, -0.25, 1e9, 10 ** 400]))
scalars = st.one_of(st.sampled_from(COLUMNS + ["", "0", "zero"]), numbers)
any_json = st.one_of(
    scalars, st.none(), st.booleans(),
    st.lists(st.one_of(scalars, st.none(), st.lists(names, max_size=1)), max_size=3),
    st.dictionaries(st.sampled_from(["v", "op"]), scalars, max_size=1))
small = st.integers(1, 4)

# values of each key's kind; a key not listed names a column
VALID = {
    "trees": small, "max_depth": small,
    "max_leaves": st.one_of(st.none(), st.integers(0, 8)),
    "max_bins": st.integers(1, 300),
    "learning_rate": st.sampled_from([0.1, 0.5, 1, 0.0, -1.0, 1e9]),
    "grower": st.sampled_from(GROWERS + ("nope",)),
    "efb": st.booleans(),
    "task": st.sampled_from(["regression", "classification"]),
    "train_fraction": st.sampled_from([0.5, 0.75, 0.1, 0.9, 0.0, 1.0]),
    "new_name": st.sampled_from(["r", "s", "v"]), "num": numeric, "den": numeric,
    "scale": numbers, "column": st.sampled_from(COLUMNS[:5]),
    "excluded": st.lists(scalars, max_size=3),
    "features": st.lists(names, max_size=3), "columns": st.lists(names, max_size=3),
    "by": st.lists(names, max_size=2),
}


def value(key):
    """A value of the key's kind, or one time in five any JSON value; either
    way a 'trees' or 'max_depth' number stays in 1-4."""
    wild = any_json
    if key in ("trees", "max_depth"):
        wild = any_json.filter(lambda v: not isinstance(v, (int, float)) or v in (1, 2, 3, 4))
    return st.integers(0, 4).flatmap(lambda i: wild if i == 0 else VALID.get(key, names))


def steps(kind, max_size):
    """Lists of steps of one kind: an op from the table with its required
    keys and some of its optional ones but 'name'."""
    def step(op):
        required, optional = recipes._OPS[kind][op]
        return st.fixed_dictionaries(
            {"op": st.just(op), **{key: value(key) for key in required}},
            optional={key: value(key) for key in optional if key != "name"})
    return st.lists(st.sampled_from(sorted(recipes._OPS[kind])).flatmap(step),
                    max_size=max_size)


@st.composite
def documents(draw):
    """A recipe whose analyses have distinct names."""
    doc = {"name": "fz", "schema": SCHEMA, "preprocess": draw(steps("preprocess step", 2)),
           "analyses": draw(steps("analysis", 3))}
    for i, analysis in enumerate(doc["analyses"]):
        analysis["name"] = f"a{i}"
    return doc


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "d.csv"
    path.write_text("g,h,x,v,y\n" + "".join(f"{r}\n" for r in ROWS), encoding="utf-8")
    return path


def run(doc, data):
    with tempfile.TemporaryDirectory() as tmp:
        recipe = Path(tmp) / "r.json"
        recipe.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                mock.patch.object(forkpool, "cpu_count", lambda: 1):
            code = main(["recipe", "--recipe", str(recipe), "--input", str(data),
                         "--output-dir", str(Path(tmp) / "out")])
    return code, err.getvalue()


def doc(preprocess=(), analyses=()):
    return {"name": "fz", "schema": SCHEMA, "preprocess": list(preprocess),
            "analyses": list(analyses)}


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(doc=documents())
@example(doc=doc(analyses=[{"op": "chi2", "a": ["g"], "b": "h"}]))
@example(doc=doc(analyses=[{"op": "group_summary", "value": {"v": 1}, "by": ["g"]}]))
@example(doc=doc(analyses=[{"op": "train_importance", "features": ["x"], "target": ["h"]}]))
@example(doc=doc([{"op": "add_ratio_column", "new_name": "r", "num": ["x"], "den": "v"}]))
@example(doc=doc(analyses=[{"op": "anova1", "response": "v", "factor": 3}]))
@example(doc=doc([{"op": "add_ratio_column", "new_name": 5, "num": "x", "den": "v"}]))
@example(doc=doc([{"op": "filter_rows", "column": "x", "excluded": ["zero"]}]))
def test_recipe_runs_exit_0_or_2(data, doc):
    code, err = run(doc, data)
    assert code in (0, 2), (doc, err)
    assert "Error" not in err, (doc, err)
