"""The benchmark's tracer (bench/tracing.py) finds what it wraps by name: a
module's function, or an attribute in a class's own __dict__. These tests
keep those names bound, check which builder a traced fit records, and check
that uninstalling puts every original object back. The tracer module is
loaded from its file and not modified."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from boostlab import boosting
from boostlab.boosting import BoostConfig
from boostlab.dataset import TARGET

from conftest import make_dataset

BUILDERS = ("growers.HistogramBuilder", "strategies.BundledHistograms")


@pytest.fixture(scope="module")
def tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table():
    """Two dense features and four sparse indicators that EFB bundles."""
    rng = np.random.default_rng(3)
    n = 400
    cols = {"d0": rng.normal(size=n), "d1": rng.normal(size=n)}
    hot = rng.integers(0, 5, size=n)
    for k in range(4):
        cols[f"s{k}"] = (hot == k).astype(float)
    cols["y"] = cols["d0"] + cols["s1"] - cols["s3"] + rng.normal(scale=0.1, size=n)
    return make_dataset(cols, {"y": TARGET})


def _bindings(tracer):
    """Every name the tracer may rebind, mapped to the object it holds."""
    out = {(owner, attr): owner.__dict__[attr] for _, owner, attr, _ in tracer.targets
           if isinstance(owner, type)}
    out.update({(mod, key): value for mod in tracer.modules for key, value in vars(mod).items()})
    return out


def test_every_target_is_bound(tracing):
    for name, owner, attr, _ in tracing.targets():
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is inherited"
        else:
            assert callable(getattr(owner, attr, None)), f"{name}: no {attr}"


@pytest.mark.parametrize("efb, builder", [(0, "strategies.BundledHistograms"),
                                          (None, "growers.HistogramBuilder")],
                         ids=["efb", "plain"])
@pytest.mark.parametrize("grower", ["level_wise", "oblivious"])
def test_traced_fits_record_their_builder_once(tracing, efb, builder, grower):
    ds = _table()
    tracer = tracing.Tracer()
    before = _bindings(tracer)
    tracer.install()
    try:
        boosting.train(ds, BoostConfig(n_trees=3, max_depth=3, grower=grower,
                                       efb_max_conflicts=efb))
    finally:
        tracer.uninstall()
    names = [span["name"] for span in tracer.spans]
    assert builder in names
    assert [n for n in names if n in BUILDERS and n != builder] == []
    assert not any(tracer._inside_builder(span) for span in tracer.spans
                   if span["name"] in BUILDERS)
    after = _bindings(tracer)
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
