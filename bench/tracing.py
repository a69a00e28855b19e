"""Per-layer spans for the traced benchmark run.

Wrappers are installed from the benchmark's side, around the public
functions and methods of boostlab's modules, and removed again after each
traced pass, so untraced passes run the program unmodified. Modules import
functions by name (``from .dataset import bin_features``), so a function is
replaced in every module namespace that holds it, not only where it is
defined; methods are replaced on their class.

Spans are kept in memory and reduced to metrics at the end of a pass. A
span's self time is its duration minus the time its direct child spans cover
(calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict

import boostlab
from boostlab import boosting, dataset, growers, recipes, special, stats, strategies


# Builders whose outermost span counts the rows accumulated into histograms.
HIST_BUILDERS = ("growers.HistogramBuilder", "strategies.BundledHistograms",
                 "growers.build_histogram")

# Count metrics: deterministic for a given seed, so every traced pass must
# report the same value.
COUNT_STATS = ("calls", "rows", "cells", "trees", "fits_per_tree", "kept_fraction",
               "units_per_feature")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows_at(pos, name):
    def hook(span, args, kwargs, result):
        span["rows"] = len(_arg(args, kwargs, pos, name))
    return hook


def _train_hook(span, args, kwargs, result):
    span["trees"] = len(result.trees)
    span["grower"] = _arg(args, kwargs, 1, "config").grower


def _goss_hook(span, args, kwargs, result):
    span["kept"] = len(result.top_set) + len(result.sampled_set)
    span["rows"] = len(_arg(args, kwargs, 0, "g"))


def _bundled_init_hook(span, args, kwargs, result):
    self = args[0]
    span["units"] = self.n_units
    span["features"] = len(self.binned.feature_names)


def _cells_hook(span, args, kwargs, result):
    span["cells"] = len(_arg(args, kwargs, 0, "cells"))


def targets():
    """(metric prefix, owner, attribute, hook) for every traced call.

    owner is a module for functions (replaced wherever the name is bound)
    or a class for methods.
    """
    return [
        ("dataset.parse_cells", dataset, "parse_cells", _cells_hook),
        ("recipes.load_known_columns", recipes, "load_known_columns", None),
        ("dataset.apply_recipe", dataset, "apply_recipe", None),
        ("dataset.one_hot_encode", dataset, "one_hot_encode", None),
        ("dataset.bin_features", dataset, "bin_features", None),
        ("strategies.efb_bundle", strategies, "efb_bundle", None),
        ("strategies.BundledHistograms.init", strategies.BundledHistograms, "__init__",
         _bundled_init_hook),
        ("strategies.BundledHistograms", strategies.BundledHistograms, "__call__",
         _rows_at(1, "indices")),
        ("strategies.BundledHistograms", strategies.BundledHistograms, "level_histograms",
         _rows_at(1, "indices")),
        ("growers.HistogramBuilder", growers.HistogramBuilder, "__call__",
         _rows_at(1, "indices")),
        ("growers.HistogramBuilder", growers.HistogramBuilder, "level_histograms",
         _rows_at(1, "indices")),
        ("growers.build_histogram", growers, "build_histogram", _rows_at(0, "indices")),
        ("growers.find_best_split_histogram", growers, "find_best_split_histogram", None),
        ("growers.grow_level_wise", growers, "grow_level_wise", None),
        ("growers.grow_leaf_wise", growers, "grow_leaf_wise", None),
        ("growers.grow_oblivious", growers, "grow_oblivious", None),
        ("growers.DecisionTree.predict_matrix", growers.DecisionTree, "predict_matrix",
         _rows_at(1, "X")),
        ("boosting.Ensemble.predict", boosting.Ensemble, "predict", None),
        ("boosting.compute_gradients", boosting, "compute_gradients", None),
        ("boosting.train", boosting, "train", _train_hook),
        ("strategies.goss_select", strategies, "goss_select", _goss_hook),
        ("strategies.ordered_schedule", strategies, "ordered_schedule", None),
        ("strategies.ordered_gradients", strategies, "ordered_gradients", None),
        ("boosting.to_json", boosting, "to_json", None),
        ("boosting.from_json", boosting, "from_json", None),
        ("stats.contingency_table", stats, "contingency_table", None),
        ("stats.chi_squared_test", stats, "chi_squared_test", None),
        ("special.chi2_tail", special, "chi2_tail", None),
        ("stats.feature_importance", stats, "feature_importance", None),
        ("recipes.run_recipe", recipes, "run_recipe", None),
    ]


class Tracer:
    """Records nested spans while installed; reduce() turns them into metrics."""

    def __init__(self):
        # wrappers go into the package and every submodule it has loaded
        self.modules = [boostlab] + [m for m in vars(boostlab).values()
                                     if isinstance(m, types.ModuleType)]
        self.targets = targets()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else -1}
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("tracer already installed")
        self.spans.clear()
        for name, owner, attr, hook in self.targets:
            if isinstance(owner, type):
                fn = owner.__dict__[attr]
                self.saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, hook))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn, hook)
            for mod in self.modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self.saved.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()
        if self.stack:
            raise RuntimeError("spans left open")

    def reduce(self) -> dict[str, float]:
        """Aggregates ("<span>.<stat>") of the spans recorded since install()."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for sp in spans:
            if sp["parent"] >= 0:
                child_time[sp["parent"]] += sp["t1"] - sp["t0"]
        agg: dict[str, float] = defaultdict(float)
        for sid, sp in enumerate(spans):
            name, dur = sp["name"], sp["t1"] - sp["t0"]
            agg[f"{name}.s"] += dur
            agg[f"{name}.self_s"] += dur - child_time[sid]
            agg[f"{name}.calls"] += 1
            for key in ("rows", "cells", "trees", "kept", "units", "features"):
                if key in sp:
                    agg[f"{name}.{key}"] += sp[key]
            if "grower" in sp:
                agg[f"trees.{sp['grower']}"] += sp["trees"]
            if name in HIST_BUILDERS and not self._inside_builder(sp):
                agg["hist.rows"] += sp.get("rows", 0)
                agg["hist.s"] += dur
        return dict(agg)

    def _inside_builder(self, sp) -> bool:
        pid = sp["parent"]
        while pid >= 0:
            if self.spans[pid]["name"] in HIST_BUILDERS:
                return True
            pid = self.spans[pid]["parent"]
        return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics that are not a plain span aggregate.
DERIVED = {
    "strategies.BundledHistograms.init_s":
        lambda a: a.get("strategies.BundledHistograms.init.s", 0.0),
    "strategies.efb.units_per_feature":
        lambda a: _ratio(a.get("strategies.BundledHistograms.init.units", 0.0),
                         a.get("strategies.BundledHistograms.init.features", 0.0)),
    "growers.grow_oblivious.fits_per_tree":
        lambda a: _ratio(a.get("growers.grow_oblivious.calls", 0.0),
                         a.get("trees.oblivious", 0.0)),
    "strategies.goss.kept_fraction":
        lambda a: _ratio(a.get("strategies.goss_select.kept", 0.0),
                         a.get("strategies.goss_select.rows", 0.0)),
    "growers.hist.rows_per_tree":
        lambda a: _ratio(a.get("hist.rows", 0.0), a.get("boosting.train.trees", 0.0)),
    "growers.hist.rows_per_s":
        lambda a: _ratio(a.get("hist.rows", 0.0), a.get("hist.s", 0.0)),
}


def layer_metrics(agg: dict[str, float], names: list[str]) -> dict[str, float]:
    """Values of the named per-layer metrics from one pass's aggregates.

    A plain metric is "<span>.<stat>" with stat one of s, self_s, calls, rows,
    cells or trees; a span the workload never entered reads 0.
    """
    spans = {t[0] for t in targets()}
    out = {}
    for name in names:
        if name in DERIVED:
            out[name] = DERIVED[name](agg)
            continue
        span, _, stat = name.rpartition(".")
        if span not in spans or stat not in ("s", "self_s", "calls", "rows", "cells",
                                             "trees"):
            raise KeyError(f"no span aggregate for per-layer metric {name!r}")
        out[name] = agg.get(name, 0.0)
    return out


def is_count(metric: str) -> bool:
    return metric.rsplit(".", 1)[1] in COUNT_STATS
