"""Named replication recipes: a schema, a RecipeSpec preprocessing stage, and
an analysis plan, shipped as JSON config files next to this module.

Recipes read real-world CSVs leniently (extra columns are ignored, documented
shapes are checked as warnings unless strict mode is requested) and write one
JSON + CSV pair per analysis under <output_dir>/<recipe>/.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from . import forkpool, stats
from .boosting import (BoostConfig, ConfigError, prepare_features, train,
                       train_classifier)
from .dataset import (ColumnSchema, Dataset, RecipeSpec, apply_recipe,
                      load_known_columns, parse_schema, retype_target,
                      train_test_split, write_table)

RECIPE_DIR = Path(__file__).parent / "recipes"


class RecipeError(ValueError):
    pass


@dataclass
class ReplicationRecipe:
    name: str
    description: str
    schema: list[ColumnSchema]
    optional_columns: list[ColumnSchema]
    expected_input_shape: tuple[int | None, int | None] | None
    spec: RecipeSpec
    analyses: list[dict]


def available_recipes() -> list[str]:
    return sorted(p.stem for p in RECIPE_DIR.glob("*.json"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A float, or an integer that converts to one."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _is_file_name(value) -> bool:
    """A string that names one file inside a directory, wherever it is joined."""
    return (isinstance(value, str) and value not in ("", ".", "..")
            and not any(c in value for c in "/\\\0"))


# A key's kind: a test of its value and what the value must be. A key of kind
# _COLUMN names one dataset column; of kind _COLUMNS, a list of them.
_ANY = (lambda v: True, "anything")
_COLUMN = (lambda v: isinstance(v, str), "a string")
_COLUMNS = (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
            "a list of strings")
_INT = (_is_int, "an integer")
_NUMBER = (_is_number, "a number")
_VALUES = (lambda v: isinstance(v, list)
           and all(isinstance(x, str) or _is_number(x) for x in v),
           "a list of strings and numbers")
_TASK = (lambda v: v in ("regression", "classification"), "'regression' or 'classification'")
_NAMED = {"name": (_is_file_name, "a plain file name (not '.' or '..', no '/', '\\' or NUL)")}
# The training keys that set the BoostConfig field of their name ('trees' sets
# n_trees); BoostConfig.validate checks the grower's value.
_CONFIG_KEYS = {"trees": _INT, "learning_rate": _NUMBER, "max_depth": _INT, "max_bins": _INT,
                "max_leaves": (lambda v: v is None or _is_int(v), "an integer or null"),
                "grower": _ANY}
_TRAINING = {**_NAMED, **_CONFIG_KEYS, "efb": (lambda v: isinstance(v, bool), "true or false")}
# Each preprocess and analysis op: the keys a step must give, in the order a
# missing one is reported, and the keys it may give, each with its kind. A
# step holds no other key.
_OPS = {
    "preprocess step": {
        "add_ratio_column": ({"new_name": _COLUMN, "num": _COLUMN, "den": _COLUMN},
                             {"scale": _NUMBER}),
        "filter_rows": ({"column": _COLUMN, "excluded": _VALUES}, {}),
        "drop_missing": ({}, {"columns": _COLUMNS}),
    },
    "analysis": {
        "chi2": ({"a": _COLUMN, "b": _COLUMN}, _NAMED),
        "anova1": ({"response": _COLUMN, "factor": _COLUMN}, _NAMED),
        "anova2": ({"response": _COLUMN, "factor_a": _COLUMN, "factor_b": _COLUMN}, _NAMED),
        "correlation": ({"columns": _COLUMNS}, _NAMED),
        "group_summary": ({"value": _COLUMN, "by": _COLUMNS}, _NAMED),
        "train_importance": ({"features": _COLUMNS, "target": _COLUMN},
                             {**_TRAINING, "task": _TASK}),
        "split_regression": ({"features": _COLUMNS, "target": _COLUMN},
                             {**_TRAINING, "train_fraction": _NUMBER}),
    },
}


def _trains(spec: dict) -> bool:
    return "trees" in _OPS["analysis"][spec["op"]][1]


def _label(spec: dict) -> str:
    """An analysis's report name: its 'name', else its op."""
    return spec.get("name", spec["op"])


def _checked_steps(recipe: str, kind: str, steps) -> list[dict]:
    """The steps, once each is an object with a known op, that op's required
    keys, no key the op does not read and values of their keys' kinds;
    otherwise RecipeError naming the step's index and the key."""
    if not isinstance(steps, list):
        raise RecipeError(f"{recipe}: expected a list of {kind} objects, got {steps!r}")
    for i, step in enumerate(steps):
        where = f"{recipe}: {kind} {i}"
        if not isinstance(step, dict):
            raise RecipeError(f"{where} is not an object: {step!r}")
        if "op" not in step:
            raise RecipeError(f"{where} needs an 'op'")
        op = step["op"]
        if not isinstance(op, str) or op not in _OPS[kind]:
            raise RecipeError(f"{where}: unknown op {op!r}")
        required, optional = _OPS[kind][op]
        absent = [key for key in required if key not in step]
        if absent:
            raise RecipeError(f"{where} ({op}) needs {absent}")
        kinds = {"op": _ANY, **required, **optional}
        for key, value in step.items():
            if key not in kinds:
                raise RecipeError(f"{where} ({op}): unknown key {key!r}")
            ok, what = kinds[key]
            if not ok(value):
                raise RecipeError(f"{where} ({op}): {key!r} must be {what}, got {value!r}")
    return steps


def _checked_analyses(name, analyses, where: str) -> list[dict]:
    """The checked analyses, once the recipe name and every analysis's report
    name (its 'name', else its op) are plain file names and no two analyses
    share one (they name <output_dir>/<recipe> and the files in it), and
    each training analysis has a valid BoostConfig and a train_fraction in
    (0, 1). where names the recipe in the message about its own name."""
    if not _is_file_name(name):
        raise RecipeError(f"{where} needs a string 'name' that is a plain file name, "
                          f"got {name!r}")
    analyses = _checked_steps(name, "analysis", analyses)
    labels = [_label(step) for step in analyses]
    for i, (label, step) in enumerate(zip(labels, analyses)):
        if label in labels[:i]:
            raise RecipeError(f"{name}: analysis {i} repeats the name {label!r}")
        if not _trains(step):
            continue
        where_step = f"{name}: analysis {i} ({step['op']})"
        try:
            _analysis_config(step).validate()
        except ConfigError as exc:
            raise RecipeError(f"{where_step}: {exc}") from None
        if "train_fraction" in step and not 0.0 < step["train_fraction"] < 1.0:
            raise RecipeError(f"{where_step}: 'train_fraction' must be in (0, 1), "
                              f"got {step['train_fraction']!r}")
    return analyses


def _shape(recipe: str, doc: dict, key: str):
    """The document's (rows, columns) pair under key, each an integer or
    null, or None when the key is absent or null."""
    value = doc.get(key)
    if value is None:
        return None
    if not (isinstance(value, list) and len(value) == 2
            and all(v is None or _is_int(v) for v in value)):
        raise RecipeError(f"{recipe}: {key!r} must be a pair of integers or nulls, "
                          f"got {value!r}")
    return tuple(value)


def load_recipe(name_or_path) -> ReplicationRecipe:
    """Load and check a whole recipe document; a malformed one raises
    RecipeError (or DatasetError for its schema) before any data is read."""
    path = Path(name_or_path)
    if not path.suffix:
        path = RECIPE_DIR / f"{name_or_path}.json"
    if not path.exists():
        raise RecipeError(
            f"unknown recipe {name_or_path!r}; available: {', '.join(available_recipes())}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise RecipeError(f"recipe file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise RecipeError(f"recipe file {path} must hold an object, got {type(doc).__name__}")
    name = doc.get("name")
    analyses = _checked_analyses(name, doc.get("analyses", []), f"recipe file {path}")
    if "schema" not in doc:
        raise RecipeError(f"{name}: recipe needs a 'schema'")
    preprocess = _checked_steps(name, "preprocess step", doc.get("preprocess", []))
    spec = RecipeSpec(name, preprocess, _shape(name, doc, "expected_shape"))
    return ReplicationRecipe(
        name=name,
        description=doc.get("description", ""),
        schema=parse_schema(doc["schema"]),
        optional_columns=parse_schema(doc.get("optional_columns", [])),
        expected_input_shape=_shape(name, doc, "expected_input_shape"),
        spec=spec,
        analyses=analyses,
    )


def _check_input_shape(recipe: ReplicationRecipe, n_rows: int, n_raw_cols: int) -> list[str]:
    if recipe.expected_input_shape is None:
        return []
    want_rows, want_cols = recipe.expected_input_shape
    warnings = []
    if want_rows is not None and n_rows != want_rows:
        warnings.append(f"{recipe.name}: input has {n_rows} rows, documented {want_rows}")
    if want_cols is not None and n_raw_cols != want_cols:
        warnings.append(f"{recipe.name}: input has {n_raw_cols} columns, "
                        f"documented {want_cols}")
    return warnings


def _nan_to_none(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _nan_to_none(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_nan_to_none(v) for v in obj]
    return obj


def _importance(ensembles) -> dict:
    """Gain importance summed over ensembles, one-hot children folded back
    onto their source column, and its ranking."""
    merged, ranking = stats.ranked_importance(ensembles, fold=True)
    return {"importance": merged, "ranking": [{"feature": k, "gain": v} for k, v in ranking]}


def run_analysis(spec: dict, ds: Dataset, seed: int = BoostConfig.seed,
                 held: dict | None = None, fitted: tuple | None = None) -> dict:
    """The result of one analysis step (a checked recipe analysis object) on
    ds; held maps train_importance feature sets to features run_recipe
    prepared for them, and fitted is what _fit returned for a
    train_importance analysis that differs from this one in 'trees' only,
    with at least as many trees (this analysis fits its own without it)."""
    op = spec["op"]
    if op == "train_importance":
        return _run_train_importance(spec, ds, seed, fitted or _fit(spec, ds, seed, held or {}))
    if op == "split_regression":
        return _run_split_regression(spec, ds, seed)
    if op not in _OPS["analysis"]:
        raise RecipeError(f"unknown analysis op {op!r}")
    # a statistics op's required keys are its stats function's arguments
    args = {key: spec[key] for key in _OPS["analysis"][op][0]}
    if op == "chi2":
        table = stats.contingency_table(ds, **args)
        return {**args, "table": table.to_dict(), **stats.chi_squared_test(table).to_dict()}
    if op == "correlation":
        return stats.pearson_correlation_matrix(ds, **args).to_dict()
    if op == "group_summary":
        return {**args, "groups": [g.to_dict() for g in stats.group_summary(ds, **args)]}
    anova = stats.one_way_anova if op == "anova1" else stats.two_way_anova
    return {"response": spec["response"], "rows": anova(ds, **args).to_rows()}


def _analysis_config(spec: dict, **seed) -> BoostConfig:
    """The BoostConfig of a training analysis: the fields its keys set, the
    seed where one is passed, and BoostConfig's defaults for the rest."""
    given = {"n_trees" if key == "trees" else key: spec[key]
             for key in _CONFIG_KEYS if key in spec}
    if spec.get("efb"):
        given["efb_max_conflicts"] = 0
    return BoostConfig(**given, **seed)


def _training_subset(spec: dict, ds: Dataset) -> Dataset:
    sub = ds.select_columns(list(spec["features"]) + [spec["target"]])
    return retype_target(sub, spec["target"])


def _features_key(config: BoostConfig, spec: dict) -> tuple:
    return (tuple(spec["features"]), config.max_bins, config.efb_max_conflicts)


def _prepared_features(analyses: list[dict], ds: Dataset, seed: int) -> dict:
    """Each distinct train_importance feature set of the analyses, by
    _features_key: its TrainingFeatures, prepared from the first analysis
    that uses it, or the exception preparing them raised."""
    held: dict = {}
    for spec in analyses:
        if spec["op"] != "train_importance":
            continue
        config = _analysis_config(spec, seed=seed)
        key = _features_key(config, spec)
        if key not in held:
            try:
                held[key] = prepare_features(_training_subset(spec, ds), config)
            except Exception as exc:  # noqa: BLE001 - the analyses using them raise it
                held[key] = exc
    return held


def _fit_key(spec: dict) -> tuple:
    """What a train_importance analysis's fit reads besides its 'trees':
    analyses with equal keys fit the first trees of one another's models."""
    config = _analysis_config(spec)
    return (_features_key(config, spec), astuple(replace(config, n_trees=0)),
            spec.get("task"), spec["target"])


def _fit(spec: dict, ds: Dataset, seed: int, held: dict) -> tuple:
    """(classes, ensembles) of a train_importance analysis: one ensemble per
    class for classification, classes None and one ensemble for regression.
    held maps _features_key to _prepared_features' entries; analyses on the
    same feature columns of ds share one. Without an entry, training
    prepares its own features."""
    config = _analysis_config(spec, seed=seed)
    sub = _training_subset(spec, ds)
    features = held.get(_features_key(config, spec))
    if isinstance(features, Exception):
        raise features
    if spec.get("task") == "classification":
        model = train_classifier(sub, config, features)
        return model.classes, model.ensembles
    return None, [train(sub, replace(config, loss="squared_error"), features)]


def _run_train_importance(spec: dict, ds: Dataset, seed: int, fitted: tuple) -> dict:
    """The analysis's result from the first 'trees' trees of fitted's
    ensembles: training is prefix-stable (tree t reads only the trees before
    it), so they are the trees a fit of 'trees' trees grows, and their
    importance sums the same gains in the same order."""
    config = _analysis_config(spec, seed=seed)
    classes, ensembles = fitted
    ensembles = [replace(ens, trees=ens.trees[:config.n_trees]) for ens in ensembles]
    return {"target": spec["target"], "grower": config.grower,
            "n_trees": config.n_trees, "max_depth": config.max_depth,
            "classes": classes, **_importance(ensembles)}


def _run_split_regression(spec: dict, ds: Dataset, seed: int) -> dict:
    config = _analysis_config(spec, seed=seed)
    fraction = spec.get("train_fraction", 0.75)
    sub = _training_subset(spec, ds)
    train_ds, test_ds = train_test_split(sub, fraction, seed)
    model = train(train_ds, config)
    y_tr = train_ds.columns[spec["target"]]
    y_te = test_ds.columns[spec["target"]]
    rmse_tr = float(np.sqrt(np.mean((model.predict(train_ds) - y_tr) ** 2)))
    rmse_te = float(np.sqrt(np.mean((model.predict(test_ds) - y_te) ** 2)))
    return {"target": spec["target"], "train_fraction": fraction,
            "train_rows": train_ds.n_rows, "test_rows": test_ds.n_rows,
            "observed_fraction": train_ds.n_rows / sub.n_rows,
            "rmse_train": rmse_tr, "rmse_test": rmse_te, **_importance([model])}


def _analysis_ready(spec: dict, ds: Dataset) -> list[str]:
    """Columns the analysis names but the dataset lacks: those of its
    single-column keys, then those of its column lists (all required keys)."""
    required = _OPS["analysis"][spec["op"]][0]
    refs = [spec[key] for key, kind in required.items() if kind is _COLUMN]
    refs += [ref for key, kind in required.items() if kind is _COLUMNS for ref in spec[key]]
    return [r for r in refs if r not in ds.columns]


def _csv_rows(result: dict) -> tuple[list[str], list[list]]:
    """Flatten one analysis result into a small CSV table."""
    if "rows" in result:  # ANOVA tables
        header = ["term", "sum_sq", "dof", "mean_sq", "F", "p_value"]
        return header, [[r[h] for h in header] for r in result["rows"]]
    if "r" in result:  # correlation matrix: r then r_squared blocks
        header = ["matrix", "label"] + result["labels"]
        rows = []
        for kind in ("r", "r_squared"):
            for lbl, vals in zip(result["labels"], result[kind]):
                rows.append([kind, lbl] + vals)
        return header, rows
    if "groups" in result:
        header = ["group", "count", "mean", "median", "q1", "q3", "min", "max"]
        rows = [["|".join(g["group"])] + [g[h] for h in header[1:]]
                for g in result["groups"]]
        return header, rows
    if "statistic" in result:  # chi-squared
        header = ["a", "b", "statistic", "dof", "p_value"]
        return header, [[result[h] for h in header]]
    # importance ranking: a recipe's gains, or the importance command's values
    header = ["feature", "value" if "metric" in result else "gain"]
    return header, [[r["feature"], r[header[1]]] for r in result["ranking"]]


def run_recipe(recipe, data_path, output_dir=None, seed: int = BoostConfig.seed,
               strict_shapes: bool = False) -> dict:
    """Execute a recipe end to end; returns the full report bundle.

    Shape mismatches are warnings by default (strict mode raises); analyses
    whose columns are unavailable are skipped with a warning.
    """
    if isinstance(recipe, ReplicationRecipe):  # set in code: its steps are unchecked
        _checked_analyses(recipe.name, recipe.analyses, "recipe")
        _checked_steps(recipe.name, "preprocess step", recipe.spec.steps)
    else:
        recipe = load_recipe(recipe)
    warnings: list[str] = []
    ds, raw_cols = load_known_columns(data_path, recipe.schema, recipe.optional_columns)
    warnings += _check_input_shape(recipe, ds.n_rows, raw_cols)
    ds, shape_warnings = apply_recipe(ds, recipe.spec)
    warnings += shape_warnings
    if strict_shapes and warnings:
        raise RecipeError("; ".join(warnings))

    ready = []
    for spec in recipe.analyses:
        absent = _analysis_ready(spec, ds)
        if absent:
            warnings.append(f"{recipe.name}: skipped analysis {_label(spec)!r} "
                            f"(missing columns {absent})")
            continue
        ready.append(spec)
    results = {_label(spec): result
               for spec, result in zip(ready, _run_analyses(ready, ds, seed))}

    bundle = {
        "recipe": recipe.name,
        "seed": seed,
        "input": str(data_path),
        "rows_after_preprocess": ds.n_rows,
        "columns_after_preprocess": len(ds.schema),
        "warnings": warnings,
        "analyses": results,
    }
    if output_dir is not None:
        _write_bundle(bundle, recipe.name, output_dir)
    return bundle


def _analysis_groups(analyses: list[dict]) -> list[list[int]]:
    """The analyses' indices, grouped: train_importance analyses with equal
    _fit_key share a group, every other analysis has its own. Groups are in
    the order of their first analysis, members in plan order."""
    groups: dict = {}
    for i, spec in enumerate(analyses):
        key = _fit_key(spec) if spec["op"] == "train_importance" else i
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _run_analyses(analyses: list[dict], ds: Dataset, seed: int) -> list[dict]:
    """The analyses' results, in their order.

    Each distinct train_importance feature set is prepared once, here, and
    each group of _analysis_groups is one job, which fits a train_importance
    group once, with its largest 'trees', for all its analyses. The jobs run
    through forkpool.run_jobs: in forked worker processes, one per CPU up to
    one per job, which inherit ds and the prepared features without
    pickling, larger 'trees' first (statistics count 0); or inline, one by
    one, where it forks no pool. Either way the first job in order that
    fails raises here; jobs are in the order of their first analysis, and
    a group's analyses share the fit that fails.
    """
    held = _prepared_features(analyses, ds, seed)
    trees = [_analysis_config(spec).n_trees if _trains(spec) else 0 for spec in analyses]
    groups = _analysis_groups(analyses)

    def job(g: int) -> list[dict]:
        members = groups[g]
        fitted = None
        if len(members) > 1:  # a train_importance group: fit its largest 'trees' once
            longest = max(members, key=trees.__getitem__)
            fitted = _fit(analyses[longest], ds, seed, held)
        return [run_analysis(analyses[i], ds, seed, held, fitted) for i in members]

    results: list = [None] * len(analyses)
    sizes = [max(trees[i] for i in members) for members in groups]
    for members, group_results in zip(groups, forkpool.run_jobs(job, sizes)):
        for i, result in zip(members, group_results):
            results[i] = result
    return results


def write_result(result: dict, path=None, tabular: bool = False) -> None:
    """result as indented JSON with non-finite floats as null, to stdout when
    path is None; a tabular result goes to a .csv path as its _csv_rows
    table. The file's directory is made if absent."""
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if tabular and path.suffix == ".csv":
            write_table(path, *_csv_rows(result))
            return
    text = json.dumps(_nan_to_none(result), indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def _write_bundle(bundle: dict, name: str, output_dir) -> None:
    out = Path(output_dir) / name
    write_result(bundle, out / "report.json")
    for analysis, result in bundle["analyses"].items():
        for suffix in ("json", "csv"):
            write_result(result, out / f"{analysis}.{suffix}", tabular=True)
