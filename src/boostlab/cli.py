"""Command-line surface: ingestion, replication recipes, training, prediction,
model persistence, and the statistics commands.

Exit codes: 0 success, 2 validation error (bad flags, schema/shape problems),
1 runtime error (corrupt model files, unexpected failures). All commands are
deterministic given their inputs and --seed; reports carry the seed and no
timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import stats
from .boosting import (GROWERS, LOSSES, BoostConfig, Classifier, ConfigError,
                       ModelFormatError, load_model, save_model, sigmoid, train,
                       train_classifier)
from .dataset import (CATEGORICAL, ColumnSchema, Dataset, DatasetError, load_csv,
                      load_known_columns, one_hot_source, parse_schema, retype_target,
                      write_table)
from .recipes import (RecipeError, available_recipes, run_analysis, run_recipe,
                      write_result)
from .stats import StatsError

VALIDATION_ERRORS = (DatasetError, ConfigError, StatsError, RecipeError)


def _load_schema_file(path) -> list[ColumnSchema]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DatasetError(f"no such schema file: {path}") from None
    except json.JSONDecodeError as exc:
        raise DatasetError(f"schema file {path} is not valid JSON: {exc}") from None
    return parse_schema(doc)


def _ensembles(model) -> list:
    return model.ensembles if isinstance(model, Classifier) else [model]


def _schema_from_model(model) -> list[ColumnSchema]:
    """Reconstruct an input schema for prediction from a model document."""
    ens = _ensembles(model)[0]
    schema: dict[str, ColumnSchema] = {}  # first column of each name, in feature order
    for name in ens.feature_names:
        hot = one_hot_source(name, ens.categorical_levels)
        if hot is not None:
            schema.setdefault(hot[0], ColumnSchema(hot[0], CATEGORICAL))
        else:
            schema.setdefault(name, ColumnSchema(name, "numeric"))
    return list(schema.values())


def _load_input(args, strict: bool = False) -> Dataset:
    """Strict loading validates the full header; lenient loading picks the
    schema's columns out of a possibly wider file."""
    if args.schema is None:
        raise DatasetError("--schema is required for this command")
    schema = _load_schema_file(args.schema)
    if strict:
        return load_csv(args.input, schema)
    ds, _ = load_known_columns(args.input, schema)
    return ds


def _config_from_args(args) -> BoostConfig:
    """The training flags given, over BoostConfig's defaults: an unset flag
    is absent from args."""
    return BoostConfig(**{f.name: getattr(args, f.name) for f in fields(BoostConfig)
                          if hasattr(args, f.name)})


def _cmd_ingest(args) -> int:
    ds = _load_input(args, strict=True)
    write_result(ds.summary(), args.output)
    return 0


def _cmd_recipe(args) -> int:
    # an unset --seed stays out of args, so run_recipe's default holds
    seed = {"seed": args.seed} if "seed" in args else {}
    bundle = run_recipe(args.recipe, args.input, output_dir=args.output_dir,
                        strict_shapes=args.strict_shapes, **seed)
    for warning in bundle["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"recipe {bundle['recipe']}: {len(bundle['analyses'])} analyses "
          f"-> {args.output_dir}")
    return 0


def _cmd_train(args) -> int:
    ds = _load_input(args)
    if args.target is not None:
        ds = retype_target(ds, args.target)
    if ds.target_name() is None:
        raise DatasetError("no target column; mark one in the schema or pass --target")
    config = _config_from_args(args)
    if config.loss == "logistic":
        y = ds.columns[ds.target_name()]
        if set(np.unique(y)) <= {0.0, 1.0}:
            model = train(ds, config)
        else:
            model = train_classifier(ds, config)
    else:
        model = train(ds, config)
    save_model(model, args.output)
    n = len(model.ensembles) if isinstance(model, Classifier) else 1
    print(f"trained {config.grower} model ({config.n_trees} trees x {n}) -> {args.output}")
    return 0


def _predictions_table(model, ds: Dataset):
    """The predict command's header and rows; each ensemble scores ds once."""
    if isinstance(model, Classifier):
        proba = model.predict_proba(ds)
        classes = model.classes_of(proba)
        header = ["class"] + [f"p_{c:g}" for c in model.classes]
        rows = [[repr(float(classes[i]))] + [repr(float(p)) for p in proba[i]]
                for i in range(len(classes))]
        return header, rows
    raw = model.predict(ds)
    if model.loss == "logistic":  # predict_proba's sigmoid, of the scores at hand
        return ["raw_score", "probability"], \
            [[repr(float(r)), repr(float(p))] for r, p in zip(raw, sigmoid(raw))]
    return ["prediction"], [[repr(float(r))] for r in raw]


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    schema = _load_schema_file(args.schema) if args.schema else _schema_from_model(model)
    ds, _ = load_known_columns(args.input, schema)
    header, rows = _predictions_table(model, ds)
    write_table(args.output, header, rows)
    print(f"wrote {len(rows)} predictions -> {args.output}")
    return 0


def _importance_ranking(model, metric: str, normalized: bool = False) -> list[dict]:
    _, ranking = stats.ranked_importance(_ensembles(model), metric, normalized=normalized)
    return [{"feature": k, "value": v} for k, v in ranking]


def _cmd_importance(args) -> int:
    model = load_model(args.model)
    result = {"metric": args.metric, "normalized": args.normalized,
              "ranking": _importance_ranking(model, args.metric, args.normalized)}
    write_result(result, args.output, tabular=True)
    return 0


def _names(flag: str) -> list[str]:
    return [c.strip() for c in flag.split(",") if c.strip()]


def _analysis_spec(args) -> dict:
    """The recipe analysis step a statistics command's flags describe."""
    if args.command == "chi2":
        return {"op": "chi2", "a": args.a, "b": args.b}
    if args.command == "anova" and args.factor2 is not None:
        return {"op": "anova2", "response": args.response,
                "factor_a": args.factor, "factor_b": args.factor2}
    if args.command == "anova":
        return {"op": "anova1", "response": args.response, "factor": args.factor}
    if args.command == "corr":
        return {"op": "correlation", "columns": _names(args.columns)}
    return {"op": "group_summary", "value": args.value, "by": _names(args.by)}


def _cmd_analysis(args) -> int:
    ds = _load_input(args)
    write_result(run_analysis(_analysis_spec(args), ds), args.output, tabular=True)
    return 0


def _cmd_report(args) -> int:
    model = load_model(args.model)
    ensembles = _ensembles(model)
    result = {
        "kind": "classifier" if isinstance(model, Classifier) else "ensemble",
        "classes": model.classes if isinstance(model, Classifier) else None,
        "loss": ensembles[0].loss,
        "n_trees": sum(len(e.trees) for e in ensembles),
        "n_features": len(ensembles[0].feature_names),
        "feature_names": ensembles[0].feature_names,
        "config": ensembles[0].config,
        "importance_gain": _importance_ranking(model, "gain"),
        "importance_split_count": _importance_ranking(model, "split_count"),
    }
    write_result(result, args.output)
    return 0


def _add_io_flags(p, schema=True, output=True):
    p.add_argument("--input", required=True, help="input CSV path")
    if schema:
        p.add_argument("--schema", help="JSON schema file for the CSV")
    if output:
        p.add_argument("--output", help="output file (.json, or .csv where supported)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostlab",
        description="Gradient-boosted trees (level-wise, leaf-wise, oblivious) "
                    "with a statistics toolkit and replication recipes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a CSV and emit its summary")
    _add_io_flags(p)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("recipe", help="run a named replication recipe")
    p.add_argument("--recipe", required=True,
                   help=f"one of: {', '.join(available_recipes())} (or a JSON path)")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--strict-shapes", action="store_true",
                   help="treat documented-shape mismatches as errors")
    p.set_defaults(fn=_cmd_recipe)

    p = sub.add_parser("train", help="train a model and save it as JSON")
    _add_io_flags(p, output=False)
    p.add_argument("--target", help="column to use as the target")
    p.add_argument("--output", required=True, help="model file to write")
    # an unset training flag stays out of args, so BoostConfig's default holds
    flag = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--loss", choices=LOSSES)
    flag("--grower", choices=GROWERS)
    flag("--trees", dest="n_trees", type=int, metavar="TREES")
    flag("--learning-rate", type=float)
    flag("--lambda", dest="lambda_", type=float)
    flag("--gamma", type=float)
    flag("--max-depth", type=int)
    flag("--max-leaves", type=int)
    flag("--max-bins", type=int)
    flag("--goss-a", type=float)
    flag("--goss-b", type=float)
    flag("--efb-max-conflicts", type=int)
    flag("--ordered-blocks", type=int)
    flag("--ordered-permutations", type=int)
    flag("--seed", type=int)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("predict", help="score a CSV with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--schema", help="optional schema; defaults to the model's features")
    p.add_argument("--output", required=True, help="predictions CSV")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("importance", help="feature importance of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--metric", default="gain", choices=["gain", "split_count"])
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_importance)

    p = sub.add_parser("chi2", help="chi-squared independence test")
    _add_io_flags(p)
    p.add_argument("--a", required=True, help="first categorical column")
    p.add_argument("--b", required=True, help="second categorical column")
    p.set_defaults(fn=_cmd_analysis)

    p = sub.add_parser("anova", help="one-way (or additive two-way) ANOVA")
    _add_io_flags(p)
    p.add_argument("--response", required=True)
    p.add_argument("--factor", required=True)
    p.add_argument("--factor2", help="second factor for the additive two-way table")
    p.set_defaults(fn=_cmd_analysis)

    p = sub.add_parser("corr", help="Pearson correlation matrix with R-squared")
    _add_io_flags(p)
    p.add_argument("--columns", required=True, help="comma-separated numeric columns")
    p.set_defaults(fn=_cmd_analysis)

    p = sub.add_parser("summary", help="grouped count/mean/quartile table")
    _add_io_flags(p)
    p.add_argument("--value", required=True, help="numeric column to summarize")
    p.add_argument("--by", required=True, help="comma-separated categorical columns")
    p.set_defaults(fn=_cmd_analysis)

    p = sub.add_parser("report", help="describe a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
