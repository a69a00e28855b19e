"""Write boostlab's deterministic artifacts for one source tree.

    python3 tools/dump_artifacts.py SRC_ROOT OUT_DIR

boostlab is imported from SRC_ROOT/src, so the same script runs against any
checkout, older commits included; it calls only long-standing API
(BoostConfig, train, to_json, from_json, run_recipe, Dataset, ColumnSchema,
cli.main). OUT_DIR receives:

- models/<grower>-efb<None|0|50>.json and .pred: model JSON and the
  float64 prediction bytes on the training table, for level-wise, leaf-wise
  (max_leaves), leaf-wise GOSS, oblivious, and ordered oblivious growth with
  one and with two permutations (and twice with enough prefix-model fits to
  run them in forked workers, the second time with enough main-tree rows to
  grow those in forked workers too), and two depth-12 oblivious trees, whose
  deepest levels scan 2,048 leaves, each with efb_max_conflicts None, 0
  and 50, on a seeded table with NaN-bearing numeric and categorical columns;
  and the same for leaf-wise GOSS, oblivious and ordered oblivious growth at
  256 bins on the table with no numeric column rounded, whose numeric columns
  then all have uint16 bin codes;
- models/<grower>-efb<None|0|50>.loaded.pred: the prediction bytes of
  from_json(to_json(model)) on a second seeded table, with NaNs in every
  numeric column, so loading and routing rows the model never trained on
  are covered too;
- recipe/: the report directory of bench/mexican-covid.json run on a seeded
  bench/mexican_csv.py file. The CSV is written into OUT_DIR and the recipe
  reads it by a relative path from there, so report.json's "input" is the
  same for every tree;
- cli/: what `boostlab chi2`, one- and two-way `anova`, `corr` and
  `summary` write as JSON and as CSV on a seeded CSV file with missing
  cells, and, for one regressor and one three-class classifier trained by
  `boostlab train` on it, the model files, `importance` (gain and
  split_count, each raw and --normalized, as JSON and as CSV) and `report`;
  and cli/recipe/steps/: the report directory of a recipe on the same file
  whose preprocessing derives a column, then filters rows, then drops a
  column and the rows still missing a value; and cli/recipe/groups/: the
  report directory of a recipe on the same file whose train_importance
  analyses differ only in 'trees', a three-class one-vs-rest group and a
  regression group, which share one fit per group where run_recipe groups
  them. Every command runs through boostlab.cli.main with paths relative to
  OUT_DIR.

Two trees are byte-identical where `diff -r` of their OUT_DIRs is empty. A
run under `taskset -c 0` trains and runs the recipe inline, without forked
workers, and must write the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
CSV_ROWS = 5000

GROWERS = {
    "level_wise": {},
    "leaf_wise": {"grower": "leaf_wise", "max_leaves": 11},
    "goss": {"grower": "leaf_wise", "max_leaves": 11, "goss_a": 0.2, "goss_b": 0.3},
    "oblivious": {"grower": "oblivious"},
    "ordered": {"grower": "oblivious", "ordered_blocks": 4},
    "ordered-p2": {"grower": "oblivious", "ordered_blocks": 4, "ordered_permutations": 2},
    # two chunks (16 + 2 trees) of 30 boosters, each above the fit floor under
    # which the prefix models train inline, so they run in forked workers on
    # Linux wherever more than one CPU is available
    "ordered-pool": {"grower": "oblivious", "ordered_blocks": 16, "ordered_permutations": 2,
                     "n_trees": 18},
    # a first chunk of 17 main trees fits 17 x 3,000 rows, over the row floor
    # under which a chunk's main trees grow inline, so they grow in forked
    # workers too; the second chunk's one tree grows inline
    "ordered-main-pool": {"grower": "oblivious", "ordered_blocks": 17, "n_trees": 18},
    # levels of up to 2,048 leaves, so the level loop's scratch grows past
    # whatever a shallow fit leaves it
    "oblivious-deep": {"grower": "oblivious", "max_depth": 12, "n_trees": 2, "max_bins": 16},
}
# trained at 256 bins on the table with no column rounded, where every numeric
# column, the two the target reads included, takes more than 255 bins: their
# bin codes are uint16, the width the bench's 256-bin tables route on
WIDE_CODES = {
    # GOSS grows each tree on a sample of the rows and routes every row through it
    "goss-256": {"grower": "leaf_wise", "max_leaves": 11, "goss_a": 0.2, "goss_b": 0.3,
                 "max_bins": 256},
    "oblivious-256": {"grower": "oblivious", "max_bins": 256},
    "ordered-256": {"grower": "oblivious", "ordered_blocks": 4, "max_bins": 256},
}


def training_table(boostlab, n=3000, seed=5, rounded=True):
    """Numeric columns (two with NaNs; x0 and x2 rounded to one decimal
    unless rounded is False), three categorical columns whose one-hot
    features EFB bundles, and a target that reads both kinds."""
    rng = np.random.default_rng(seed)
    schema, cols, labels = [], {}, {}
    for j in range(4):
        v = rng.normal(size=n)
        if rounded and j % 2 == 0:
            v = np.round(v, 1)
        if j >= 2:
            v[rng.random(n) < 0.1] = np.nan
        schema.append(boostlab.ColumnSchema(f"x{j}"))
        cols[f"x{j}"] = v
    for j, k in enumerate((3, 5, 9)):
        schema.append(boostlab.ColumnSchema(f"c{j}", "categorical"))
        cols[f"c{j}"] = rng.integers(0, k, size=n).astype(np.int32)
        labels[f"c{j}"] = [f"v{i}" for i in range(k)]
    y = (np.nan_to_num(cols["x0"]) - 2.0 * np.nan_to_num(cols["x2"])
         + (cols["c0"] == 1) - 0.5 * (cols["c2"] > 4) + rng.normal(scale=0.3, size=n))
    schema.append(boostlab.ColumnSchema("y", "target"))
    cols["y"] = y
    return boostlab.Dataset(schema, cols, labels)


def holdout_table(boostlab):
    """Another seeded table of the same layout with NaNs in all four numeric
    columns, including the two that have none at training time."""
    ds = training_table(boostlab, n=2000, seed=6)
    rng = np.random.default_rng(7)
    for j in range(4):
        ds.columns[f"x{j}"][rng.random(ds.n_rows) < 0.15] = np.nan
    return ds


def dump_models(boostlab, out: Path) -> None:
    holdout = holdout_table(boostlab)
    out.mkdir(parents=True)
    for ds, growers in ((training_table(boostlab), GROWERS),
                        (training_table(boostlab, rounded=False), WIDE_CODES)):
        dump_growers(boostlab, ds, holdout, growers, out)


def dump_growers(boostlab, ds, holdout, growers: dict, out: Path) -> None:
    from boostlab.boosting import from_json, to_json

    for label, extra in growers.items():
        for efb in (None, 0, 50):
            config = boostlab.BoostConfig(**{"n_trees": 6, "max_depth": 5, "max_bins": 64,
                                             "seed": 3, "efb_max_conflicts": efb, **extra})
            model = boostlab.train(ds, config)
            stem = f"{label}-efb{efb}"
            text = to_json(model)
            (out / f"{stem}.json").write_text(text, encoding="utf-8")
            (out / f"{stem}.pred").write_bytes(model.predict(ds).tobytes())
            loaded = from_json(text).predict(holdout)
            (out / f"{stem}.loaded.pred").write_bytes(loaded.tobytes())


def dump_recipe(boostlab, out: Path) -> None:
    sys.path.insert(0, str(REPO / "bench"))
    from mexican_csv import write_mexican_csv

    write_mexican_csv(out / "mexican-covid.csv", CSV_ROWS, 0)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        boostlab.run_recipe(str(REPO / "bench" / "mexican-covid.json"), "mexican-covid.csv",
                            output_dir="recipe", seed=0)
    finally:
        os.chdir(cwd)


def write_cli_inputs(out: Path, n=400, seed=8) -> None:
    """stats.csv: categorical g1 (with "NA" markers) and g2, numeric x0-x2
    (x2 with "nan" cells), a numeric y and a three-class cls; schemas for the
    statistics commands and for a regressor (target y) and a classifier
    (target cls) on the other columns; and steps.recipe.json, a recipe on
    the file with three preprocessing steps, and groups.recipe.json, one
    whose training analyses differ only in 'trees' within two groups."""
    rng = np.random.default_rng(seed)
    g1 = rng.choice(["a", "b", "c", "NA"], size=n, p=[0.3, 0.3, 0.3, 0.1])
    g2 = rng.choice(["p", "q", "r", "s"], size=n)
    x = rng.normal(size=(n, 3))
    y = (x[:, 0] - 0.5 * x[:, 1] + (g1 == "b") + 0.5 * (g2 == "s")
         + rng.normal(scale=0.3, size=n))
    cls = np.digitize(x[:, 0] + 0.5 * (g2 == "q") + rng.normal(scale=0.5, size=n), [-0.5, 0.5])
    lines = ["g1,g2,x0,x1,x2,y,cls"]
    for i in range(n):
        x2 = "nan" if rng.random() < 0.1 else repr(float(x[i, 2]))
        lines.append(f"{g1[i]},{g2[i]},{float(x[i, 0])!r},{float(x[i, 1])!r},{x2},"
                     f"{float(y[i])!r},{int(cls[i])}")
    (out / "stats.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    features = [{"name": "g1", "kind": "categorical", "missing_marker": "NA"},
                {"name": "g2", "kind": "categorical"},
                {"name": "x0"}, {"name": "x1"}, {"name": "x2"}]
    for stem, extra in (("stats", [{"name": "y"}, {"name": "cls"}]),
                        ("regressor", [{"name": "y", "kind": "target"}]),
                        ("classifier", [{"name": "cls", "kind": "target"}])):
        (out / f"{stem}.schema.json").write_text(json.dumps(features + extra),
                                                 encoding="utf-8")
    # derive, then filter, then drop: older checkouts ran every derive, then
    # every filter, then the drops whatever the order written, so this order
    # is the one whose bytes every checkout shares
    steps = {
        "name": "steps",
        "schema": features + [{"name": "y"}, {"name": "cls"}],
        "preprocess": [
            {"op": "add_ratio_column", "new_name": "ratio", "num": "y", "den": "x0",
             "scale": 100},
            {"op": "filter_rows", "column": "g2", "excluded": ["s"]},
            {"op": "drop_missing", "columns": ["x2"]},
        ],
        "analyses": [
            {"op": "chi2", "a": "g1", "b": "g2"},
            {"op": "group_summary", "value": "ratio", "by": ["g1", "g2"]},
            {"op": "train_importance", "features": ["g1", "g2", "x0", "x1", "ratio"],
             "target": "y", "trees": 8, "max_depth": 3},
        ],
    }
    (out / "steps.recipe.json").write_text(json.dumps(steps), encoding="utf-8")
    numeric = ["x0", "x1", "x2"]
    groups = {
        "name": "groups",
        "schema": steps["schema"],
        "analyses": [
            *({"op": "train_importance", "name": f"cls_{trees}", "task": "classification",
               "features": ["g1", "g2", *numeric], "target": "cls", "trees": trees,
               "max_depth": 3, "max_bins": 32} for trees in (2, 7, 4)),
            {"op": "chi2", "a": "g1", "b": "g2"},
            *({"op": "train_importance", "name": f"y_{trees}", "features": ["g1", *numeric],
               "target": "y", "trees": trees, "grower": "oblivious", "max_depth": 3,
               "efb": True} for trees in (6, 1)),
        ],
    }
    (out / "groups.recipe.json").write_text(json.dumps(groups), encoding="utf-8")


def dump_cli(out: Path) -> None:
    from boostlab.cli import main as cli

    def run(*argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli(list(argv))
        if code != 0:
            raise SystemExit(f"boostlab {' '.join(argv)} exited {code}")

    out.mkdir()
    write_cli_inputs(out)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        data = ["--input", "stats.csv", "--schema", "stats.schema.json"]
        commands = {
            "chi2": ["chi2", "--a", "g1", "--b", "g2"],
            "anova1": ["anova", "--response", "y", "--factor", "g1"],
            "anova2": ["anova", "--response", "y", "--factor", "g1", "--factor2", "g2"],
            "corr": ["corr", "--columns", "x0,x1,x2,y"],
            "summary": ["summary", "--value", "y", "--by", "g1,g2"],
        }
        for stem, argv in commands.items():
            for suffix in ("json", "csv"):
                run(*argv, *data, "--output", f"{stem}.{suffix}")
        for model in ("regressor", "classifier"):
            loss = "logistic" if model == "classifier" else "squared_error"
            run("train", "--input", "stats.csv", "--schema", f"{model}.schema.json",
                "--loss", loss, "--trees", "8", "--max-depth", "3", "--seed", "2",
                "--output", f"{model}.json")
            for metric in ("gain", "split_count"):
                for normalized in ([], ["--normalized"]):
                    stem = f"{model}.importance-{metric}{'-normalized' if normalized else ''}"
                    for suffix in ("json", "csv"):
                        run("importance", "--model", f"{model}.json", "--metric", metric,
                            *normalized, "--output", f"{stem}.{suffix}")
            run("report", "--model", f"{model}.json", "--output", f"{model}.report.json")
        for recipe in ("steps", "groups"):
            run("recipe", "--recipe", f"{recipe}.recipe.json", "--input", "stats.csv",
                "--output-dir", "recipe")
    finally:
        os.chdir(cwd)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: dump_artifacts.py SRC_ROOT OUT_DIR", file=sys.stderr)
        return 2
    src_root, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path.insert(0, str(src_root / "src"))
    import boostlab

    if not Path(boostlab.__file__).resolve().is_relative_to(src_root):
        print(f"boostlab was imported from {boostlab.__file__}, not {src_root}",
              file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=False)
    dump_models(boostlab, out / "models")
    dump_recipe(boostlab, out)
    dump_cli(out / "cli")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
