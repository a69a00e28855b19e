"""Write boostlab's deterministic artifacts for one source tree.

    python3 tools/dump_artifacts.py SRC_ROOT OUT_DIR

boostlab is imported from SRC_ROOT/src, so the same script runs against any
checkout, older commits included; it calls only long-standing API
(BoostConfig, train, to_json, from_json, run_recipe, Dataset, ColumnSchema).
OUT_DIR receives:

- models/<grower>-efb<None|0|50>.json and .pred: model JSON and the
  float64 prediction bytes on the training table, for level-wise, leaf-wise
  (max_leaves), leaf-wise GOSS, oblivious and ordered oblivious growth, each
  with efb_max_conflicts None, 0 and 50, on a seeded table with NaN-bearing
  numeric and categorical columns;
- models/<grower>-efb<None|0|50>.loaded.pred: the prediction bytes of
  from_json(to_json(model)) on a second seeded table, with NaNs in every
  numeric column, so loading and routing rows the model never trained on
  are covered too;
- recipe/: the report directory of bench/mexican-covid.json run on a seeded
  bench/mexican_csv.py file. The CSV is written into OUT_DIR and the recipe
  reads it by a relative path from there, so report.json's "input" is the
  same for every tree.

Two trees are byte-identical where `diff -r` of their OUT_DIRs is empty.
"""

from __future__ import annotations

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
}


def training_table(boostlab, n=3000, seed=5):
    """Numeric columns (two with NaNs), three categorical columns whose
    one-hot features EFB bundles, and a target that reads both kinds."""
    rng = np.random.default_rng(seed)
    schema, cols, labels = [], {}, {}
    for j in range(4):
        v = rng.normal(size=n) if j % 2 else np.round(rng.normal(size=n), 1)
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
    from boostlab.boosting import from_json, to_json

    ds = training_table(boostlab)
    holdout = holdout_table(boostlab)
    out.mkdir(parents=True)
    for label, extra in GROWERS.items():
        for efb in (None, 0, 50):
            config = boostlab.BoostConfig(n_trees=6, max_depth=5, max_bins=64, seed=3,
                                          efb_max_conflicts=efb, **extra)
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
