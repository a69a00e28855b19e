"""Run the four shipped replication recipes end to end on synthetic stand-ins.

Each recipe is a JSON config (schema + preprocessing + analysis plan). Real
input files are not bundled; this demo fabricates small CSVs with the same
layout, so documented-shape warnings for the row counts are expected. Point
the recipes at the real CDC/Kaggle files to reproduce the documented shapes.
"""

import sys
import tempfile
from pathlib import Path

from boostlab import available_recipes, load_recipe, run_recipe

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from fixtures import (write_covid19_csv, write_education_csv,  # noqa: E402
                      write_mexican_csv, write_region_csv)

with tempfile.TemporaryDirectory(prefix="boostlab_recipes_") as tmp:
    out_root = Path(tmp)
    print("recipes shipped:", ", ".join(available_recipes()), "\n")

    writers = {
        "education-covid": write_education_csv,
        "region-health": write_region_csv,
        "covid19-vax": write_covid19_csv,
    }

    for name, writer in writers.items():
        csv_path = writer(out_root / f"{name}.csv")
        bundle = run_recipe(name, csv_path, output_dir=out_root, seed=0)
        print(f"[{name}] {bundle['rows_after_preprocess']} rows x "
              f"{bundle['columns_after_preprocess']} cols after preprocessing; "
              f"analyses: {', '.join(bundle['analyses'])}")
        for w in bundle["warnings"]:
            print(f"  warning: {w}")

    # the mexican plan retrains at 10/100/1000 trees; trim it here so the demo
    # stays quick (the full plan is exercised by the test suite)
    recipe = load_recipe("mexican-covid")
    recipe.analyses = [a for a in recipe.analyses
                       if a["name"].startswith("chi2") or a["name"].endswith("_10_full")
                       or a["name"] == "oblivious_10_modified"]
    csv_path = write_mexican_csv(out_root / "mexican.csv", n=300, seed=1)
    bundle = run_recipe(recipe, csv_path, output_dir=out_root, seed=0)
    chi = bundle["analyses"]["chi2_diabetes"]
    print(f"\n[mexican-covid] diabetes vs test result: chi2 = {chi['statistic']:.2f}, "
          f"p = {chi['p_value']:.2e}")
    imp = bundle["analyses"]["oblivious_10_modified"]["ranking"][:5]
    print("top-5 importances without the giveaway features:",
          ", ".join(r["feature"] for r in imp))
    print(f"\nreport files under {out_root} (removed on exit)")
