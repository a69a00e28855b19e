"""Seeded, vectorized writer for the mexican-covid CSV layout.

The file has the 23 columns of the real patient file, the level sets of
`tests/fixtures.write_mexican_csv`, and the same planted diabetes/cov-res
association (diabetic patients test positive far more often). Rows are drawn
column by column with numpy, so 100k rows take about a second where the
fixture's row-by-row writer takes about 15 s.

This is a scale smoke test of the mexican-covid recipe pipeline (criterion 10
of the acceptance suite): CSV parse, the cov-res=3 filter, one-hot, EFB and
the three growers at a realistic row count. Its numbers say nothing about the
real data, and it does not replace the real-data criterion.

Run directly to write a file: python3 bench/mexican_csv.py OUT.csv [ROWS] [SEED]
"""

from __future__ import annotations

import sys

import numpy as np

COLUMNS = ["id", "sex", "patient-type", "entry-date", "date-symptoms",
           "date-died", "intubed", "pneumonia", "age", "pregnancy",
           "diabetes", "copd", "asthma", "inmsupr", "hypertension",
           "other-disease", "cardiovascular", "obesity", "renal-chronic",
           "tobacco", "contact-other-covid", "cov-res", "icu"]

# level sets per column, as in the fixture writer; binary 1/2 otherwise
_LEVELS = {"intubed": (1, 2, 97), "pregnancy": (1, 2, 97, 98),
           "contact-other-covid": (1, 2, 99), "icu": (1, 2, 97)}
_CONSTANT = {"entry-date": "01-01-2021", "date-symptoms": "01-01-2021",
             "date-died": "9999-99-99"}
# P(cov-res = 1, 2, 3) given diabetes = 1 (yes) or 2 (no)
_COVRES_GIVEN_DIABETES = {1: (0.70, 0.20, 0.10), 2: (0.25, 0.65, 0.10)}
_P_DIABETES = 0.35


def mexican_columns(n: int, seed: int) -> dict[str, np.ndarray]:
    """Column name -> array of n string cells."""
    rng = np.random.default_rng(seed)
    cols: dict[str, np.ndarray] = {}
    diabetes = np.where(rng.random(n) < _P_DIABETES, 1, 2)
    u = rng.random(n)
    covres = np.empty(n, dtype=np.int64)
    for level, (p1, p2, _) in _COVRES_GIVEN_DIABETES.items():
        rows = diabetes == level
        covres[rows] = np.where(u[rows] < p1, 1, np.where(u[rows] < p1 + p2, 2, 3))
    for name in COLUMNS:
        if name == "id":
            cols[name] = np.char.add("p", np.char.zfill(np.arange(n).astype(str), 5))
        elif name in _CONSTANT:
            cols[name] = np.full(n, _CONSTANT[name])
        elif name == "age":
            cols[name] = rng.integers(1, 95, size=n).astype(str)
        elif name == "diabetes":
            cols[name] = diabetes.astype(str)
        elif name == "cov-res":
            cols[name] = covres.astype(str)
        else:
            levels = np.array(_LEVELS.get(name, (1, 2)))
            cols[name] = levels[rng.integers(0, len(levels), size=n)].astype(str)
    return cols


def write_mexican_csv(path, n: int, seed: int) -> None:
    """Write n rows plus the header row to path."""
    cols = mexican_columns(n, seed)
    lines = [",".join(COLUMNS)]
    lines.extend(",".join(row) for row in zip(*(cols[c].tolist() for c in COLUMNS)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3, 4):
        sys.exit(__doc__)
    rows = int(sys.argv[2]) if len(sys.argv) > 2 else 100_000
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    write_mexican_csv(sys.argv[1], rows, seed)
