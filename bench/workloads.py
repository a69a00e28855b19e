"""The benchmark's workloads: seeded inputs, one closed-loop pass, output checks.

Each pass calls boostlab's public API from a single caller, one call after
the other. run_pass() times only those calls; check() runs afterwards, outside
any timed region and outside tracing, and returns the failed operations.

Functions are looked up on their module at call time (``boosting.train``,
not a name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from boostlab import boosting, recipes
from boostlab.dataset import ColumnSchema, Dataset

from mexican_csv import write_mexican_csv

BENCH_DIR = Path(__file__).resolve().parent
MEXICAN_RECIPE = BENCH_DIR / "mexican-covid.json"
MEXICAN_ROWS = 100_000


@dataclass
class PassOutput:
    """What one pass produced: per-pass metric values and what check() needs."""

    metrics: dict[str, float]
    ops: list[str]
    failed: dict[str, str] = field(default_factory=dict)  # op -> reasons
    detail: dict = field(default_factory=dict)

    def fail(self, op: str, why: str) -> None:
        self.failed[op] = f"{self.failed[op]}; {why}" if op in self.failed else why


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class RecipeMexican:
    """run_recipe on a seeded 100k-row mexican-covid CSV with the bench recipe."""

    def __init__(self):
        self.csv_path = self.out_dir = None
        self.reference = None  # report digest of the first pass
        self.planned = sorted(a.get("name", a["op"])
                              for a in recipes.load_recipe(MEXICAN_RECIPE).analyses)

    def setup(self, seed: int, workdir: Path) -> None:
        self.csv_path = workdir / "mexican-covid.csv"
        self.out_dir = workdir / "report"
        write_mexican_csv(self.csv_path, MEXICAN_ROWS, seed)

    def run_pass(self) -> PassOutput:
        out = PassOutput({}, ["run_recipe"])
        t0 = perf_counter()
        try:
            bundle = recipes.run_recipe(str(MEXICAN_RECIPE), str(self.csv_path),
                                        output_dir=str(self.out_dir), seed=0)
        except Exception as exc:  # a failed call is a failed operation
            out.fail("run_recipe", f"raised {exc!r}")
            return out
        recipe_s = perf_counter() - t0
        out.metrics.update(recipe_s=recipe_s, pass_s=recipe_s)
        out.detail["bundle"] = bundle
        return out

    def check(self, out: PassOutput) -> None:
        if "bundle" not in out.detail:
            return
        bundle = out.detail["bundle"]
        problems = []
        if len(self.planned) != 14 or sorted(bundle["analyses"]) != self.planned:
            problems.append(f"analyses {sorted(bundle['analyses'])} != plan of 14")
        rows = bundle["rows_after_preprocess"]
        expected = [f"mexican-covid: shape after preprocessing is {rows}x23, "
                    f"expected 499692x23"]
        if bundle["warnings"] != expected:
            problems.append(f"warnings {bundle['warnings']}")
        p = bundle["analyses"].get("chi2_diabetes", {}).get("p_value")
        if p is None or not p < 0.05:
            problems.append(f"chi2_diabetes p_value {p} misses the planted link")
        for name, result in bundle["analyses"].items():
            if "importance" in result and not all(
                    math.isfinite(v) for v in result["importance"].values()):
                problems.append(f"{name}: non-finite importance")
        digest = _digest(self.out_dir)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("report files differ from the first pass")
        if problems:
            out.fail("run_recipe", "; ".join(problems))


def make_table(n: int, m: int, seed: int, nan_cols: int, low_card: tuple[int, ...]):
    """Train and holdout Datasets of n rows each, m features and a 0/1 target.

    Features are standard normal; the last len(low_card) take k integer
    levels each; the first nan_cols have about 5% NaN, inserted after the
    target is drawn. The target is logistic in a fixed linear term plus an
    interaction and a sine, so trees have structure to find.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(2 * n, m))
    for j, k in enumerate(low_card, start=m - len(low_card)):
        X[:, j] = rng.integers(0, k, size=2 * n)
    # fixed weights: the seed draws a sample, the target's structure (and so
    # the shape and cost of the trees) stays the same for every seed
    w = np.linspace(-0.6, 0.6, m) / np.maximum(1.0, X.std(axis=0))
    logit = X @ w + 0.8 * X[:, 0] * X[:, 1] + 0.5 * np.sin(2.0 * X[:, 2])
    y = (rng.random(2 * n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)
    X[:, :nan_cols][rng.random((2 * n, nan_cols)) < 0.05] = np.nan
    names = [f"x{j:02d}" for j in range(m)]
    schema = [ColumnSchema(c) for c in names] + [ColumnSchema("y", "target")]

    def table(rows):
        cols = {c: np.ascontiguousarray(X[rows, j]) for j, c in enumerate(names)}
        cols["y"] = y[rows]
        return Dataset(schema, cols)
    return table(slice(0, n)), table(slice(n, 2 * n))


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


class TrainTable:
    """train + holdout predict + model JSON round trip, per config."""

    def __init__(self, n: int, m: int, nan_cols: int, low_card: tuple[int, ...],
                 configs: dict[str, boosting.BoostConfig]):
        self.shape = (n, m, nan_cols, low_card)
        self.configs = configs
        self.reference: dict[str, str] = {}  # config label -> first pass model JSON

    def setup(self, seed: int, workdir: Path) -> None:
        n, m, nan_cols, low_card = self.shape
        self.train, self.holdout = make_table(n, m, seed, nan_cols, low_card)
        y = self.train.columns["y"]
        self.prior_loss = log_loss(self.holdout.columns["y"], np.full(n, y.mean()))

    def run_pass(self) -> PassOutput:
        ops = [f"{label}/{op}" for label in self.configs for op in ("train", "predict", "io")]
        out = PassOutput({}, ops)
        train_s = predict_s = io_s = 0.0
        for label, config in self.configs.items():
            t0 = perf_counter()
            try:
                model = boosting.train(self.train, config)
                t1 = perf_counter()
                raw = model.predict(self.holdout)
                t2 = perf_counter()
                text = boosting.to_json(model)
                back = boosting.from_json(text)
                t3 = perf_counter()
            except Exception as exc:  # a failed call fails the config's operations
                for op in ("train", "predict", "io"):
                    out.fail(f"{label}/{op}", f"raised {exc!r}")
                continue
            train_s += t1 - t0
            predict_s += t2 - t1
            io_s += t3 - t2
            if len(self.configs) > 1:
                out.metrics[f"train_s.{label}"] = t1 - t0
            out.detail[label] = (raw, text, back)
        if out.detail:
            rows = self.holdout.n_rows * len(out.detail)
            out.metrics.update(train_s=train_s, predict_rows_per_s=rows / predict_s,
                               model_io_s=io_s, pass_s=train_s + predict_s + io_s)
        return out

    def check(self, out: PassOutput) -> None:
        y = self.holdout.columns["y"]
        losses = []
        for label, (raw, text, back) in out.detail.items():
            ref = self.reference.setdefault(label, text)
            if text != ref:
                out.fail(f"{label}/train", "model JSON differs from the first pass")
            if not np.isfinite(raw).all():
                out.fail(f"{label}/predict", "non-finite prediction")
            loss = log_loss(y, 1.0 / (1.0 + np.exp(-raw)))
            losses.append(loss)
            if not loss < self.prior_loss:
                out.fail(f"{label}/predict", f"holdout log-loss {loss:.6f} not below "
                                             f"the prior's {self.prior_loss:.6f}")
            if not np.array_equal(back.predict(self.holdout), raw):
                out.fail(f"{label}/io", "from_json(to_json(m)) predicts differently")
        if losses:
            out.metrics["holdout_loss"] = float(np.mean(losses))


def _logistic(**kw) -> boosting.BoostConfig:
    return boosting.BoostConfig(loss="logistic", seed=0, **kw)


DENSE_TREES = 10
ORDERED_TREES = 8

WORKLOADS = {
    "recipe-mexican": RecipeMexican,
    "train-dense": lambda: TrainTable(100_000, 20, nan_cols=10, low_card=(2, 3, 5, 8), configs={
        "level_wise": _logistic(n_trees=DENSE_TREES, grower="level_wise", max_depth=6),
        "leaf_wise_goss": _logistic(n_trees=DENSE_TREES, grower="leaf_wise", max_depth=10,
                                    max_leaves=31, goss_a=0.2, goss_b=0.1),
        "oblivious": _logistic(n_trees=DENSE_TREES, grower="oblivious", max_depth=6),
    }),
    "train-ordered": lambda: TrainTable(20_000, 10, nan_cols=0, low_card=(), configs={
        "ordered": _logistic(n_trees=ORDERED_TREES, grower="oblivious", max_depth=6,
                             ordered_blocks=16, ordered_permutations=1),
    }),
}
