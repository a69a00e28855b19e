"""Losses, the additive training loop, prediction, and model persistence.

An Ensemble's raw score is base_score + learning_rate * sum(tree outputs);
the logistic loss additionally exposes sigmoid(raw) as a probability. Training
is fully deterministic given (dataset, config): per-iteration randomness is
derived from (config.seed, iteration).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, asdict, field, fields, replace

import numpy as np

from . import forkpool, growers, strategies
from .dataset import (CATEGORICAL, MAX_BINS, TARGET, BinnedDataset, ColumnSchema, Dataset,
                      DatasetError, bin_features, one_hot_encode, one_hot_source)

LOSSES = ("squared_error", "logistic")
GROWERS = ("level_wise", "leaf_wise", "oblivious")

RAW_SCORE_CLIP = 30.0  # logistic raw scores are clipped here before sigmoid


class ConfigError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


def _loss_kind(loss) -> str:
    if loss not in LOSSES:
        raise ConfigError(f"unknown loss {loss!r}; expected one of {LOSSES}")
    return loss


def sigmoid(raw: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(raw, -RAW_SCORE_CLIP, RAW_SCORE_CLIP)))


def compute_gradients(loss, targets: np.ndarray, predictions: np.ndarray):
    """First and second derivatives of the loss at the current raw scores.

    squared_error l = (pred-y)^2/2: g = pred - y, h = 1.
    logistic l = -[y ln p + (1-y) ln(1-p)], p = sigmoid(pred): g = p - y,
    h = p(1-p). Targets for logistic must be 0 or 1.
    """
    kind = _loss_kind(loss)
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    if len(targets) != len(predictions):
        raise ValueError("targets and predictions differ in length")
    if kind == "squared_error":
        return predictions - targets, np.ones_like(targets)
    bad = ~np.isin(targets, (0.0, 1.0))
    if bad.any():
        raise ValueError(
            f"logistic loss needs targets in {{0,1}}; found {targets[bad][0]} "
            f"at row {int(np.flatnonzero(bad)[0])}")
    p = sigmoid(predictions)
    return p - targets, p * (1.0 - p)


def loss_value(loss, targets: np.ndarray, predictions: np.ndarray) -> float:
    """Mean training loss (used by the monotonicity checks and reports)."""
    kind = _loss_kind(loss)
    if kind == "squared_error":
        return float(np.mean((predictions - targets) ** 2) / 2.0)
    p = sigmoid(predictions)
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)))


def init_base_score(loss, targets: np.ndarray) -> float:
    """Mean for squared error, clipped log-odds for logistic."""
    if len(targets) == 0:
        raise ValueError("empty targets")
    kind = _loss_kind(loss)
    if kind == "squared_error":
        return float(np.mean(targets))
    p = float(np.clip(np.mean(targets), 1e-6, 1.0 - 1e-6))
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class BoostConfig:
    """All training knobs. goss_* needs the leaf_wise grower, ordered_blocks
    the oblivious one; max_leaves=None means 2**max_depth."""

    n_trees: int = 100
    learning_rate: float = 0.1
    lambda_: float = 1.0
    gamma: float = 0.0
    max_depth: int = 6
    max_leaves: int | None = None
    min_child_hessian: float = 1.0
    max_bins: int = 256
    grower: str = "level_wise"
    loss: str = "squared_error"
    goss_a: float | None = None
    goss_b: float | None = None
    efb_max_conflicts: int | None = None
    ordered_blocks: int | None = None
    ordered_permutations: int = 1
    zero_base_score: bool = False
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):  # typed fields; an "X | None" field may also be None
            value = getattr(self, f.name)
            kind = f.type.removesuffix(" | None")
            if value is None and kind != f.type:
                continue
            if kind == "int" and (isinstance(value, bool)
                                  or not isinstance(value, (int, np.integer))):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if kind == "float" and (isinstance(value, bool)
                                    or not isinstance(value, (int, float, np.integer,
                                                              np.floating))):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if kind == "bool" and not isinstance(value, bool):
                raise ConfigError(f"{f.name} must be a bool, got {value!r}")
        if self.n_trees < 0:
            raise ConfigError("n_trees must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError("learning_rate must be in (0, 1]")
        if not (self.lambda_ >= 0 and self.gamma >= 0):  # NaN fails too
            raise ConfigError("lambda_ and gamma must be >= 0")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.max_leaves is not None and self.max_leaves < 2:
            raise ConfigError("max_leaves must be >= 2")
        if not self.min_child_hessian >= 0:
            raise ConfigError("min_child_hessian must be >= 0")
        if self.max_bins < 2:
            raise ConfigError("max_bins must be >= 2")
        if self.max_bins > MAX_BINS:
            raise ConfigError(f"max_bins must be <= {MAX_BINS}: bin codes are uint16 and "
                              f"the missing bin takes one, got {self.max_bins}")
        if self.grower not in GROWERS:
            raise ConfigError(f"unknown grower {self.grower!r}")
        _loss_kind(self.loss)
        if (self.goss_a is None) != (self.goss_b is None):
            raise ConfigError("goss_a and goss_b must be set together")
        if self.goss_a is not None:
            if self.grower != "leaf_wise":
                raise ConfigError("goss requires grower='leaf_wise'")
            if not 0.0 < self.goss_a <= 1.0 or self.goss_b < 0.0:
                raise ConfigError("need 0 < goss_a <= 1 and goss_b >= 0")
            if self.goss_a + self.goss_b > 1.0:
                raise ConfigError("goss_a + goss_b must be <= 1")
        if self.ordered_blocks is not None:
            if self.grower != "oblivious":
                raise ConfigError("ordered boosting requires grower='oblivious'")
            if self.ordered_blocks < 1:
                raise ConfigError("ordered_blocks must be >= 1")
        if self.ordered_permutations < 1:
            raise ConfigError("ordered_permutations must be >= 1")
        if self.efb_max_conflicts is not None and self.efb_max_conflicts < 0:
            raise ConfigError("efb_max_conflicts must be >= 0")
        for f in fields(self):  # what the range checks above let through, e.g. inf
            value = getattr(self, f.name)
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")


@dataclass
class Ensemble:
    """A trained additive model over numeric (possibly one-hot derived) features."""

    trees: list
    base_score: float
    learning_rate: float
    loss: str
    feature_names: list[str]
    categorical_levels: dict[str, list[str]] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def feature_matrix(self, data) -> np.ndarray:
        """Rows x features float matrix in feature_names order.

        Datasets may carry the original categorical columns; they are expanded
        with the training-time label tables (unseen labels give all-zero
        indicators). Missing feature columns raise.
        """
        if isinstance(data, np.ndarray):
            if data.ndim != 2 or data.shape[1] != len(self.feature_names):
                raise ValueError(f"expected matrix with {len(self.feature_names)} columns")
            return np.ascontiguousarray(data, dtype=np.float64)  # rows are read as one flat array
        cols = []
        for name in self.feature_names:
            if name in data.columns and data.schema_for(name).kind != CATEGORICAL:
                cols.append(np.asarray(data.column(name), dtype=np.float64))
                continue
            hot = one_hot_source(name, self.categorical_levels)
            if hot is not None and hot[0] in data.columns:
                src, label = hot
                # codes against the label's code in data's own table: an unseen
                # label or a numeric column matches no row, missing (-1) none
                is_cat = data.schema_for(src).kind == CATEGORICAL
                table = data.labels[src] if is_cat else []
                if label in table:
                    cols.append((data.columns[src] == table.index(label)).astype(np.float64))
                else:
                    cols.append(np.zeros(data.n_rows))
                continue
            raise DatasetError(f"prediction data is missing feature column {name!r}")
        return np.column_stack(cols) if cols else np.empty((data.n_rows, 0))

    def predict(self, data, n_trees: int | None = None) -> np.ndarray:
        """Raw scores base + learning_rate * sum of the first n_trees trees."""
        X = self.feature_matrix(data)
        take = self.trees if n_trees is None else self.trees[:n_trees]
        raw = np.full(len(X), self.base_score)
        for tree in take:
            raw += self.learning_rate * tree.predict_matrix(X)
        return raw

    def predict_proba(self, data, n_trees: int | None = None) -> np.ndarray:
        if self.loss != "logistic":
            raise ValueError("probabilities are only defined for the logistic loss")
        return sigmoid(self.predict(data, n_trees))


def _encode_features(ds: Dataset) -> tuple[Dataset, dict[str, list[str]]]:
    """One-hot every usable categorical feature; drop single-level ones."""
    levels: dict[str, list[str]] = {}
    out = ds
    for c in list(ds.schema):
        if c.kind != CATEGORICAL:
            continue
        if len(ds.labels[c.name]) >= 2:
            levels[c.name] = list(ds.labels[c.name])
            out = one_hot_encode(out, c.name)
        else:
            out = out.select_columns([n for n in out.column_names if n != c.name])
    return out, levels


def _iteration_seed(seed: int, t: int, salt: int = 0):
    return (seed & 0xFFFFFFFF, t, salt)


def _grow_fn(config: BoostConfig):
    if config.grower == "level_wise":
        return growers.grow_level_wise
    if config.grower == "leaf_wise":
        return growers.grow_leaf_wise
    # every oblivious fit of one training run shares one scratch workspace
    return functools.partial(growers.grow_oblivious, workspace=growers.ObliviousWorkspace())


@dataclass(frozen=True, eq=False)
class TrainingFeatures:
    """The feature side of training, derived from a dataset's feature columns,
    max_bins and efb_max_conflicts only: the one-hot expansion, the quantile
    bins, the histogram builder (bundled under EFB) and, built on first
    read, the float matrix X that trees are routed through.

    prepare_features builds it; train and train_classifier accept it so that
    several models fit on the same features share one preparation. It holds
    the source's column arrays and is valid only for datasets that hold the
    same ones (select_columns, retype_target and a replaced target keep them).
    """

    schema: tuple[ColumnSchema, ...]     # the source's non-target columns
    columns: tuple[np.ndarray, ...]      # their arrays, matched by identity
    labels: dict[str, list[str]]         # label tables of categorical features
    max_bins: int
    efb_max_conflicts: int | None
    levels: dict[str, list[str]]         # one-hot label tables for the Ensemble
    binned: BinnedDataset
    hist_fn: object

    @functools.cached_property
    def X(self) -> np.ndarray:
        """Rows x features float matrix in binned.feature_names order, read
        only by score updates over sampled (GOSS) rows; it is read-only, as
        every model trained on these features shares it."""
        X = np.column_stack([self.binned.source.columns[n] for n in self.binned.feature_names])
        X.flags.writeable = False
        return X

    def check(self, ds: Dataset, config: BoostConfig) -> None:
        """Raise unless these features were prepared from ds's feature columns
        with config's max_bins and efb_max_conflicts."""
        if (config.max_bins, config.efb_max_conflicts) != (self.max_bins,
                                                           self.efb_max_conflicts):
            raise ConfigError(
                f"features were prepared with max_bins={self.max_bins}, "
                f"efb_max_conflicts={self.efb_max_conflicts}; the config has "
                f"max_bins={config.max_bins}, "
                f"efb_max_conflicts={config.efb_max_conflicts}")
        schema = tuple(c for c in ds.schema if c.kind != TARGET)
        if schema != self.schema:
            raise DatasetError("features were prepared from other feature columns")
        if any(ds.columns[c.name] is not v for c, v in zip(schema, self.columns)):
            raise DatasetError("features were prepared from other column arrays")
        if any(ds.labels[n] != table for n, table in self.labels.items()):
            raise DatasetError("features were prepared with other label tables")


def prepare_features(ds: Dataset, config: BoostConfig) -> TrainingFeatures:
    """One-hot encode, bin, stack and (under EFB) bundle ds's feature columns.

    Only config.max_bins and config.efb_max_conflicts matter; the target
    column, if any, is ignored.
    """
    config.validate()
    schema = tuple(c for c in ds.schema if c.kind != TARGET)
    feat_ds, levels = _encode_features(ds.select_columns([c.name for c in schema]))
    binned = bin_features(feat_ds, config.max_bins)
    if config.efb_max_conflicts is not None:
        bundles = strategies.efb_bundle(binned, config.efb_max_conflicts)
        hist_fn = strategies.BundledHistograms(binned, bundles)
    else:
        hist_fn = growers.HistogramBuilder(binned)
    return TrainingFeatures(
        schema, tuple(ds.columns[c.name] for c in schema),
        {c.name: ds.labels[c.name] for c in schema if c.kind == CATEGORICAL},
        config.max_bins, config.efb_max_conflicts, levels, binned, hist_fn)


def _finite_target(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if np.isnan(y).any():
        raise DatasetError("target column contains missing values")
    if np.isinf(y).any():
        raise DatasetError("target column contains infinite values")
    return y


def train(ds: Dataset, config: BoostConfig,
          features: TrainingFeatures | None = None) -> Ensemble:
    """Run the additive loop: gradients at current predictions, one new tree
    per iteration through the configured grower and strategies, predictions
    advanced by learning_rate * tree(x).

    features, from prepare_features(ds, config) or a dataset sharing ds's
    feature columns, skips the feature preparation; it changes nothing about
    the model, and features prepared from other columns or with another
    max_bins or efb_max_conflicts raise DatasetError or ConfigError.
    """
    config.validate()
    tname = ds.target_name()
    if tname is None:
        raise DatasetError("dataset has no target column")
    if ds.n_rows < 2:
        raise DatasetError("need at least 2 rows to train")
    if config.ordered_blocks is not None and config.ordered_blocks > ds.n_rows:
        raise ConfigError(f"ordered_blocks={config.ordered_blocks} exceeds the "
                          f"{ds.n_rows} training rows")
    y = _finite_target(ds.columns[tname])
    if features is None:
        features = prepare_features(ds, config)
    else:
        features.check(ds, config)
    binned, hist_fn = features.binned, features.hist_fn

    loss = config.loss
    base = 0.0 if config.zero_base_score else init_base_score(loss, y)

    trees: list = []
    n = ds.n_rows
    grow = _grow_fn(config)
    if config.ordered_blocks is not None:
        trees = _train_ordered(grow, y, binned, config, base, hist_fn)
    else:
        all_idx = np.arange(n)
        preds = np.full(n, base)
        for t in range(config.n_trees):
            g, h = compute_gradients(loss, y, preds)
            idx = all_idx
            if config.goss_a is not None:
                sample = strategies.goss_select(
                    g, config.goss_a, config.goss_b, _iteration_seed(config.seed, t))
                w = sample.weights(n)
                idx = sample.kept
                g = g * w
                h = h * w
            if len(idx) == n:  # a tree grown on every row scores them from its leaf slots
                tree, slots = grow(idx, binned, g, h, config, hist_fn=hist_fn, with_slots=True)
                scores = tree.node_weights()[slots]
            else:
                tree = grow(idx, binned, g, h, config, hist_fn=hist_fn)
                scores = tree.predict_matrix(features.X)
            trees.append(tree)
            preds += config.learning_rate * scores

    levels = {k: list(v) for k, v in features.levels.items()}
    return Ensemble(trees, base, config.learning_rate, loss,
                    list(binned.feature_names), levels, asdict(config))


# a wave of ordered boosting (a chunk's boosters, or its main trees) with
# fewer fits than this and fewer rows fitted than that runs inline: forking a
# pool costs about 20 ms, as much as a few dozen small fits or a few fits on
# tens of thousands of rows
ORDERED_MIN_FORKED_FITS = 32
ORDERED_MIN_FORKED_ROWS = 50_000


def _ordered_inline(fits: int, rows: int) -> bool:
    return fits < ORDERED_MIN_FORKED_FITS and rows < ORDERED_MIN_FORKED_ROWS


def _train_ordered(grow, y, binned, config: BoostConfig, base: float, hist_fn) -> list:
    """Ordered boosting: every instance's gradient for the returned trees comes
    from a prefix model that never trained on its own block. Prefix model
    (p, j) is an ordinary booster on the blocks < j of permutation p
    (gradients at its own predictions), so the prefix predictions converge
    instead of compounding. It never reads the returned trees, so each runs
    on its own, through forkpool, in chunks of at most ordered_blocks rounds:
    a chunk hands back each booster's block-j predictions after every one of
    its rounds. No main tree reads another, so a second wave through
    forkpool grows that chunk's main trees from them before the next chunk
    runs. The refits after the last main tree would never be read, so they
    are skipped.

    The job that reads a piece of booster state builds it: a booster finds
    its rows and block j from the schedule and gathers block j's feature
    rows from the source columns, and a main tree finds each block's rows
    the same way. This process holds the schedule, the block histories of
    one chunk and, only while another chunk follows, each booster's
    predictions on its own rows and on block j."""
    n, n_trees = len(y), config.n_trees
    n_blocks, lr = config.ordered_blocks, config.learning_rate
    schedule = strategies.ordered_schedule(
        n, config.ordered_permutations, n_blocks, _iteration_seed(config.seed, 0, salt=1))
    grad_fn = functools.partial(compute_gradients, config.loss)
    columns = [binned.source.columns[name] for name in binned.feature_names]
    # booster (p, j) trains on the blocks < j of permutation p; block j holds
    # the only other rows that read it (through ordered_gradients)
    boosters = [(p, j) for p in range(len(schedule.block_of)) for j in range(1, n_blocks)]
    # each booster's predictions on its own rows and on block j, carried from
    # one chunk to the next; the first chunk starts every booster at base
    carried = None

    def run_booster(i: int, rounds: int, hand_back: bool):
        """Booster i's block predictions, (rounds + 1, |block j|): row 0 the
        carried ones, then one row after each of its next rounds; and its
        predictions on its own rows after them when hand_back is set (another
        chunk reads them), else an empty array."""
        p, j = boosters[i]
        rows, block = schedule.prefix_indices(p, j), np.flatnonzero(schedule.block_of[p] == j)
        X_block = np.column_stack([column[block] for column in columns])
        history = np.empty((rounds + 1, len(block)))
        if carried is None:
            preds = np.full(len(rows), base)
            history[0] = base
        else:
            preds, history[0] = carried[i]
        y_rows = y[rows]
        g, h = np.zeros(n), np.zeros(n)
        for r in range(1, rounds + 1):
            g[rows], h[rows] = grad_fn(y_rows, preds)
            tree, slots = grow(rows, binned, g, h, config, hist_fn=hist_fn, with_slots=True)
            # its own rows score from their leaf slots; only block j is routed
            preds += lr * tree.node_weights()[slots]
            history[r] = history[r - 1] + lr * tree.predict_matrix(X_block)
        return history, preds if hand_back else np.empty(0)

    all_idx = np.arange(n)

    def grow_main_tree(t: int, results: list, k: int):
        """Main tree t of a chunk of k, from its boosters' results: each row's
        prefix prediction, per permutation, is the base score on block 0 and
        booster (p, j)'s after round t of the chunk on block j."""
        row_preds = [np.full(n, base) for _ in schedule.permutations]
        for (p, j), (history, _) in zip(boosters, results):
            # the chunk's rounds are the last k rows
            row_preds[p][schedule.block_of[p] == j] = history[t - k]
        g, h, _ = strategies.ordered_gradients(
            schedule, grad_fn, y, [np.broadcast_to(v, (n_blocks, n)) for v in row_preds])
        return grow(all_idx, binned, g, h, config, hist_fn=hist_fn)

    # the rows each booster fits, from the block sizes every permutation
    # shares: the jobs run larger prefixes first
    prefix = np.cumsum(np.bincount(schedule.block_of[0], minlength=n_blocks)).tolist()
    sizes = [prefix[j - 1] for _, j in boosters]
    trees = []
    for start in range(0, n_trees, n_blocks):
        k = min(n_blocks, n_trees - start)  # main trees in this chunk
        rounds = k - 1 if start == 0 else k  # from round max(start - 1, 0) to start + k - 1
        more = start + k < n_trees  # another chunk reads what the boosters carry
        results = forkpool.run_jobs(
            functools.partial(run_booster, rounds=rounds, hand_back=more), sizes,
            inline=_ordered_inline(rounds * len(boosters), rounds * sum(sizes)))
        if more:
            carried = [(preds, history[-1].copy()) for history, preds in results]
        trees += forkpool.run_jobs(
            functools.partial(grow_main_tree, results=results, k=k), [n] * k,
            inline=_ordered_inline(k, k * n))
        del results  # no older history is held while the next chunk runs
    return trees


@dataclass
class Classifier:
    """Binary or one-vs-rest classification on top of logistic ensembles.

    Two distinct target values are mapped onto {0, 1} (ascending) and trained
    as a single ensemble; k > 2 values get one ensemble per class.
    """

    classes: list[float]
    ensembles: list[Ensemble]

    def predict_proba(self, data) -> np.ndarray:
        """(n, k) class probabilities (one-vs-rest scores normalized for k > 2)."""
        if len(self.ensembles) == 1:
            p1 = self.ensembles[0].predict_proba(data)
            return np.column_stack([1.0 - p1, p1])
        scores = np.column_stack([e.predict_proba(data) for e in self.ensembles])
        return scores / scores.sum(axis=1, keepdims=True)

    def predict_class(self, data) -> np.ndarray:
        proba = self.predict_proba(data)
        return np.asarray(self.classes, dtype=np.float64)[np.argmax(proba, axis=1)]


def train_classifier(ds: Dataset, config: BoostConfig,
                     features: TrainingFeatures | None = None) -> Classifier:
    """Train on an arbitrary-valued (finite) target by mapping to {0,1} or
    one-vs-rest. Every ensemble trains on the same prepared features (see
    train for the features argument)."""
    tname = ds.target_name()
    if tname is None:
        raise DatasetError("dataset has no target column")
    config = replace(config, loss="logistic")
    y = ds.columns[tname]
    values = sorted(float(v) for v in np.unique(_finite_target(y)))
    if len(values) < 2:
        raise DatasetError("classification target has fewer than 2 distinct values")
    if features is None:
        features = prepare_features(ds, config)

    def with_target(binary: np.ndarray) -> Dataset:
        cols = dict(ds.columns)
        cols[tname] = binary.astype(np.float64)
        return Dataset(list(ds.schema), cols, dict(ds.labels))

    if len(values) == 2:
        ens = train(with_target(y == values[1]), config, features)
        return Classifier(values, [ens])
    return Classifier(values, [train(with_target(y == v), config, features)
                               for v in values])


# --- canonical model JSON ---------------------------------------------------

MODEL_FORMAT = "boostlab.model"
CLASSIFIER_FORMAT = "boostlab.classifier"
MODEL_VERSION = 1


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ModelFormatError(f"non-finite value {x!r} in model")
    return format(float(x), ".17g")


def _emit(obj) -> str:
    """Canonical JSON: insertion-ordered keys, floats at 17 significant digits."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(k)}:{_emit(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ModelFormatError(f"cannot serialize {type(obj).__name__}")


def _tree_doc(tree) -> dict:
    nodes = [{"leaf": weight} if left < 0 else
             {"feature": feature, "threshold": threshold, "default_left": default_left,
              "left": left, "right": right, "gain": gain}
             for feature, threshold, default_left, left, right, weight, gain
             in zip(*(getattr(tree, name).tolist() for name in tree.FIELDS))]
    doc = {"nodes": nodes}
    if tree.level_splits is not None:
        doc["level_splits"] = [[f, float(t), d] for f, t, d in tree.level_splits]
    return doc


def ensemble_doc(ens: Ensemble) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "loss": ens.loss,
        "base_score": float(ens.base_score),
        "learning_rate": float(ens.learning_rate),
        "feature_names": list(ens.feature_names),
        "categorical_levels": {k: list(v) for k, v in ens.categorical_levels.items()},
        "config": ens.config,
        "trees": [_tree_doc(t) for t in ens.trees],
    }


def to_json(model) -> str:
    if isinstance(model, Classifier):
        doc = {
            "format": CLASSIFIER_FORMAT,
            "version": MODEL_VERSION,
            "classes": [float(c) for c in model.classes],
            "ensembles": [ensemble_doc(e) for e in model.ensembles],
        }
    else:
        doc = ensemble_doc(model)
    return _emit(doc) + "\n"


_KIND_NAMES = {list: "array", dict: "object", str: "string", bool: "boolean",
               int: "integer"}


def _field(doc: dict, key: str, kind, where: str):
    """doc[key], which must be present and of the given JSON kind."""
    if key not in doc:
        raise ModelFormatError(f"{where}: missing {key!r}")
    value = doc[key]
    if kind is float:
        return _finite(value, f"{where}: {key!r}")
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ModelFormatError(f"{where}: {key!r} must be a JSON {_KIND_NAMES[kind]}, "
                               f"got {value!r}")
    return value


def _finite(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{where} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ModelFormatError(f"{where} must be finite, got {value!r}")
    return x


def _strings(values, where: str) -> list[str]:
    if not all(isinstance(v, str) for v in values):
        raise ModelFormatError(f"{where} must hold strings only")
    return list(values)


def _below(value: int, bound: int, where: str) -> int:
    if not 0 <= value < bound:
        raise ModelFormatError(f"{where} {value} is out of range [0, {bound})")
    return value


def _tree_from_doc(doc, n_features: int, where: str) -> growers.DecisionTree:
    """One tree, checked at load: field types, finite numbers, feature and
    child indices in range, every node reached exactly once from the root,
    and level_splits (oblivious trees) matching the heap-indexed nodes."""
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{where} must be a JSON object")
    node_docs = _field(doc, "nodes", list, where)
    n = len(node_docs)
    if n == 0:
        raise ModelFormatError(f"{where}: 'nodes' is empty")
    nodes = []  # one (feature, threshold, default_left, left, right, weight, gain) per node
    for i, nd in enumerate(node_docs):
        at = f"{where} node {i}"
        if not isinstance(nd, dict):
            raise ModelFormatError(f"{at} must be a JSON object")
        if "leaf" in nd:
            nodes.append(growers.DecisionTree.LEAF + (_field(nd, "leaf", float, at), 0.0))
            continue
        nodes.append((
            _below(_field(nd, "feature", int, at), n_features, f"{at}: 'feature'"),
            _field(nd, "threshold", float, at),
            _field(nd, "default_left", bool, at),
            _below(_field(nd, "left", int, at), n, f"{at}: 'left'"),
            _below(_field(nd, "right", int, at), n, f"{at}: 'right'"),
            0.0,
            _field(nd, "gain", float, at) if "gain" in nd else 0.0))
    tree = growers.DecisionTree.from_arrays(*zip(*nodes))
    _check_reachable(tree.left, tree.right, where)
    if "level_splits" in doc:
        tree.level_splits = _level_splits(tree, _field(doc, "level_splits", list, where),
                                          where)
    return tree


def _check_reachable(left, right, where: str) -> None:
    """Raise unless every node is reached exactly once from the root: a
    breadth-first pass finds the reachable nodes, and an in-degree count
    over their children (plus one for the root) the nodes reached twice."""
    reached = np.zeros(len(left), dtype=bool)
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        reached[frontier] = True
        frontier = frontier[left[frontier] >= 0]
        children = np.unique(np.concatenate((left[frontier], right[frontier])))
        frontier = children[~reached[children]]
    inner = reached & (left >= 0)
    indegree = np.bincount(np.concatenate(([0], left[inner], right[inner])),
                           minlength=len(left))
    if indegree.max() > 1:
        raise ModelFormatError(f"{where}: node {int(np.argmax(indegree > 1))} is reached "
                               f"twice (a cycle or a shared child)")
    if not reached.all():
        raise ModelFormatError(f"{where}: node {int(np.argmin(reached))} is not "
                               f"reachable from the root")


def _level_splits(tree, splits: list, where: str) -> list[tuple[int, float, bool]]:
    """An oblivious tree's per-level splits, checked against its (already
    validated) nodes: they must form the heap-indexed full tree of their
    level's first nodes' splits (growers._oblivious_tree), and splits[l] must
    be level l's [feature, threshold, default_left]. Names the lowest failing
    node."""
    depth = len(splits)
    n = len(tree.left)
    if n != 2 ** (depth + 1) - 1:
        raise ModelFormatError(f"{where}: {n} nodes do not form the full "
                               f"tree of depth {depth} its level_splits describe")
    heads = 2 ** np.arange(depth) - 1
    head_splits = list(zip(tree.feature[heads].tolist(), tree.threshold[heads].tolist(),
                           tree.default_left[heads].tolist()))
    want = growers._oblivious_tree(head_splits, [tree.gain[:n // 2]], tree.weight[n // 2:])
    level = np.repeat(np.arange(depth + 1), 2 ** np.arange(depth + 1))
    stated = np.array([split == list(head) for split, head in zip(splits, head_splits)] + [True])
    bad = ~stated[level] | np.any([getattr(tree, f) != getattr(want, f) for f in tree.FIELDS],
                                  axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        if level[i] == depth:
            raise ModelFormatError(f"{where} node {i}: expected a leaf at depth {depth}")
        raise ModelFormatError(f"{where} node {i}: does not match level split {level[i]}")
    return head_splits


def _ensemble_from_doc(doc, where: str = "model") -> Ensemble:
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{where} must be a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"not a model document (format={doc.get('format')!r})")
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {doc.get('version')!r}")
    loss = _field(doc, "loss", str, where)
    if loss not in LOSSES:
        raise ModelFormatError(f"{where}: unknown loss {loss!r}")
    names = _strings(_field(doc, "feature_names", list, where), f"{where}: 'feature_names'")
    levels = _field(doc, "categorical_levels", dict, where) \
        if "categorical_levels" in doc else {}
    return Ensemble(
        trees=[_tree_from_doc(t, len(names), f"{where} tree {i}")
               for i, t in enumerate(_field(doc, "trees", list, where))],
        base_score=_field(doc, "base_score", float, where),
        learning_rate=_field(doc, "learning_rate", float, where),
        loss=loss,
        feature_names=names,
        categorical_levels={
            k: _strings(_field(levels, k, list, f"{where}: 'categorical_levels'"),
                        f"{where}: 'categorical_levels' {k!r}")
            for k in levels},
        config=_finite_config(_field(doc, "config", dict, where) if "config" in doc else {},
                              where),
    )


def _finite_config(config: dict, where: str) -> dict:
    """The document's config object; a non-finite number in it (NaN,
    Infinity or an overflowing literal), which to_json could not write
    back, raises."""
    for key, value in config.items():
        try:
            _emit(value)
        except ModelFormatError:
            raise ModelFormatError(f"{where}: 'config' {key!r} must be finite, "
                                   f"got {value!r}") from None
    return config


def from_json(text: str):
    """Parse a model document; raises ModelFormatError with diagnostics on
    corruption, version mismatch or a malformed field (naming the tree,
    node and field)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    if doc.get("format") == CLASSIFIER_FORMAT:
        if doc.get("version") != MODEL_VERSION:
            raise ModelFormatError(f"unsupported model version {doc.get('version')!r}")
        classes = [_finite(c, "classifier: class")
                   for c in _field(doc, "classes", list, "classifier")]
        docs = _field(doc, "ensembles", list, "classifier")
        if len(classes) < 2 or len(docs) != (1 if len(classes) == 2 else len(classes)):
            raise ModelFormatError(f"classifier: {len(docs)} ensembles do not fit "
                                   f"{len(classes)} classes")
        return Classifier(classes, [_ensemble_from_doc(e, f"ensemble {i}")
                                    for i, e in enumerate(docs)])
    return _ensemble_from_doc(doc)


def save_model(model, path) -> None:
    text = to_json(model)  # a model that cannot be written leaves the path untouched
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())
