"""Statistical toolkit: chi-squared independence tests, one-/two-way ANOVA,
Pearson correlation with R-squared, grouped summaries (box-plot numbers), and
tree-ensemble feature importance.

Every operation here is a pure function over immutable inputs. Rows with a
missing value in any column an analysis touches are excluded from that
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, Dataset, MISSING_CODE, one_hot_source
from .special import chi2_tail, f_tail


class StatsError(ValueError):
    pass


@dataclass
class ContingencyTable:
    row_labels: list[str]
    col_labels: list[str]
    counts: np.ndarray  # (r, c) nonnegative integers

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def to_dict(self) -> dict:
        return {"row_labels": self.row_labels, "col_labels": self.col_labels,
                "counts": self.counts.tolist()}


def contingency_table(ds: Dataset, a: str, b: str) -> ContingencyTable:
    """Cross-tabulate two categorical columns (labels in interned order)."""
    for name in (a, b):
        if ds.schema_for(name).kind != CATEGORICAL:
            raise StatsError(f"column {name!r} is not categorical")
    if ds.n_rows == 0:
        raise StatsError("empty dataset")
    ca = ds.columns[a]
    cb = ds.columns[b]
    keep = (ca != MISSING_CODE) & (cb != MISSING_CODE)
    ca, cb = ca[keep], cb[keep]
    if len(ca) == 0:
        raise StatsError("no complete rows for the contingency table")
    r = len(ds.labels[a])
    c = len(ds.labels[b])
    counts = np.zeros((r, c), dtype=np.int64)
    np.add.at(counts, (ca, cb), 1)
    return ContingencyTable(list(ds.labels[a]), list(ds.labels[b]), counts)


@dataclass
class ChiSquaredResult:
    statistic: float
    dof: int
    p_value: float
    expected: np.ndarray

    def to_dict(self) -> dict:
        return {"statistic": self.statistic, "dof": self.dof,
                "p_value": self.p_value, "expected": self.expected.tolist()}


def chi_squared_test(table: ContingencyTable) -> ChiSquaredResult:
    """Pearson chi-squared test of independence, no continuity correction."""
    counts = table.counts
    r, c = counts.shape
    if r < 2 or c < 2:
        raise StatsError(f"table is {r}x{c}; the test needs at least 2x2 (dof would be 0)")
    row_t = table.row_totals.astype(np.float64)
    col_t = table.col_totals.astype(np.float64)
    if (row_t == 0).any() or (col_t == 0).any():
        raise StatsError("a row or column total is zero")
    grand = float(counts.sum())
    expected = np.outer(row_t, col_t) / grand
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = (r - 1) * (c - 1)
    return ChiSquaredResult(stat, dof, chi2_tail(stat, dof), expected)


@dataclass
class AnovaRow:
    name: str
    sum_sq: float
    dof: int
    mean_sq: float
    f_stat: float | None
    p_value: float | None


@dataclass
class AnovaTable:
    terms: list[AnovaRow]
    residual: AnovaRow

    def to_rows(self) -> list[dict]:
        out = []
        for row in self.terms + [self.residual]:
            out.append({"term": row.name, "sum_sq": row.sum_sq, "dof": row.dof,
                        "mean_sq": row.mean_sq, "F": row.f_stat, "p_value": row.p_value})
        return out


def _complete_rows(ds: Dataset, columns: list[str]) -> np.ndarray:
    bad = np.zeros(ds.n_rows, dtype=bool)
    for name in columns:
        bad |= ds.is_missing(name)
    return np.flatnonzero(~bad)


def _check_anova_columns(ds: Dataset, response: str, factors: tuple[str, ...]) -> None:
    if ds.schema_for(response).kind == CATEGORICAL:
        raise StatsError(f"response {response!r} must be numeric")
    for f in factors:
        if ds.schema_for(f).kind != CATEGORICAL:
            raise StatsError(f"factor {f!r} is not categorical")


def one_way_anova(ds: Dataset, response: str, factor: str) -> AnovaTable:
    """Between/within decomposition with the upper F tail as Pr>F."""
    _check_anova_columns(ds, response, (factor,))
    rows = _complete_rows(ds, [response, factor])
    y = ds.columns[response][rows].astype(np.float64)
    codes = ds.columns[factor][rows]
    groups = [y[codes == k] for k in range(len(ds.labels[factor]))]
    groups = [gv for gv in groups if len(gv)]
    k = len(groups)
    n = len(y)
    if k < 2:
        raise StatsError("one-way ANOVA needs at least 2 nonempty groups")
    if n <= k:
        raise StatsError("zero residual degrees of freedom")
    grand = y.mean()
    ss_between = float(sum(len(gv) * (gv.mean() - grand) ** 2 for gv in groups))
    ss_within = float(sum(((gv - gv.mean()) ** 2).sum() for gv in groups))
    df_b = k - 1
    df_w = n - k
    ms_b = ss_between / df_b
    ms_w = ss_within / df_w
    if ms_w == 0.0:
        raise StatsError("zero within-group variance; F is undefined")
    f_stat = ms_b / ms_w
    p = f_tail(f_stat, df_b, df_w)
    term = AnovaRow(factor, ss_between, df_b, ms_b, f_stat, p)
    resid = AnovaRow("Residual", ss_within, df_w, ms_w, None, None)
    return AnovaTable([term], resid)


def _dummies(codes: np.ndarray, k: int) -> np.ndarray:
    """Treatment coding: k-1 indicator columns, first level as reference."""
    return np.column_stack([(codes == level).astype(np.float64) for level in range(1, k)])


def _sse(X: np.ndarray, y: np.ndarray) -> float:
    """Least squares via normal equations with a Cholesky (SPD) factorization."""
    xtx = X.T @ X
    try:
        L = np.linalg.cholesky(xtx)
    except np.linalg.LinAlgError:
        raise StatsError("singular design: a factor level is perfectly confounded") from None
    beta = np.linalg.solve(L.T, np.linalg.solve(L, X.T @ y))
    resid = y - X @ beta
    return float(resid @ resid)


def two_way_anova(ds: Dataset, response: str, factor_a: str, factor_b: str) -> AnovaTable:
    """Additive (no-interaction) two-factor model with Type II sums of squares:
    each factor's SS is the SSE increase from dropping it out of the full
    additive fit."""
    _check_anova_columns(ds, response, (factor_a, factor_b))
    rows = _complete_rows(ds, [response, factor_a, factor_b])
    y = ds.columns[response][rows].astype(np.float64)
    n = len(y)
    ca = ds.columns[factor_a][rows]
    cb = ds.columns[factor_b][rows]
    ka = len(np.unique(ca))
    kb = len(np.unique(cb))
    if ka < 2 or kb < 2:
        raise StatsError("both factors need at least 2 observed levels")
    # recode observed levels densely so dummies skip absent labels
    ca = np.searchsorted(np.unique(ca), ca)
    cb = np.searchsorted(np.unique(cb), cb)
    df_resid = n - 1 - (ka - 1) - (kb - 1)
    if df_resid < 1:
        raise StatsError("additive model has no residual degrees of freedom")
    ones = np.ones((n, 1))
    da = _dummies(ca, ka)
    db = _dummies(cb, kb)
    sse_full = _sse(np.hstack([ones, da, db]), y)
    sse_wo_a = _sse(np.hstack([ones, db]), y)
    sse_wo_b = _sse(np.hstack([ones, da]), y)
    ms_resid = sse_full / df_resid
    terms = []
    for name, sse_wo, df in ((factor_a, sse_wo_a, ka - 1), (factor_b, sse_wo_b, kb - 1)):
        ss = max(sse_wo - sse_full, 0.0)
        ms = ss / df
        if ms_resid == 0.0:
            raise StatsError("zero residual variance; F is undefined")
        f_stat = ms / ms_resid
        terms.append(AnovaRow(name, ss, df, ms, f_stat, f_tail(f_stat, df, df_resid)))
    resid = AnovaRow("Residual", sse_full, df_resid, ms_resid, None, None)
    return AnovaTable(terms, resid)


@dataclass
class CorrelationMatrix:
    labels: list[str]
    matrix: np.ndarray  # symmetric, unit diagonal; NaN marks undefined entries

    @property
    def r_squared(self) -> np.ndarray:
        return self.matrix ** 2

    def to_dict(self) -> dict:
        return {"labels": self.labels, "r": self.matrix.tolist(),
                "r_squared": self.r_squared.tolist()}


def pearson_correlation_matrix(ds: Dataset, columns: list[str]) -> CorrelationMatrix:
    """Pairwise Pearson r over complete rows; constant columns give NaN entries."""
    if len(columns) < 2:
        raise StatsError("need at least 2 columns")
    for name in columns:
        if ds.schema_for(name).kind == CATEGORICAL:
            raise StatsError(f"column {name!r} is categorical")
    rows = _complete_rows(ds, columns)
    if len(rows) < 2:
        raise StatsError("need at least 2 complete rows")
    X = np.column_stack([ds.columns[name][rows] for name in columns]).astype(np.float64)
    X = X - X.mean(axis=0)
    sd = np.sqrt((X ** 2).sum(axis=0))
    k = len(columns)
    r = np.full((k, k), np.nan)
    for i in range(k):
        if sd[i] == 0.0:
            continue
        r[i, i] = 1.0
        for j in range(i + 1, k):
            if sd[j] == 0.0:
                continue
            val = float(X[:, i] @ X[:, j] / (sd[i] * sd[j]))
            val = min(1.0, max(-1.0, val))
            r[i, j] = r[j, i] = val
    return CorrelationMatrix(list(columns), r)


@dataclass
class GroupSummary:
    group: tuple[str, ...]
    count: int
    mean: float
    median: float
    q1: float
    q3: float
    minimum: float
    maximum: float

    def to_dict(self) -> dict:
        return {"group": list(self.group), "count": self.count, "mean": self.mean,
                "median": self.median, "q1": self.q1, "q3": self.q3,
                "min": self.minimum, "max": self.maximum}


def _median(v: np.ndarray) -> float:
    n = len(v)
    mid = n // 2
    if n % 2:
        return float(v[mid])
    return float((v[mid - 1] + v[mid]) / 2.0)


def _quartiles(sorted_v: np.ndarray) -> tuple[float, float, float]:
    """Median-of-halves with the median excluded from both halves (odd n)."""
    n = len(sorted_v)
    med = _median(sorted_v)
    if n == 1:
        return med, med, med
    lower = sorted_v[: n // 2]
    upper = sorted_v[(n + 1) // 2:]
    return _median(lower), med, _median(upper)


def group_summary(ds: Dataset, value: str, by: list[str]) -> list[GroupSummary]:
    """Count/mean/quartile numbers behind a grouped box plot."""
    if ds.schema_for(value).kind == CATEGORICAL:
        raise StatsError(f"value column {value!r} must be numeric")
    if not by:
        raise StatsError("need at least one grouping column")
    for name in by:
        if ds.schema_for(name).kind != CATEGORICAL:
            raise StatsError(f"grouping column {name!r} is not categorical")
    rows = _complete_rows(ds, [value] + list(by))
    if len(rows) == 0:
        raise StatsError("no complete rows to summarize")
    v = ds.columns[value][rows].astype(np.float64)
    codes = np.column_stack([ds.columns[name][rows] for name in by])
    _, first, group = np.unique(codes, axis=0, return_index=True, return_inverse=True)
    group = group.ravel()
    # each group's values in row order: np.sort places ties (0.0, -0.0) by input order
    members = np.split(v[np.argsort(group, kind="stable")], np.cumsum(np.bincount(group))[:-1])
    out = []
    for k in np.argsort(first):  # groups in first-appearance order
        gv = np.sort(members[k])
        key = tuple(ds.labels[name][c] for name, c in zip(by, codes[first[k]]))
        q1, med, q3 = _quartiles(gv)
        out.append(GroupSummary(key, len(gv), float(gv.mean()), med, q1, q3,
                                float(gv[0]), float(gv[-1])))
    return out


@dataclass
class FeatureImportanceReport:
    feature_names: list[str]
    gain: np.ndarray          # raw summed split gains per feature
    split_count: np.ndarray   # raw split counts per feature
    metric: str = "gain"
    normalized: bool = False

    def values(self) -> np.ndarray:
        """The chosen metric, as fractions of the total when normalized."""
        raw = self.gain if self.metric == "gain" else self.split_count.astype(np.float64)
        return _fractions(raw, raw.sum()) if self.normalized else raw

    def ranking(self) -> list[tuple[str, float]]:
        """(name, value) pairs by descending value, ties by name."""
        return _ranked(zip(self.feature_names, self.values().tolist()))


def _ranked(pairs) -> list[tuple[str, float]]:
    """The order of every importance ranking: descending value, ties by name."""
    return sorted(pairs, key=lambda kv: (-kv[1], kv[0]))


def _fractions(values: np.ndarray, total: float) -> np.ndarray:
    if total <= 0:
        raise StatsError("cannot normalize: total importance is zero")
    return values / total


def feature_importance(ens, metric: str = "gain", normalized: bool = False) -> FeatureImportanceReport:
    """Sum recorded split gains (and split counts) per feature over all trees."""
    if metric not in ("gain", "split_count"):
        raise StatsError(f"unknown importance metric {metric!r}")
    names = ens.feature_names
    gain = np.zeros(len(names))
    count = np.zeros(len(names), dtype=np.int64)
    for tree in ens.trees:
        for feature, g in tree.split_records():
            gain[feature] += g
            count[feature] += 1
    report = FeatureImportanceReport(list(names), gain, count, metric, normalized)
    if normalized:
        report.values()  # zero totals are rejected eagerly
    return report


def ranked_importance(ensembles, metric: str = "gain", fold: bool = False,
                      normalized: bool = False) -> tuple[dict, list]:
    """One metric summed over ensembles, ensemble by ensemble and then
    feature by feature (fold adds one-hot children onto their source column),
    as fractions of its total when normalized; and its (name, value) pairs
    by descending value, ties by name."""
    merged: dict[str, float] = {}
    for ens in ensembles:
        report = feature_importance(ens, metric)
        for name, value in zip(report.feature_names, report.values()):
            hot = one_hot_source(name, ens.categorical_levels) if fold else None
            key = name if hot is None else hot[0]
            merged[key] = merged.get(key, 0.0) + float(value)
    if normalized:
        values = _fractions(np.array(list(merged.values())), sum(merged.values()))
        merged = dict(zip(merged, values.tolist()))
    return merged, _ranked(merged.items())
