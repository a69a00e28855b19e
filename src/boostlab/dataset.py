"""Columnar datasets: CSV ingestion, preprocessing transforms, and feature binning.

Numeric columns are float64 with NaN as the missing sentinel; categorical
columns are int32 codes into a per-column label table, with -1 marking a
missing value. Datasets are treated as immutable after construction: every
transform returns a new Dataset.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"
TARGET = "target"

_KINDS = (NUMERIC, CATEGORICAL, TARGET)

MISSING_CODE = -1  # categorical missing sentinel


class DatasetError(ValueError):
    """Raised for schema violations, parse failures, and bad transform arguments."""


@dataclass(frozen=True)
class ColumnSchema:
    """Declared name/kind of one column, plus an optional token treated as missing."""

    name: str
    kind: str = NUMERIC
    missing_marker: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DatasetError(f"unknown column kind {self.kind!r} for {self.name!r}")


def parse_schema(entries) -> list[ColumnSchema]:
    """ColumnSchema list from a JSON list of {"name", "kind", "missing_marker"}
    objects; a malformed document raises DatasetError naming the entry."""
    if not isinstance(entries, list):
        raise DatasetError(f"schema must be a list of column entries, "
                           f"got {type(entries).__name__}: {entries!r}")
    out = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise DatasetError(f"schema entry {i} is not an object: {e!r}")
        if not isinstance(e.get("name"), str):
            raise DatasetError(f"schema entry {i} needs a string \"name\": {e!r}")
        out.append(ColumnSchema(e["name"], e.get("kind", NUMERIC), e.get("missing_marker")))
    return out


@dataclass
class Dataset:
    """A fixed-width columnar table.

    columns maps name -> float64 array (numeric/target) or int32 code array
    (categorical); labels maps categorical names -> list of label strings in
    interned (first-seen) order.
    """

    schema: list[ColumnSchema]
    columns: dict[str, np.ndarray]
    labels: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        names = [c.name for c in self.schema]
        if len(set(names)) != len(names):
            raise DatasetError("duplicate column names in schema")
        if sum(1 for c in self.schema if c.kind == TARGET) > 1:
            raise DatasetError("more than one target column")
        lengths = {len(self.columns[n]) for n in names}
        if len(lengths) > 1:
            raise DatasetError(f"ragged columns: lengths {sorted(lengths)}")
        for c in self.schema:
            if c.kind == CATEGORICAL and c.name not in self.labels:
                raise DatasetError(f"categorical column {c.name!r} has no label table")

    @property
    def n_rows(self) -> int:
        if not self.schema:
            return 0
        return len(self.columns[self.schema[0].name])

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.schema]

    def schema_for(self, name: str) -> ColumnSchema:
        for c in self.schema:
            if c.name == name:
                return c
        raise DatasetError(f"unknown column {name!r}")

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DatasetError(f"unknown column {name!r}")
        return self.columns[name]

    def target_name(self) -> str | None:
        for c in self.schema:
            if c.kind == TARGET:
                return c.name
        return None

    def feature_names(self, kinds=(NUMERIC, CATEGORICAL)) -> list[str]:
        return [c.name for c in self.schema if c.kind in kinds]

    def numeric_feature_names(self) -> list[str]:
        return [c.name for c in self.schema if c.kind == NUMERIC]

    def take_rows(self, idx: np.ndarray) -> "Dataset":
        cols = {n: v[idx] for n, v in self.columns.items()}
        return Dataset(list(self.schema), cols, dict(self.labels))

    def select_columns(self, names: list[str]) -> "Dataset":
        schema = [self.schema_for(n) for n in names]
        cols = {n: self.columns[n] for n in names}
        labels = {n: self.labels[n] for n in names if n in self.labels}
        return Dataset(schema, cols, labels)

    def is_missing(self, name: str) -> np.ndarray:
        """Boolean mask of missing cells in a column."""
        c = self.schema_for(name)
        v = self.columns[name]
        if c.kind == CATEGORICAL:
            return v == MISSING_CODE
        return np.isnan(v)

    def summary(self) -> dict:
        """JSON-ready description: shape, per-column kind, missing counts, labels."""
        cols = []
        for c in self.schema:
            entry = {
                "name": c.name,
                "kind": c.kind,
                "missing_marker": c.missing_marker,
                "n_missing": int(self.is_missing(c.name).sum()),
            }
            if c.kind == CATEGORICAL:
                entry["labels"] = list(self.labels[c.name])
            cols.append(entry)
        return {"n_rows": self.n_rows, "n_columns": len(self.schema), "columns": cols}


# One canonical CSV dialect keeps fixtures byte-stable: comma separated,
# first row is the header, quoted fields use doubled-quote escaping.
class _Dialect(csv.Dialect):
    delimiter = ","
    quotechar = '"'
    doublequote = True
    skipinitialspace = False
    lineterminator = "\n"
    quoting = csv.QUOTE_MINIMAL


def _read_rows(path, text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV text, under the one row rule: the header
    names each column once and every data row has one cell per column."""
    reader = csv.reader(io.StringIO(text, newline=""), dialect=_Dialect)
    try:
        header = next(reader)
        rows = list(reader)
    except StopIteration:
        raise DatasetError(f"{path}: empty file, no header") from None
    except csv.Error as exc:
        raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(set(header)) != len(header):
        repeated = sorted({name for name in header if header.count(name) > 1})
        raise DatasetError(f"{path}: header repeats column(s) {repeated}")
    width = len(header)
    for row_i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DatasetError(f"{path}: row {row_i} has {len(row)} cells, expected {width}")
    return header, rows


class _RowTable:
    """A file read by csv.reader: any file the byte tokenizer does not take."""

    def __init__(self, path, text: str):
        self.header, self.rows = _read_rows(path, text)

    def column(self, i: int, c: ColumnSchema, where: str):
        return parse_cells([row[i] for row in self.rows], c, where)


# _MASKS[k] keeps the first k bytes of a little-endian 8-byte word
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_SHORT = 16  # longest cell, in bytes, coded from packed words
_FEW = 16    # most distinct keys peeled off one comparison at a time


class _ByteTable:
    """A quote-free file as byte spans: ends[i, r] is the offset of the ','
    or '\n' that ends cell i of line r, line 0 being the header, and a cell
    starts one byte after the cell before it."""

    def __init__(self, raw: bytes, ends: np.ndarray, crlf: bool):
        self.raw = raw  # the file, a final newline if it had none, _SHORT zero bytes
        self.line_starts = ends[-1, :-1] + 1  # of the data lines
        if crlf:  # a line's last cell stops before its '\r'
            ends[-1] -= np.frombuffer(raw, dtype=np.uint8)[ends[-1] - 1] == 13
        self.ends = ends
        head_ends = ends[:, 0]
        self.head_starts = np.concatenate(([0], head_ends[:-1] + 1))
        self.header = [raw[a:b].decode("utf-8")
                       for a, b in zip(self.head_starts.tolist(), head_ends.tolist())]

    def column(self, i: int, c: ColumnSchema, where: str):
        starts = self.ends[i - 1, 1:] + 1 if i else self.line_starts
        ends = self.ends[i, 1:]
        lengths = ends - starts
        if len(lengths) and int(lengths.max()) > _SHORT:
            cells = [self.raw[a:b].decode("utf-8") for a, b in zip(starts.tolist(),
                                                                   ends.tolist())]
            return parse_cells(cells, c, where)
        return _typed_column(*_code_spans(self.raw, starts, lengths), c, where)


def _tokenize(data: bytes) -> _ByteTable | None:
    """The byte tokenizer: the cells of a file that holds no '"', no NUL and
    no '\r' outside '\r\n', that names each column once, keeps the row
    rule and has no cell longer than csv.field_size_limit() bytes. Returns
    None for any other file, which csv.reader then reads (and for an
    over-long cell rejects)."""
    if not data or b'"' in data or b"\0" in data:
        return None
    raw = data + (b"" if data.endswith(b"\n") else b"\n") + bytes(_SHORT)
    buf = np.frombuffer(raw, dtype=np.uint8)[:len(raw) - _SHORT]
    width = raw.count(b",", 0, raw.index(b"\n")) + 1
    newline = buf == 10
    seps = np.flatnonzero(newline | (buf == 44))
    line_ends = seps[width - 1::width]
    # every width-th separator ends a line, and no other separator does
    if len(seps) % width or np.count_nonzero(newline) != len(line_ends) \
            or not np.all(buf[line_ends] == 10):
        return None  # a short, long or (for width > 1) blank line
    if int(np.diff(seps, prepend=-1).max()) - 1 > csv.field_size_limit():
        return None
    crlf = b"\r" in data
    if crlf and np.count_nonzero(buf == 13) != np.count_nonzero(buf[line_ends - 1] == 13):
        return None  # a '\r' that does not end a line
    table = _ByteTable(raw, np.ascontiguousarray(seps.reshape(-1, width).T), crlf)
    if width == 1 and (table.head_starts[0] == table.ends[0, 0]
                       or np.any(table.line_starts == table.ends[0, 1:])):
        return None  # a blank line: a row of no cells, not of one empty cell
    if len(set(table.header)) != width:
        return None
    return table


def _code_spans(raw: bytes, starts: np.ndarray,
                lengths: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Code cells of at most 16 bytes by their distinct byte strings: int32
    codes into the decoded labels, both in first-seen order.

    A cell is keyed by its bytes packed into a little-endian word, and by a
    second word for its bytes 9-16; a file holds no NUL, so zero padding
    keeps keys distinct."""
    n = len(starts)
    if n == 0:
        return np.empty(0, dtype=np.int32), []
    word = np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))
    keys = [word[starts] & _MASKS[np.minimum(lengths, 8)]]
    if int(lengths.max()) > 8:
        keys.append(word[starts + 8] & _MASKS[np.clip(lengths - 8, 0, 8)])
    codes, rows = _peel(keys, n) or _first_seen(keys, n)
    words = np.column_stack([k[rows] for k in keys]).astype("<u8")
    labels = words.view(f"S{8 * len(keys)}").ravel().tolist()
    return codes, list(map(bytes.decode, labels))


def _peel(keys: list[np.ndarray], n: int):
    """First-seen codes and first rows of a column with at most _FEW distinct
    keys, one comparison pass per key; None for any other column."""
    if len(set(zip(*(k[:4 * _FEW].tolist() for k in keys)))) > _FEW:
        return None
    codes = np.zeros(n, dtype=np.int32)  # a row's code counts the peels it outlived
    unseen = np.ones(n, dtype=bool)
    rows = []
    row = 0
    for _ in range(_FEW):
        same = keys[0] == keys[0][row]
        for k in keys[1:]:
            same &= k == k[row]
        np.greater(unseen, same, out=unseen)
        rows.append(row)
        row = int(np.argmax(unseen))
        if not unseen[row]:
            return codes, np.array(rows)
        codes += unseen
    return None


def _first_seen(keys: list[np.ndarray], n: int):
    """int32 codes of n keys (one or two words per cell) numbered in
    first-seen order, and the row where each code first appears."""
    if len(keys) == 1:
        key = keys[0]
    else:  # the pair of words, through each word's distinct values
        _, head = np.unique(keys[0], return_inverse=True)
        tail_keys, tail = np.unique(keys[1], return_inverse=True)
        key = head * len(tail_keys) + tail
    distinct, inverse = np.unique(key, return_inverse=True)
    first = np.full(len(distinct), n)
    np.minimum.at(first, inverse, np.arange(n))
    order = np.argsort(first)
    rank = np.empty(len(distinct), dtype=np.int32)
    rank[order] = np.arange(len(distinct), dtype=np.int32)
    return rank[inverse], first[order]


def _read_table(path) -> _ByteTable | _RowTable:
    """The file at path, through the byte tokenizer when it takes the file
    and through csv.reader otherwise. Either way the result is the same."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise DatasetError(f"no such file: {path}") from None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    table = _tokenize(data)
    return table if table is not None else _RowTable(path, data.decode("utf-8"))


def _parse_columns(path, table, schema: list[ColumnSchema]) -> Dataset:
    """Dataset of the schema's columns, parsed one column at a time."""
    pos = {name: i for i, name in enumerate(table.header)}
    columns: dict[str, np.ndarray] = {}
    labels: dict[str, list[str]] = {}
    for c in schema:
        parsed = table.column(pos[c.name], c, str(path))
        if c.kind == CATEGORICAL:
            columns[c.name], labels[c.name] = parsed
        else:
            columns[c.name] = parsed
    return Dataset(list(schema), columns, labels)


def load_csv(path, schema: list[ColumnSchema]) -> Dataset:
    """Read a CSV file into a typed Dataset.

    The header must contain exactly the schema's column names (any order).
    Numeric cells equal to the column's missing_marker become NaN; anything
    else that fails to parse raises with the offending row and column.
    """
    names = {c.name for c in schema}
    if len(names) != len(schema):
        raise DatasetError("duplicate column names in schema")
    table = _read_table(path)
    if set(table.header) != names:
        missing = sorted(names - set(table.header))
        extra = sorted(set(table.header) - names)
        raise DatasetError(
            f"{path}: header mismatch (missing {missing}, unexpected {extra})"
        )
    return _parse_columns(path, table, schema)


def load_known_columns(path, schema: list[ColumnSchema],
                       optional: list[ColumnSchema] = ()) -> tuple[Dataset, int]:
    """Projected CSV read: keep schema + optional columns, ignore the rest.

    Returns the Dataset plus the raw column count of the file (for shape
    checks). Required columns that are absent raise.
    """
    table = _read_table(path)
    header = table.header
    missing = [c.name for c in schema if c.name not in header]
    if missing:
        raise DatasetError(f"{path}: missing required columns {missing}")
    use = list(schema) + [c for c in optional if c.name in header]
    return _parse_columns(path, table, use), len(header)


def parse_cells(cells: list[str], c: ColumnSchema, where: str = "<data>"):
    """Parse raw string cells per the column's kind and missing_marker.

    Returns a float64 array for numeric/target columns, or a (codes, labels)
    pair for categorical ones.
    """
    seen: dict[str, int] = {}
    codes = np.fromiter((seen.setdefault(cell, len(seen)) for cell in cells),
                        dtype=np.int32, count=len(cells))
    return _typed_column(codes, list(seen), c, where)


def _typed_column(codes: np.ndarray, labels: list[str], c: ColumnSchema, where: str):
    """A column coded by distinct cell (int32 codes into labels, both in
    first-seen order) as parse_cells returns it. Each label is converted once:
    float() of one string always gives the same bits."""
    marker = c.missing_marker
    at = labels.index(marker) if marker in labels else None
    if c.kind == CATEGORICAL:
        if at is None:
            return codes, labels
        remap = np.arange(-1, len(labels) - 1, dtype=np.int32)
        remap[:at] += 1
        remap[at] = MISSING_CODE
        return remap[codes], labels[:at] + labels[at + 1:]
    values = np.empty(len(labels), dtype=np.float64)
    for k, label in enumerate(labels):
        if k == at:
            values[k] = np.nan
            continue
        try:
            values[k] = float(label)
        except ValueError:
            row = int(np.argmax(codes == k)) + 1  # the label's first row
            raise DatasetError(
                f"{where}: row {row}, column {c.name!r}: cannot parse {label!r} as a number"
            ) from None
    return values[codes]


def write_table(path, header: list[str], rows) -> None:
    """Write a header row, then each row, in the canonical dialect."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, dialect=_Dialect)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(ds: Dataset, path) -> None:
    """Write in the canonical dialect so load_csv(write_csv(ds)) round-trips exactly.

    A column with missing values needs a missing_marker to spell them, and
    no present value may be spelled like the column's missing_marker.
    """
    cells_by_col = []
    for c in ds.schema:
        has_missing = bool(ds.is_missing(c.name).any())
        if c.missing_marker is None and has_missing:
            raise DatasetError(f"column {c.name!r} has missing values but no missing_marker")
        v = ds.columns[c.name]
        if c.kind == CATEGORICAL:
            table = ds.labels[c.name]
            cells = [table[i] if i != MISSING_CODE else None for i in v]
        else:
            cells = [None if math.isnan(x) else repr(float(x)) for x in v]
        if c.missing_marker is not None and c.missing_marker in cells:
            raise DatasetError(f"column {c.name!r} holds the value {c.missing_marker!r}, "
                               f"which is its missing_marker and would read back as missing")
        if has_missing:
            cells = [c.missing_marker if x is None else x for x in cells]
        cells_by_col.append(cells)
    write_table(path, ds.column_names, zip(*cells_by_col))


def add_ratio_column(ds: Dataset, new_name: str, num: str, den: str, scale: float = 1.0) -> Dataset:
    """Append new_name = scale * num / den as a numeric column."""
    if new_name in ds.columns:
        raise DatasetError(f"column {new_name!r} already exists")
    for col in (num, den):
        if ds.schema_for(col).kind == CATEGORICAL:
            raise DatasetError(f"column {col!r} is categorical, ratio needs numeric inputs")
    d = ds.columns[den]
    zeros = np.flatnonzero(d == 0.0)
    if zeros.size:
        raise DatasetError(f"zero denominator in {den!r} at row {int(zeros[0])}")
    ratio = scale * ds.columns[num] / d
    schema = list(ds.schema) + [ColumnSchema(new_name, NUMERIC)]
    cols = dict(ds.columns)
    cols[new_name] = ratio
    return Dataset(schema, cols, dict(ds.labels))


def filter_rows(ds: Dataset, column: str, excluded) -> Dataset:
    """Keep rows whose value in `column` is not in `excluded` (order preserved).

    For categorical columns the excluded values are label strings and are also
    removed from the column's label table (remaining codes are recompacted);
    for numeric/target columns they are numbers.
    """
    c = ds.schema_for(column)
    v = ds.columns[column]
    if c.kind == CATEGORICAL:
        table = ds.labels[column]
        excl_set = set(excluded)
        bad_codes = {i for i, lbl in enumerate(table) if lbl in excl_set}
        keep = ~np.isin(v, list(bad_codes)) if bad_codes else np.ones(len(v), dtype=bool)
        out = ds.take_rows(np.flatnonzero(keep))
        if bad_codes:
            remap = np.full(len(table), MISSING_CODE, dtype=np.int32)
            new_table = []
            for code, lbl in enumerate(table):
                if code not in bad_codes:
                    remap[code] = len(new_table)
                    new_table.append(lbl)
            codes = out.columns[column]
            new_codes = np.where(codes == MISSING_CODE, MISSING_CODE, remap[codes])
            cols = dict(out.columns)
            cols[column] = new_codes.astype(np.int32)
            labels = dict(out.labels)
            labels[column] = new_table
            out = Dataset(list(out.schema), cols, labels)
        return out
    excl = []
    for x in excluded:
        try:
            excl.append(float(x))
        except (TypeError, ValueError):
            raise DatasetError(f"'excluded' value {x!r} is not a number, and column "
                               f"{column!r} is numeric") from None
    keep = ~np.isin(v, excl) if excl else np.ones(len(v), dtype=bool)
    return ds.take_rows(np.flatnonzero(keep))


def drop_missing(ds: Dataset, columns: list[str] = ()) -> Dataset:
    """Drop the listed columns, then drop every row still containing a missing value."""
    for name in columns:
        ds.schema_for(name)  # unknown column -> error
    keep_cols = [c.name for c in ds.schema if c.name not in set(columns)]
    out = ds.select_columns(keep_cols)
    if not keep_cols:
        return out
    bad = np.zeros(out.n_rows, dtype=bool)
    for name in keep_cols:
        bad |= out.is_missing(name)
    return out.take_rows(np.flatnonzero(~bad))


def one_hot_encode(ds: Dataset, column: str) -> Dataset:
    """Replace a categorical column with k 0/1 indicator columns named column=label.

    A missing value yields all-zero indicators; otherwise exactly one
    indicator is 1 per row.
    """
    c = ds.schema_for(column)
    if c.kind != CATEGORICAL:
        raise DatasetError(f"column {column!r} is not categorical")
    table = ds.labels[column]
    if len(table) < 2:
        raise DatasetError(f"column {column!r} has {len(table)} level(s); one-hot needs >= 2")
    codes = ds.columns[column]
    schema: list[ColumnSchema] = []
    cols = dict(ds.columns)
    del cols[column]
    labels = {n: t for n, t in ds.labels.items() if n != column}
    for sc in ds.schema:
        if sc.name != column:
            schema.append(sc)
            continue
        for code, lbl in enumerate(table):
            name = f"{column}={lbl}"
            if name in ds.columns:
                raise DatasetError(f"one-hot name collision on {name!r}")
            schema.append(ColumnSchema(name, NUMERIC))
            cols[name] = (codes == code).astype(np.float64)
    return Dataset(schema, cols, labels)


def one_hot_source(name: str, levels) -> tuple[str, str] | None:
    """(column, label) when name is one_hot_encode's "<column>=<label>" for
    a column in levels (a model's categorical_levels), else None."""
    column, _, label = name.partition("=")
    return (column, label) if label and column in levels else None


@dataclass
class RecipeSpec:
    """Declarative preprocessing: a recipe's checked preprocess steps
    (add_ratio_column, filter_rows, drop_missing objects), run in the order
    given, and an optional shape check applied after all of them."""

    name: str
    steps: list[dict] = field(default_factory=list)
    expected_shape: tuple[int | None, int | None] | None = None


def apply_recipe(ds: Dataset, spec: RecipeSpec) -> tuple[Dataset, list[str]]:
    """Run a RecipeSpec's steps in order; returns the result plus any
    shape-check warnings. Derived columns whose inputs are absent are skipped
    with a warning rather than failing, since upstream files get revised. A
    drop_missing step drops its columns, then every row that still has a
    missing value."""
    warnings: list[str] = []
    out = ds
    for i, step in enumerate(spec.steps):
        # a checked step's keys are its function's arguments
        args = {key: value for key, value in step.items() if key != "op"}
        if step["op"] == "filter_rows":
            try:
                out = filter_rows(out, **args)
            except DatasetError as exc:  # e.g. a word excluded from a numeric column
                raise DatasetError(f"{spec.name}: preprocess step {i} (filter_rows): "
                                   f"{exc}") from None
        elif step["op"] == "drop_missing":
            out = drop_missing(out, **args)
        elif step["num"] in out.columns and step["den"] in out.columns:  # add_ratio_column
            out = add_ratio_column(out, **args)
        else:
            warnings.append(
                f"{spec.name}: skipped derived column {step['new_name']!r} "
                f"(needs {step['num']!r} and {step['den']!r})")
    if spec.expected_shape is not None:
        want_rows, want_cols = spec.expected_shape
        got = (out.n_rows, len(out.schema))
        if (want_rows is not None and got[0] != want_rows) or \
           (want_cols is not None and got[1] != want_cols):
            warnings.append(
                f"{spec.name}: shape after preprocessing is {got[0]}x{got[1]}, "
                f"expected {want_rows}x{want_cols}")
    return out, warnings


def retype_target(ds: Dataset, column: str) -> Dataset:
    """Mark `column` as the target (any previous target reverts to numeric).

    A categorical column is converted to numeric values: its labels when they
    all parse as numbers, otherwise its integer codes (missing becomes NaN).
    """
    c = ds.schema_for(column)
    cols = dict(ds.columns)
    labels = dict(ds.labels)
    schema = []
    for sc in ds.schema:
        if sc.name == column:
            schema.append(ColumnSchema(sc.name, TARGET, sc.missing_marker))
        elif sc.kind == TARGET:
            schema.append(ColumnSchema(sc.name, NUMERIC, sc.missing_marker))
        else:
            schema.append(sc)
    if c.kind == CATEGORICAL:
        table = ds.labels[column]
        try:
            values = np.array([float(lbl) for lbl in table])
        except ValueError:
            values = np.arange(len(table), dtype=np.float64)
        codes = ds.columns[column]
        out = np.full(len(codes), np.nan)
        present = codes != MISSING_CODE
        out[present] = values[codes[present]]
        cols[column] = out
        del labels[column]
    return Dataset(schema, cols, labels)


def train_test_split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then cut at round(train_fraction * n) (ties round up)."""
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = ds.n_rows
    if n < 2:
        raise DatasetError("need at least 2 rows to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(math.floor(train_fraction * n + 0.5))
    return ds.take_rows(perm[:n_train]), ds.take_rows(perm[n_train:])


@dataclass
class BinnedDataset:
    """Per-feature quantile bins over the numeric features of a Dataset.

    boundaries[f] holds each bin's inclusive upper edge (last edge is the
    feature's maximum), so value v lands in the first bin with v <= edge.
    Missing values map to the reserved extra bin n_bins(f).

    Derived at construction: bin_counts (n_bins per feature), hist_width (the
    widest feature's bins plus its missing bin), threshold_mask, which is
    True at (feature, bin) when the bin's upper edge is a valid split
    threshold, i.e. bin < n_bins(f) - 1, and missing_features, the ascending
    indices of the features with at least one row in their missing bin. Every
    other feature's missing bin holds exactly 0.0 in any histogram over any
    subset of the rows, so split scans try the missing-right routing only on
    missing_features.
    """

    source: Dataset
    feature_names: list[str]
    bins: dict[str, np.ndarray]          # uint8/uint16 bin indices per feature
    boundaries: dict[str, np.ndarray]    # float64 upper edges per feature
    max_bins: int
    bin_counts: np.ndarray = field(init=False, repr=False, compare=False)
    hist_width: int = field(init=False, repr=False, compare=False)
    threshold_mask: np.ndarray = field(init=False, repr=False, compare=False)
    missing_features: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.bin_counts = np.array([self.n_bins(n) for n in self.feature_names],
                                   dtype=np.int64)
        self.hist_width = int(self.bin_counts.max()) + 1
        self.threshold_mask = (np.arange(self.hist_width - 1)[None, :]
                               < (self.bin_counts - 1)[:, None])
        self.missing_features = np.flatnonzero(
            [(self.bins[n] == nb).any() for n, nb in zip(self.feature_names, self.bin_counts)])

    def n_bins(self, name: str) -> int:
        return len(self.boundaries[name])

    def missing_bin(self, name: str) -> int:
        return self.n_bins(name)

    @property
    def n_rows(self) -> int:
        return self.source.n_rows


def _bin_column(values: np.ndarray, max_bins: int, name: str):
    """One feature's (codes, edges). edges are the upper bin edges: midpoints
    between distinct values, thinned to at most max_bins equal-mass bins when
    there are too many. A value's code is its bin, the first with
    value <= edge; NaN takes the missing bin len(edges).

    With every distinct value in its own bin, the distinct values find their
    bins by a binary search over the edges, and each row takes its value's
    bin from a table indexed by value - min where the values are integers
    spanning fewer steps than the column has rows (indicator and level
    codes), else by its own binary search. Otherwise the non-NaN values are
    sorted once (by argsort): the quantile cuts are read off the sorted
    values, and each bin's rows are a run of them.
    """
    present = ~np.isnan(values)
    finite = values[present]
    if finite.size == 0:
        return np.ones(len(values), dtype=np.uint8), np.array([np.inf])
    u = np.unique(finite)  # its pick between -0.0 and 0.0 sets the last edge
    if np.isinf(u[0]) or np.isinf(u[-1]):
        raise DatasetError(f"feature column {name!r} contains infinite values")
    if len(u) <= max_bins:
        edges = np.append(_midpoints(u[:-1], u[1:]), u[-1])
        dtype = _code_dtype(len(edges))
        # u[-1] - u[0] may overflow where u[0] + len(values) cannot
        if u[-1] >= u[0] + len(values) or not np.array_equal(u, np.floor(u)):
            # NaN sorts after every edge, into the missing bin
            return np.searchsorted(edges, values, side="left").astype(dtype), edges
        # value - u[0] is an integer below len(values), so exact in float64
        table = np.zeros(int(u[-1] - u[0]) + 1, dtype=dtype)
        table[(u - u[0]).astype(np.intp)] = np.searchsorted(edges, u, side="left")
        codes = np.full(len(values), len(edges), dtype=dtype)
        codes[present] = table[(finite - u[0]).astype(np.intp)]
        return codes, edges
    order = np.argsort(finite)
    s = finite[order]
    n = len(s)
    pos = np.arange(1, max_bins, dtype=np.int64) * n // max_bins
    pos = pos[(pos > 0) & (pos < n)]
    left, right = s[pos - 1], s[pos]
    # a quantile that fell inside a run of equal values cuts after the run,
    # and is dropped when the run holds the maximum
    nxt = np.searchsorted(u, left, side="right")
    tie = left == right
    keep = ~tie | (nxt < len(u))
    upper = np.where(tie, u[np.minimum(nxt, len(u) - 1)], right)
    edges = np.append(np.unique(_midpoints(left, upper)[keep]), u[-1])
    dtype = _code_dtype(len(edges))
    codes = np.full(len(values), len(edges), dtype=dtype)
    per_bin = np.diff(np.searchsorted(s, edges, side="right"), prepend=0)
    codes[np.flatnonzero(present)[order]] = np.repeat(np.arange(len(edges), dtype=dtype), per_bin)
    return codes, edges


def _midpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a + b) / 2, or a / 2 + b / 2 where the sum overflows (finite ones keep their bits)."""
    with np.errstate(over="ignore"):
        mid = (a + b) / 2.0
    return np.where(np.isinf(mid), a / 2.0 + b / 2.0, mid)


def _code_dtype(n_bins: int):
    return np.uint8 if n_bins + 1 <= 256 else np.uint16  # the missing bin takes one code


MAX_BINS = 65535  # bin codes are uint16, and the missing bin takes one code


def bin_features(ds: Dataset, max_bins: int) -> BinnedDataset:
    """Quantile-bin every numeric feature column (target and categoricals excluded).

    NaN is a missing value. An infinite value raises: a split beside it would
    take an infinite threshold, which no model document can hold.
    """
    if max_bins < 2:
        raise DatasetError(f"max_bins must be >= 2, got {max_bins}")
    if max_bins > MAX_BINS:
        raise DatasetError(f"max_bins must be <= {MAX_BINS} (bin codes are uint16), "
                           f"got {max_bins}")
    names = ds.numeric_feature_names()
    if not names:
        raise DatasetError("dataset has no numeric feature columns to bin")
    bins: dict[str, np.ndarray] = {}
    bounds: dict[str, np.ndarray] = {}
    for name in names:
        bins[name], bounds[name] = _bin_column(ds.columns[name], max_bins, name)
    return BinnedDataset(ds, names, bins, bounds, max_bins)
