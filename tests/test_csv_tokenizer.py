"""The two CSV tokenizers in dataset.py: the byte tokenizer for quote-free
files and the csv.reader path for every other file give the same datasets
and the same errors; files the byte tokenizer must not take fall back."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostlab import dataset
from boostlab.cli import main
from boostlab.dataset import (CATEGORICAL, NUMERIC, ColumnSchema, DatasetError, load_csv,
                              load_known_columns)

# cells of every length class the byte coder keys differently: empty,
# space-only, 1 byte, 2-8 bytes, 9-16 bytes (two words), over 16 bytes, and
# multi-byte UTF-8 across the 8-byte word boundary
CELLS = ["", " ", "  ", "x", "é", "ab", "日本", "NA", "?", "1", "2", "-0", "0.0", "1e3",
         " 7", "nan", "inf", "-inf", "12345678", "123456789", "abcdefghijklmnop",
         "abcdefghijklmnopq", "1234567.89012345", "ééééé", "éééééééééé", "x y z",
         "\t", "1_000", "3.14159265358979"]
NAMES = ["a", "b", "c", "é", "日本", "long-column-name", " "]
MARKERS = [None, "NA", "", "?", "nan"]


def _read(load):
    try:
        return load(), None
    except DatasetError as exc:
        return None, str(exc)


def _assert_same(fast, slow):
    (got, got_err), (want, want_err) = fast, slow
    assert got_err == want_err
    if want is None:
        return
    assert got.schema == want.schema
    assert got.labels == want.labels
    for name in want.column_names:
        assert got.columns[name].dtype == want.columns[name].dtype, name
        assert got.columns[name].tobytes() == want.columns[name].tobytes(), name


def _both_paths(load):
    fast = _read(load)
    with mock.patch.object(dataset, "_tokenize", lambda data: None):
        slow = _read(load)
    return fast, slow


NUMBERS = ["1", "2", "-0", "0.0", "1e3", " 7", "nan", "inf", "123456789",
           "1234567.89012345", "3.14159265358979", "1_000"]
TEXT = st.text(st.characters(blacklist_characters=',"\r\n\0', blacklist_categories=("Cs",)),
               max_size=20)


@st.composite
def csv_files(draw):
    """(file bytes, schema, projected read?, should the byte tokenizer take it?)"""
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(NAMES), min_size=width, max_size=width,
                           unique=draw(st.integers(0, 5)) > 0))
    schema, cells = [], []
    for name in header:
        kind = draw(st.sampled_from([NUMERIC, CATEGORICAL]))
        marker = draw(st.sampled_from(MARKERS))
        schema.append(ColumnSchema(name, kind, marker))
        pool = NUMBERS if kind == NUMERIC else CELLS
        usual = st.sampled_from(pool + [marker] * (marker is not None))
        other = st.one_of(st.sampled_from(CELLS), TEXT)  # mostly unparseable as numbers
        cells.append(st.integers(0, 29).flatmap(lambda k, usual=usual, other=other:
                                                other if k == 0 else usual))
    schema = list({c.name: c for c in schema}.values())
    n_rows = draw(st.integers(0, 12))
    rows = draw(st.lists(st.tuples(*cells).map(list), min_size=n_rows, max_size=n_rows))
    kept = [True] * len(rows)  # rows left as drawn
    if rows and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(rows) - 1))
        how = draw(st.sampled_from(["short", "long", "blank"]))
        rows[i] = {"short": rows[i][:-1], "long": rows[i] + ["x"], "blank": []}[how]
        kept[i] = False
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    final_newline = draw(st.booleans())
    lines = [",".join(header)] + [",".join(row) for row in rows]
    text = newline.join(lines) + (newline if final_newline else "")
    if rows and lines[-1] == "" and not final_newline:
        kept.pop()  # an empty last line without a newline is no line at all
    # one empty cell on a line of its own is a blank line, a row of no cells
    blank = width == 1 and "" in lines[1:len(kept) + 1]
    tokenizable = all(kept) and not blank and len(set(header)) == width
    return text.encode("utf-8"), schema, draw(st.booleans()), tokenizable


def one_column_file(cells):
    return "".join(f"{c}\n" for c in ["c"] + cells).encode(), \
        [ColumnSchema("c", CATEGORICAL)], False, True


# more distinct cells than a drawn file holds, which the byte coder numbers
# in _first_seen: 20 distinct 9-16-byte cells in the first 64 rows (two-word
# keys, no peeling), and 3 in the first 64 rows with 20 more after them
# (peeling gives up after 16 keys)
TWO_WORD_KEYS = one_column_file([f"label-{i * 7 % 20:05d}" for i in range(70)])
PEEL_GIVES_UP = one_column_file([f"v{i % 3}" for i in range(64)]
                                + [f"w{i}" for i in range(20)] * 2)


class TestTokenizersAgree:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(case=csv_files())
    @example(case=TWO_WORD_KEYS)
    @example(case=PEEL_GIVES_UP)
    def test_fast_path_equals_csv_reader_path(self, tmp_path_factory, case):
        data, schema, projected, tokenizable = case
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(data)
        assert (dataset._tokenize(data) is not None) == tokenizable
        if projected:
            load = lambda: load_known_columns(path, schema[:1], schema[1:])[0]  # noqa: E731
        else:
            load = lambda: load_csv(path, schema)  # noqa: E731
        _assert_same(*_both_paths(load))


class TestFallback:
    """Files the byte tokenizer leaves to csv.reader."""

    @pytest.mark.parametrize("data, labels", [
        (b'a,b\n1,"x,y"\n2,z\n', ["x,y", "z"]),      # a quoted cell
        (b"a,b\r1,x\r2,z\r", ["x", "z"]),            # bare '\r' line ends
        (b"a,b\n1,x\0y\n2,z\n", ["x\0y", "z"]),      # a NUL byte
    ], ids=["quoted", "bare-cr", "nul"])
    def test_read_by_csv_reader(self, tmp_path, data, labels):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        assert dataset._tokenize(data) is None
        ds = load_csv(path, [ColumnSchema("a"), ColumnSchema("b", CATEGORICAL)])
        np.testing.assert_array_equal(ds.columns["a"], [1.0, 2.0])
        assert ds.labels["b"] == labels

    def test_cr_inside_a_cell_ends_the_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1,x\ry\n")
        assert dataset._tokenize(path.read_bytes()) is None
        with pytest.raises(DatasetError, match="row 2 has 1 cells, expected 2"):
            load_csv(path, [ColumnSchema("a"), ColumnSchema("b", CATEGORICAL)])


class TestParseCellsOnlyForLongCells:
    """A quote-free file codes its columns from bytes; only a column with a
    cell over 16 bytes goes through parse_cells."""

    def test_calls(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,x,short\n2,y,a cell of more than sixteen bytes\n",
                        encoding="utf-8")
        schema = [ColumnSchema("a"), ColumnSchema("b", CATEGORICAL),
                  ColumnSchema("c", CATEGORICAL)]
        with mock.patch.object(dataset, "parse_cells", wraps=dataset.parse_cells) as spy:
            ds = load_csv(path, schema)
        assert [call.args[1].name for call in spy.call_args_list] == ["c"]
        assert ds.labels == {"b": ["x", "y"], "c": ["short", "a cell of more than sixteen bytes"]}


class TestNotUtf8:
    DATA = b"x,y\n1,\xff\xfe\n2,3\n"
    SCHEMA = [ColumnSchema("x"), ColumnSchema("y", "target")]

    @pytest.mark.parametrize("load", [
        lambda p, s: load_csv(p, s),
        lambda p, s: load_known_columns(p, s),
    ], ids=["load_csv", "load_known_columns"])
    def test_dataset_error_names_file_and_offset(self, tmp_path, load):
        path = tmp_path / "bad.csv"
        path.write_bytes(self.DATA)
        with pytest.raises(DatasetError, match=r"bad\.csv: not valid UTF-8 at byte 6"):
            load(path, self.SCHEMA)

    def test_train_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(self.DATA)
        schema = tmp_path / "s.json"
        schema.write_text('[{"name": "x"}, {"name": "y", "kind": "target"}]')
        code = main(["train", "--input", str(path), "--schema", str(schema),
                     "--output", str(tmp_path / "m.json")])
        assert code == 2
        assert "not valid UTF-8 at byte 6" in capsys.readouterr().err
