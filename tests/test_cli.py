"""Command-line interface: ingestion, reports, exit codes, simulate artifacts."""

import csv
import hashlib
import json
import math
import os
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from harmeans import __version__, cli
from harmeans import simlab
from harmeans.cli import (
    EXIT_DEGENERATE,
    EXIT_INPUT,
    EXIT_OK,
    main,
    read_grouped,
    read_series,
)
from harmeans.errors import IngestError
from harmeans.lrv import TimeSeriesSample, select_k, series_lrv
from harmeans.simlab import PRESET_NAMES, Scenario, simulate_series
from harmeans.ttests import har_welch_t


GOLDEN = Path(__file__).parent / "golden"


def assert_matches_golden(got, want, where="report"):
    """Same keys, ints, bools and strings; floats equal to 1e-10 relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def wfh_shape_files(tmp_path):
    """Synthetic two-file fixture with the 37/85 unequal-spread shape."""
    rng = np.random.default_rng(99)
    y1 = simulate_series(37, 0.0, 0.06, -5.14, "normal", rng).values
    y2 = simulate_series(85, 0.0, 0.18, -5.17, "normal", rng).values
    f1 = write(tmp_path / "g1.csv", "value\n" + "\n".join(f"{v:.10f}" for v in y1))
    f2 = write(tmp_path / "g2.csv", "value\n" + "\n".join(f"{v:.10f}" for v in y2))
    return f1, f2


class TestReadSeries:
    def test_headerless_single_column(self, tmp_path):
        path = write(tmp_path / "a.csv", "1.5\n2.5\n3.5\n4.5\n")
        values = read_series(path)
        assert values.tolist() == [1.5, 2.5, 3.5, 4.5]

    def test_header_and_named_column(self, tmp_path):
        path = write(tmp_path / "a.csv", "date,y\n1,10.0\n2,11.0\n3,12.0\n4,13.0\n")
        assert read_series(path, "y").tolist() == [10.0, 11.0, 12.0, 13.0]

    def test_index_column(self, tmp_path):
        path = write(tmp_path / "a.csv", "1,10.0\n2,11.0\n3,12.0\n")
        assert read_series(path, "1").tolist() == [10.0, 11.0, 12.0]

    def test_tab_and_semicolon_delimiters(self, tmp_path):
        tab = write(tmp_path / "t.tsv", "a\tb\n1\t5.0\n2\t6.0\n")
        assert read_series(tab, "b").tolist() == [5.0, 6.0]
        semi = write(tmp_path / "s.csv", "a;b\n1;7.0\n2;8.0\n")
        assert read_series(semi, "b").tolist() == [7.0, 8.0]

    def test_header_only_file_error(self, tmp_path):
        path = write(tmp_path / "empty.csv", "value\n")
        with pytest.raises(IngestError, match="empty.csv"):
            read_series(path)

    def test_nonnumeric_cell_reports_row(self, tmp_path):
        path = write(tmp_path / "bad.csv", "y\n1.0\noops\n3.0\n")
        with pytest.raises(IngestError, match="row 3"):
            read_series(path)

    def test_missing_cell_reports_row(self, tmp_path):
        path = write(tmp_path / "bad.csv", "a,b\n1.0,2.0\n1.5\n")
        with pytest.raises(IngestError, match="row 3"):
            read_series(path, "b")

    def test_unknown_column(self, tmp_path):
        path = write(tmp_path / "a.csv", "y\n1.0\n2.0\n")
        with pytest.raises(IngestError, match="no column named"):
            read_series(path, "z")

    def test_byte_order_mark_keeps_first_observation(self, tmp_path):
        path = write(tmp_path / "bom.csv", "\ufeff1.5\n2.5\n3.5\n4.5\n")
        assert read_series(path).tolist() == [1.5, 2.5, 3.5, 4.5]

    def test_rows_are_file_line_numbers(self, tmp_path):
        path = write(tmp_path / "gaps.csv", "value\n1\n\n2\nabc\n")
        with pytest.raises(IngestError) as exc:
            read_series(path)
        assert str(exc.value) == f"{path}: row 5: non-numeric value 'abc'"

    def test_row_after_a_quoted_cell_across_lines(self, tmp_path):
        # the quoted cell keeps its line break, so it is not read as 23.0
        path = write(tmp_path / "quoted.csv", 't,y\n1,"2\n3"\n4,5\n6,abc\n')
        with pytest.raises(IngestError) as exc:
            read_series(path, "y")
        assert str(exc.value) == f"{path}: row 2: non-numeric value '2\\n3'"

    def test_row_after_a_quoted_note_across_lines(self, tmp_path):
        # a multi-line cell in an unused column shifts the rows' line numbers
        path = write(tmp_path / "note.csv", 't,y,note\n1,2.5,"a\nb"\n3,abc,c\n')
        with pytest.raises(IngestError) as exc:
            read_series(path, "y")
        assert str(exc.value) == f"{path}: row 4: non-numeric value 'abc'"
        path = write(tmp_path / "fine.csv", 't,y,note\n1,2.5,"a\nb"\n3,4.5,c\n')
        assert read_series(path, "y").tolist() == [2.5, 4.5]

    def test_first_fault_in_file_order(self, tmp_path):
        # the rows are read as a stream, so a byte that is not UTF-8 past the
        # bad value is not reached
        path = tmp_path / "late.csv"
        path.write_bytes(b"y\n1.0\nabc\n" + b"2.0\n" * 30_000 + b"caf\xe9\n")
        with pytest.raises(IngestError) as exc:
            read_series(str(path))
        assert str(exc.value) == f"{path}: row 3: non-numeric value 'abc'"

    def test_missing_value_names_its_column(self, tmp_path):
        path = write(tmp_path / "wide.csv", "a,b,c\n1,2,3\n4,5,\n")
        with pytest.raises(IngestError) as exc:
            read_series(path, "c")
        assert str(exc.value) == f"{path}: row 3: missing value in column 2"
        # a column found by name is not checked against the width of the data rows
        path = write(tmp_path / "narrow.csv", "a,b,c\n1,2\n4,5\n")
        with pytest.raises(IngestError) as exc:
            read_series(path, "c")
        assert str(exc.value) == f"{path}: row 2: missing value in column 2"

    @pytest.mark.parametrize(
        ("text", "column", "message"),
        [
            ("t,y\n" + "1,1.5\n" * 50, "valu", "no column named 'valu' in header ['t', 'y']"),
            ("1.5\n" * 50, "y", "column name 'y' given but the file has no header"),
            ("\ny\n\n", None, "contains a header but no data rows"),
            # an index is checked against the width of the whole file
            ("a,b\n" + "1,2\n" * 25 + "1,2,3\n", "5", "column index 5 out of range (width 3)"),
            # np.loadtxt would read column -1 as the last one
            ("a,b\n" + "1,2\n" * 25, "-1", "column index -1 out of range (width 2)"),
        ],
        ids=["unknown-name", "name-without-header", "header-only", "index", "negative-index"],
    )
    def test_layout_fault_read_once(self, tmp_path, monkeypatch, text, column, message):
        # one stream of the file's lines gives the sniff, the header and the rows
        counts = []
        lines = cli._lines

        def counting(path, *count):
            counts.append(count)
            return lines(path, *count)

        monkeypatch.setattr(cli, "_lines", counting)
        path = write(tmp_path / "a.csv", text)
        with pytest.raises(IngestError) as exc:
            read_series(path, column)
        assert str(exc.value) == f"{path}: {message}"
        assert counts == [()]

    @pytest.mark.parametrize("forced", [False, True], ids=["c-read", "python-read"])
    def test_field_limit_holds_for_the_header_and_first_data_row(
        self, tmp_path, request, forced
    ):
        # a cell longer than the csv module's limit (131 072) in an unused column
        # is read past the first data row, as np.loadtxt reads it, and named there
        def note_on(line):
            return "t,y,note\n" + "".join(
                f"{i},{i}.5,{'n' * 200_000 if i == line - 1 else 'n'}\n" for i in range(1, 31)
            )

        if forced:
            request.getfixturevalue("python_read")
        path = write(tmp_path / "late.csv", note_on(5))
        assert read_series(path, "y").tolist() == [i + 0.5 for i in range(1, 31)]
        path = write(tmp_path / "first.csv", note_on(2))
        with pytest.raises(IngestError) as exc:
            read_series(path, "y")
        assert str(exc.value) == f"{path}: row 2: field larger than field limit (131072)"
        assert csv.field_size_limit() == 131_072


class TestSniff:
    @pytest.fixture()
    def sniffs(self, monkeypatch):
        calls = []
        original = csv.Sniffer.sniff

        def counting(self, sample, delimiters=None):
            calls.append(sample)
            return original(self, sample, delimiters)

        monkeypatch.setattr(csv.Sniffer, "sniff", counting)
        return calls

    @pytest.mark.parametrize(
        "text",
        [
            "1.5\n2.5\n3.5\n",
            "value\n1.5\n\n2.5\n",
            '"value"\n"1.5"\n2.5\n',
            "1.5 7\n2.5 8\n",
            "value\n" + "".join(f"{i}.25\n" for i in range(40)) + "x,y\n",
        ],
    )
    def test_sample_without_a_delimiter_is_split_on_whitespace(
        self, tmp_path, monkeypatch, sniffs, text
    ):
        # the sniff could only fail on such a sample, and then the rows
        # were the whitespace split; they still are, without the sniff
        lines = [ln for ln in text.splitlines(keepends=True) if ln.strip()]
        with pytest.raises(csv.Error):
            csv.Sniffer().sniff("".join(lines[:20]), delimiters=",;\t")
        sniffs.clear()
        for tail in ("", "\noops 1\n"):
            path = write(tmp_path / "one.csv", text + tail)
            # the whitespace rows, numbered by file line, give every column's outcome
            rows = [(no, ln.split()) for no, ln in enumerate((text + tail).splitlines(), 1)
                    if ln.strip()]
            if isinstance(_per_cell_rule(path, [(1, cell) for cell in rows[0][1]]), str):
                rows = rows[1:]  # a header
            for column in range(max(len(cells) for _, cells in rows)):
                cells = [(no, row[column] if column < len(row) else SHORT) for no, row in rows]
                want = _per_cell_rule(path, cells, column)
                want = want if isinstance(want, str) else _outcome(np.array, want)
                assert _outcome(read_series, path, str(column)) == want
                with monkeypatch.context() as patch:
                    patch.setattr(cli.np, "loadtxt", _declined)
                    assert _outcome(read_series, path, str(column)) == want
        assert sniffs == []

    def test_comma_file_is_still_sniffed(self, tmp_path, sniffs):
        path = write(tmp_path / "two.csv", "date,y\n1,10.0\n2,11.0\n")
        assert read_series(path, "y").tolist() == [10.0, 11.0]
        assert sniffs == ["date,y\n1,10.0\n2,11.0\n"]

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("value\n", "contains a header but no data rows"),
            ("\n \n", "file is empty"),
            ("value\n1.0\n\noops\n", "row 4: non-numeric value 'oops'"),
            ("1.0\n1_000\n", "row 2: non-numeric value '1_000'"),
            ("1.0\nnan\n", "row 2: non-finite value 'nan'"),
        ],
    )
    def test_one_column_messages_unchanged(self, tmp_path, sniffs, text, message):
        path = write(tmp_path / "one.csv", text)
        with pytest.raises(IngestError) as exc:
            read_series(path)
        assert str(exc.value) == f"{path}: {message}"
        assert sniffs == []


class TestReadGrouped:
    def test_interleaved_stable_split(self, tmp_path):
        rows = ["g,y"]
        for i in range(8):
            rows.append(f"1,{float(i)}")
            rows.append(f"2,{float(10 + i)}")
        path = write(tmp_path / "g.csv", "\n".join(rows) + "\n")
        v1, v2 = read_grouped(path, "g", "y")
        assert v1.tolist() == [float(i) for i in range(8)]
        assert v2.tolist() == [float(10 + i) for i in range(8)]

    def test_three_groups_rejected(self, tmp_path):
        path = write(tmp_path / "g.csv", "g,y\n1,1.0\n2,2.0\n3,3.0\n")
        with pytest.raises(IngestError, match="exactly 2 group labels"):
            read_grouped(path, "g", "y")

    def test_many_labels_are_named_up_to_five(self, tmp_path):
        # a value column given as the group column makes a label of every row
        path = write(tmp_path / "g.csv", "g,y\n" + "".join(f"a,{i}.5\n" for i in range(10_000)))
        with pytest.raises(IngestError) as exc:
            read_grouped(path, "y", "y")
        assert str(exc.value) == (
            f"{path}: expected exactly 2 group labels, found 10000: "
            "['0.5', '1.5', '2.5', '3.5', '4.5', ...]"
        )

    def test_unknown_name_is_named_before_an_index_out_of_range(self, tmp_path):
        # a name is resolved in the header, before any data row is read
        path = write(tmp_path / "g.csv", "g,y\na,1.5\nb,2.5\n")
        with pytest.raises(IngestError) as exc:
            read_grouped(path, "5", "nosuch")
        assert str(exc.value) == f"{path}: no column named 'nosuch' in header ['g', 'y']"
        with pytest.raises(IngestError) as exc:
            read_grouped(path, "5", "y")
        assert str(exc.value) == f"{path}: column index 5 out of range (width 2)"

    def test_byte_order_mark_before_header(self, tmp_path):
        path = write(tmp_path / "bom.csv", "\ufeffgroup,value\na,1.0\nb,2.0\na,3.0\nb,4.0\n")
        v1, v2 = read_grouped(path, "group", "value")
        assert (v1.tolist(), v2.tolist()) == ([1.0, 3.0], [2.0, 4.0])

    @pytest.mark.parametrize(
        ("label_row", "value_row", "message"),
        [(5, 8, "row 7: missing group label"), (6, 3, "row 5: non-numeric value 'x'")],
    )
    def test_first_fault_in_row_order(self, tmp_path, label_row, value_row, message):
        rows = [["a" if i % 2 == 0 else "b", f"{i}.5"] for i in range(10)]
        rows[label_row][0] = ""
        rows[value_row][1] = "x"
        path = write(tmp_path / "g.csv", "g,y\n" + "".join(f"{g},{v}\n" for g, v in rows))
        with pytest.raises(IngestError) as exc:
            read_grouped(path, "g", "y")
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("header", ["", "group,value\n"], ids=["headerless", "header"])
    def test_group_column_by_index(self, tmp_path, header):
        # a text label in the first row of a headerless file is data, not a header
        rows = "".join(f"{'AB'[i % 2]},{i}.5\n" for i in range(20))
        path = write(tmp_path / "g.csv", header + rows)
        v1, v2 = read_grouped(path, "0", "1")
        assert v1.tolist() == [i + 0.5 for i in range(0, 20, 2)]
        assert v2.tolist() == [i + 0.5 for i in range(1, 20, 2)]


SHORT = None  # a data row that ends before the value column


def _valid_cells() -> list[str]:
    rng = np.random.default_rng(8)
    cells = []
    for exponent in range(-300, 301, 25):
        x = float(rng.uniform(1.0, 10.0) * 10.0**exponent)
        cells += [repr(x), "%.17g" % -x]
    cells += [
        "5e-324", "%.17g" % 2.5e-310, repr(-1.5e-315), "+3", ".5", "5.", "1E5",
        "-0.0", " 1.25", "2.75 ", "  -7.5  ",
    ]
    return cells


def _per_cell_rule(path, cells, column=1):
    """The per-cell rule, written out: the values of the (row number, cell)
    pairs, or the message for the first bad cell."""
    values = []
    for no, cell in cells:
        cell = "" if cell is SHORT else cell.strip()
        if cell == "":
            return f"{path}: row {no}: missing value in column {column}"
        if not cell.isascii() or "_" in cell:
            return f"{path}: row {no}: non-numeric value {cell!r}"
        try:
            value = float(cell)
        except ValueError:
            return f"{path}: row {no}: non-numeric value {cell!r}"
        if not math.isfinite(value):
            return f"{path}: row {no}: non-finite value {cell!r}"
        values.append(value)
    return values


def _outcome(read, *args):
    """The dtype and bytes of each array a read returns, or its IngestError's message."""
    try:
        got = read(*args)
    except IngestError as exc:
        return str(exc)
    return [(a.dtype, a.tobytes()) for a in (got if isinstance(got, tuple) else (got,))]


def _declined(*args, **kwargs):
    raise ValueError("declined")


@pytest.fixture()
def python_read(monkeypatch):
    """Make np.loadtxt decline every file, so that the Python read runs."""
    monkeypatch.setattr(cli.np, "loadtxt", _declined)


class TestBulkParse:
    """The C read agrees with the per-cell rule, cell for cell."""

    FAULTS = ["", SHORT, "1_5", "\u0661\u0662", "nan", "inf", "abc"]

    @staticmethod
    def _read(tmp_path, mode, cells):
        # a label or time column first, then the value column (index 1)
        rows = [("a" if i % 2 == 0 else "b", cell) for i, cell in enumerate(cells)]
        lines = [g if cell is SHORT else f"{g},{cell}" for g, cell in rows]
        path = write(tmp_path / f"{mode}.csv", "g,value\n" + "\n".join(lines) + "\n")
        try:
            if mode == "series":
                got = read_series(path, "value")
            else:
                got = np.concatenate(read_grouped(path, "g", "value"))
        except IngestError as exc:
            return path, rows, str(exc)
        return path, rows, got

    LAYOUTS = [
        {},
        {0: ""},
        {3: SHORT},
        {7: "1_5"},
        {20: "\u0661\u0662", 40: "abc"},
        {44: "nan", 12: "inf"},
        {-1: "abc"},
        {30: "", 31: SHORT, 32: "1_5"},
        {i * 9: fault for i, fault in enumerate(FAULTS)},
        {60 - i * 9: fault for i, fault in enumerate(FAULTS)},
    ]

    @pytest.mark.parametrize("mode", ["series", "grouped"])
    @pytest.mark.parametrize(
        "faults",
        LAYOUTS,
        ids=lambda faults: "+".join(f"{k}:{v!r}" for k, v in faults.items()) or "valid",
    )
    def test_matches_per_cell_rule(self, tmp_path, mode, faults):
        cells = _valid_cells()
        for row, fault in faults.items():
            cells[row] = fault
        path, rows, got = self._read(tmp_path, mode, cells)
        expected = _per_cell_rule(path, [(no, cell) for no, (_, cell) in enumerate(rows, 2)])
        if isinstance(expected, str):
            assert got == expected
            return
        want = np.array(expected)
        if mode == "grouped":
            want = np.concatenate([want[0::2], want[1::2]])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["series", "grouped"])
    def test_valid_column_skips_per_cell_scan(self, tmp_path, monkeypatch, mode):
        def unexpected(*args):
            raise AssertionError("per-cell scan on a valid column")

        monkeypatch.setattr(cli, "_parse_cell", unexpected)
        _, _, got = self._read(tmp_path, mode, _valid_cells())
        assert isinstance(got, np.ndarray) and got.size == len(_valid_cells())

    @pytest.mark.parametrize("mode", ["series", "grouped"])
    def test_cells_the_bulk_parse_declines_are_read_per_cell(self, tmp_path, mode):
        # strip() removes these and float() does not take them; np.loadtxt reads them
        cells = [" 1.5", "2.5\x1c", "\u30003.5\u3000", "4.5"]
        _, _, got = self._read(tmp_path, mode, cells)
        want = [1.5, 2.5, 3.5, 4.5] if mode == "series" else [1.5, 3.5, 2.5, 4.5]
        assert got.tolist() == want


# (text, column) of the files the series tests read, and of layouts that
# np.loadtxt reads leniently, declines, or would split unlike the csv reader
LONG_NOTE = "t,y,note\n" + "".join(
    f"{i},{i}.5,{'n' * 200_000 if i == 25 else 'n'}\n" for i in range(1, 31)
)

SERIES_FILES = [
    ("1.5\n2.5\n3.5\n4.5\n", None),
    ("date,y\n1,10.0\n2,11.0\n3,12.0\n4,13.0\n", "y"),
    ("1,10.0\n2,11.0\n3,12.0\n", "1"),
    ("a\tb\n1\t5.0\n2\t6.0\n", "b"),
    ("a;b\n1;7.0\n2;8.0\n", "b"),
    ("value\n", None),
    ("\n \n", None),
    ("y\n1.0\noops\n3.0\n", None),
    ("a,b\n1.0,2.0\n1.5\n", "b"),
    ("y\n1.0\n2.0\n", "z"),
    ("a,b,c\n1,2,3\n4,5,\n", "c"),
    ("a,b,c\n1,2,3\n4,5,6\n", "7"),
    ("\ufeff1.5\n2.5\n3.5\n4.5\n", None),
    ("value\n1\n\n2\nabc\n", None),
    ("value\n1.5\n\n2.5\n", None),
    ('t,y\n1,"2\n3"\n4,5\n6,abc\n', "y"),
    ('t,y,note\n1,2.5,"a\nb"\n3,abc,c\n', "y"),
    ('t,y,note\n1,2.5,"a\nb"\n3,4.5,c\n', "y"),
    ('t,"y\nz"\n1,1.5\n2,2.5\n', "1"),
    ('"value"\n"1.5"\n2.5\n', None),
    ("1.5 7\n2.5 8\n", "1"),
    ("value\n" + "".join(f"{i}.25\n" for i in range(40)) + "x,y\n", None),
    ("1.0\n1_000\n", None),
    ("1.0\nnan\n", None),
    ("y\n1.5\n1e400\n", None),
    ('t,y\na, "1.5"\nb, 2.5\n', "y"),
    ("t,y\na,'1.5'\nb,'2.5'\n", "y"),
    ("y\n\u30001.5\u3000\n2.5\n", None),
    ("t,y\na,\u30001.5\u3000\nb,2.5\n", "y"),
    ("y\n1.5\x1c\n2.5\n", None),
    ("y\n1.5\n \t \n2.5\n", None),
    ("t,y\n1,1.5\n \t \n2,2.5\n", "y"),
    ("y\r\n1.5\r\n\r\n2.5\r\n", None),
    ("y\r1.5\r\r2.5\r", None),
    ("y\n1.0\n2.0\x0c\nabc\n", None),
    ("y\n1.0\n2.0\u20283.0\n4.0\n", None),
    # a quote after a space (sniffed skipinitialspace), and a doubled quote
    # past the sniffed sample (sniffed without doublequote)
    ('t, note, y, z\n1, "a, b", 2.5, 3.5\n2, "c", 4.5, 5.5\n', "z"),
    ("g,note,y\n" + 'a,"n",1.5\n' * 25 + 'b,"x"",y",3.5\n', "y"),
    # a cell longer than the csv module's field limit
    pytest.param("h" * 200_000 + ",y\n1,1.5\n2,2.5\n", "y", id="cell-over-field-limit"),
    # the same past the first 20 lines, in an unused column, then a bad value
    pytest.param(LONG_NOTE, "y", id="cell-over-field-limit-past-the-head"),
    pytest.param(LONG_NOTE + "31,abc,z\n", "y", id="cell-over-field-limit-then-bad-value"),
]

# (text, group column, value column) of the files the grouped tests read
GROUPED_FILES = [
    ("g,y\n" + "".join(f"1,{i}.0\n2,{10 + i}.0\n" for i in range(8)), "g", "y"),
    ("g,y\n1,1.0\n2,2.0\n3,3.0\n", "g", "y"),
    ("\ufeffgroup,value\na,1.0\nb,2.0\na,3.0\nb,4.0\n", "group", "value"),
    ("g,y\na,0.5\nb,1.5\na,2.5\n,3.5\nb,x\n", "g", "y"),
    ("g,y\na,0.5\nb,1.5\na,x\n,3.5\n", "g", "y"),
    ("".join(f"{'AB'[i % 2]},{i}.5\n" for i in range(20)), "0", "1"),
    ("group,value\n" + "".join(f"{'AB'[i % 2]},{i}.5\n" for i in range(20)), "0", "1"),
    ("y,g\n1.5,a\n2.5,b\n3.5,a\n", "g", "y"),
    ('"g","y"\n"a",1.5\n"b",2.5\n"a",3.5\n', "g", "y"),
    ("g,y\n a ,1.5\nb ,2.5\na,3.5\n b,4.5\n", "g", "y"),
    ("g\ty\na b\t1.5\nc\t2.5\n", "g", "y"),
    ('y, g\n1.5, "a"\n2.5, "b"\n3.5, "a b"\n', "g", "y"),
    ('y, g\n1.5, "a"\n2.5, "b"\n3.5, "a"\n', "g", "y"),
    # a blank line inside a quoted label
    ('g,y\n"a\n\nb",1.5\n"a\nb",2.5\n"a\n\nb",3.5\n"a\nb",4.5\n', "g", "y"),
]


class TestPythonRead:
    """The Python read, forced, reads each file as the C read does: the same
    bytes, or the same error."""

    @staticmethod
    def _both(request, read, path, *columns):
        got = _outcome(read, path, *columns)
        request.getfixturevalue("python_read")
        return got, _outcome(read, path, *columns)

    @pytest.mark.parametrize(("text", "column"), SERIES_FILES)
    def test_series_files(self, tmp_path, request, text, column):
        path = write(tmp_path / "s.csv", text)
        got, forced = self._both(request, read_series, path, column)
        assert got == forced

    @pytest.mark.parametrize(("text", "group", "value"), GROUPED_FILES)
    def test_grouped_files(self, tmp_path, request, text, group, value):
        path = write(tmp_path / "g.csv", text)
        got, forced = self._both(request, read_grouped, path, group, value)
        assert got == forced

    @pytest.mark.parametrize("mode", ["series", "grouped"])
    @pytest.mark.parametrize("faults", TestBulkParse.LAYOUTS)
    def test_bulk_parse_layouts(self, tmp_path, request, mode, faults):
        cells = _valid_cells()
        for row, fault in faults.items():
            cells[row] = fault
        _, _, got = TestBulkParse._read(tmp_path, mode, cells)
        request.getfixturevalue("python_read")
        _, _, forced = TestBulkParse._read(tmp_path, mode, cells)
        assert type(got) is type(forced)
        if isinstance(got, str):
            assert got == forced
        else:
            assert got.tobytes() == forced.tobytes()


class TestLineEndings:
    """A line ends at \\n, \\r\\n or \\r, and at no other line boundary of str.splitlines."""

    @pytest.mark.parametrize(
        "mark", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_other_boundaries_do_not_end_a_line(self, tmp_path, mark):
        path = write(tmp_path / "a.csv", f"y\n1.0\n2.0{mark}\nabc\n")
        with pytest.raises(IngestError) as exc:
            read_series(path)
        assert str(exc.value) == f"{path}: row 4: non-numeric value 'abc'"
        # the mark inside a line splits cells on whitespace, not rows
        path = write(tmp_path / "b.csv", f"y\n1.0\n2.0{mark}3.0\n4.0\n")
        assert read_series(path).tolist() == [1.0, 2.0, 4.0]
        path = write(tmp_path / "c.csv", f"t,y\n1,1.0\n2,2.0{mark}3,3.0\n4,4.0\n")
        with pytest.raises(IngestError) as exc:
            read_series(path, "y")
        assert str(exc.value) == f"{path}: row 3: non-numeric value {'2.0' + mark + '3'!r}"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_three_line_endings(self, tmp_path, end):
        path = write(tmp_path / "a.csv", end.join(["t,y", "1,1.5", "", "2,2.5", "3,abc", ""]))
        with pytest.raises(IngestError) as exc:
            read_series(path, "y")
        assert str(exc.value) == f"{path}: row 5: non-numeric value 'abc'"


def test_read_series_memory_is_bounded(tmp_path):
    y = np.random.default_rng(5).standard_normal(200_000)
    path = tmp_path / "long.csv"
    path.write_text("t,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(y.tolist())))
    tracemalloc.start()
    try:
        values = read_series(str(path), "value")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.tobytes() == y.tobytes()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestPythonReadMemory:
    """The Python read holds one row at a time: it names a fault near the top
    without reading on, and keeps only the values and labels of the rest."""

    Y = np.random.default_rng(6).standard_normal(200_000).tolist()

    @staticmethod
    def _traced(read, *args):
        tracemalloc.start()
        try:
            got = _outcome(read, *args)
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fault_in_the_first_data_row(self, tmp_path):
        rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(self.Y[1:], 1))
        path = write(tmp_path / "a.csv", "t,value\n0,abc\n" + rows)
        got, peak = self._traced(read_series, path, "value")
        assert got == f"{path}: row 2: non-numeric value 'abc'"
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_quoted_file_read_in_python(self, tmp_path):
        # a quote after a space: np.loadtxt would read it unlike the sniffed dialect
        rows = "".join(f'{i}, "a, b", {v!r}\n' for i, v in enumerate(self.Y))
        path = write(tmp_path / "q.csv", "t, note, y\n" + rows)
        got, peak = self._traced(read_series, path, "y")
        assert got == [(np.dtype(np.float64), np.array(self.Y).tobytes())]
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_non_finite_value_in_the_last_grouped_row(self, tmp_path):
        rows = "".join(f"{'ab'[i % 2]},{v!r}\n" for i, v in enumerate(self.Y[:-1]))
        path = write(tmp_path / "g.csv", "g,y\n" + rows + "b,inf\n")
        got, peak = self._traced(read_grouped, path, "g", "y")
        assert got == f"{path}: row {len(self.Y) + 1}: non-finite value 'inf'"
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestTestCommand:
    def test_two_file_run_exit_zero(self, wfh_shape_files, tmp_path, capsys):
        f1, f2 = wfh_shape_files
        code = main(["test", "--y1", f1, "--y2", f2, "--B", "99", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for name in ("t0", "t1", "t0_har", "t1_har_norm", "t1_har", "t1_har_boot"):
            assert name in out

    def test_json_report_structure(self, wfh_shape_files, tmp_path):
        f1, f2 = wfh_shape_files
        out_path = tmp_path / "report.json"
        code = main(
            ["test", "--y1", f1, "--y2", f2, "--B", "99", "--seed", "5",
             "--format", "json", "--out", str(out_path)]
        )
        assert code == EXIT_OK
        report = json.loads(out_path.read_text())
        assert report["version"] == __version__
        assert report["groups"][0]["n"] == 37
        assert report["groups"][1]["n"] == 85
        assert report["groups"][0]["k"] >= 1
        for name in ("t0", "t1", "t0_har", "t1_har_norm", "t1_har", "t1_har_boot"):
            assert 0.0 <= report["tests"][name]["p_value"] <= 1.0
        assert "ljung_box_q" in report["groups"][0]
        assert report["bootstrap"]["B"] == 99
        assert len(report["bootstrap"]["replicate_stats"]) == 99

    def test_byte_identical_reports(self, wfh_shape_files, tmp_path):
        f1, f2 = wfh_shape_files
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            code = main(
                ["test", "--y1", f1, "--y2", f2, "--B", "49", "--seed", "11",
                 "--format", "json", "--out", str(p)]
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_round_trip_matches_library(self, wfh_shape_files, tmp_path):
        f1, f2 = wfh_shape_files
        out_path = tmp_path / "report.json"
        main(["test", "--y1", f1, "--y2", f2, "--B", "49", "--seed", "3",
              "--format", "json", "--out", str(out_path)])
        report = json.loads(out_path.read_text())
        y1 = TimeSeriesSample.from_values(read_series(f1, "value"))
        y2 = TimeSeriesSample.from_values(read_series(f2, "value"))
        k1, k2 = select_k(y1).k_hat, select_k(y2).k_hat
        assert report["config"]["k1"] == k1
        assert report["config"]["k2"] == k2
        lrv1 = series_lrv(y1, k1)
        lib = har_welch_t(lrv1, series_lrv(y2, k2))
        assert report["tests"]["t1_har"]["statistic"] == pytest.approx(
            lib.statistic, rel=1e-15
        )
        assert report["groups"][0]["lrv"] == pytest.approx(lrv1.omega, rel=1e-15)

    def test_explicit_k_flags(self, wfh_shape_files, capsys):
        f1, f2 = wfh_shape_files
        code = main(["test", "--y1", f1, "--y2", f2, "--B", "49",
                     "--k1", "3", "--k2", "5"])
        assert code == EXIT_OK

    def test_constant_groups_degenerate_exit(self, tmp_path, capsys):
        f1 = write(tmp_path / "c1.csv", "\n".join(["2.0"] * 10) + "\n")
        f2 = write(tmp_path / "c2.csv", "\n".join(["2.0"] * 10) + "\n")
        code = main(["test", "--y1", f1, "--y2", f2, "--B", "49"])
        out = capsys.readouterr().out
        assert code == EXIT_DEGENERATE
        assert "NA" in out

    def test_one_constant_group_reports_only_t1_har_na(self, tmp_path, capsys):
        # a zero LRV leaves the adjusted df undefined; every other test runs
        f1 = write(tmp_path / "c1.csv", "\n".join(["2.0"] * 10) + "\n")
        rng = np.random.default_rng(5)
        f2 = write(tmp_path / "v2.csv", "\n".join(f"{v:.6f}" for v in rng.normal(size=10)))
        out_path = tmp_path / "report.json"
        code = main(["test", "--y1", f1, "--y2", f2, "--B", "49", "--format", "json",
                     "--out", str(out_path)])
        assert code == EXIT_DEGENERATE
        report = json.loads(out_path.read_text())
        assert [name for name, e in report["tests"].items() if "na" in e] == ["t1_har"]
        assert "adjusted df" in report["tests"]["t1_har"]["na"]
        assert report["groups"][0]["k_na"] == "residuals carry no variation"
        assert report["bootstrap"]["B"] == 49
        code = main(["test", "--y1", f1, "--y2", f2, "--B", "49"])
        out = capsys.readouterr().out
        assert code == EXIT_DEGENERATE
        assert "t1_har_boot" in out and "bootstrap: B=49" in out

    def test_matches_golden_report(self, tmp_path):
        # tests/golden holds the 37/85 fixture as CSV and its JSON report at
        # B=49, seed 3, recorded before the six tests were shared with the
        # lab; it pins the report across refactors, not just across reruns.
        out_path = tmp_path / "report.json"
        code = main(["test", "--y1", str(GOLDEN / "g1.csv"), "--y2", str(GOLDEN / "g2.csv"),
                     "--B", "49", "--seed", "3", "--format", "json", "--out", str(out_path)])
        assert code == EXIT_OK
        report = json.loads(out_path.read_text())
        inputs = report["config"]["inputs"]
        inputs["y1"], inputs["y2"] = Path(inputs["y1"]).name, Path(inputs["y2"]).name
        golden = json.loads((GOLDEN / "report_B49_seed3.json").read_text())
        del report["version"], golden["version"]  # a release bump is not a change
        assert_matches_golden(report, golden)

    def test_memory_exhaustion_is_an_input_error(self, capsys):
        # B = 10^16 asks for about 1 EiB of draws: numpy refuses at once
        code = main(["test", "--y1", str(GOLDEN / "g1.csv"), "--y2", str(GOLDEN / "g2.csv"),
                     "--B", "10000000000000000"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: not enough memory: Unable to allocate")

    def test_missing_file_exit_input(self, tmp_path, capsys):
        code = main(["test", "--y1", str(tmp_path / "nope.csv"),
                     "--y2", str(tmp_path / "nope2.csv")])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("mode", ["y1", "data"])
    def test_piped_input_is_an_input_error(self, tmp_path, capsys, mode):
        # a pipe gives its lines once; reading the path again would drop the first ones
        good = write(tmp_path / "good.csv", "y\n1.0\n2.5\n3.0\n4.5\n5.0\n")
        read_end, write_end = os.pipe()
        os.write(write_end, "".join(f"{'ab'[i % 2]},{i}.5\n" for i in range(12)).encode())
        os.close(write_end)
        try:
            pipe = f"/dev/fd/{read_end}"
            flags = (["--y1", pipe, "--y2", good, "--col1", "1"] if mode == "y1" else
                     ["--data", pipe, "--group-col", "0", "--value-col", "1"])
            code = main(["test", *flags, "--B", "49"])
        finally:
            os.close(read_end)
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {pipe}: not a regular file; save the input to a file first\n"
        )

    def test_non_utf8_file_exit_input(self, tmp_path, capsys):
        good = write(tmp_path / "good.csv", "y\n1.0\n2.5\n3.0\n4.5\n5.0\n")
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("caf\u00e9\n1.0\n2.5\n3.0\n4.5\n".encode("latin-1"))
        code = main(["test", "--y1", good, "--y2", str(bad)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text: byte 0xe9" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("k_flags", [[], ["--k1", "3", "--k2", "3"]], ids=["auto", "explicit"])
    def test_values_whose_squares_overflow_exit_input(self, tmp_path, capsys, k_flags):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((2, 30)) * [[1e200], [1.0]]
        big, good = (write(tmp_path / f"{name}.csv", "".join(f"{v:.17g}\n" for v in row))
                     for name, row in zip(("big", "good"), values))
        code = main(["test", "--y1", big, "--y2", good, *k_flags])
        assert code == EXIT_INPUT
        assert "residual sum of squares is not finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # a numpy warning would end as exit 4
    def test_values_whose_sum_overflows_give_one_error_line(self, tmp_path, capsys):
        big = write(tmp_path / "big.csv", "1.7e308\n" * 5)
        code = main(["test", "--y1", big, "--y2", big])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: sample values too large: residual sum of squares is not finite"
        ]

    @pytest.mark.filterwarnings("error")  # a numpy warning would end as exit 4
    def test_values_whose_residuals_overflow_give_one_error_line(self, tmp_path, capsys):
        # the mean is finite; the residual of the first value is not
        big = write(tmp_path / "big.csv", "1.7e308\n-1.7e308\n-1.7e308\n1\n1\n")
        code = main(["test", "--y1", big, "--y2", big])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: sample values too large: residual sum of squares is not finite"
        ]

    @pytest.mark.filterwarnings("error")  # a numpy warning would end as exit 4
    def test_power_of_two_scaling_never_exits_internal(self, tmp_path, capsys):
        # from subnormal to overflowing magnitudes a run ends in a report, an
        # input error or NA tests; 2^-538 is where the AR(1) fit underflows
        normal = np.random.default_rng(0).standard_normal((2, 100))
        pairs = {"golden": [read_series(str(GOLDEN / f"g{i}.csv")) for i in (1, 2)],
                 "normal": list(normal)}
        for k in sorted({*range(-1074, 1024, 13), -538, 1023}):
            for name, pair in pairs.items():
                with np.errstate(over="ignore"):
                    paths = [write(tmp_path / f"y{i}.csv", "".join(
                        f"{v!r}\n" for v in np.ldexp(y, k).tolist())) for i, y in enumerate(pair)]
                code = main(["test", "--y1", paths[0], "--y2", paths[1], "--B", "49"])
                err = capsys.readouterr().err
                assert code in (EXIT_OK, EXIT_INPUT, EXIT_DEGENERATE), (name, k, err)

    def test_negative_seed_is_an_input_error(self, wfh_shape_files, capsys):
        f1, f2 = wfh_shape_files
        code = main(["test", "--y1", f1, "--y2", f2, "--B", "49", "--seed", "-1"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]

    def test_out_path_that_is_a_directory_is_an_input_error(self, wfh_shape_files, tmp_path, capsys):
        f1, f2 = wfh_shape_files
        code = main(["test", "--y1", f1, "--y2", f2, "--B", "49", "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "Is a directory" in err[0]

    @pytest.mark.parametrize("lag", ["0", "-3"])
    def test_lb_lag_below_one_is_a_usage_error(self, wfh_shape_files, capsys, lag):
        f1, f2 = wfh_shape_files
        with pytest.raises(SystemExit) as exc:
            main(["test", "--y1", f1, "--y2", f2, "--lb-lag", lag])
        assert exc.value.code == EXIT_INPUT
        assert f"argument --lb-lag: must be >= 1, got {lag}" in capsys.readouterr().err

    def test_short_group_exit_input(self, tmp_path, capsys):
        f1 = write(tmp_path / "s1.csv", "1.0\n2.0\n3.0\n")
        f2 = write(tmp_path / "s2.csv", "1.0\n2.0\n3.0\n4.0\n5.0\n")
        code = main(["test", "--y1", f1, "--y2", f2])
        assert code == EXIT_INPUT

    def test_cell_over_the_csv_field_limit_is_an_input_error(self, tmp_path, capsys):
        good = write(tmp_path / "good.csv", "y\n1.0\n2.5\n3.0\n4.5\n5.0\n")
        big = write(tmp_path / "big.csv", "h" * 200_000 + ",y\n1,1.5\n2,2.5\n3,3.5\n4,4.5\n")
        code = main(["test", "--y1", good, "--y2", big, "--col2", "y"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {big}: row 1: field larger than field limit (131072)\n"
        )

    def test_cell_over_the_csv_field_limit_past_the_head_names_the_bad_value(
        self, tmp_path, capsys
    ):
        good = write(tmp_path / "good.csv", "y\n1.0\n2.5\n3.0\n4.5\n5.0\n")
        big = write(tmp_path / "big.csv", LONG_NOTE + "31,abc,z\n")
        code = main(["test", "--y1", good, "--y2", big, "--col2", "y"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {big}: row 32: non-numeric value 'abc'\n"
        assert csv.field_size_limit() == 131_072  # restored after the read

    def test_blank_line_inside_a_quoted_label(self, tmp_path, capsys, python_read):
        rows = "".join(f'"a\n\nb",{i}.5\n"a\nb",{i}.25\n' for i in range(6))
        path = write(tmp_path / "both.csv", "g,y\n" + rows)
        code = main(["test", "--data", path, "--group-col", "g", "--value-col", "y",
                     "--B", "49", "--format", "json"])
        assert code == EXIT_OK
        groups = json.loads(capsys.readouterr().out)["groups"]
        assert [g["n"] for g in groups] == [6, 6]
        assert [g["mean"] for g in groups] == [3.0, 2.75]

    def test_single_file_mode(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        rows = ["grp,val"]
        for i in range(12):
            rows.append(f"a,{rng.normal():.6f}")
            rows.append(f"b,{rng.normal():.6f}")
        path = write(tmp_path / "both.csv", "\n".join(rows) + "\n")
        code = main(["test", "--data", path, "--group-col", "grp",
                     "--value-col", "val", "--B", "49"])
        assert code == EXIT_OK

    @staticmethod
    def _assert_bad_cell_named(tmp_path, capsys, cell, problem):
        # the cell sits in a data row of a --y2 file and of a --data file
        good = write(tmp_path / "good.csv", "y\n1.0\n2.5\n3.0\n4.5\n5.0\n")
        bad = write(tmp_path / "bad.csv", f"y\n1.0\n{cell}\n3.0\n4.5\n5.0\n")
        code = main(["test", "--y1", good, "--y2", bad])
        assert code == EXIT_INPUT
        assert f"{bad}: row 3: {problem} value '{cell}'" in capsys.readouterr().err
        rows = ["g,y"] + [f"a,{i}.5" for i in range(6)] + [f"b,{i}.0" for i in range(6)]
        rows[9] = f"b,{cell}"
        both = write(tmp_path / "both.csv", "\n".join(rows) + "\n")
        code = main(["test", "--data", both, "--group-col", "g", "--value-col", "y"])
        assert code == EXIT_INPUT
        assert f"{both}: row 10: {problem} value '{cell}'" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_names_file_and_row(self, tmp_path, capsys, cell):
        self._assert_bad_cell_named(tmp_path, capsys, cell, "non-finite")

    @pytest.mark.parametrize("cell", ["1_5", "\u0661\u0662"])
    def test_float_only_spellings_are_non_numeric(self, tmp_path, capsys, cell):
        # float() reads these as 15.0 and 12.0
        self._assert_bad_cell_named(tmp_path, capsys, cell, "non-numeric")

    def test_conflicting_modes(self, tmp_path, capsys):
        f1 = write(tmp_path / "x.csv", "1.0\n2.0\n3.0\n4.0\n")
        code = main(["test", "--y1", f1, "--y2", f1, "--data", f1,
                     "--group-col", "g", "--value-col", "v"])
        assert code == EXIT_INPUT


# sha256 of the (.tsv, .json) artifacts, recorded before the presets became
# one table and the cell flags lost their CLI defaults
PINNED_ARTIFACTS = {
    "table1-desk": ("8ab7e9f2bf934fbf3d337144154ed2b2f1a78691519e075e11c38bc649925c7c",
                    "f3757ddc77de899e1167eec40c65a2955499b44dfa62341d21728334a97f09d8"),
    "table2-desk": ("6a652c719f2e65887b86453dab143c30dcea7085678b6d4380fc1beaf0458240",
                    "228ff188a5e8a04d8088cafd1e0db26207df581f36a88f89409aed44a2804a87"),
    "table3-desk": ("20851b600d471117eda518d1384862d02384d05a882b3f86b451e913499d8c19",
                    "02557f58b990d3a00d04c1393ff898dc17ae7d9ab5183ee6d765fc6ec9fa28ca"),
    "table4-desk": ("a25c91af85e44dab2ddd284890f482814a49d7e6f75489791efaa34eb59bb17d",
                    "55a14c9101b7e403130ea380399a72057057c8a9103420efd1360a7d03ae9e99"),
    "table5-desk": ("ec95c0e3ec1eb52353c6ebae98bf875c10d2671381226e13bfeb168578ec9395",
                    "c7f5d8aa4cb8787f19cc43c94c28de7de8f09c9835853e7d98f2fdb48f5d72ae"),
    "explicit": ("7a479368ab242c4e2bc0683fa942dd0fed74177d85178780d0e0ac567ce9e455",
                 "526f4957756e0b9da54b65ac4aa4d6e662766eb22d362534868af477851e6de3"),
}


def assert_artifacts_pinned(stem: Path, name: str) -> None:
    got = tuple(hashlib.sha256(stem.with_suffix(ext).read_bytes()).hexdigest()
                for ext in (".tsv", ".json"))
    assert got == PINNED_ARTIFACTS[name], (
        f"{name}: the simulate artifacts changed; if the change is deliberate, "
        "record it in CHANGES.md and update PINNED_ARTIFACTS"
    )


class TestSimulateCommand:
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_preset_artifacts_are_pinned(self, tmp_path, capsys, preset):
        code = main(["simulate", "--preset", preset, "--n-mc", "2", "--B", "19",
                     "--seed", "7", "--out", str(tmp_path / "pin")])
        assert code == EXIT_OK
        assert_artifacts_pinned(tmp_path / "pin", preset)

    def test_explicit_artifacts_are_pinned(self, tmp_path, capsys):
        # no optional flag: pins Scenario's defaults to the former CLI defaults
        code = main(["simulate", "--t1", "30", "--t2", "30", "--rho", "0.5", "--n-mc", "3",
                     "--B", "19", "--out", str(tmp_path / "pin")])
        assert code == EXIT_OK
        assert_artifacts_pinned(tmp_path / "pin", "explicit")

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_artifacts_are_pinned_for_any_process_count(
        self, tmp_path, monkeypatch, capsys, processes
    ):
        # ranges of one replication, so that cells of n_mc = 2 and 3 are split
        monkeypatch.setattr(simlab, "_cpu_count", lambda: processes)
        monkeypatch.setattr(simlab, "_MIN_RANGE", 1)
        for preset in PRESET_NAMES:
            code = main(["simulate", "--preset", preset, "--n-mc", "2", "--B", "19",
                         "--seed", "7", "--out", str(tmp_path / preset)])
            assert code == EXIT_OK
            assert_artifacts_pinned(tmp_path / preset, preset)
        code = main(["simulate", "--t1", "30", "--t2", "30", "--rho", "0.5", "--n-mc", "3",
                     "--B", "19", "--out", str(tmp_path / "explicit")])
        assert code == EXIT_OK
        assert_artifacts_pinned(tmp_path / "explicit", "explicit")
        assert len(simlab._workers) >= processes - 1

    def test_default_out_stem(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["simulate", "--t1", "30", "--t2", "30", "--rho", "0", "--n-mc", "2",
                     "--B", "19"])
        assert code == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "harmeans_table.json", "harmeans_table.tsv"]

    def test_unwritable_out_fails_before_any_cell(self, tmp_path, capsys):
        code = main(["simulate", "--t1", "30", "--t2", "30", "--rho", "0", "--n-mc", "2",
                     "--B", "19", "--out", str(tmp_path / "missing" / "x")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "missing" in err[0]

    def test_memory_exhaustion_is_an_input_error(self, tmp_path, capsys):
        code = main(["simulate", "--t1", "30", "--t2", "30", "--rho", "0", "--n-mc", "2",
                     "--B", "10000000000000000", "--out", str(tmp_path / "x")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: not enough memory: Unable to allocate")

    def test_preset_with_a_cell_flag_is_an_input_error(self, tmp_path, capsys):
        # the error names the flags as typed: --law, not the field error_law
        for flags, named in [
            (["--alpha", "0.2"], "--alpha"),
            (["--law", "normal"], "--law"),
            (["--law", "chisq1", "--mu1", "2"], "--law, --mu1"),
        ]:
            code = main(["simulate", "--preset", "table5-desk", *flags,
                         "--out", str(tmp_path / "p")])
            assert code == EXIT_INPUT
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: --preset fixes every cell field; got {named}"]
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(("flags", "field"), [
        (["--sigma1", "nan"], "sigma1"),
        (["--sigma1", "inf"], "sigma1"),
        (["--a", "inf"], "a"),
        (["--mu1", "1e308", "--a", "10"], "mu2 = a * mu1"),
        (["--sigma1", "1e300"], "sigma1"),
        (["--sigma2", "1e80"], "sigma2"),
        (["--mu1", "1e200"], "mu1"),
        (["--mu1", "1e70", "--a", "1e10"], "mu2 = a * mu1"),
    ], ids=["sigma1-nan", "sigma1-inf", "a-inf", "mu2-overflow", "sigma1-large", "sigma2-large",
            "mu1-large", "mu2-large"])
    def test_non_finite_cell_flag_is_an_input_error(self, tmp_path, capsys, flags, field):
        code = main(["simulate", "--t1", "30", "--t2", "30", "--rho", "0", *flags,
                     "--n-mc", "2", "--B", "19", "--out", str(tmp_path / "nf")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field} ")
        assert list(tmp_path.iterdir()) == []

    def test_scales_within_the_margin_run(self, tmp_path, capsys):
        code = main(["simulate", "--t1", "30", "--t2", "30", "--rho", "0.9", "--sigma1", "1e74",
                     "--sigma2", "1e74", "--law", "chisq1", "--n-mc", "4", "--B", "19",
                     "--out", str(tmp_path / "big")])
        assert code == EXIT_OK

    def test_preset_artifact_shape(self, tmp_path, capsys):
        stem = str(tmp_path / "t1")
        code = main(["simulate", "--preset", "table1-desk", "--n-mc", "6",
                     "--B", "29", "--seed", "3", "--out", stem])
        assert code == EXIT_OK
        lines = (tmp_path / "t1.tsv").read_text().strip().splitlines()
        assert len(lines) == 10  # header + 9 cells
        payload = json.loads((tmp_path / "t1.json").read_text())
        assert len(payload["cells"]) == 9

    def test_explicit_scenario(self, tmp_path, capsys):
        stem = str(tmp_path / "one")
        code = main(["simulate", "--t1", "30", "--t2", "30", "--rho", "0.0",
                     "--n-mc", "8", "--B", "29", "--seed", "4", "--out", stem])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "one.json").read_text())
        rates = payload["cells"][0]["rejection_rates"]
        assert all(0.0 <= v <= 1.0 for v in rates.values())

    def test_every_scenario_flag_reaches_the_artifact(self, tmp_path, capsys):
        stem = str(tmp_path / "all")
        want = {"t1": 31, "t2": 27, "rho": 0.3, "sigma1": 1.5, "sigma2": 0.7,
                "error_law": "chisq1", "mu1": 2.0, "a": 1.3, "n_mc": 3,
                "n_boot": 21, "alpha": 0.1, "seed": 9}
        code = main(["simulate", "--t1", "31", "--t2", "27", "--rho", "0.3",
                     "--sigma1", "1.5", "--sigma2", "0.7", "--law", "chisq1",
                     "--mu1", "2.0", "--a", "1.3", "--n-mc", "3", "--B", "21",
                     "--alpha", "0.1", "--seed", "9", "--out", stem])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "all.json").read_text())
        assert payload["cells"][0]["scenario"] == want
        assert set(want) == {f.name for f in fields(Scenario)}

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        code = main(["simulate", "--t1", "30", "--t2", "30", "--rho", "0",
                     "--seed", "-1", "--out", str(tmp_path / "neg")])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: seed must be >= 0, got -1"]
        assert not (tmp_path / "neg.json").exists()

    def test_rerun_identical_artifacts(self, tmp_path, capsys):
        stems = [str(tmp_path / "r1"), str(tmp_path / "r2")]
        for stem in stems:
            main(["simulate", "--t1", "30", "--t2", "25", "--rho", "0.5",
                  "--n-mc", "6", "--B", "29", "--seed", "12", "--out", stem])
        assert (tmp_path / "r1.tsv").read_bytes() == (tmp_path / "r2.tsv").read_bytes()
        assert (
            json.loads((tmp_path / "r1.json").read_text())
            == json.loads((tmp_path / "r2.json").read_text())
        )

    def test_power_preset_rerun_identical(self, tmp_path, capsys):
        stems = [str(tmp_path / "p1"), str(tmp_path / "p2")]
        for stem in stems:
            code = main(["simulate", "--preset", "table5-desk", "--n-mc", "4",
                         "--B", "29", "--seed", "8", "--out", stem])
            assert code == EXIT_OK
        assert (tmp_path / "p1.tsv").read_bytes() == (tmp_path / "p2.tsv").read_bytes()
        assert (tmp_path / "p1.json").read_bytes() == (tmp_path / "p2.json").read_bytes()

    def test_missing_scenario_args(self, capsys):
        code = main(["simulate", "--t1", "30"])
        assert code == EXIT_INPUT

    def test_unknown_preset_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "table99"])
        assert exc.value.code == EXIT_INPUT
