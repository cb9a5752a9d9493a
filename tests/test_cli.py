"""Command-line interface: ingestion, reports, exit codes, simulate artifacts."""

import csv
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from harmeans import __version__, cli
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
from harmeans.simlab import Scenario, simulate_series
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

    def test_missing_value_names_its_column(self, tmp_path):
        path = write(tmp_path / "wide.csv", "a,b,c\n1,2,3\n4,5,\n")
        with pytest.raises(IngestError) as exc:
            read_series(path, "c")
        assert str(exc.value) == f"{path}: row 3: missing value in column 2"


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
    def test_sample_without_a_delimiter_is_split_on_whitespace(self, tmp_path, sniffs, text):
        # the sniff could only fail on such a sample, and then the rows
        # were the whitespace split; they still are, without the sniff
        lines = [ln for ln in text.splitlines(keepends=True) if ln.strip()]
        with pytest.raises(csv.Error):
            csv.Sniffer().sniff("".join(lines[:20]), delimiters=",;\t")
        sniffs.clear()
        rows, line_nos = cli._read_rows(write(tmp_path / "one.csv", text))
        assert sniffs == []
        assert rows == [ln.split() for ln in lines]
        assert list(line_nos) == [
            no for no, ln in enumerate(text.splitlines(), 1) if ln.strip()
        ]

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


def _expected_fault(path, rows) -> str | None:
    """The per-cell rule, written out: the message for the first bad value cell."""
    for no, (_, cell) in enumerate(rows, start=2):
        cell = "" if cell is SHORT else cell.strip()
        if cell == "":
            return f"{path}: row {no}: missing value in column 1"
        if not cell.isascii() or "_" in cell:
            return f"{path}: row {no}: non-numeric value {cell!r}"
        try:
            value = float(cell)
        except ValueError:
            return f"{path}: row {no}: non-numeric value {cell!r}"
        if not math.isfinite(value):
            return f"{path}: row {no}: non-finite value {cell!r}"
    return None


class TestBulkParse:
    """The bulk column parse agrees with the per-cell rule, cell for cell."""

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

    @pytest.mark.parametrize("mode", ["series", "grouped"])
    @pytest.mark.parametrize(
        "faults",
        [
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
        ],
        ids=lambda faults: "+".join(f"{k}:{v!r}" for k, v in faults.items()) or "valid",
    )
    def test_matches_per_cell_rule(self, tmp_path, mode, faults):
        cells = _valid_cells()
        for row, fault in faults.items():
            cells[row] = fault
        path, rows, got = self._read(tmp_path, mode, cells)
        expected = _expected_fault(path, rows)
        if expected is not None:
            assert got == expected
            return
        want = np.array([float(cell.strip()) for cell in cells])
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
        # strip() removes these, float() does not take them: the scan reads them
        cells = [" 1.5", "2.5\x1c", "\u30003.5\u3000", "4.5"]
        _, _, got = self._read(tmp_path, mode, cells)
        want = [1.5, 2.5, 3.5, 4.5] if mode == "series" else [1.5, 3.5, 2.5, 4.5]
        assert got.tolist() == want


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

    def test_missing_file_exit_input(self, tmp_path, capsys):
        code = main(["test", "--y1", str(tmp_path / "nope.csv"),
                     "--y2", str(tmp_path / "nope2.csv")])
        assert code == EXIT_INPUT

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

    def test_short_group_exit_input(self, tmp_path, capsys):
        f1 = write(tmp_path / "s1.csv", "1.0\n2.0\n3.0\n")
        f2 = write(tmp_path / "s2.csv", "1.0\n2.0\n3.0\n4.0\n5.0\n")
        code = main(["test", "--y1", f1, "--y2", f2])
        assert code == EXIT_INPUT

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


class TestSimulateCommand:
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
