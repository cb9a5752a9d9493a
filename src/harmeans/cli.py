"""Command-line front-end.

Two subcommands:

* ``test``      -- ingest two series from local delimited files, print
  group diagnostics and all six two-sample tests, as run by
  ``simlab.evaluate`` (the same evaluation the Monte Carlo lab uses).
* ``simulate``  -- run a named preset or a single explicit scenario through
  the Monte Carlo lab and write the table artifacts.

Exit codes: 0 success, 2 input/usage error, 3 degenerate statistics,
4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .errors import (
    DegenerateReplicatesError,
    DegenerateSampleError,
    DomainError,
    IngestError,
)
from .lrv import TimeSeriesSample, ljung_box
from .simlab import (
    ERROR_LAWS, PRESET_NAMES, TEST_COLUMNS, Scenario, evaluate, preset_scenarios, run_table
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4

_MIN_GROUP_LEN = 4


def _lines(path: str, count: float = math.inf):
    """The lines up to the count-th non-blank one, with their file line numbers.  A line
    ends at \\n, \\r\\n or \\r, as for np.loadtxt, and keeps its ending for quoted cells."""
    try:
        # a pipe gives its lines once, and each read of the file opens the path anew
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise IngestError(f"{path}: not a regular file; save the input to a file first")
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            for no, ln in enumerate(fh, 1):
                yield no, ln
                count -= ln.strip() != ""
                if not count:
                    return
    except OSError as exc:
        raise IngestError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(
            f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
        ) from exc


def _dialect(head: list[tuple[int, str]]):
    """The csv dialect of the first lines, or None to split on whitespace."""
    sample = "".join(ln for _, ln in head)
    if any(d in sample for d in ",;\t"):
        try:
            return csv.Sniffer().sniff(sample, delimiters=",;\t")
        except csv.Error:
            # fall back to comma, then whitespace
            if "," in head[0][1]:
                return csv.excel
    # no delimiter in the sample, so the sniff could only fail
    return None


def _rows(lines, dialect, path: str):
    """Each row's unstripped cells, numbered by the file line it starts on.  A blank
    line starts no row, but stays inside a quoted cell."""
    if dialect is None:
        yield from ((no, ln.split()) for no, ln in lines if ln.strip())
        return
    row_lines = []  # the numbered lines of the row being read
    reader = csv.reader((row_lines.append(line) or line[1] for line in lines), dialect)
    try:
        for cells in reader:
            if row_lines[0][1].strip():
                yield row_lines[0][0], cells
            row_lines.clear()
    except csv.Error as exc:
        raise IngestError(f"{path}: row {row_lines[0][0]}: {exc}") from exc


def _is_number(cell: str) -> bool:
    # float() also takes digit-group underscores and non-ASCII digits
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _layout(rows, path: str, selectors):
    """The first data row after an optional header, and each selector's column index.
    A name is found in the header here; an index only where a data row is too short."""
    first = next(rows)
    cells = [cell.strip() for cell in first[1]]
    # a group label is text in a data row too, so its column cannot mark a header
    label_idx = _as_index(selectors[0]) if len(selectors) == 2 else None
    titled = any(not _is_number(c) for i, c in enumerate(cells) if c != "" and i != label_idx)
    if titled and (first := next(rows, None)) is None:
        raise IngestError(f"{path}: contains a header but no data rows")
    return first, [_column_index(s, cells if titled else None, path) for s in selectors]


def _as_index(selector) -> int | None:
    """The column index a selector names, or None for a column name."""
    if isinstance(selector, int) or (isinstance(selector, str) and selector.lstrip("-").isdigit()):
        return int(selector)
    return None


def _column_index(selector, header: list[str] | None, path: str) -> int:
    if selector is None:
        return 0
    idx = _as_index(selector)
    if idx is not None:
        return idx
    if header is None:
        raise IngestError(f"{path}: column name {selector!r} given but the file has no header")
    if selector not in header:
        raise IngestError(f"{path}: no column named {selector!r} in header {header}")
    return header.index(selector)


def _parse_cell(row: list[str], idx: int, row_no: int, path: str) -> float:
    cell = row[idx].strip() if idx < len(row) else ""
    if cell == "":
        raise IngestError(f"{path}: row {row_no}: missing value in column {idx}")
    if not _is_number(cell):
        raise IngestError(f"{path}: row {row_no}: non-numeric value {cell!r}")
    value = float(cell)
    if not math.isfinite(value):
        raise IngestError(f"{path}: row {row_no}: non-finite value {cell!r}")
    return value


def _quotes_differ(path: str, dialect) -> bool:
    """Whether np.loadtxt may read the file's quotes unlike the dialect: it reads
    a doubled quote in a quoted cell as one quote, and a quote after a space as text."""
    q = dialect.quotechar.encode()
    marks = [q + q] * (not dialect.doublequote) + [b" " + q] * dialect.skipinitialspace
    with open(path, "rb") as fh:
        text = b""
        while marks and (chunk := fh.read(1 << 16)):
            text = text[-1:] + chunk
            if any(mark in text for mark in marks):
                return True
    return False


def _read(path: str, selectors) -> tuple[np.ndarray, list[str]]:
    """The data rows' floats in the last selected column and, given two, their
    stripped labels in the first.  np.loadtxt reads them in C; only when it
    declines the layout, or returns a value that is not finite or an empty
    label, are the rows read in Python, one at a time, to name the first fault."""
    head = list(_lines(path, 20))
    sample = [(no, ln) for no, ln in head if ln.strip()]
    if not sample:
        raise IngestError(f"{path}: file is empty")
    dialect = _dialect(sample)
    rows = list(_rows(head, dialect, path))
    try:
        first, idx = _layout(iter(rows), path, selectors)
        # np.loadtxt would read a negative index from the end of each row
        if min(idx) >= 0 and (dialect is None or not _quotes_differ(path, dialect)):
            quoting = {} if dialect is None else {
                "delimiter": dialect.delimiter, "quotechar": dialect.quotechar}
            table = np.loadtxt(
                path, [("g", object), ("v", np.float64)][-len(idx):], comments=None,
                usecols=idx, skiprows=first[0] - 1, ndmin=1, encoding="utf-8-sig", **quoting
            )
            labels = [label.strip() for label in table["g"].tolist()] if len(idx) == 2 else []
            if np.isfinite(table["v"]).all() and "" not in labels:
                return table["v"], labels
    except IngestError:
        if len(rows) > 1 or len(sample) < 20:
            raise  # the head holds the whole first row, so the header and names are final
    except ValueError:
        pass
    # np.loadtxt has no field limit, so the Python read lifts the csv one
    limit = csv.field_size_limit(2**31 - 1)
    lines = _lines(path)
    try:
        rows = _rows(lines, dialect, path)
        first, idx = _layout(rows, path, selectors)
        given = [i for s, i in zip(selectors, idx) if _as_index(s) is not None]
        if not all(0 <= i < len(first[1]) for i in given):
            width = max(len(cells) for _, cells in itertools.chain([first], rows))
            for i in given:
                if not 0 <= i < width:
                    raise IngestError(f"{path}: column index {i} out of range (width {width})")
        values, labels = [], []
        for no, cells in itertools.chain([first], rows):
            if len(idx) == 2 and (idx[0] >= len(cells) or cells[idx[0]].strip() == ""):
                raise IngestError(f"{path}: row {no}: missing group label")
            labels += [cells[i].strip() for i in idx[:-1]]  # the label, given two columns
            values.append(_parse_cell(cells, idx[-1], no, path))
    finally:
        lines.close()  # a fault stops the read early; the file closes now, not at collection
        csv.field_size_limit(limit)
    return np.array(values, dtype=np.float64), labels


def read_series(path: str, column=None) -> np.ndarray:
    """Read one numeric column from a delimited file, rows in time order."""
    return _read(path, (column,))[0]


def read_grouped(path: str, group_col, value_col) -> tuple[np.ndarray, np.ndarray]:
    """Split one file into two series by a group column, keeping row order."""
    values, labels = _read(path, (group_col, value_col))
    order = list(dict.fromkeys(labels))
    if len(order) != 2:
        shown = repr(order) if len(order) <= 5 else repr(order[:5])[:-1] + ", ...]"
        raise IngestError(f"{path}: expected exactly 2 group labels, found {len(order)}: {shown}")
    first = np.fromiter(map(order[0].__eq__, labels), bool, len(labels))
    return values[first], values[~first]


def ingest(args) -> tuple[TimeSeriesSample, TimeSeriesSample]:
    if args.data is not None:
        if args.y1 is not None or args.y2 is not None:
            raise IngestError("use either --data or --y1/--y2, not both")
        if args.group_col is None or args.value_col is None:
            raise IngestError("--data requires --group-col and --value-col")
        v1, v2 = read_grouped(args.data, args.group_col, args.value_col)
    else:
        if args.y1 is None or args.y2 is None:
            raise IngestError("two-file mode requires both --y1 and --y2")
        v1 = read_series(args.y1, args.col1)
        v2 = read_series(args.y2, args.col2)
    for label, values in (("group 1", v1), ("group 2", v2)):
        if values.size < _MIN_GROUP_LEN:
            raise IngestError(
                f"{label} has {values.size} observations; need at least {_MIN_GROUP_LEN}"
            )
    try:
        return TimeSeriesSample.from_values(v1), TimeSeriesSample.from_values(v2)
    except DomainError as exc:
        raise IngestError(str(exc)) from exc


def _ref_payload(report) -> dict:
    ref = {"kind": report.reference.kind.value}
    if report.reference.df is not None:
        ref["df"] = report.reference.df
    return ref


def _test_payload(report) -> dict:
    return {
        "statistic": report.statistic,
        "reference": _ref_payload(report),
        "p_value": report.p_value,
        "alpha": report.alpha,
        "reject": report.reject,
        "detail": report.detail,
    }


def build_report(y1: TimeSeriesSample, y2: TimeSeriesSample, args) -> dict:
    """Run diagnostics and all six tests; degenerate tests become NA entries."""
    result = evaluate(
        y1, y2, k1=args.k1, k2=args.k2, alpha=args.alpha, n_boot=args.n_boot, seed=args.seed
    )
    groups = []
    for sample, fit in zip((y1, y2), result.groups):
        entry = {
            "n": sample.n,
            "mean": sample.mean,
            "lrv": fit.lrv.omega,
            "lrv_sqrt": fit.lrv.omega ** 0.5,
            "k": fit.lrv.k,
        }
        if fit.k_note is not None:
            entry["k_na"] = fit.k_note
        try:
            q, p = ljung_box(sample, args.lb_lag)
            entry["ljung_box_q"] = q
            entry["ljung_box_p"] = p
        except (DegenerateSampleError, DomainError) as exc:
            entry["ljung_box_na"] = str(exc)
        groups.append(entry)

    tests = {name: _test_payload(report) for name, report in result.reports.items()}
    tests.update({name: {"na": message} for name, message in result.na.items()})
    bootstrap_payload = None
    run = result.bootstrap
    if run is not None:
        bootstrap_payload = {f.name: getattr(run, f.name) for f in fields(run)}
        bootstrap_payload["replicate_stats"] = [float(v) for v in run.replicate_stats]

    config = {
        "alpha": args.alpha,
        "n_boot": args.n_boot,
        "seed": args.seed,
        "k1": result.groups[0].lrv.k,
        "k2": result.groups[1].lrv.k,
        "k_mode": "auto" if args.k1 == "auto" or args.k2 == "auto" else "explicit",
        "lb_lag": args.lb_lag,
        "inputs": {
            "data": args.data,
            "y1": args.y1,
            "y2": args.y2,
            "col1": args.col1,
            "col2": args.col2,
            "group_col": args.group_col,
            "value_col": args.value_col,
        },
    }
    return {
        "version": __version__,
        "config": config,
        "groups": groups,
        "tests": tests,
        "bootstrap": bootstrap_payload,
    }


def render_text(report: dict) -> str:
    lines = []
    lines.append(f"harmeans {report['version']}  two-sample mean tests")
    lines.append("")
    lines.append(
        f"{'group':>5}  {'T':>6}  {'mean':>12}  {'lrv^1/2':>10}  {'K':>3}  "
        f"{'LB Q':>10}  {'LB p':>7}"
    )
    for i, g in enumerate(report["groups"], start=1):
        if "ljung_box_q" in g:
            lb_q, lb_p = f"{g['ljung_box_q']:.2f}", f"{g['ljung_box_p']:.3f}"
        else:
            lb_q, lb_p = "NA", "NA"
        lines.append(
            f"{i:>5}  {g['n']:>6}  {g['mean']:>12.4f}  {g['lrv_sqrt']:>10.4f}  "
            f"{g['k']:>3}  {lb_q:>10}  {lb_p:>7}"
        )
    lines.append("")
    alpha = report["config"]["alpha"]
    lines.append(
        f"{'test':<12}  {'statistic':>10}  {'reference':>14}  {'p-value':>8}  "
        f"reject@{alpha:g}"
    )
    ref_names = {
        "standard_normal": "N(0,1)",
        "student_t": "t",
        "bootstrap_empirical": "bootstrap",
    }
    for name in TEST_COLUMNS:
        entry = report["tests"][name]
        if "na" in entry:
            lines.append(f"{name:<12}  {'NA':>10}  {'':>14}  {'NA':>8}  ({entry['na']})")
            continue
        ref = entry["reference"]
        label = ref_names[ref["kind"]]
        if "df" in ref:
            label = f"t({ref['df']:.2f})" if ref["kind"] == "student_t" else label
        lines.append(
            f"{name:<12}  {entry['statistic']:>10.4f}  {label:>14}  "
            f"{entry['p_value']:>8.4f}  {'yes' if entry['reject'] else 'no'}"
        )
    boot = report.get("bootstrap")
    if boot is not None:
        lines.append("")
        lines.append(
            f"bootstrap: B={boot['B']} seed={boot['seed']} "
            f"crit=({boot['crit_lo']:.4f}, {boot['crit_hi']:.4f}) "
            f"K*=({boot['k_star1']}, {boot['k_star2']})"
        )
    return "\n".join(lines) + "\n"


def _write_output(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_test(args) -> int:
    y1, y2 = ingest(args)
    report = build_report(y1, y2, args)
    if args.format == "json":
        _write_output(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write_output(render_text(report), args.out)
    if any("na" in entry for entry in report["tests"].values()):
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_simulate(args) -> int:
    # the cell flags have no CLI default, so Scenario states every cell default
    given = {f.name: getattr(args, f.name) for f in fields(Scenario)}
    given = {name: value for name, value in given.items() if value is not None}
    if args.preset is not None:
        cell_flags = [name for name in given if name not in ("n_mc", "n_boot", "seed")]
        if cell_flags:
            flags = ("--law" if name == "error_law" else f"--{name}" for name in cell_flags)
            raise DomainError(f"--preset fixes every cell field; got {', '.join(flags)}")
        scenarios = preset_scenarios(
            args.preset, n_mc=args.n_mc, n_boot=args.n_boot, seed=args.seed
        )
    else:
        if args.t1 is None or args.t2 is None or args.rho is None:
            raise DomainError("explicit scenarios require --t1, --t2 and --rho")
        scenarios = [Scenario(**given)]
    text_path, json_path = f"{args.out}.tsv", f"{args.out}.json"

    def _progress(cell):
        sc = cell.scenario
        rate = 100.0 * cell.rejection_rates["t1_har_boot"]
        sys.stderr.write(
            f"done T=({sc.t1},{sc.t2}) rho={sc.rho:g} a={sc.a:g} seed={sc.seed} "
            f"boot_rate={rate:.2f}% [{cell.runtime:.1f}s]\n"
        )

    run_table(scenarios, text_path=text_path, json_path=json_path, progress=_progress)
    sys.stdout.write(f"wrote {text_path} and {json_path} (seed={args.seed})\n")
    return EXIT_OK


def _count(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _k_value(raw: str):
    return "auto" if raw == "auto" else _count(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmeans",
        description="Robust two-sample mean tests for serially dependent series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test equality of means for two series")
    p_test.add_argument("--y1", help="file with group 1 observations")
    p_test.add_argument("--y2", help="file with group 2 observations")
    p_test.add_argument("--col1", default=None, help="column (name or index) in --y1")
    p_test.add_argument("--col2", default=None, help="column (name or index) in --y2")
    p_test.add_argument("--data", help="single file holding both groups")
    p_test.add_argument("--group-col", default=None, help="group column in --data")
    p_test.add_argument("--value-col", default=None, help="value column in --data")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--B", dest="n_boot", type=int, default=399,
                        help="bootstrap replications (default 399)")
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--k1", type=_k_value, default="auto",
                        help="basis count for group 1 (integer or 'auto')")
    p_test.add_argument("--k2", type=_k_value, default="auto",
                        help="basis count for group 2 (integer or 'auto')")
    p_test.add_argument("--lb-lag", type=_count, default=10,
                        help="Ljung-Box lag (default 10)")
    p_test.add_argument("--format", choices=("text", "json"), default="text")
    p_test.add_argument("--out", default=None, help="write the report here")
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="run Monte Carlo size/power cells")
    p_sim.add_argument("--preset", choices=PRESET_NAMES, default=None)
    p_sim.add_argument("--t1", type=int)
    p_sim.add_argument("--t2", type=int)
    p_sim.add_argument("--rho", type=float)
    p_sim.add_argument("--sigma1", type=float)
    p_sim.add_argument("--sigma2", type=float)
    p_sim.add_argument("--law", dest="error_law", choices=ERROR_LAWS)
    p_sim.add_argument("--mu1", type=float)
    p_sim.add_argument("--a", type=float, help="mean multiplier: mu2 = a * mu1")
    p_sim.add_argument("--alpha", type=float)
    p_sim.add_argument("--n-mc", type=int, default=2000)
    p_sim.add_argument("--B", dest="n_boot", type=int, default=199)
    p_sim.add_argument("--seed", type=int, default=2023)
    p_sim.add_argument("--out", default="harmeans_table", help="artifact path stem")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IngestError, OSError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (DegenerateSampleError, DegenerateReplicatesError) as exc:
        sys.stderr.write(f"error: degenerate input: {exc}\n")
        return EXIT_DEGENERATE
    except MemoryError as exc:
        sys.stderr.write(f"error: not enough memory: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
