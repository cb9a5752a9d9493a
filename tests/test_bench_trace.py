"""The benchmark's traced-layer rule, checked on one small lab cell and two CLI calls.

``bench/run.py --trace 1`` refuses a run in which a traced layer that the
program still defines records no calls (``check_trace``).  A change that
routes the lab or the CLI around a traced public function fails that rule
only in the traced benchmark run; these tests catch it in about a second.
Each record is built the way ``bench/child.py`` builds it.
"""

import json
import sys
from pathlib import Path

import pytest

from harmeans.cli import EXIT_OK, main
from harmeans.simlab import Scenario, run_cell

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def bench():
    """bench/run.py and bench/tracer.py, imported read-only as the harness imports them."""
    sys.path.insert(0, str(BENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    try:
        import run
        import tracer
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))
    return run, tracer


def traced_record(tracer_mod, top_layer: str, fn, *args) -> tuple[object, dict]:
    """fn's result and the trace record ``bench/child.py`` would keep for it."""
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        result = tracer.call(top_layer, fn, *args)
        record = {
            "trace": tracer.snapshot(),
            "present": sorted(tracer.present_layers() | {top_layer}),
        }
    finally:
        restored = tracer.restore()
    record["restored"] = restored
    return result, record


def test_lab_cell_records_every_traced_layer(bench):
    run, tracer = bench
    scenario = Scenario(t1=30, t2=30, rho=0.5, n_mc=2, n_boot=19, seed=1)
    result, record = traced_record(tracer, "simlab.run_cell", run_cell, scenario)
    assert result.n_completed == 2
    assert run.check_trace(record, "lab_cells") == []


def test_cli_call_records_every_traced_layer(bench, tmp_path):
    run, tracer = bench
    argv = ["test", "--y1", str(GOLDEN / "g1.csv"), "--y2", str(GOLDEN / "g2.csv"),
            "--B", "49", "--seed", "3", "--format", "json", "--out", str(tmp_path / "r.json")]
    code, record = traced_record(tracer, "cli.main", main, argv)
    assert code == EXIT_OK
    assert run.check_trace(record, "test_ar") == []


def test_grouped_cli_call_records_every_traced_layer(bench, tmp_path):
    run, tracer = bench
    rows = ["group,value"]
    for label, name in (("a", "g1.csv"), ("b", "g2.csv")):
        values = (GOLDEN / name).read_text(encoding="utf-8").split()[1:]  # past the header
        rows += [f"{label},{v}" for v in values]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "r.json"
    argv = ["test", "--data", str(data), "--group-col", "group", "--value-col", "value",
            "--B", "49", "--seed", "3", "--format", "json", "--out", str(out)]
    code, record = traced_record(tracer, "cli.main", main, argv)
    assert code == EXIT_OK
    assert [g["n"] for g in json.loads(out.read_text())["groups"]] == [37, 85]
    assert run.check_trace(record, "test_white") == []
