"""The harmeans benchmark: one workload per invocation, closed loop, one call at a time.

    python3 bench/run.py --workload lab_cells --seed 1 --seconds 35 --trace 0

Run from any directory; paths are resolved against the checkout that holds
this file.  Workloads (see BENCHMARK.json for why each was chosen):

* ``lab_cells``  -- ``simlab.run_cell`` on the five acceptance cells (c1 to
  c4b) at B=199 and n_mc=100 each, swept repeatedly, a few seconds per
  interpreter.
* ``test_ar``    -- ``harmeans test --y1 --y2 --B 399 --format json`` on AR(1)
  rho=0.5 series, T1=10 000 and T2=8 000, sigma 1 and 3 (K about 57 to 66).
* ``test_white`` -- ``harmeans test --data --group-col --value-col`` on two
  white-noise groups of T=10 000 (K about 600, dense basis tables).

Each ``test_*`` call runs in a fresh interpreter, so the basis-table caches
are as cold as in a user's invocation.  ``--trace 0`` reports the end-to-end
metrics with tracing off; ``--trace 1`` reports the per-layer metrics from
traced calls interleaved with untraced ones, whose difference is
``trace.overhead_s``.

Every program call is checked: exit code, no NA test, byte-identical
reports within a run, t0/t1 against a numpy recomputation, and, for the
seeds in ``bench/reference``, K, reject flags and counts exactly and
statistics, p-values and replicate statistics to 1e-10 relative.

The last line of standard output is the result object; the line before it
holds the details (sample counts and quartiles of each metric, the
environment, every problem found).  The same details are written to
``bench/_work/results/``.  Exit code 2 when the checkout holds no
``src/harmeans`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import fixtures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCE_DIR = HERE / "reference"
CHILD = HERE / "child.py"

SETUP_SAMPLES = 15
MIN_CALLS = 3
CALL_TIMEOUT_S = 150
REL_TOL = 1e-10
ABS_TOL = 1e-12  # floor for values within rounding of zero

LAB = {"n_mc": 100, "n_boot": 199}
# Timed seconds per lab process.  Interpreters differ in speed by a few
# percent (code layout, hash seed), so a run takes the median over sweeps
# from several processes rather than from one.
LAB_SLICE_S = 5.0
TEST_WORKLOADS = {
    "test_ar": {
        "input": "files",
        "n_boot": 399,
        "groups": [
            {"n": 10000, "rho": 0.5, "sigma": 1.0, "mu": 5.0, "lag1_band": [0.495, 0.505]},
            {"n": 8000, "rho": 0.5, "sigma": 3.0, "mu": 5.0, "lag1_band": [0.495, 0.505]},
        ],
    },
    "test_white": {
        "input": "grouped",
        "n_boot": 399,
        "groups": [
            {"n": 10000, "rho": 0.0, "sigma": 1.0, "mu": 5.0, "lag1_band": [0.0095, 0.0105]},
            {"n": 10000, "rho": 0.0, "sigma": 1.0, "mu": 5.0, "lag1_band": [0.0095, 0.0105]},
        ],
    },
}
WORKLOADS = ("lab_cells", *TEST_WORKLOADS)

END_TO_END = {"setup_s": "s", "call_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.ingest.s": "s",
    "cli.main.self_s": "s",
    "simlab.simulate_series.s": "s",
    "simlab.simulate_series.calls": "count",
    "simlab.run_cell.self_s": "s",
    "lrv.select_k.s": "s",
    "lrv.select_k.calls": "count",
    "lrv.series_lrv.self_s": "s",
    "lrv.series_lrv.calls": "count",
    "basis.tables.s": "s",
    "basis.tables.calls": "count",
    "basis.table_misses": "count",
    "basis.table_bytes": "bytes",
    "sharwb.shar_wb_test.self_s": "s",
    "sharwb.shar_wb_test.calls": "count",
    "sharwb.peak_alloc_mb": "MB",
    "sharwb.n_redrawn": "count",
    "ttests.self_s": "s",
    "ttests.calls": "count",
    "statdist.two_sided_p.s": "s",
    "statdist.two_sided_p.calls": "count",
    "trace.overhead_s": "s",
}
# Layers that must record calls in every traced call of a workload.
_COMMON_LAYERS = (
    "lrv.select_k", "lrv.series_lrv", "basis.tables",
    "sharwb.shar_wb_test", "ttests", "statdist.two_sided_p",
)
EXPECTED_LAYERS = {
    "lab_cells": ("simlab.run_cell", "simlab.simulate_series", *_COMMON_LAYERS),
    "test_ar": ("cli.main", "cli.ingest", *_COMMON_LAYERS),
    "test_white": ("cli.main", "cli.ingest", *_COMMON_LAYERS),
}


class Run:
    """Operation tally and problems found while running one workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def operation(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


# ---------------------------------------------------------------- children

def spawn(mode: str, cfg: dict | None = None, timeout: float = CALL_TIMEOUT_S) -> tuple[dict | None, str]:
    """Run bench/child.py in a fresh interpreter; (result, error text)."""
    cmd = [sys.executable, str(CHILD), mode] + ([json.dumps(cfg)] if cfg is not None else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        return None, f"timed out after {timeout} s"
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, f"unreadable child output: {proc.stdout[-200:]!r}"


def measure_setup(run: Run) -> list[float]:
    """Import time of harmeans in fresh interpreters; the first one warms caches."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        result, err = spawn("import")
        if result is None:
            run.problems.append(f"import: {err}")
            return samples
        if i:
            samples.append(result["import_s"])
    return samples


# ------------------------------------------------------------------ checks

def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def summarize_report(report: dict) -> dict:
    """The parts of a `harmeans test` JSON report that the reference pins."""
    tests = {}
    for name, entry in report["tests"].items():
        tests[name] = {"na": entry["na"]} if "na" in entry else {
            "statistic": entry["statistic"],
            "p_value": entry["p_value"],
            "reject": entry["reject"],
        }
    return {
        "k1": report["config"]["k1"],
        "k2": report["config"]["k2"],
        "tests": tests,
        "replicate_stats": report["bootstrap"]["replicate_stats"],
    }


def compare_test_summary(got: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("k1", "k2"):
        if got[key] != ref[key]:
            problems.append(f"{key}={got[key]} differs from reference {ref[key]}")
    for name, want in ref["tests"].items():
        have = got["tests"].get(name, {})
        if have.get("reject") != want.get("reject"):
            problems.append(f"{name} reject={have.get('reject')} differs from reference")
        for key in ("statistic", "p_value"):
            if key in want and not (key in have and _close(have[key], want[key])):
                problems.append(f"{name} {key}={have.get(key)} differs from reference {want[key]}")
    stats, want = got["replicate_stats"], ref["replicate_stats"]
    if len(stats) != len(want) or not all(_close(a, b) for a, b in zip(stats, want)):
        problems.append("bootstrap replicate statistics differ from reference")
    return problems


def check_test_report(report: dict, independent: dict, reference: dict | None) -> list[str]:
    problems = [f"{name} is NA: {e['na']}" for name, e in report["tests"].items() if "na" in e]
    if problems:
        return problems
    for name, want in independent.items():
        entry = report["tests"][name]
        if not _close(entry["statistic"], want["statistic"]):
            problems.append(f"{name} statistic {entry['statistic']} != numpy {want['statistic']}")
        if not _close(entry["reference"]["df"], want["df"]):
            problems.append(f"{name} df {entry['reference']['df']} != numpy {want['df']}")
    if reference is not None:
        problems += compare_test_summary(summarize_report(report), reference)
    return problems


def check_lab_sweep(cells: dict, first: dict | None, reference: dict | None) -> dict[str, list[str]]:
    """Problems per cell of one sweep."""
    out = {}
    for name, got in cells.items():
        problems = []
        if "error" in got:
            problems.append(got["error"])
        else:
            if got["n_excluded"] or got["n_completed"] != LAB["n_mc"]:
                problems.append(f"{got['n_excluded']} replications excluded")
            if first is not None and got != first[name]:
                problems.append("outcome differs from the first sweep")
            if reference is not None and got["reject_counts"] != reference[name]["reject_counts"]:
                problems.append("reject counts differ from reference")
        out[name] = problems
    return out


def check_trace(record: dict, workload: str) -> list[str]:
    problems = [] if record["restored"] else ["traced functions were not restored"]
    calls = {layer: acc[2] for layer, acc in record["trace"]["layers"].items()}
    for layer in EXPECTED_LAYERS[workload]:
        if layer in record["present"] and not calls.get(layer):
            problems.append(f"layer {layer} recorded no calls")
    return problems


def load_reference(workload: str, params: dict) -> dict:
    """Reference outputs by seed, or {} when none are stored for this workload."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    if data["params"] != params:
        raise SystemExit(f"{path} was recorded with other workload parameters")
    return data["seeds"]


# --------------------------------------------------------------- workloads

def prepare_test_inputs(workload: str, seed: int) -> tuple[list[str], dict, list[str]]:
    """Write the seeded CSV inputs; return argv, independent t0/t1, out paths."""
    spec = TEST_WORKLOADS[workload]
    y1, y2 = fixtures.make_groups(seed, spec["groups"])
    rel = Path("bench") / "_work" / f"{workload}-{seed}"
    (ROOT / rel).mkdir(parents=True, exist_ok=True)
    if spec["input"] == "files":
        fixtures.write_series(ROOT / rel / "y1.csv", y1)
        fixtures.write_series(ROOT / rel / "y2.csv", y2)
        argv = ["test", "--y1", str(rel / "y1.csv"), "--y2", str(rel / "y2.csv")]
    else:
        fixtures.write_grouped(ROOT / rel / "data.csv", y1, y2)
        argv = ["test", "--data", str(rel / "data.csv"), "--group-col", "group",
                "--value-col", "value"]
    argv += ["--B", str(spec["n_boot"]), "--seed", str(seed), "--format", "json"]
    outs = [str(rel / "report.json"), str(rel / "report_untraced.json")]
    return argv, fixtures.classical_and_welch(y1, y2), outs


def run_test_workload(workload: str, seed: int, seconds: float, trace: bool, run: Run) -> dict:
    argv, independent, outs = prepare_test_inputs(workload, seed)
    reference = load_reference(workload, TEST_WORKLOADS[workload]).get(str(seed))
    first: list[bytes] = []
    calls = {"untraced": [], "traced": []}

    def one_call(traced: bool, timed: bool) -> None:
        result, err = spawn("test", {"argv": argv, "outs": outs, "trace": traced})
        reports = outs[:2] if traced else outs[:1]
        if result is None:
            for _ in reports:
                run.operation([err], "harmeans test")
            return
        for rc, rel_out in zip(result["rcs"], reports):
            problems = [f"exit code {rc}"] if rc != 0 else []
            if not problems:
                data = (ROOT / rel_out).read_bytes()
                first[:] = first or [data]
                if data != first[0]:
                    problems.append("report is not byte-identical to the first call's")
                report = json.loads(data)
                problems += check_test_report(report, independent, reference)
                result["k"] = [report["config"]["k1"], report["config"]["k2"]]
            run.operation(problems, "harmeans test")
        if traced:
            run.problems += check_trace(result, workload)
        if timed:
            calls["traced" if traced else "untraced"].append(result)

    one_call(False, timed=False)  # warm-up: page cache and bytecode
    start = time.perf_counter()
    i = 0
    while i < MIN_CALLS * (2 if trace else 1) or time.perf_counter() - start < seconds:
        one_call(trace and i % 2 == 0, timed=True)
        i += 1
    return calls


def run_lab_workload(seed: int, seconds: float, trace: bool, run: Run) -> dict:
    """Lab processes of LAB_SLICE_S timed seconds each, one after another."""
    reference = load_reference("lab_cells", LAB).get(str(seed))
    cfg = {"seed": seed, "seconds": LAB_SLICE_S, "trace": trace,
           "min_sweeps": 2 if trace else 1, **LAB}
    calls = {"sweeps": [], "rss_mb": []}
    first = None
    start = time.perf_counter()
    while len(calls["rss_mb"]) < MIN_CALLS or time.perf_counter() - start < seconds:
        result, err = spawn("lab", cfg)
        if result is None:
            run.operation([err], "lab")
            break
        for record in [result["warmup"], *result["sweeps"]]:
            for name, problems in check_lab_sweep(record["cells"], first, reference).items():
                run.operation(problems, f"run_cell {name}")
            first = first or record["cells"]
            if record["traced"]:
                run.problems += check_trace(record, "lab_cells")
        calls["sweeps"] += result["sweeps"]
        calls["rss_mb"].append(result["rss_mb"])
    return calls


# ----------------------------------------------------------------- metrics

def summary(values: list[float]) -> dict:
    """Median with sample count and quartiles (statistics.quantiles, n=4)."""
    if not values:
        return {"n": 0, "median": float("nan"), "q1": float("nan"), "q3": float("nan")}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


_LAYER_FIELDS = {"s": 0, "self_s": 1, "calls": 2}  # index into [total_s, self_s, calls]


def layer_values(snapshot: dict) -> dict:
    """Per-layer metrics of one traced call: `<layer>.<s|self_s|calls>` or a counter."""
    values = dict(snapshot["counters"])
    for name in PER_LAYER:
        layer, field = name.rsplit(".", 1)
        if name not in values and field in _LAYER_FIELDS:
            values[name] = snapshot["layers"].get(layer, [0.0, 0.0, 0])[_LAYER_FIELDS[field]]
    return values


def end_to_end_samples(workload: str, setup: list[float], calls: dict) -> dict:
    if workload == "lab_cells":
        sweeps = [s for s in calls["sweeps"] if not s["traced"]]
        reps = [sum(c.get("n_completed", 0) for c in s["cells"].values()) for s in sweeps]
        return {
            "setup_s": setup,
            "call_s": [s["wall_s"] for s in sweeps],
            "reps_per_s": [r / s["wall_s"] for r, s in zip(reps, sweeps)],
            "peak_rss_mb": calls["rss_mb"],
        }
    n_boot = TEST_WORKLOADS[workload]["n_boot"]
    untraced = calls["untraced"]
    return {
        "setup_s": setup,
        "call_s": [c["call_s"] for c in untraced],
        "reps_per_s": [n_boot / c["call_s"] for c in untraced],
        "peak_rss_mb": [c["rss_mb"] for c in untraced],
    }


def per_layer_samples(workload: str, calls: dict) -> dict:
    if workload == "lab_cells":
        traced = [s for s in calls["sweeps"] if s["traced"]]
        untraced = [s for s in calls["sweeps"] if not s["traced"]]
        wall = "wall_s"
    else:
        traced, untraced, wall = calls["traced"], calls["untraced"], "call_s"
    samples = {name: [] for name in PER_LAYER}
    for record in traced:
        for name, value in layer_values(record["trace"]).items():
            samples[name].append(value)
    if traced and untraced:
        samples["trace.overhead_s"] = [
            statistics.median(r[wall] for r in traced) - statistics.median(r[wall] for r in untraced)
        ]
    return samples


# ------------------------------------------------------------- environment

def _blas_threads() -> int | None:
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "blas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(calls: dict, workload: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src" / "harmeans").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    env = {
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    if workload in TEST_WORKLOADS:
        ks = [c.get("k") for c in calls["untraced"] + calls["traced"]]
        env["k1_k2"] = ks[0] if ks else None
    return env


# -------------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "harmeans" / "__init__.py").is_file():
        sys.stderr.write(f"no harmeans package under {ROOT / 'src'}; nothing to measure\n")
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    run = Run()
    setup = measure_setup(run)
    if args.workload == "lab_cells":
        calls = run_lab_workload(args.seed, args.seconds, bool(args.trace), run)
    else:
        calls = run_test_workload(args.workload, args.seed, args.seconds, bool(args.trace), run)

    if args.trace:
        samples, units = per_layer_samples(args.workload, calls), PER_LAYER
    else:
        samples, units = end_to_end_samples(args.workload, setup, calls), END_TO_END
    summaries = {name: summary(samples[name]) for name in units}
    missing = [name for name, s in summaries.items() if s["n"] == 0]
    if missing:
        run.problems.append(f"no samples for {missing}")
    for name, s in summaries.items():
        print(f"{name:<30} {s['median']:>14.6g} {units[name]:<6} "
              f"n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "error_rate": run.failed / max(run.attempted, 1),
        "metrics": summaries,
        "environment": environment(calls, args.workload),
        "problems": run.problems[:50],
    }
    if not args.trace and args.workload in TEST_WORKLOADS and len(samples["call_s"]) > 1:
        detail["call_s_p90"] = statistics.quantiles(samples["call_s"], n=10)[-1]
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": None if math.isnan(s["median"]) else s["median"],
                           "unit": units[name]}
                    for name, s in summaries.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
