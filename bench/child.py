"""One fresh interpreter of the benchmark: imports harmeans and makes program calls.

    python3 bench/child.py import
    python3 bench/child.py test '<json config>'
    python3 bench/child.py lab '<json config>'

Prints one JSON object as its last line of standard output.  ``harmeans``
must come from this checkout's ``src/``; any other copy is refused with
exit code 3 so that it is never measured.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The five acceptance cells of tests/test_acceptance.py (c1 to c4b).
LAB_CELLS = {
    "c1": {"t1": 200, "t2": 200, "rho": 0.0},
    "c2": {"t1": 200, "t2": 200, "rho": 0.8},
    "c3": {"t1": 30, "t2": 30, "rho": 0.5, "sigma1": 0.06, "sigma2": 0.18},
    "c4a": {"t1": 200, "t2": 200, "rho": 0.8, "a": 1.1},
    "c4b": {"t1": 200, "t2": 200, "rho": 0.8, "a": 1.2},
}


def _import_harmeans() -> float:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import harmeans  # noqa: F401
    import harmeans.cli  # noqa: F401  (what the `harmeans` entry point loads)
    elapsed = time.perf_counter() - start
    origin = Path(harmeans.__file__).resolve()
    if origin != (SRC / "harmeans" / "__init__.py").resolve():
        sys.stderr.write(f"harmeans imported from {origin}, not from {SRC}\n")
        sys.exit(3)
    return elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_test(cfg: dict) -> dict:
    """One timed `harmeans test` call; traced runs add an untraced call after it."""
    from harmeans import cli

    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    argv = cfg["argv"] + ["--out", cfg["outs"][0]]
    start = time.perf_counter()
    rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
    out = {"call_s": time.perf_counter() - start, "rcs": [rc], "rss_mb": _peak_rss_mb()}
    if tracer:
        out["trace"] = tracer.snapshot()
        out["present"] = sorted(tracer.present_layers() | {"cli.main"})
        out["restored"] = tracer.restore()
        out["rcs"].append(cli.main(cfg["argv"] + ["--out", cfg["outs"][1]]))
    return out


def _cell_outcome(result) -> dict:
    return {
        "reject_counts": dict(result.reject_counts),
        "n_completed": result.n_completed,
        "n_excluded": result.n_excluded,
    }


def run_lab(cfg: dict) -> dict:
    """Sweeps of run_cell over the five cells until the deadline.

    The first sweep is an untimed warm-up.  Traced runs alternate traced and
    untraced sweeps, so both see the same cache state.
    """
    from harmeans.simlab import Scenario, run_cell

    scenarios = {
        name: Scenario(seed=cfg["seed"], n_mc=cfg["n_mc"], n_boot=cfg["n_boot"], **spec)
        for name, spec in LAB_CELLS.items()
    }
    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    def sweep(traced: bool) -> dict:
        if traced:
            tracer.reset()
            tracer.install()
        cells = {}
        start = time.perf_counter()
        for name, scenario in scenarios.items():
            try:
                if traced:
                    result = tracer.call("simlab.run_cell", run_cell, scenario)
                else:
                    result = run_cell(scenario)
                cells[name] = _cell_outcome(result)
            except Exception as exc:  # counted as a failed operation by the parent
                cells[name] = {"error": repr(exc)}
        record = {"wall_s": time.perf_counter() - start, "traced": traced, "cells": cells}
        if traced:
            record["trace"] = tracer.snapshot()
            record["present"] = sorted(tracer.present_layers() | {"simlab.run_cell"})
            record["restored"] = tracer.restore()
        return record

    warmup = sweep(False)
    sweeps = []
    deadline = time.perf_counter() + cfg["seconds"]
    while len(sweeps) < cfg["min_sweeps"] or time.perf_counter() < deadline:
        sweeps.append(sweep(bool(tracer) and len(sweeps) % 2 == 0))
    return {"warmup": warmup, "sweeps": sweeps, "rss_mb": _peak_rss_mb()}


def main() -> None:
    mode = sys.argv[1]
    import_s = _import_harmeans()
    if mode == "import":
        out = {}
    elif mode == "test":
        out = run_test(json.loads(sys.argv[2]))
    elif mode == "lab":
        out = run_lab(json.loads(sys.argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["import_s"] = import_s
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
