"""Record the reference outputs that bench/run.py compares against.

    python3 bench/make_reference.py [--seeds 16]

Writes bench/reference/<workload>.json for seeds 0..N-1 from the program in
this checkout.  Re-record only when a change is meant to alter outputs
(for example a new RNG stream layout), and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import json

import run


def test_reference(workload: str, seed: int) -> dict:
    argv, _, outs = run.prepare_test_inputs(workload, seed)
    result, err = run.spawn("test", {"argv": argv, "outs": outs, "trace": False})
    if result is None or result["rcs"] != [0]:
        raise SystemExit(f"{workload} seed {seed}: {err or result['rcs']}")
    report = json.loads((run.ROOT / outs[0]).read_text(encoding="utf-8"))
    return run.summarize_report(report)


def lab_reference(seed: int) -> dict:
    cfg = {"seed": seed, "seconds": 0, "trace": False, "min_sweeps": 0, **run.LAB}
    result, err = run.spawn("lab", cfg)
    if result is None:
        raise SystemExit(f"lab_cells seed {seed}: {err}")
    cells = result["warmup"]["cells"]
    bad = {name: c for name, c in cells.items() if "error" in c or c["n_excluded"]}
    if bad:
        raise SystemExit(f"lab_cells seed {seed}: {bad}")
    return cells


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args()
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    params = {"lab_cells": run.LAB, **run.TEST_WORKLOADS}
    for workload in run.WORKLOADS:
        seeds = {}
        for seed in range(args.seeds):
            if workload == "lab_cells":
                seeds[str(seed)] = lab_reference(seed)
            else:
                seeds[str(seed)] = test_reference(workload, seed)
            print(workload, seed, flush=True)
        # One seed per line keeps the files diffable without a line per float.
        lines = [f"{json.dumps(str(seed))}: {json.dumps(entry)}" for seed, entry in seeds.items()]
        text = (f'{{"params": {json.dumps(params[workload])},\n"seeds": {{\n'
                + ",\n".join(lines) + "\n}}\n")
        (run.REFERENCE_DIR / f"{workload}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
