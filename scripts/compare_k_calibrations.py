#!/usr/bin/env python3
"""Side-by-side Monte Carlo comparison of two basis-count calibrations.

The selection rule K = ceil(0.42293 |B|^(-1/3) T^(2/3)) needs a normalized
curvature B of the AR(1) plug-in.  Two candidates exist:

* "quartic":  B = -(pi^2/3) a / (1-a)^4, the scalar collapse of the
  seven-term matrix formula this package implements (see lrv._curvature_b);
* "spectral": B = -(pi^2/3) a / (1-a)^2, i.e. -(pi^2/6) f''(0)/f(0) for an
  AR(1) spectral density, the quantity curvature-based smoothing rules are
  usually built on.

They agree at a ~ 0 and diverge under strong positive dependence (the
spectral rule selects roughly (1-a)^(-2/3)-fold more basis functions).
This script reruns the size/power cells that are sensitive to the choice
so the two calibrations can be compared directly.
"""

import argparse
import math
import sys

import harmeans.lrv as lrv
import harmeans.simlab as simlab
from harmeans.simlab import Scenario, run_cell

QUARTIC = lrv._curvature_b


def spectral(a: float, sigma: float) -> float:
    return -(math.pi**2 / 3.0) * a * sigma / (1.0 - a) ** 2


CELLS = [
    ("size  rho=0.0 T=200 equal LRVs", dict(t1=200, t2=200, rho=0.0)),
    ("size  rho=0.5 T=200 equal LRVs", dict(t1=200, t2=200, rho=0.5)),
    ("size  rho=0.8 T=200 equal LRVs", dict(t1=200, t2=200, rho=0.8)),
    (
        "size  rho=0.5 T=30 unequal LRVs",
        dict(t1=30, t2=30, rho=0.5, sigma1=0.06, sigma2=0.18),
    ),
    ("power rho=0.8 T=200 a=1.1", dict(t1=200, t2=200, rho=0.8, a=1.1)),
    ("power rho=0.8 T=200 a=1.2", dict(t1=200, t2=200, rho=0.8, a=1.2)),
]

COLUMNS = ("t0_har", "t1_har_norm", "t1_har", "t1_har_boot")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-mc", type=int, default=2000)
    parser.add_argument("--B", dest="n_boot", type=int, default=199)
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args()

    header = f"{'cell':<34} {'rule':<9}" + "".join(f"{c:>14}" for c in COLUMNS)
    print(header)
    print("-" * len(header))
    for label, kw in CELLS:
        for rule_name, rule in (("quartic", QUARTIC), ("spectral", spectral)):
            lrv._curvature_b = rule
            # lab workers forked under the other rule would keep it
            simlab._stop_workers()
            try:
                cell = run_cell(
                    Scenario(
                        seed=args.seed, n_mc=args.n_mc, n_boot=args.n_boot, **kw
                    )
                )
            finally:
                lrv._curvature_b = QUARTIC
            rates = "".join(
                f"{100.0 * cell.rejection_rates[c]:>14.2f}" for c in COLUMNS
            )
            print(f"{label:<34} {rule_name:<9}{rates}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
