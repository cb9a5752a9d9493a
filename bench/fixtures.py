"""Seeded inputs for the ``harmeans test`` workloads and their independent checks.

The series are drawn with this module's own AR(1) recursion, not with
``harmeans.simlab.simulate_series``, so a change to the simulator never
changes what the ``test_*`` workloads feed the CLI.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# A draw is kept only when its lag-1 coefficient (the quantity the AR(1)
# plug-in basis-count rule reads) falls in the band, so the selected K, and
# with it the cost of a call, is the same for every seed.  Without this,
# white noise at T=10 000 selects anything from K~300 up to the T/2 clamp.
_MAX_DRAWS = 2000


def ar1_series(rng: np.random.Generator, n: int, rho: float, sigma: float, mu: float) -> np.ndarray:
    """Stationary AR(1): w_0 ~ N(0,1), w_t = rho w_{t-1} + sqrt(1-rho^2) v_t."""
    v = rng.standard_normal(n + 1)
    w = np.empty(n + 1)
    w[0] = v[0]
    scale = math.sqrt(1.0 - rho * rho)
    for t in range(1, n + 1):
        w[t] = rho * w[t - 1] + scale * v[t]
    return mu + sigma * w[1:]


def lag1_coefficient(y: np.ndarray) -> float:
    """sum u_t u_{t-1} / sum_{t<T} u_t^2 on the demeaned series."""
    u = y - y.mean()
    return float(u[1:].dot(u[:-1]) / u[:-1].dot(u[:-1]))


def draw_group(rng: np.random.Generator, spec: dict) -> np.ndarray:
    lo, hi = spec["lag1_band"]
    for _ in range(_MAX_DRAWS):
        y = ar1_series(rng, spec["n"], spec["rho"], spec["sigma"], spec["mu"])
        if lo <= lag1_coefficient(y) <= hi:
            return y
    raise RuntimeError(f"no draw with lag-1 coefficient in {spec['lag1_band']}")


def make_groups(seed: int, groups: list[dict]) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [draw_group(rng, spec) for spec in groups]


def _cell(x: float) -> str:
    return repr(float(x))  # round-trips exactly through float()


def write_series(path: Path, y: np.ndarray) -> None:
    path.write_text("value\n" + "".join(_cell(x) + "\n" for x in y), encoding="utf-8")


def write_grouped(path: Path, y1: np.ndarray, y2: np.ndarray) -> None:
    """Long format, rows interleaved in time order: group,value."""
    rows = ["group,value\n"]
    for i in range(max(y1.size, y2.size)):
        if i < y1.size:
            rows.append(f"a,{_cell(y1[i])}\n")
        if i < y2.size:
            rows.append(f"b,{_cell(y2[i])}\n")
    path.write_text("".join(rows), encoding="utf-8")


def classical_and_welch(y1: np.ndarray, y2: np.ndarray) -> dict:
    """Pooled and Welch t statistics and df, recomputed with numpy alone."""
    n1, n2 = y1.size, y2.size
    v1, v2 = y1.var(ddof=1), y2.var(ddof=1)
    diff = y1.mean() - y2.mean()
    pooled = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
    s1, s2 = v1 / n1, v2 / n2
    return {
        "t0": {
            "statistic": float(diff / math.sqrt(pooled * (1.0 / n1 + 1.0 / n2))),
            "df": float(n1 + n2 - 2),
        },
        "t1": {
            "statistic": float(diff / math.sqrt(s1 + s2)),
            "df": float((s1 + s2) ** 2 / (s1 * s1 / (n1 - 1) + s2 * s2 / (n2 - 1))),
        },
    }
