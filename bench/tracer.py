"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each traced public function with a timing
wrapper in every ``harmeans`` module namespace that holds it.  The package
imports functions by name (``from .lrv import series_lrv`` in ``ttests``,
``sharwb`` and ``cli``), so patching only the defining module would miss
most calls.  ``restore`` puts every original back and checks that it did.

A span's self time is its duration minus the time covered by its direct
child spans.  Spans are folded into per-layer totals as they end, so memory
stays flat over long runs.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# One shar_wb_test call in this many runs under tracemalloc.  Tracing every
# call would triple the layer's self time on the lab's small samples.
PEAK_PROBE_EVERY = 100

# (defining module, function, layer).  Several functions may feed one layer.
TARGETS = (
    ("harmeans.cli", "ingest", "cli.ingest"),
    ("harmeans.simlab", "simulate_series", "simlab.simulate_series"),
    ("harmeans.lrv", "select_k", "lrv.select_k"),
    ("harmeans.lrv", "series_lrv", "lrv.series_lrv"),
    ("harmeans.basis", "phi_matrix", "basis.tables"),
    ("harmeans.basis", "psi_matrices", "basis.tables"),
    ("harmeans.sharwb", "shar_wb_test", "sharwb.shar_wb_test"),
    ("harmeans.ttests", "classical_t", "ttests"),
    ("harmeans.ttests", "welch_t", "ttests"),
    ("harmeans.ttests", "har_pooled_t", "ttests"),
    ("harmeans.ttests", "har_welch_t", "ttests"),
    ("harmeans.statdist", "two_sided_p", "statdist.two_sided_p"),
)


def _nbytes(result) -> int:
    arrays = result if isinstance(result, tuple) else (result,)
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.layers: dict[str, list[float]] = {}  # layer -> [total_s, self_s, calls]
        self.counters = {
            "basis.table_misses": 0,
            "basis.table_bytes": 0,
            "sharwb.peak_alloc_mb": 0.0,
            "sharwb.n_redrawn": 0,
        }

    def snapshot(self) -> dict:
        return {
            "layers": {k: list(v) for k, v in self.layers.items()},
            "counters": dict(self.counters),
        }

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span of the given layer."""
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            dt = time.perf_counter() - frame[0]
            acc = self.layers.setdefault(layer, [0.0, 0.0, 0])
            acc[0] += dt
            acc[1] += dt - frame[1]
            acc[2] += 1
            if self._stack:
                self._stack[-1][1] += dt

    def _wrap(self, layer: str, fn):
        if layer == "basis.tables" and hasattr(fn, "cache_info"):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                misses = fn.cache_info().misses
                result = self.call(layer, fn, *args, **kwargs)
                if fn.cache_info().misses > misses:
                    self.counters["basis.table_misses"] += 1
                    self.counters["basis.table_bytes"] += _nbytes(result)
                return result
        elif layer == "sharwb.shar_wb_test":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                c = self.counters
                if self.layers.get(layer, (0, 0, 0))[2] % PEAK_PROBE_EVERY:
                    result = self.call(layer, fn, *args, **kwargs)
                else:
                    tracemalloc.start()
                    try:
                        result = self.call(layer, fn, *args, **kwargs)
                        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    finally:
                        tracemalloc.stop()
                    c["sharwb.peak_alloc_mb"] = max(c["sharwb.peak_alloc_mb"], peak_mb)
                c["sharwb.n_redrawn"] += int(getattr(result[1], "n_redrawn", 0))
                return result
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(layer, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "harmeans" or name.startswith("harmeans."))
        ]
        self.absent = []
        for mod_name, attr, layer in TARGETS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def present_layers(self) -> set[str]:
        """Layers with at least one target function found in the program."""
        return {layer for mod, attr, layer in TARGETS if f"{mod}.{attr}" not in self.absent}

    def restore(self) -> bool:
        """Put every original back; True when each namespace holds it again."""
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        ok = all(getattr(mod, name) is original for mod, name, original in self._patched)
        self._patched = []
        return ok
