"""In-process run of a workload's reports, optionally traced layer by layer.

    PYTHONPATH=src python3 perfbench/inproc.py SPEC.json

SPEC names the config, the optional trace file, the output directory, the
subcommands and whether to trace.  The run calls ``config.load_config``
once and then ``report.run_report`` per subcommand, and writes its wall
time, the bytes the reports wrote and, when traced, every span and counter
to SPEC's ``result`` path.

Tracing wraps the layer functions from outside: each function is looked
up once and replaced, by object identity, in every ``chansim.*`` namespace
that binds it, so ``from .x import f`` bindings are caught too.  A
function that no longer exists is listed as absent instead of failing.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path


def _rays(snapshots) -> int:
    return sum(len(s) for s in snapshots)


# (module, function, items handled, label that splits the span name)
SPAN_LAYERS = (
    ("config", "load_config", None, None),
    ("report", "run_report", None, None),
    ("synth", "synth_scenario", lambda a, r: _rays(r), None),
    ("traceio", "load_trace", lambda a, r: _rays(r), None),
    ("antenna", "spatial_filter", lambda a, r: len(a[0]), None),
    ("mpc", "coherent_power_dbm", lambda a, r: len(a[0]), None),
    ("atmosphere", "total_atmospheric_db", None, None),
    ("link_budget", "sweep_pass", lambda a, r: len(a[1]), None),
    ("dispersion", "spread_report", lambda a, r: len(a[0]), None),
    ("clustering", "build_features", lambda a, r: len(a[0]), None),
    ("clustering", "dbscan", lambda a, r: len(a[0]) ** 2, None),
    ("fading", "sample", lambda a, r: int(a[1]),
     lambda a: {"RicianParams": "rician"}.get(type(a[0]).__name__, "shadowed-rician")),
    ("fading", "fit", lambda a, r: len(a[0]), lambda a: a[1].value),
    ("fading", "shadowed_rician_mass", None, None),
    ("ntn", "load_tap_table", None, None),
    ("ntn", "ntn_attenuation_db", None, None),
)

# Functions that run too often for a span each: (owner module, function,
# metric name, count only inside a fading span, extra amounts per call).
COUNTED = (
    ("chansim.special", "log_i0", "fading.log_i0", False,
     lambda a, r: {"items": getattr(a[0], "size", 1)}),
    ("scipy.integrate", "quad", "fading.quad", True, lambda a, r: {}),
    ("scipy.optimize", "minimize_scalar", "fading.minimize_scalar", True,
     lambda a, r: {"nfev": getattr(r, "nfev", 0)}),
)

_ITEM_ERRORS = (TypeError, AttributeError, IndexError, ValueError)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int | None, int]] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = [0]
        self._last_id = 0
        self._fading_depth = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span_wrapper(self, fn, name: str, items_of, label_of):
        in_fading = name.startswith("fading.")
        # A mass call that starts no quadrature was answered from a cache.
        is_mass = name == "fading.shadowed_rician_mass"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = name
            if label_of is not None:
                try:
                    full = f"{name}.{label_of(args)}"
                except _ITEM_ERRORS:
                    pass
            self._last_id += 1
            call_id = self._last_id
            parent = self._stack[-1]
            self._stack.append(call_id)
            self._fading_depth += in_fading
            quads = self.counters.get("fading.quad.calls", 0)
            result = None
            failed = 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._fading_depth -= in_fading
                items = None
                if items_of is not None and not failed:
                    try:
                        items = items_of(args, result)
                    except _ITEM_ERRORS:
                        pass
                if is_mass and not failed:
                    ran_quadrature = self.counters.get("fading.quad.calls", 0) != quads
                    self.count("fading.shadowed_rician_mass.no_quad", not ran_quadrature)
                self.spans.append((call_id, parent, full, start, end, items, failed))

        return wrapper

    def counting_wrapper(self, fn, name: str, fading_only: bool, amounts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._fading_depth or not fading_only:
                self.count(f"{name}.calls")
                for field, amount in amounts(args, result).items():
                    self.count(f"{name}.{field}", amount)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function that exists in this version of chansim."""
        for module, func, items_of, label_of in SPAN_LAYERS:
            original = _lookup(f"chansim.{module}", func)
            if original is None:
                self.absent.append(f"{module}.{func}")
                continue
            _replace(original, self.span_wrapper(original, f"{module}.{func}", items_of, label_of))
        for owner, func, name, fading_only, amounts in COUNTED:
            original = _lookup(owner, func)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.counting_wrapper(original, name, fading_only, amounts)
            _replace(original, wrapper)
            setattr(sys.modules[owner], func, wrapper)


def _lookup(module: str, func: str):
    try:
        return getattr(importlib.import_module(module), func, None)
    except ImportError:
        return None


def _replace(original, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "chansim" or mod_name.startswith("chansim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import chansim.cli  # noqa: F401  (the modules a CLI call would load)

    tracer = Tracer() if spec["traced"] else None
    if tracer is not None:
        tracer.install()
    config_mod = importlib.import_module("chansim.config")
    report_mod = importlib.import_module("chansim.report")
    out = Path(spec["out_dir"])
    bytes_written = 0
    start = time.perf_counter()
    config = config_mod.load_config(spec["config"])
    for sub in spec["subcommands"]:
        report_mod.run_report(config, sub, out / sub, trace_path=spec["trace"])
        bytes_written += sum(f.stat().st_size for f in (out / sub).iterdir() if f.is_file())
    wall = time.perf_counter() - start
    result = {"wall_s": wall, "bytes_written": bytes_written}
    if tracer is not None:
        result.update(spans=tracer.spans, counters=tracer.counters, absent=tracer.absent)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
