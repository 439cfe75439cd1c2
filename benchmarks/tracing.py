"""Per-layer spans and counters, installed from outside pcflow.

``Tracer.install`` replaces public pcflow functions with timing wrappers.
A name imported into another module (``cli`` and ``identities`` import
``mu_report``, ``embed_support`` and others by name) is a separate binding,
so every pcflow module attribute that holds the original is replaced, not
just the defining one.  ``uninstall`` puts the originals back and returns
any binding that still holds a wrapper.

Each span's exclusive time (its duration minus its direct child spans) is
charged to its layer, so a layer's self time excludes the calls it makes
into other wrapped functions.  Functions called thousands of times per
operation inside a step are counted but not timed.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc

# Timed public functions, by defining module, with the layer they belong to.
SPANS = {
    "pcflow.flow": ("flow", ["run_flow", "stable_dt", "step_support",
                             "step_markers"]),
    "pcflow.curves": ("curves", ["construct_curve", "embed_support"]),
    "pcflow.noncollapse": ("noncollapse", ["mu_report", "z_matrix",
                                           "inscribed_radius_oracle"]),
    "pcflow.identities": ("identities", [
        "theorem_property_run", "evolution_refinement_study",
        "trig_refined_profile", "rewrite_equivalence_sweep"]),
    "pcflow.reporting": ("reporting", [
        "write_json", "write_timeseries_csv", "write_support_curve_csv",
        "write_snapshot_svg", "write_mu0_csv"]),
    "pcflow.config": ("config", ["parse_config"]),
    "pcflow.cli": ("cli", ["main"]),
}
WRITERS = SPANS["pcflow.reporting"][1]
# Counted only: one call per stencil evaluation.
COUNTED = {"pcflow.curves": ["diff2_periodic"]}
# Position of the output path among each writer's arguments.
WRITER_PATH_ARG = {"write_snapshot_svg": 1}
# tracemalloc runs from the start of each mu_report call until it returns or
# reaches its first disc-oracle call.  The kernel's peak comes before the
# oracle, and tracemalloc would double the time of the oracle's many small
# allocations.
TRACE_ALLOC = "mu_report"
ENDS_ALLOC = "inscribed_radius_oracle"

MARK = "__pcflow_bench_wrapper__"


def _marked(original):
    """Decorator: make a wrapper look like ``original`` and tag it."""
    def decorate(wrapper):
        functools.update_wrapper(wrapper, original)
        setattr(wrapper, MARK, True)
        return wrapper
    return decorate


def _pcflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pcflow" or name.startswith("pcflow."))]


class Tracer:
    """Spans and counters of one traced run; see module docstring."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.exclusive: dict[str, float] = {}
        self.layer_self: dict[str, float] = {}
        self.files = 0
        self.bytes = 0
        self.peak_alloc = 0
        self._alloc_open = False
        self._stack: list[list] = []      # [name, layer, start, child time]
        self._patched: list[tuple] = []   # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, layer, fn):
        @_marked(fn)
        def wrapper(*args, **kwargs):
            if name == "run_flow" and kwargs.get("monitors") and self._stack:
                # Monitor callbacks are the caller's work (cli, identities).
                caller = self._stack[-1][1]
                kwargs["monitors"] = [self._span("monitor", caller, m)
                                      for m in kwargs["monitors"]]
            frame = [name, layer, time.perf_counter(), 0.0]
            self._stack.append(frame)
            alloc = name == TRACE_ALLOC and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
                self._alloc_open = True
            elif name == ENDS_ALLOC:
                self._end_alloc()
            try:
                out = fn(*args, **kwargs)
            finally:
                if alloc:
                    self._end_alloc()
                dur = time.perf_counter() - frame[2]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][3] += dur
                excl = dur - frame[3]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
                self.exclusive[name] = self.exclusive.get(name, 0.0) + excl
                self.layer_self[layer] = self.layer_self.get(layer, 0.0) + excl
            if name in WRITERS:
                self.files += 1
                self.bytes += os.path.getsize(args[WRITER_PATH_ARG.get(name, 0)])
            return out
        return wrapper

    def _end_alloc(self):
        if self._alloc_open:
            self.peak_alloc = max(self.peak_alloc,
                                  tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            self._alloc_open = False

    def _counter(self, name, fn):
        @_marked(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch_everywhere(self, original, wrapper):
        for mod in _pcflow_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def install(self) -> None:
        import pcflow.cli  # noqa: F401  (loads every layer)
        from pcflow.noncollapse import NonCollapseReport

        for modname, (layer, names) in SPANS.items():
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name)
                self._patch_everywhere(fn, self._span(name, layer, fn))
        for modname, names in COUNTED.items():
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name)
                self._patch_everywhere(fn, self._counter(name, fn))
        to_dict = NonCollapseReport.to_dict
        NonCollapseReport.to_dict = self._span("to_dict", "noncollapse", to_dict)
        self._patched.append((NonCollapseReport, "to_dict", to_dict))

    def uninstall(self) -> list[str]:
        """Restore every original; return bindings still wrapped (none)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return leftover_wrappers()

    # -- metrics -----------------------------------------------------------

    def _mean(self, name, scale=1.0, table=None):
        """Mean inclusive (or ``table``) time per call of ``name``, scaled."""
        n = self.calls.get(name, 0)
        if not n:
            return 0.0
        table = self.inclusive if table is None else table
        return table[name] / n * scale

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics over ``n_ops`` traced operations.

        Counts are totals over the operations, times of a layer are per
        operation, and times of a function are means per call.
        """
        calls = self.calls.get
        steps = calls("step_support", 0) + calls("step_markers", 0)
        flow_self = self.layer_self.get("flow", 0.0)
        return {
            "flow.steps": (steps, "count"),
            "flow.self_s": (flow_self / n_ops, "s"),
            "flow.us_per_step": (flow_self / steps * 1e6 if steps else 0.0, "us"),
            "flow.stable_dt_us": (self._mean("stable_dt", 1e6), "us"),
            "curves.stencils_per_step": (
                calls("diff2_periodic", 0) / steps if steps else 0.0, "count"),
            "curves.embed_ms": (self._mean("embed_support", 1e3), "ms"),
            "curves.construct_ms": (self._mean("construct_curve", 1e3), "ms"),
            "noncollapse.mu_report_calls": (calls("mu_report", 0), "count"),
            "noncollapse.mu_report_ms": (self._mean("mu_report", 1e3), "ms"),
            "noncollapse.z_matrix_ms": (self._mean("z_matrix", 1e3), "ms"),
            "noncollapse.peak_alloc_mb": (self.peak_alloc / 2 ** 20, "MB"),
            "noncollapse.oracle_calls": (calls("inscribed_radius_oracle", 0), "count"),
            "noncollapse.oracle_ms": (
                self._mean("inscribed_radius_oracle", 1e3), "ms"),
            "noncollapse.to_dict_ms": (self._mean("to_dict", 1e3), "ms"),
            "identities.theorem_run_s": (self._mean("theorem_property_run"), "s"),
            "identities.refinement_s": (self._mean("evolution_refinement_study"), "s"),
            "identities.trig_profile_s": (self._mean("trig_refined_profile"), "s"),
            "identities.trig_profile_self_s": (
                self._mean("trig_refined_profile", table=self.exclusive), "s"),
            "identities.rewrite_sweep_s": (
                self._mean("rewrite_equivalence_sweep"), "s"),
            "reporting.write_s": (
                sum(self.inclusive.get(w, 0.0) for w in WRITERS) / n_ops, "s"),
            "reporting.files": (self.files, "count"),
            "reporting.bytes": (self.bytes, "count"),
            "config.parse_ms": (self._mean("parse_config", 1e3), "ms"),
            "cli.self_s": (self.layer_self.get("cli", 0.0) / n_ops, "s"),
        }


def leftover_wrappers() -> list[str]:
    """Every pcflow binding that still holds a benchmark wrapper."""
    from pcflow.noncollapse import NonCollapseReport

    found = [f"{m.__name__}.{attr}" for m in _pcflow_modules()
             for attr, value in vars(m).items() if getattr(value, MARK, False)]
    if getattr(NonCollapseReport.to_dict, MARK, False):
        found.append("NonCollapseReport.to_dict")
    return found
