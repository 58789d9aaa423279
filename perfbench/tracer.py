"""Layer spans and program counters for the benchmark's traced runs.

The program is left untouched: :class:`LayerTracer` replaces public
functions and methods with timing wrappers from the outside, after the
modules are imported.  Each wrapped call is a span of its layer.  A
span's self time is its duration minus the time of the spans it
encloses, so nested layers (shooting > transient > Newton > linear
solve) fold into a table whose self times add up to the traced time.

Hooks whose target is missing are skipped and listed in
``LayerTracer.missing``; a refactor that renames a target then shows
in the layer table instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

#: Modules searched for import sites of a wrapped function (besides the
#: module that the hook names).
SITE_PREFIX = "repro."

#: The program's own telemetry counters, summed over their labels into
#: circuit.* metrics.
COUNTERS = {
    "circuit.newton.solves": ("repro_mna_newton_solves_total",),
    "circuit.newton.iterations": ("repro_mna_newton_iterations_total",),
    "circuit.pss.solves": ("repro_pss_solves_total",),
    "circuit.pss.iterations": ("repro_pss_iterations_total",),
    "circuit.convergence_failures": ("repro_mna_convergence_failures_total",
                                     "repro_pss_convergence_failures_total"),
}


def counter_totals(registry) -> dict:
    """:data:`COUNTERS` read from a telemetry registry."""
    snap = registry.snapshot()
    return {metric: sum(series["value"] for name in names
                        for series in snap.get(name, {}).get("series", []))
            for metric, names in COUNTERS.items()}


class LayerStats:
    __slots__ = ("calls", "work", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.work = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class LayerTracer:
    """Per-layer call counts, work counts, inclusive and self time."""

    def __init__(self):
        self.layers = {}
        self.missing = []
        self._local = threading.local()

    def stats(self, layer: str) -> LayerStats:
        if layer not in self.layers:
            self.layers[layer] = LayerStats()
        return self.layers[layer]

    def wrap(self, layer: str, fn, work=None):
        """``fn`` timed as a span of ``layer``.

        ``work(args, kwargs)`` gives the work units of one call (the
        default is one).  A call made while the same layer is already
        open (recursion, ``super()`` into a wrapped base) adds only its
        self time, so calls and inclusive time count outermost spans.
        """
        stats = self.stats(layer)
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            stats.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats.depth -= 1
                stats.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if stats.depth == 0:
                    stats.calls += 1
                    stats.total_s += dt
                    stats.work += 1 if work is None else work(args, kwargs)

        return traced

    # -- installation --------------------------------------------------------

    def hook_function(self, layer: str, dotted: str, work=None) -> None:
        """Wrap ``module.func`` there and at its import sites in repro."""
        module_name, _, attr = dotted.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(dotted)
            return
        traced = self.wrap(layer, original, work)
        for name, mod in list(sys.modules.items()):
            if not (name.startswith(SITE_PREFIX) or name == module_name) \
                    or not hasattr(mod, "__dict__"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def hook_method(self, layer: str, cls, name: str, work=None) -> None:
        """Wrap ``cls.name`` (defined on ``cls`` itself)."""
        original = cls.__dict__.get(name)
        if original is None or not callable(original):
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{name}")
            return
        setattr(cls, name, self.wrap(layer, original, work))

    def hook_attr_method(self, layer: str, dotted_cls: str, name: str,
                         work=None) -> None:
        """:meth:`hook_method` with the class given by dotted path."""
        module_name, _, cls_name = dotted_cls.rpartition(".")
        try:
            cls = getattr(importlib.import_module(module_name), cls_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{dotted_cls}.{name}")
            return
        self.hook_method(layer, cls, name, work)

    def hook_instance(self, layer: str, obj, name: str) -> None:
        """Wrap a bound method stored on one instance (engine singletons)."""
        original = getattr(obj, name, None)
        if original is None:
            self.missing.append(f"{type(obj).__name__}.{name}")
            return
        setattr(obj, name, self.wrap(layer, original))

    def reset(self) -> None:
        """Zero every layer (the wrappers keep their stats objects)."""
        for s in self.layers.values():
            s.calls = s.work = 0
            s.total_s = s.self_s = 0.0

    # -- reporting -----------------------------------------------------------

    def document(self) -> dict:
        return {
            "layers": {layer: {"calls": s.calls, "work": s.work,
                               "total_s": s.total_s, "self_s": s.self_s}
                       for layer, s in self.layers.items()},
            "missing": sorted(self.missing),
        }


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


def install_circuit_hooks(tracer: LayerTracer) -> None:
    """Circuit, device, rc, engine and cache layers.

    Call after the program's modules are imported: import sites are
    found by scanning the loaded ``repro.*`` modules.
    """
    from repro.circuit.elements.base import Element

    t = tracer
    t.hook_function("circuit.shooting", "repro.circuit.pss.shooting")
    t.hook_function("circuit.shooting_batch",
                    "repro.circuit.batch_transient.shooting_batch",
                    work=lambda a, k: len(a[0] if a else k["circuits"]))
    t.hook_function("circuit.shooting_batch",
                    "repro.circuit.batch_transient.shooting_jacobian_batched")
    t.hook_function("circuit.transient", "repro.circuit.transient.transient")
    t.hook_attr_method("circuit.batch_transient",
                       "repro.circuit.batch_transient.BatchTransientSolver",
                       "run")
    # Newton: the scalar context's public solve, and the batched
    # solver's lock-step Newton so the layer survives a move between them.
    t.hook_attr_method("circuit.newton", "repro.circuit.mna.MnaContext",
                       "solve_newton")
    t.hook_attr_method("circuit.newton",
                       "repro.circuit.batch_transient.BatchTransientSolver",
                       "_solve_newton")
    t.hook_function("circuit.linear_solve", "numpy.linalg.solve")
    t.hook_function("circuit.linear_solve",
                    "repro.circuit.sparse.sparse_solve")
    t.hook_function("circuit.linear_solve",
                    "repro.circuit.sparse.sparse_solve_batch")
    t.hook_function("circuit.linear_solve",
                    "repro.circuit.batch_transient._batched_solve")
    for cls in _subclasses(Element):
        for name in list(cls.__dict__):
            if name.startswith("stamp_") or name == "accept_step":
                t.hook_method("circuit.stamp", cls, name)
    t.hook_attr_method("circuit.stamp", "repro.circuit.mna._MosfetGroup",
                       "stamp")
    for name in ("add_geq_stack", "stamp_rhs", "accept_step"):
        t.hook_attr_method("circuit.stamp",
                           "repro.circuit.batch_transient._BatchCapacitors",
                           name)
    t.hook_attr_method("circuit.stamp",
                       "repro.circuit.batch_transient._BatchMosfets", "stamp")
    t.hook_function("tech.device_eval",
                    "repro.tech.mosfet_models.ids_full_vec")
    t.hook_attr_method("core.rc_solve", "repro.core.rc_model.RcBatchSolver",
                       "solve")
    t.hook_attr_method("core.rc_solve", "repro.core.rc_model.RcSwitchSolver",
                       "solve")
    t.hook_attr_method("exec.cache.put", "repro.exec.cache.ResultCache",
                       "put_config")
    try:
        from repro.engines.base import ENGINES, engine_ids
    except ImportError:
        t.missing.append("repro.engines.base.ENGINES")
    else:
        for eid in engine_ids():
            for op in ("evaluate", "sweep_supply", "monte_carlo"):
                t.hook_instance(f"engines.{eid}", ENGINES[eid], op)


def install_serve_hooks(tracer: LayerTracer) -> None:
    """Per-request serving layers (call before the server starts)."""
    t = tracer
    t.hook_attr_method("serve.parse_predict",
                       "repro.serve.server.ServingCore", "parse_predict")
    for name in ("model_margins", "margins", "predict"):
        t.hook_attr_method("serve.engine",
                           "repro.serve.engine.BatchInferenceEngine", name)
    t.hook_function("serve.encode", "repro.serve.server.encode_json")
    t.hook_attr_method("serve.metrics_observe",
                       "repro.serve.server.ServingMetrics", "observe")
