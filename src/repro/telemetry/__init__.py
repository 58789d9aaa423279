"""Process-local telemetry: tracing spans, metrics, run profiles.

Three pillars, all dependency-free (stdlib only):

* **tracing** — ``with telemetry.span("mna.newton", analysis="tran"):``
  records nested, thread-correct spans exported as JSONL
  (:mod:`repro.telemetry.trace`);
* **metrics** — counters/gauges/histograms behind a :class:`Registry`
  with one shared lock and a Prometheus text exposition
  (:mod:`repro.telemetry.metrics`);
* **run profiles** — per-``RunConfig`` counter deltas and stage
  timings (:mod:`repro.telemetry.profile`).

Everything is **off by default and zero-cost when off**: the module
keeps a single global :class:`Runtime` that is ``None`` until
:func:`enable` is called.  A traced entry point is decorated once::

    @telemetry.traced("mna.transient",
                      tags=lambda circuit, *_, method, **__: {...},
                      done=_tag_steps)
    def transient(circuit, tstop, dt, *, method="trap", ...):

and costs one ``None`` check and a direct call when disabled
(:func:`traced`).  Counters inside a loop guard with::

    rt = telemetry.active()
    if rt is not None:
        rt.count("repro_mna_newton_solves_total")

which costs one function call and a ``None`` check per site when
disabled.  Convenience wrappers (:func:`span`, :func:`count`,
:func:`observe`) hide the guard for warm-but-not-hot paths; when
disabled :func:`span` returns a shared no-op context manager (no
allocation per call).

Enablement knobs (any one of):

* ``REPRO_TELEMETRY=1`` in the environment (checked at import; a trace
  written to ``REPRO_TRACE_OUT`` at interpreter exit if set);
* ``--telemetry`` / ``--trace-out`` on the CLI (``run``, ``all``,
  ``campaign run``, ``serve``);
* ``telemetry.enable(trace_path=...)`` from Python.

Instrumentation *observes only*: with telemetry enabled or disabled,
golden artifacts and batched-vs-one-lane bit-identity are unchanged
(pinned by ``tests/test_telemetry.py``).
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import os
import sys
from typing import Any, Dict, Iterator, Optional

from .metrics import (DEFAULT_BUCKETS, Registry,  # noqa: F401
                      validate_prometheus_text)
from .trace import Tracer, load_jsonl, span_depths  # noqa: F401


class _NullSpan:
    """Shared no-op span: ``with telemetry.span(...)`` when disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None

    def set_tag(self, key: str, value: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Runtime:
    """One enabled telemetry session: a registry plus a tracer."""

    def __init__(self, trace_path: Optional[str] = None,
                 registry: Optional[Registry] = None,
                 tracer: Optional[Tracer] = None):
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.trace_path = trace_path

    def span(self, name: str, **tags: Any):
        return self.tracer.span(name, tags)

    def count(self, name: str, amount: float = 1.0,
              **labels: Any) -> None:
        labelnames = tuple(sorted(labels))
        self.registry.counter(name, labelnames=labelnames).inc(
            amount, **labels)

    def observe(self, name: str, value: float, *,
                buckets=DEFAULT_BUCKETS, **labels: Any) -> None:
        labelnames = tuple(sorted(labels))
        self.registry.histogram(name, labelnames=labelnames,
                                buckets=buckets).observe(value, **labels)

    def export_trace(self, path: Optional[str] = None) -> int:
        """Write the trace buffer as JSONL; returns the event count."""
        target = path or self.trace_path
        if not target:
            raise ValueError("no trace path given")
        n = self.tracer.export_jsonl(target)
        if target == self.trace_path:
            self.trace_path = None      # atexit won't double-write
        return n


_STATE: Optional[Runtime] = None


def active() -> Optional[Runtime]:
    """The enabled runtime, or ``None`` — the hot-path guard."""
    return _STATE


def enabled() -> bool:
    return _STATE is not None


def enable(trace_path: Optional[str] = None, *,
           registry: Optional[Registry] = None) -> Runtime:
    """Turn telemetry on (idempotent; a given trace_path sticks)."""
    global _STATE
    if _STATE is None:
        _STATE = Runtime(trace_path=trace_path, registry=registry)
    elif trace_path:
        _STATE.trace_path = trace_path
    return _STATE


def disable() -> None:
    """Turn telemetry off and drop the runtime (state is discarded)."""
    global _STATE
    _STATE = None


@contextlib.contextmanager
def session(trace_path: Optional[str] = None, *,
            registry: Optional[Registry] = None) -> Iterator[Runtime]:
    """A scoped telemetry session with a fresh :class:`Runtime`.

    Installs a brand-new runtime for the duration of the ``with``
    block and restores whatever was active before on exit — including
    ``None``.  This is how one-shot instrumented re-runs (perf gate
    span attribution, tests) capture an isolated trace without
    clobbering a long-lived enabled session's counters or trace
    buffer.
    """
    global _STATE
    previous = _STATE
    runtime = Runtime(trace_path=trace_path, registry=registry)
    _STATE = runtime
    try:
        yield runtime
    finally:
        _STATE = previous


def span(name: str, **tags: Any):
    """A tracing span, or a shared no-op when telemetry is disabled."""
    rt = _STATE
    if rt is None:
        return _NULL_SPAN
    return rt.tracer.span(name, tags)


def traced(name: str, *, tags, done=None, fails=None):
    """Decorate a function to run under span ``name`` when telemetry is on.

    Disabled, the wrapper is one ``None`` check and a direct call.
    Enabled, it opens the span with the tags that ``tags`` returns when
    given the call's arguments (keyword-only defaults filled in), calls
    the function, then ``done(rt, span, result)`` inside the span (the
    site's counters and result tags).  ``fails=(exc_type, counter)``
    counts ``counter`` once when the call raises ``exc_type``.
    ``functools.wraps`` keeps the signature, docstring and
    ``__wrapped__`` (the untraced function).
    """
    failure, failure_counter = fails or ((), None)

    def decorate(fn):
        kwdefaults = fn.__kwdefaults__ or {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rt = _STATE
            if rt is None:
                return fn(*args, **kwargs)
            span_tags = tags(*args, **{**kwdefaults, **kwargs})
            with rt.tracer.span(name, span_tags) as sp:
                try:
                    result = fn(*args, **kwargs)
                except failure:
                    rt.count(failure_counter)
                    raise
                if done is not None:
                    done(rt, sp, result)
                return result

        return wrapper

    return decorate


def count(name: str, amount: float = 1.0, **labels: Any) -> None:
    rt = _STATE
    if rt is not None:
        rt.count(name, amount, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    rt = _STATE
    if rt is not None:
        rt.observe(name, value, **labels)


def export_trace(path: str) -> int:
    """Export the current trace buffer (raises if disabled)."""
    rt = _STATE
    if rt is None:
        raise RuntimeError("telemetry is not enabled")
    return rt.export_trace(path)


def _truthy(value: Optional[str]) -> bool:
    return (value or "").strip().lower() not in ("", "0", "false", "no",
                                                 "off")


@atexit.register
def _export_at_exit() -> None:
    rt = _STATE
    if rt is not None and rt.trace_path:
        try:
            n = rt.export_trace(rt.trace_path)
        except OSError:
            return
        print(f"telemetry: wrote {n} trace events", file=sys.stderr)


if _truthy(os.environ.get("REPRO_TELEMETRY")):
    enable(trace_path=os.environ.get("REPRO_TRACE_OUT") or None)
