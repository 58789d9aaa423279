"""Benchmark runner: execute specs, fingerprint the host, persist runs.

A run document is self-describing and store-independent::

    {"schema": 1, "created_at": ..., "quick": false,
     "fingerprint": {"git_sha": ..., "python": ..., "numpy": ...,
                     "scipy": ..., "platform": ..., "machine": ...,
                     "cpu_count": ...},
     "benchmarks": [{"benchmark": id, "kind", "metric", "unit",
                     "lower_is_better", "noise", "samples": [...],
                     "value", "mean_seconds"?, "payload"?}, ...]}

``value`` is the tracked scalar: min-of-repeats for workload
benchmarks, the chosen payload metric (or wall seconds) for report
benchmarks.  When a :class:`~repro.exec.cache.ResultCache` is given, the
run lands in its ``perf_runs``/``perf_samples`` tables and the
document gains a ``run_id`` — the handle ``perf history``, ``compare``
and ``gate`` work from.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .. import telemetry
from ..circuit.exceptions import AnalysisError
from .harness import sample, timed
from .registry import BenchmarkSpec, get_benchmark, list_benchmarks

#: Bump when the run-document layout changes incompatibly.
PERF_SCHEMA_VERSION = 1


def _module_version(name: str) -> Optional[str]:
    try:
        module = __import__(name)
        return str(getattr(module, "__version__", None))
    except ImportError:
        return None


def _git_sha(cwd: Optional[Path] = None) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def environment_fingerprint(repo_root: Optional[Path] = None
                            ) -> Dict[str, Any]:
    """The host/toolchain stamp attached to every perf run.

    Comparisons across different fingerprints are still allowed (CI
    runners change), but the stamp makes "the baseline was a different
    machine" an answerable question instead of a guess.
    """
    return {
        "git_sha": _git_sha(repo_root),
        "python": platform.python_version(),
        "numpy": _module_version("numpy"),
        "scipy": _module_version("scipy"),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def run_benchmark(spec: BenchmarkSpec, *, quick: bool = False,
                  repeats: Optional[int] = None) -> Dict[str, Any]:
    """Execute one spec under its warmup/repeat policy.

    Workload kind: ``spec.fn(quick=...)`` builds the workload once
    (setup excluded from timing), then every repeat is recorded as a
    sample and ``value`` is the min.  Report kind: the function runs
    once; its payload rides along and ``value`` is the tracked metric.
    """
    entry: Dict[str, Any] = {
        "benchmark": spec.id,
        "kind": spec.kind,
        "metric": spec.resolved_metric(),
        "unit": spec.unit,
        "lower_is_better": spec.lower_is_better,
        "noise": spec.noise,
    }
    with telemetry.span("perf.benchmark", benchmark=spec.id):
        if spec.kind == "workload":
            workload = spec.fn(quick=quick)
            if not callable(workload):
                raise AnalysisError(
                    f"benchmark {spec.id!r}: workload factory returned "
                    f"{type(workload).__name__}, expected a callable")
            n = repeats if repeats is not None else (
                spec.quick_repeats if quick else spec.repeats)
            samples = sample(workload, n, warmup=spec.warmup)
            entry["samples"] = samples
            entry["value"] = min(samples)
            entry["mean_seconds"] = sum(samples) / len(samples)
        else:
            wall, payload = timed(lambda: spec.fn(quick=quick))
            if not isinstance(payload, dict):
                raise AnalysisError(
                    f"benchmark {spec.id!r}: report function returned "
                    f"{type(payload).__name__}, expected a dict payload")
            if spec.metric is None:
                value = wall
            else:
                value = payload.get(spec.metric)
                if not isinstance(value, (int, float)) \
                        or isinstance(value, bool):
                    raise AnalysisError(
                        f"benchmark {spec.id!r}: payload metric "
                        f"{spec.metric!r} is {value!r}, expected a "
                        "number")
            entry["samples"] = [float(value)]
            entry["value"] = float(value)
            entry["wall_seconds"] = wall
            entry["payload"] = payload
    telemetry.count("repro_perf_benchmarks_total", benchmark=spec.id)
    return entry


def run_benchmarks(ids: Optional[Sequence[str]] = None, *,
                   tag: Optional[str] = None, quick: bool = False,
                   repeats: Optional[int] = None, store=None,
                   repo_root: Optional[Path] = None,
                   progress=None) -> Dict[str, Any]:
    """Run a set of benchmarks into one fingerprinted run document.

    ``ids`` picks explicit benchmarks (unknown ids raise with the
    registered list); otherwise every registered benchmark runs,
    optionally filtered by ``tag``.  ``progress`` is an optional
    ``fn(spec)`` hook the CLI uses for live per-benchmark lines.
    """
    if ids:
        specs = [get_benchmark(i) for i in ids]
        if tag is not None:
            specs = [s for s in specs if tag in s.tags]
    else:
        specs = list_benchmarks(tag)
    if not specs:
        raise AnalysisError(
            "no benchmarks selected"
            + (f" (tag {tag!r} matched nothing)" if tag else ""))
    doc: Dict[str, Any] = {
        "schema": PERF_SCHEMA_VERSION,
        "created_at": time.time(),
        "quick": quick,
        "fingerprint": environment_fingerprint(repo_root),
        "benchmarks": [],
    }
    with telemetry.span("perf.run", quick=quick, count=len(specs)):
        for spec in specs:
            if progress is not None:
                progress(spec)
            doc["benchmarks"].append(
                run_benchmark(spec, quick=quick, repeats=repeats))
    telemetry.count("repro_perf_runs_total")
    if store is not None:
        doc["run_id"] = store.record_perf_run(doc)
    return doc
