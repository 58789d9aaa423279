"""Continuous performance observability: registry, runner, gate.

The performance twin of :mod:`repro.experiments`: benchmarks are
declared once with :func:`benchmark` (:mod:`repro.perf.registry`),
executed under a shared warmup/repeat policy into fingerprinted run
documents (:mod:`repro.perf.runner`) persisted in the SQLite
:class:`~repro.exec.cache.ResultCache`'s ``perf_runs``/``perf_samples``
tables, and compared against baselines with per-benchmark noise bands
and telemetry span attribution (:mod:`repro.perf.compare`).  The CLI
surface is ``repro perf run|list|history|compare|gate``; the shared
measurement helpers the ``benchmarks/bench_*.py`` scripts use live in
:mod:`repro.perf.harness`.

This ``__init__`` stays import-light: the built-in suite
(:mod:`repro.perf.suite`) pulls in circuit/exec/serve/store and is
only imported when the registry is actually consulted.
"""

from .compare import (BASELINE_SCHEMA_VERSION, DEFAULT_NOISE,  # noqa: F401
                      attribute_benchmark, baseline_document,
                      compare_runs, gate_run, load_baseline, self_times)
from .harness import (best_of, best_of_with_result, cli_env,  # noqa: F401
                      finish, host_fields, median_of, sample, sparkline,
                      timed)
from .registry import (BENCHMARKS, BenchmarkSpec, benchmark,  # noqa: F401
                       describe_benchmarks, get_benchmark,
                       list_benchmarks, load_benchmark_scripts)
from .runner import (PERF_SCHEMA_VERSION, environment_fingerprint,  # noqa: F401
                     run_benchmark, run_benchmarks)

__all__ = [
    "BASELINE_SCHEMA_VERSION", "BENCHMARKS", "BenchmarkSpec",
    "DEFAULT_NOISE", "PERF_SCHEMA_VERSION", "attribute_benchmark",
    "baseline_document", "benchmark", "best_of", "best_of_with_result",
    "cli_env",
    "compare_runs", "describe_benchmarks", "environment_fingerprint",
    "finish", "gate_run", "get_benchmark", "host_fields",
    "list_benchmarks", "load_baseline", "load_benchmark_scripts",
    "median_of", "run_benchmark", "run_benchmarks", "sample",
    "self_times", "sparkline", "timed",
]
