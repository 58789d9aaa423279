"""Benchmark the telemetry layer's overhead on the table2 PSS path.

Two questions, one workload — the table2 adder evaluated through the
transistor-level engine (shooting PSS over the batched MNA path), the
hottest instrumented code in the repository:

* **disabled overhead** — the zero-cost-when-disabled contract.  Every
  hot function is decorated with :func:`repro.telemetry.traced`, a
  thin wrapper (one ``None`` check) around the untouched function it
  keeps as ``__wrapped__``; timing the wrapper against a direct
  ``__wrapped__`` call measures exactly what instrumentation costs
  when telemetry is off.  The floor assertion holds it **under 3%**.
* **enabled overhead** — what a traced + counted run costs relative to
  a disabled one (spans, counters and histogram observations on every
  Newton solve).

Registered with :mod:`repro.perf` as ``script.telemetry.overhead``
(report kind, wall-seconds metric — the overhead percentages can be
negative at this workload size, so relative noise bands on them are
meaningless; the wall time of the whole comparison is what history
tracks).

Writes ``benchmarks/BENCH_telemetry.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_telemetry.py
"""

from __future__ import annotations

from pathlib import Path

from repro import telemetry
from repro.core.weighted_adder import AdderConfig, WeightedAdder
from repro.perf import benchmark, best_of_with_result, finish, host_fields

OUT = Path(__file__).parent / "BENCH_telemetry.json"

#: Timing repetitions; the minimum is reported (least-noise estimator).
REPEATS = 5

#: Disabled instrumentation must stay under this relative overhead.
DISABLED_OVERHEAD_LIMIT_PCT = 3.0

DUTIES = (0.2, 0.6, 0.8)
WEIGHTS = (5, 6, 7)
STEPS_PER_PERIOD = 30


def _run_wrapped(adder: WeightedAdder, steps: int):
    return adder.evaluate(DUTIES, WEIGHTS, engine="spice",
                          steps_per_period=steps)


def _run_impl(adder: WeightedAdder, steps: int):
    """The same solve through the untraced ``__wrapped__`` entry point
    (as if the telemetry wrapper had never been added)."""
    return WeightedAdder.evaluate.__wrapped__(
        adder, DUTIES, WEIGHTS, engine="spice", steps_per_period=steps)


@benchmark("script.telemetry.overhead",
           title="telemetry wrapper overhead on the table2 PSS path",
           kind="report", metric=None, noise=1.0,
           tags=("script", "telemetry"))
def bench_overhead(quick: bool = False) -> dict:
    steps = 12 if quick else STEPS_PER_PERIOD
    repeats = 2 if quick else REPEATS
    telemetry.disable()
    adder = WeightedAdder(AdderConfig())
    _run_wrapped(adder, steps)  # warm caches before timing

    t_impl, ref = best_of_with_result(
        lambda: _run_impl(adder, steps), repeats)
    t_disabled, disabled = best_of_with_result(
        lambda: _run_wrapped(adder, steps), repeats)

    telemetry.enable()
    try:
        t_enabled, enabled = best_of_with_result(
            lambda: _run_wrapped(adder, steps), repeats)
        rt = telemetry.active()
        trace_events = len(rt.tracer.events())
        counters = len(rt.registry.flat_values())
    finally:
        telemetry.disable()

    disabled_pct = 100.0 * (t_disabled - t_impl) / t_impl
    enabled_pct = 100.0 * (t_enabled - t_disabled) / t_disabled
    return {
        "workload": "table2 adder, engine=spice shooting PSS, "
                    f"steps_per_period={steps}",
        "impl_seconds": round(t_impl, 4),
        "disabled_seconds": round(t_disabled, 4),
        "enabled_seconds": round(t_enabled, 4),
        "disabled_overhead_percent": round(disabled_pct, 2),
        "enabled_overhead_percent": round(enabled_pct, 2),
        "disabled_overhead_limit_percent": DISABLED_OVERHEAD_LIMIT_PCT,
        "trace_events_per_enabled_run": trace_events,
        "metric_series_per_enabled_run": counters,
        "results_identical": (disabled.value == ref.value
                              and enabled.value == ref.value),
    }


def main() -> None:
    result = bench_overhead()
    payload = {
        "description": "telemetry overhead on the table2 shooting-PSS "
                       "path: wrapper-vs-impl when disabled (the "
                       "zero-cost contract) and enabled-vs-disabled "
                       "(spans + counters on every Newton solve)",
        **host_fields(),
        "benchmarks": [result],
    }
    finish(OUT, payload)
    assert result["results_identical"], \
        "telemetry perturbed the solve — instrumentation must observe only"
    assert result["disabled_overhead_percent"] < \
        DISABLED_OVERHEAD_LIMIT_PCT, (
            f"disabled telemetry costs "
            f"{result['disabled_overhead_percent']}% "
            f"(limit {DISABLED_OVERHEAD_LIMIT_PCT}%)")


if __name__ == "__main__":
    main()
