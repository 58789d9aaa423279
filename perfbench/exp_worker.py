"""One cold pass over every registered experiment, in this process.

Run by ``run.py`` as a child process with ``PYTHONPATH=src``::

    python perfbench/exp_worker.py --mode plain --cache-dir DIR \\
        --golden-dir tests/golden --out pass.json

Each experiment runs once at fast fidelity through
``run_config(RunConfig.build(id, "fast"), cache=...)`` in registry
order, writing to the fresh result cache in ``--cache-dir``, and its
``to_dict()`` is compared against ``<golden-dir>/<id>.json`` with the
golden test's tolerance.

Modes: ``plain`` runs as a user would; ``counted`` enables the
program's telemetry and reports its solver counters; ``traced`` wraps
the circuit, device, rc, engine and cache layers (``tracer.py``) and
reports their spans.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

import tracer as layer_tracer

REL_TOL = 1e-6
ABS_TOL = 1e-9


def _cell_mismatch(actual, expected, where):
    try:
        fa, fe = float(actual), float(expected)
    except (TypeError, ValueError):
        if str(actual) != str(expected):
            return f"{where}: {actual!r} != {expected!r}"
        return None
    if not math.isclose(fa, fe, rel_tol=REL_TOL, abs_tol=ABS_TOL):
        return f"{where}: {actual!r} != {expected!r}"
    return None


def _table_mismatch(actual, expected, where):
    for key in ("headers", "title"):
        if actual[key] != expected[key]:
            return f"{where}: {key}"
    if len(actual["rows"]) != len(expected["rows"]):
        return f"{where}: row count"
    for i, (arow, erow) in enumerate(zip(actual["rows"], expected["rows"])):
        if len(arow) != len(erow):
            return f"{where} row {i}: cell count"
        for j, (a, e) in enumerate(zip(arow, erow)):
            bad = _cell_mismatch(a, e, f"{where} row {i} col {j}")
            if bad:
                return bad
    return None


def _figure_mismatch(actual, expected, where):
    if actual["figure_id"] != expected["figure_id"]:
        return f"{where}: figure_id"
    if [s["name"] for s in actual["series"]] != \
            [s["name"] for s in expected["series"]]:
        return f"{where}: series names"
    for sa, se in zip(actual["series"], expected["series"]):
        w = f"{where} series {sa['name']!r}"
        if len(sa["x"]) != len(se["x"]):
            return f"{w}: x length"
        for axis in ("x", "y"):
            for a, e in zip(sa[axis], se[axis]):
                bad = _cell_mismatch(a, e, f"{w} {axis}")
                if bad:
                    return bad
    return None


def golden_mismatch(payload: dict, expected: dict):
    """First difference from the golden fixture, or ``None``.

    The same checks, in the same order and with the same tolerance, as
    the repository's golden-artifact test.
    """
    eid = expected["experiment_id"]
    for key in ("experiment_id", "fidelity", "title"):
        if payload[key] != expected[key]:
            return f"{eid}: {key}"
    if (payload["table"] is None) != (expected["table"] is None):
        return f"{eid}: table presence"
    checks = []
    if payload["table"] is not None:
        checks.append(_table_mismatch(payload["table"], expected["table"],
                                      f"{eid}.table"))
    if len(payload["extra_tables"]) != len(expected["extra_tables"]):
        return f"{eid}: extra table count"
    for k, (a, e) in enumerate(zip(payload["extra_tables"],
                                   expected["extra_tables"])):
        checks.append(_table_mismatch(a, e, f"{eid}.extra_tables[{k}]"))
    if len(payload["figures"]) != len(expected["figures"]):
        return f"{eid}: figure count"
    for a, e in zip(payload["figures"], expected["figures"]):
        checks.append(_figure_mismatch(a, e, f"{eid}.figures"))
    if set(payload["metrics"]) != set(expected["metrics"]):
        return f"{eid}: metric keys changed"
    for key, e in expected["metrics"].items():
        checks.append(_cell_mismatch(payload["metrics"][key], e,
                                     f"{eid}.metrics[{key}]"))
    if payload["notes"] != expected["notes"]:
        return f"{eid}: notes"
    return next((c for c in checks if c), None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("plain", "counted", "traced"),
                        default="plain")
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--golden-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    from repro import telemetry
    from repro.exec.cache import ResultCache
    from repro.experiments import REGISTRY, RunConfig, run_config

    runtime = telemetry.enable() if args.mode == "counted" else None
    tracer = None
    if args.mode == "traced":
        tracer = layer_tracer.LayerTracer()
        layer_tracer.install_circuit_hooks(tracer)

    cache = ResultCache(args.cache_dir)
    times, done, failures = {}, {}, {}
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t_start = time.perf_counter()
    for eid in REGISTRY:
        t0 = time.perf_counter()
        try:
            result = run_config(RunConfig.build(eid, "fast"), cache=cache)
            payload = result.to_dict()
        except Exception as exc:  # a raising experiment is a failure
            times[eid] = time.perf_counter() - t0
            done[eid] = time.perf_counter() - t_start
            failures[eid] = f"{type(exc).__name__}: {exc}"
            continue
        times[eid] = time.perf_counter() - t0
        done[eid] = time.perf_counter() - t_start
        golden = args.golden_dir / f"{eid}.json"
        try:
            expected = json.loads(golden.read_text())
        except (OSError, ValueError) as exc:
            failures[eid] = f"golden fixture unreadable: {exc}"
            continue
        bad = golden_mismatch(payload, expected)
        if bad:
            failures[eid] = bad
    wall = time.perf_counter() - t_start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    doc = {
        "mode": args.mode,
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime
                  + usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "experiments": times,
        "done_s": done,
        "failures": failures,
    }
    if runtime is not None:
        doc["counters"] = layer_tracer.counter_totals(runtime.registry)
    if tracer is not None:
        doc["trace"] = tracer.document()
    args.out.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
