"""Benchmark the serving API under concurrent HTTP load.

Drives :class:`~repro.serve.aio_server.AsyncPerceptronServer` with
:mod:`repro.serve.loadgen` and writes ``benchmarks/BENCH_loadgen.json``
with three measurements:

* ``saturation`` — closed-loop rows/s at 64 concurrent keep-alive
  connections (4-row ``/predict`` requests);
* ``open_loop``  — latency percentiles at a fixed offered rate,
  measured from each request's *scheduled* time (no coordinated
  omission);
* ``batch_sweep`` — the latency-vs-batch-size table: closed-loop runs
  at increasing rows-per-request, showing where per-request HTTP
  overhead stops dominating and the vectorised engine takes over.

All three are registered with :mod:`repro.perf` (``script.loadgen.*``,
report kind) for history tracking via ``repro perf run --bench-dir
benchmarks``; the quick-capable gate twin of ``saturation`` lives in
:mod:`repro.perf.suite` (``serve.loadgen.aio``).

Run with::

    PYTHONPATH=src python benchmarks/bench_loadgen.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Optional

from repro.analysis import make_blobs
from repro.core.training import PerceptronTrainer
from repro.perf import benchmark, finish, host_fields
from repro.serve import AsyncPerceptronServer, ModelStore
from repro.serve.loadgen import run_closed_loop, run_open_loop

OUT = Path(__file__).parent / "BENCH_loadgen.json"

CONNECTIONS = 64
QUICK_CONNECTIONS = 16
DURATION = 2.0
QUICK_DURATION = 0.5
ROWS_PER_REQUEST = 4


def _export_model(tmp_root: Path):
    data = make_blobs(n_per_class=30, n_features=2, separation=0.35,
                      spread=0.09, seed=7)
    model = PerceptronTrainer(2, seed=7).fit(data.X, data.y,
                                             epochs=60).perceptron
    store = ModelStore(tmp_root)
    store.save("loadgen", model)
    return store, data.X


@benchmark("script.loadgen.saturation",
           title="closed-loop /predict saturation",
           kind="report", metric="rows_per_s", unit="rows/s",
           lower_is_better=False, noise=1.0, tags=("script", "loadgen"))
def bench_saturation(tmp_root: Optional[Path] = None,
                     quick: bool = False) -> dict:
    if tmp_root is None:
        with tempfile.TemporaryDirectory() as tmp:
            return bench_saturation(Path(tmp), quick=quick)
    connections = QUICK_CONNECTIONS if quick else CONNECTIONS
    duration = QUICK_DURATION if quick else DURATION
    store, X = _export_model(tmp_root)
    inputs = X[:ROWS_PER_REQUEST].tolist()
    with AsyncPerceptronServer(store, workers=0) as server:
        return run_closed_loop(server.url, "loadgen", inputs,
                               connections=connections,
                               duration=duration)


@benchmark("script.loadgen.open",
           title="open-loop /predict latency at a fixed offered rate",
           kind="report", metric="p99_ms", unit="ms",
           lower_is_better=True, noise=1.0, tags=("script", "loadgen"))
def bench_open_loop(tmp_root: Optional[Path] = None,
                    quick: bool = False) -> dict:
    if tmp_root is None:
        with tempfile.TemporaryDirectory() as tmp:
            return bench_open_loop(Path(tmp), quick=quick)
    duration = QUICK_DURATION if quick else DURATION
    rate = 200.0 if quick else 1000.0
    store, X = _export_model(tmp_root)
    inputs = X[:ROWS_PER_REQUEST].tolist()
    with AsyncPerceptronServer(store, workers=0) as aio:
        report = run_open_loop(aio.url, "loadgen", inputs, rate=rate,
                               connections=QUICK_CONNECTIONS,
                               duration=duration)
    report["p99_ms"] = report["latency_ms"]["p99"]
    return report


@benchmark("script.loadgen.batch_sweep",
           title="/predict latency vs rows-per-request",
           kind="report", metric="best_rows_per_s", unit="rows/s",
           lower_is_better=False, noise=1.0, tags=("script", "loadgen"))
def bench_batch_sweep(tmp_root: Optional[Path] = None,
                      quick: bool = False) -> dict:
    if tmp_root is None:
        with tempfile.TemporaryDirectory() as tmp:
            return bench_batch_sweep(Path(tmp), quick=quick)
    connections = QUICK_CONNECTIONS if quick else CONNECTIONS
    duration = QUICK_DURATION if quick else 1.0
    sizes = (1, 4, 16) if quick else (1, 4, 16, 64)
    store, X = _export_model(tmp_root)
    rows = []
    with AsyncPerceptronServer(store, workers=0) as aio:
        for size in sizes:
            inputs = X[:size].tolist() if size <= len(X) \
                else (X.tolist() * (size // len(X) + 1))[:size]
            report = run_closed_loop(aio.url, "loadgen", inputs,
                                     connections=connections,
                                     duration=duration)
            rows.append({"rows_per_request": size,
                         "rows_per_s": report["rows_per_s"],
                         "requests_per_s": report["requests_per_s"],
                         "p50_ms": report["latency_ms"]["p50"],
                         "p99_ms": report["latency_ms"]["p99"]})
    return {"connections": connections,
            "sweep": rows,
            "best_rows_per_s": max(r["rows_per_s"] for r in rows)}


def main() -> None:
    payload = {
        "description": "serving load generation: closed-loop "
                       f"saturation at {CONNECTIONS} connections, "
                       "open-loop latency, and the rows-per-request "
                       "sweep",
        **host_fields(),
        "benchmarks": [bench_saturation(), bench_open_loop(),
                       bench_batch_sweep()],
    }
    finish(OUT, payload)


if __name__ == "__main__":
    main()
