"""``repro serve`` with the benchmark's layer spans installed.

Run by ``run.py`` with ``PYTHONPATH=src`` for the traced pass of the
predict workloads::

    python perfbench/serve_traced.py --port P --store DIR --out trace.json

It builds the same ``AsyncPerceptronServer`` that ``python -m repro
serve`` builds with its shipped defaults, wraps the serving
and circuit layers (``tracer.py``), enables the program's telemetry for
its solver counters, and calls ``run()``.

The client marks the measured window with signals: SIGUSR1 zeroes the
spans, SIGUSR2 takes their snapshot.  On SIGINT the server drains and
the window's spans and the counters are written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

import tracer as layer_tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    from repro import telemetry
    from repro.serve.aio_server import AsyncPerceptronServer
    from repro.serve.artifacts import ModelStore

    runtime = telemetry.enable()
    tracer = layer_tracer.LayerTracer()
    layer_tracer.install_serve_hooks(tracer)
    layer_tracer.install_circuit_hooks(tracer)

    window = {}

    def cpu_s() -> float:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime

    def open_window(signum, frame):
        tracer.reset()
        window.update(t0=time.perf_counter(), cpu0=cpu_s())

    def close_window(signum, frame):
        window.update(
            wall_s=time.perf_counter() - window["t0"],
            cpu_s=cpu_s() - window["cpu0"],
            requests=tracer.stats("serve.parse_predict").calls,
            trace=tracer.document())

    signal.signal(signal.SIGUSR1, open_window)
    signal.signal(signal.SIGUSR2, close_window)
    server = AsyncPerceptronServer(ModelStore(args.store), port=args.port)
    server.run()
    window.pop("t0", None)
    window.pop("cpu0", None)
    window["counters"] = layer_tracer.counter_totals(runtime.registry)
    args.out.write_text(json.dumps(window))
    return 0


if __name__ == "__main__":
    sys.exit(main())
