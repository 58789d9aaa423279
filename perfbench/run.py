"""The repository benchmark: experiments end to end and ``/predict``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload experiments_fast --seed 1 \\
        --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` lists them with their reasons):

* ``experiments_fast`` -- every registered experiment at fast fidelity
  through ``run_config(RunConfig.build(id, "fast"))``, in registry
  order, serially, in one child process, writing to a fresh result
  cache.  Each result is checked against ``tests/golden/<id>.json``.
* ``predict_1row`` / ``predict_64row`` -- ``python -m repro serve``
  with its shipped defaults in its own process, and one client process
  (``client.py``) running a closed loop over 2 keep-alive connections
  with 1- or 64-row ``/predict`` requests drawn from a pool generated
  from ``--seed``.  Every reply is checked against
  ``BatchInferenceEngine`` run here on the same rows.

``--trace 0`` measures the end-to-end metrics with the program as
shipped.  ``--trace 1`` reports the per-layer metrics: an untraced
pass gives the program's own counters (telemetry, ``/metrics``) and
per-experiment times, and a traced pass (``tracer.py``) gives layer
times; the layer table is printed and saved under ``perfbench/out/``.
The last line of standard output is the JSON result.  The command
exits non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
PY = sys.executable
MODEL = "bench"

#: wall_s on the predict workloads is the time to serve this many
#: requests at the measured rate.
PASS_REQUESTS = 200
#: Requests in the pool: distinct rows, cycled through in order.
POOL_REQUESTS = {1: 4096, 64: 256}
SETUP_REPEATS = {"experiments_fast": 5, "predict": 3}
CHILD_TIMEOUT_S = 170


#: Idle-priority busy loop that keeps the benchmark's CPU from halting
#: between events (see ``cpu_keeper``).  It exits when its parent does.
SPINNER = """\
import os
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a failed program output)."""


# -- helpers -----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for key in ("REPRO_TELEMETRY", "REPRO_TRACE_OUT"):
        env.pop(key, None)
    return env


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def cpu_ref_s() -> float:
    """Host-noise probe: a fixed pure-Python loop, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def run_child(cmd, *, timeout: float = CHILD_TIMEOUT_S) -> None:
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")


@contextlib.contextmanager
def cpu_keeper():
    """Keep the pinned CPU busy at idle priority while the workload runs.

    On a virtual machine an idle vCPU halts, and waking it (a timer, a
    reply from the other process) waits for the hypervisor to schedule
    it again: tens of milliseconds on a busy host.  A ``SCHED_IDLE``
    spinner keeps the vCPU running and yields at once to any other
    task, so it takes no CPU time from the program.
    """
    spinner = subprocess.Popen([PY, "-c", SPINNER])
    try:
        yield
    finally:
        spinner.kill()
        spinner.wait()


def spawn_median(cmd, repeats: int) -> float:
    """Median wall time of running ``cmd`` to completion."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_child(cmd)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- experiments_fast ----------------------------------------------------------


def experiment_pass(tmp: Path, mode: str, n: int) -> dict:
    out = tmp / f"pass-{mode}-{n}.json"
    run_child([PY, str(HERE / "exp_worker.py"), "--mode", mode,
               "--cache-dir", str(tmp / f"cache-{mode}-{n}"),
               "--golden-dir", str(ROOT / "tests" / "golden"),
               "--out", str(out)])
    return json.loads(out.read_text())


def experiments_fast(args, tmp: Path) -> dict:
    if args.trace:
        counted = experiment_pass(tmp, "counted", 0)
        traced = experiment_pass(tmp, "traced", 0)
        layers = traced["trace"]["layers"]
        metrics = {f"experiment.{eid}.s": s
                   for eid, s in counted["experiments"].items()}
        metrics.update(counted["counters"])
        metrics.update(layer_metrics(layers))
        metrics["cpu_us_per_row"] = \
            1e6 * counted["cpu_s"] / len(counted["experiments"])
        metrics["trace.overhead"] = traced["wall_s"] / counted["wall_s"]
        return {
            "metrics": metrics,
            "attempted": len(counted["experiments"])
            + len(traced["experiments"]),
            **experiment_failures([counted, traced]),
            "table": layer_table(layers, traced["wall_s"], "traced wall",
                                 traced["trace"]["missing"]),
        }

    setup = spawn_median([PY, "-c", "import repro.experiments"],
                         SETUP_REPEATS["experiments_fast"])
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(experiment_pass(tmp, "plain", len(passes)))
    # A result's latency is the time from the start of the run until it
    # is ready, as a user of `repro all` waits for it.
    completions = [s for p in passes for s in p["done_s"].values()]
    n_exp = len(passes[0]["experiments"])
    wall = statistics.median(p["wall_s"] for p in passes)
    return {
        "metrics": {
            "setup_s": setup,
            "wall_s": wall,
            "rows_per_s": n_exp / wall,
            "latency_p50_ms": 1e3 * quantile(completions, 0.50),
            "latency_p99_ms": 1e3 * quantile(completions, 0.99),
            "cpu_us_per_row": 1e6 * statistics.median(
                p["cpu_s"] / len(p["experiments"]) for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        },
        "attempted": n_exp * len(passes),
        **experiment_failures(passes),
        "samples": f"{len(completions)} experiment runs in "
                   f"{len(passes)} pass(es)",
    }


def experiment_failures(passes) -> dict:
    """Experiments that raised or missed their golden, one line each."""
    lines = [f"{p['mode']} pass: {eid}: {why}"
             for p in passes for eid, why in p["failures"].items()]
    return {"failed": len(lines), "failures": lines}


def layer_metrics(layers: dict) -> dict:
    """Per-layer metrics from a traced pass's layer document."""

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    out = {}
    for layer, count in (("circuit.shooting", "calls"),
                         ("circuit.shooting_batch", "points"),
                         ("circuit.transient", "calls"),
                         ("circuit.batch_transient", "runs"),
                         ("circuit.linear_solve", "calls"),
                         ("circuit.stamp", "calls"),
                         ("tech.device_eval", "calls"),
                         ("core.rc_solve", "calls"),
                         ("exec.cache.put", "calls"),
                         ("engines.behavioral", "calls"),
                         ("engines.rc", "calls"),
                         ("engines.spice", "calls")):
        out[f"{layer}.{count}"] = get(layer, "work")
        out[f"{layer}.s"] = get(layer, "total_s")
    out["circuit.newton.s"] = get("circuit.newton", "total_s")
    batched = get("circuit.shooting_batch", "work")
    scalar = get("circuit.shooting", "work")
    out["circuit.batched_point_share"] = (
        batched / (batched + scalar) if batched + scalar else 0.0)
    return out


def layer_table(layers: dict, wall: float, wall_name: str,
                missing) -> str:
    """Self time per layer and its share of ``wall``."""
    rows = sorted(((layer, s) for layer, s in layers.items() if s["calls"]),
                  key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'layer':<26}{'calls':>10}{'work':>10}{'total_s':>10}"
             f"{'self_s':>10}{'self_share':>11}"]
    for layer, s in rows:
        lines.append(f"{layer:<26}{s['calls']:>10}{s['work']:>10}"
                     f"{s['total_s']:>10.4f}{s['self_s']:>10.4f}"
                     f"{s['self_s'] / wall:>11.1%}")
    rest = wall - sum(s["self_s"] for s in layers.values())
    lines.append(f"{'(outside traced layers)':<26}{'':>30}"
                 f"{rest:>10.4f}{rest / wall:>11.1%}")
    lines.append(f"{wall_name}: {wall:.4f} s")
    if missing:
        lines.append("hooks not installed: " + ", ".join(missing))
    return "\n".join(lines)


# -- predict workloads ---------------------------------------------------------


def make_pool(seed: int, rows_per_request: int, store: Path) -> dict:
    """Seeded distinct rows and their expected in-process outputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from repro.serve.artifacts import ModelStore
    from repro.serve.engine import (
        BatchInferenceEngine,
        model_decision_offset,
        model_n_features,
    )

    model = ModelStore(store).load(MODEL)
    n_rows = POOL_REQUESTS[rows_per_request] * rows_per_request
    rng = np.random.default_rng(seed)
    draw = rng.uniform(0.02, 0.98, size=(n_rows + n_rows // 8 + 16,
                                         model_n_features(model))).round(6)
    _, first = np.unique(draw, axis=0, return_index=True)
    X = draw[np.sort(first)][:n_rows]
    margins = BatchInferenceEngine().model_margins(model, X)
    predictions = (margins > model_decision_offset(model)).astype(int)
    requests = []
    for start in range(0, n_rows, rows_per_request):
        stop = start + rows_per_request
        requests.append({"inputs": X[start:stop].tolist(),
                         "predictions": predictions[start:stop].tolist(),
                         "margins": margins[start:stop].tolist()})
    return {"model": MODEL, "rows_per_request": rows_per_request,
            "requests": requests}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One server process: spawn, wait for a 200, stop."""

    def __init__(self, cmd, port: int, log: Path):
        self.port = port
        self.log = log.open("w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=self.log, stderr=self.log)

    def wait_ready(self, body: bytes, timeout: float = 60.0) -> float:
        """Seconds from spawn to the first 200 on ``/predict``."""
        deadline = self.t0 + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode}, "
                                 f"see {self.log.name}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("POST", "/predict", body,
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return time.perf_counter() - self.t0
            except OSError:
                time.sleep(0.005)
            finally:
                conn.close()
        raise BenchError(f"server not ready after {timeout} s")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def start_server(tmp: Path, store: Path, body: bytes, *, traced: bool,
                 n: int):
    port = free_port()
    if traced:
        cmd = [PY, str(HERE / "serve_traced.py"), "--port", str(port),
               "--store", str(store), "--out", str(tmp / "serve-trace.json")]
    else:
        cmd = [PY, "-m", "repro", "serve", "--port", str(port),
               "--store", str(store)]
    server = Server(cmd, port, tmp / f"server-{n}.log")
    try:
        setup = server.wait_ready(body)
    except BaseException:
        server.stop()
        raise
    return server, setup


def run_client(tmp: Path, server: Server, pool_path: Path, seconds: float,
               *, mark_window: bool) -> dict:
    out = tmp / "client.json"
    cmd = [PY, str(HERE / "client.py"), "--port", str(server.port),
           "--server-pid", str(server.proc.pid), "--pool", str(pool_path),
           "--seconds", str(seconds), "--out", str(out)]
    if mark_window:
        cmd.append("--mark-window")
    run_child(cmd, timeout=seconds + 60)
    return json.loads(out.read_text())


def serve_counts(client: dict) -> dict:
    """Serve-layer metrics from the ``/metrics`` deltas of one window."""
    before, after = client["before"], client["after"]
    batches = after["batches"] - before["batches"]
    handled = (after["repro_predict_latency_seconds_count"]
               - before["repro_predict_latency_seconds_count"])
    handler_ms = 1e3 * (after["repro_predict_latency_seconds_sum"]
                        - before["repro_predict_latency_seconds_sum"]) \
        / max(handled, 1)
    client_ms = 1e3 * statistics.fmean(client["latencies_s"])
    lag = client["lag_samples_s"]
    return {
        "serve.batch.rows_mean": (after["predictions"]
                                  - before["predictions"]) / max(batches, 1),
        "serve.batch.queue_wait_ms": (after["queue_wait_ms_sum"]
                                      - before["queue_wait_ms_sum"])
        / max(batches, 1),
        "serve.handler_ms": handler_ms,
        "serve.transport_ms": client_ms - handler_ms,
        "serve.eventloop_lag_ms": 1e3 * statistics.fmean(lag) if lag
        else 0.0,
        "client.cpu_us_per_request": 1e6 * client["client_cpu_s"]
        / max(client["attempted"], 1),
    }


def subwindows(client: dict) -> list:
    """Per-sub-window rates, CPU per row and latency percentiles.

    Results are medians over the client's sub-windows, so a burst of
    host stalls in one of them does not move the result.
    """
    marks, latencies = client["marks"], client["latencies_s"]
    out = []
    for a, b in zip(marks, marks[1:]):
        dt = b["t"] - a["t"]
        rows = b["rows"] - a["rows"]
        lat = latencies[a["latencies"]:b["latencies"]]
        out.append({"requests": b["requests"] - a["requests"],
                    "requests_per_s": (b["requests"] - a["requests"]) / dt,
                    "rows_per_s": rows / dt,
                    "cpu_s_per_row": (b["server_cpu_s"] - a["server_cpu_s"])
                    / max(rows, 1),
                    "p50_s": quantile(lat, 0.50),
                    "p99_s": quantile(lat, 0.99)})
    return out


def request_rate(client: dict) -> float:
    """Requests answered per second over the measured window."""
    return client["attempted"] / client["window_s"]


def request_failures(clients) -> dict:
    """Requests answered non-200, lost with their connection, or wrong."""
    failed = sum(c["failed"] for c in clients)
    attempted = sum(c["attempted"] for c in clients)
    return {"failed": failed,
            "failures": [f"{failed} of {attempted} requests failed "
                         "(non-200, lost connection or wrong reply)"]
            if failed else []}


def predict(args, tmp: Path, rows_per_request: int) -> dict:
    store = tmp / "models"
    run_child([PY, "-m", "repro", "export-model", MODEL,
               "--store", str(store)])
    pool = make_pool(args.seed, rows_per_request, store)
    pool_path = tmp / "pool.json"
    pool_path.write_text(json.dumps(pool))
    probe_body = json.dumps({"model": MODEL,
                             "inputs": pool["requests"][0]["inputs"]}
                            ).encode()

    if args.trace:
        server, _ = start_server(tmp, store, probe_body, traced=False, n=0)
        try:
            plain = run_client(tmp, server, pool_path, args.seconds,
                               mark_window=False)
        finally:
            server.stop()
        server, _ = start_server(tmp, store, probe_body, traced=True, n=1)
        try:
            traced = run_client(tmp, server, pool_path, args.seconds,
                                mark_window=True)
        finally:
            server.stop()
        doc = json.loads((tmp / "serve-trace.json").read_text())
        layers = doc["trace"]["layers"]
        metrics = serve_counts(plain)
        metrics["cpu_us_per_row"] = 1e6 * statistics.median(
            w["cpu_s_per_row"] for w in subwindows(plain))
        metrics.update(doc["counters"])
        metrics.update(layer_metrics(layers))
        requests = max(doc["requests"], 1)
        for layer in ("serve.parse_predict", "serve.engine", "serve.encode",
                      "serve.metrics_observe"):
            metrics[f"{layer}.us"] = \
                1e6 * layers.get(layer, {}).get("total_s", 0.0) / requests
        metrics["trace.overhead"] = (request_rate(plain)
                                     / request_rate(traced))
        return {
            "metrics": metrics,
            "attempted": plain["attempted"] + traced["attempted"],
            **request_failures([plain, traced]),
            "table": layer_table(
                layers, doc["wall_s"], "traced server window",
                doc["trace"]["missing"])
            + f"\nrequests in window: {doc['requests']}, server CPU "
              f"{doc['cpu_s']:.4f} s",
        }

    setups, server = [], None
    try:
        for n in range(SETUP_REPEATS["predict"]):
            if server is not None:
                server.stop()
            server, setup = start_server(tmp, store, probe_body,
                                         traced=False, n=n)
            setups.append(setup)
        client = run_client(tmp, server, pool_path, args.seconds,
                            mark_window=False)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    windows = subwindows(client)
    latencies = client["latencies_s"]

    def median_of(key):
        return statistics.median(w[key] for w in windows)

    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": PASS_REQUESTS / median_of("requests_per_s"),
            "rows_per_s": median_of("rows_per_s"),
            "latency_p50_ms": 1e3 * median_of("p50_s"),
            "latency_p99_ms": 1e3 * median_of("p99_s"),
            "cpu_us_per_row": 1e6 * median_of("cpu_s_per_row"),
            "peak_rss_mb": rss,
        },
        "attempted": client["attempted"],
        **request_failures([client]),
        "samples": f"{len(latencies)} requests in {client['window_s']:.2f} "
                   f"s; medians over {len(windows)} sub-windows of "
                   f"{min(w['requests'] for w in windows)}+ requests",
    }


WORKLOADS = {
    "experiments_fast": experiments_fast,
    "predict_1row": lambda args, tmp: predict(args, tmp, 1),
    "predict_64row": lambda args, tmp: predict(args, tmp, 64),
}


# -- command line ------------------------------------------------------------


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no BENCHMARK.json in {ROOT}")
    return json.loads(path.read_text())


def check_checkout() -> None:
    for need in (ROOT / "src" / "repro" / "__init__.py",
                 ROOT / "tests" / "golden"):
        if not need.exists():
            raise BenchError(f"{need.relative_to(ROOT)} is missing: run "
                             "from the root of a repository checkout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and every child it starts: on a small
    # virtual machine, wake-ups across vCPUs add millisecond stalls
    # that would swamp the server's own latency.
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    try:
        spec = load_spec()
        check_checkout()
        OUT.mkdir(exist_ok=True)
        host_ref = cpu_ref_s()
        with tempfile.TemporaryDirectory(dir=OUT) as tmp, cpu_keeper():
            result = WORKLOADS[args.workload](args, Path(tmp))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = result["metrics"]
    metrics["host.cpu_ref_s"] = host_ref
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        # Layers a workload does not use read 0 (e.g. serve.* on
        # experiments_fast); every end-to-end metric must be measured.
        for entry in declared:
            metrics.setdefault(entry["name"], 0.0)
    attempted = result["attempted"]
    failures = result["failures"]
    failed = result["failed"]

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    if "samples" in result:
        print(f"samples: {result['samples']}")
    for entry in declared:
        print(f"{entry['name']:<34} {metrics[entry['name']]:>14.6g} "
              f"{entry['unit']}")
    # Also measured, outside the JSON result: per-layer metrics that an
    # untraced run gets for free, and the failure share.
    if not args.trace:
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        for name in ("cpu_us_per_row", "host.cpu_ref_s"):
            print(f"{name:<34} {metrics[name]:>14.6g} {units[name]}")
    print(f"{'failed_share':<34} {failed / max(attempted, 1):>14.6g} "
          f"share ({failed} of {attempted})")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if "table" in result:
        header = (f"layer table: {args.workload} (seed {args.seed}, "
                  f"trace.overhead {metrics['trace.overhead']:.3f})")
        table = header + "\n" + result["table"]
        print(table)
        (OUT / f"layers_{args.workload}.txt").write_text(table + "\n")

    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in declared},
    }
    with (OUT / "history.jsonl").open("a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "time": time.time(),
                             "host.cpu_ref_s": host_ref, **doc}) + "\n")
    print(json.dumps(doc))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
