"""Closed-loop ``/predict`` load generator (one process, N connections).

Run by ``run.py``::

    python perfbench/client.py --port P --server-pid PID \\
        --pool pool.json --seconds 10 --out client.json

Each keep-alive connection sends its next request as soon as the
previous reply arrives.  The measured window is cut into equal
sub-windows; at each boundary the client marks its request, row and
latency counts and the server's CPU time, so ``run.py`` can report
medians over sub-windows.  Requests cycle through the pool's pre-encoded
bodies; every reply is checked against the pool's expected predictions
and margins.  After a warm-up the client brackets the measured window
with ``/metrics`` scrapes and the server's CPU time from ``/proc``, and
samples the server's event-loop lag gauge while it runs.  With
``--mark-window`` it also signals the traced server at the window's
start (SIGUSR1) and end (SIGUSR2), see ``serve_traced.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
HOST = "127.0.0.1"
CONNECTIONS = 2
WARMUP_S = 1.0
SUBWINDOWS = 5
#: Seconds between event-loop lag samples.  Each sample is a
#: Prometheus scrape that holds the server's loop for about a
#: millisecond, so sampling often would itself show in the tail.
LAG_INTERVAL_S = 2.0


def server_cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` in seconds, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


class Connection:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self):
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    async def request(self, method: str, target: str, body: bytes = b""):
        head = (f"{method} {target} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self.writer.write(head + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    def close(self):
        if self.writer is not None:
            self.writer.close()


def prometheus_values(text: str, names) -> dict:
    out = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        name, _, value = line.partition(" ")
        if name in names:
            out[name] = float(value)
    return out


PROM_NAMES = ("repro_predict_latency_seconds_sum",
              "repro_predict_latency_seconds_count",
              "repro_eventloop_lag_seconds")


async def scrape(conn: Connection, model: str, pid: int) -> dict:
    _, body = await conn.request("GET", "/metrics?format=json")
    snap = json.loads(body)
    _, text = await conn.request("GET", "/metrics?format=prometheus")
    batcher = snap.get("batchers", {}).get(model, {})
    return {"cpu_s": server_cpu_s(pid),
            "predictions": snap["predictions_total"],
            "batches": batcher.get("batches", 0),
            "queue_wait_ms_sum": (batcher.get("mean_queue_wait_ms", 0.0)
                                  * batcher.get("batches", 0)),
            **prometheus_values(text.decode("utf-8"), PROM_NAMES)}


def check_reply(status: int, payload: bytes, expected: dict) -> bool:
    if status != 200:
        return False
    try:
        doc = json.loads(payload)
    except ValueError:
        return False
    if doc.get("predictions") != expected["predictions"]:
        return False
    margins = doc.get("margins")
    if margins == expected["margins"]:
        return True
    if not isinstance(margins, list) or \
            len(margins) != len(expected["margins"]):
        return False
    return all(math.isclose(a, e, rel_tol=REL_TOL, abs_tol=ABS_TOL)
               for a, e in zip(margins, expected["margins"]))


class Load:
    """Shared closed-loop state across the connections."""

    def __init__(self, pool: dict):
        self.bodies = [json.dumps({"model": pool["model"],
                                   "inputs": req["inputs"]}).encode()
                       for req in pool["requests"]]
        self.expected = pool["requests"]
        self.next_index = 0
        self.recording = False
        self.latencies = []
        self.rows = 0
        self.attempted = 0
        self.failed = 0

    def take(self) -> int:
        i = self.next_index % len(self.bodies)
        self.next_index += 1
        return i

    def done(self, latency: float, ok: bool, rows: int) -> None:
        if not self.recording:
            return
        self.attempted += 1
        if ok:
            self.latencies.append(latency)
            self.rows += rows
        else:
            self.failed += 1


async def drive(conn: Connection, load: Load, stop: asyncio.Event) -> None:
    clock = time.perf_counter
    while not stop.is_set():
        i = load.take()
        t0 = clock()
        try:
            status, payload = await conn.request("POST", "/predict",
                                                 load.bodies[i])
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            load.done(clock() - t0, False, 0)
            await conn.open()
            continue
        latency = clock() - t0
        expected = load.expected[i]
        load.done(latency, check_reply(status, payload, expected),
                  len(expected["predictions"]))


async def sample_lag(conn: Connection, samples: list,
                     stop: asyncio.Event, interval: float) -> None:
    while not stop.is_set():
        try:
            await asyncio.wait_for(stop.wait(), timeout=interval)
        except asyncio.TimeoutError:
            pass
        _, text = await conn.request("GET", "/metrics?format=prometheus")
        value = prometheus_values(text.decode("utf-8"),
                                  ("repro_eventloop_lag_seconds",))
        if value:
            samples.append(value["repro_eventloop_lag_seconds"])


def mark(load: Load, pid: int, t0: float) -> dict:
    """Counts at a sub-window boundary (no await: one consistent cut)."""
    return {"t": time.perf_counter() - t0, "requests": load.attempted,
            "rows": load.rows, "latencies": len(load.latencies),
            "server_cpu_s": server_cpu_s(pid)}


async def run(args, pool: dict) -> dict:
    load = Load(pool)
    conns = [Connection(HOST, args.port) for _ in range(CONNECTIONS)]
    probe = Connection(HOST, args.port)
    for conn in conns + [probe]:
        await conn.open()

    stop = asyncio.Event()
    senders = [asyncio.create_task(drive(c, load, stop)) for c in conns]
    await asyncio.sleep(WARMUP_S)

    before = await scrape(probe, pool["model"], args.server_pid)
    if args.mark_window:
        os.kill(args.server_pid, signal.SIGUSR1)
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    load.recording = True
    t0 = time.perf_counter()
    lag_samples = []
    lag_stop = asyncio.Event()
    sampler = asyncio.create_task(
        sample_lag(probe, lag_samples, lag_stop, LAG_INTERVAL_S))
    marks = [mark(load, args.server_pid, t0)]
    for _ in range(SUBWINDOWS):
        await asyncio.sleep(args.seconds / SUBWINDOWS)
        marks.append(mark(load, args.server_pid, t0))
    load.recording = False
    window = time.perf_counter() - t0
    if args.mark_window:
        os.kill(args.server_pid, signal.SIGUSR2)
    lag_stop.set()
    await sampler
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    stop.set()
    await asyncio.gather(*senders)
    after = await scrape(probe, pool["model"], args.server_pid)
    for conn in conns + [probe]:
        conn.close()

    return {
        "window_s": window,
        "attempted": load.attempted,
        "failed": load.failed,
        "rows": load.rows,
        "latencies_s": load.latencies,
        "marks": marks,
        "client_cpu_s": (usage1.ru_utime - usage0.ru_utime
                         + usage1.ru_stime - usage0.ru_stime),
        "lag_samples_s": lag_samples,
        "before": before,
        "after": after,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--server-pid", type=int, required=True)
    parser.add_argument("--pool", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mark-window", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    pool = json.loads(args.pool.read_text())
    result = asyncio.run(run(args, pool))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
