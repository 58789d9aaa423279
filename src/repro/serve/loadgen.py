"""Closed- and open-loop HTTP load generation for the serving plane.

Answers the question the serving benchmarks and the perf gate keep
asking: *how many rows per second does the server actually sustain,
and at what latency?*  Two canonical modes:

**closed loop** (:func:`run_closed_loop`)
    ``connections`` concurrent keep-alive connections each send
    ``/predict`` requests back-to-back for ``duration`` seconds.
    Throughput is the saturation rate — the server is never idle —
    and latency is the per-request round trip.

**open loop** (:func:`run_open_loop`)
    Requests fire on a fixed schedule (``rate`` requests/s spread over
    the connections) regardless of completions, the way real traffic
    arrives.  Latency is measured from the *scheduled* fire time, so a
    server falling behind shows the backlog in its tail percentiles
    instead of quietly slowing the generator down (the coordinated-
    omission trap closed-loop numbers fall into).

The generator is a single-threaded asyncio client speaking minimal
HTTP/1.1 over persistent connections — no per-request socket setup, no
client-side thread pool fighting the server for the GIL.  Reports
carry rows/s, request rate, mean/p50/p95/p99/max latency, an error
count, and (when the server exposes it) the per-model batch-fill delta
scraped from ``/metrics``, so a run shows *how well the micro-batcher
coalesced* next to how fast it went.

``benchmarks/bench_loadgen.py`` and the ``serve.loadgen.aio`` perf-gate
benchmark are thin wrappers over this module.
"""

from __future__ import annotations

import asyncio
import json
import urllib.request
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..circuit.exceptions import AnalysisError

#: Read timeout per response; a server stuck longer than this is hung,
#: not slow (the serving batcher's own future timeout is 30 s).
RESPONSE_TIMEOUT = 60.0


def _split_url(url: str) -> Tuple[str, int]:
    if url.startswith("http://"):
        url = url[len("http://"):]
    hostport = url.split("/", 1)[0]
    host, _, port = hostport.partition(":")
    if not host or not port.isdigit():
        raise AnalysisError(
            f"loadgen needs an http://host:port URL, got {url!r}")
    return host, int(port)


def _predict_request_bytes(host: str, model: str,
                           inputs: Sequence[Sequence[float]],
                           vdd: Optional[float]) -> bytes:
    payload: Dict[str, Any] = {"model": model,
                               "inputs": [list(map(float, row))
                                          for row in inputs]}
    if vdd is not None:
        payload["vdd"] = float(vdd)
    body = json.dumps(payload).encode("utf-8")
    head = (f"POST /predict HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
    return head + body


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                  RESPONSE_TIMEOUT)
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.lower() == "content-length":
            length = int(value.strip())
    body = (await asyncio.wait_for(reader.readexactly(length),
                                   RESPONSE_TIMEOUT)
            if length else b"")
    return status, body


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def _latency_summary(latencies: List[float]) -> Dict[str, float]:
    ordered = sorted(latencies)
    mean = sum(ordered) / len(ordered) if ordered else 0.0
    return {
        "mean": round(1e3 * mean, 4),
        "p50": round(1e3 * _percentile(ordered, 0.50), 4),
        "p95": round(1e3 * _percentile(ordered, 0.95), 4),
        "p99": round(1e3 * _percentile(ordered, 0.99), 4),
        "max": round(1e3 * (ordered[-1] if ordered else 0.0), 4),
    }


def _scrape_batchers(url: str) -> Dict[str, Any]:
    """Per-model batcher stats from ``GET /metrics`` (JSON view)."""
    try:
        request = urllib.request.Request(
            url + "/metrics?format=json",
            headers={"Accept": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read()).get("batchers", {})
    except Exception:
        return {}


def _batch_fill_delta(before: Dict[str, Any],
                      after: Dict[str, Any]) -> Dict[str, Any]:
    """What the run itself put through each model's batcher."""
    delta: Dict[str, Any] = {}
    for name, stats in after.items():
        base = before.get(name, {})
        batches = stats["batches"] - base.get("batches", 0)
        rows = stats["rows"] - base.get("rows", 0)
        hist = {edge: count - base.get("batch_rows_hist", {}).get(edge, 0)
                for edge, count in stats.get("batch_rows_hist",
                                             {}).items()}
        if batches <= 0:
            continue
        delta[name] = {
            "batches": batches,
            "rows": rows,
            "mean_batch_rows": round(rows / batches, 3),
            "batch_rows_hist": hist,
        }
    return delta


async def _drive(host: str, port: int, request_bytes: bytes,
                 connections: int, duration: float,
                 fire_times: Optional[List[List[float]]]) -> Dict[str, Any]:
    """Run the whole generation on one event loop.

    ``fire_times`` is ``None`` for closed loop; for open loop it is a
    per-connection list of scheduled send offsets (seconds from start).
    """
    loop = asyncio.get_running_loop()
    latencies: List[float] = []
    counters = {"requests": 0, "errors": 0}
    start = loop.time()
    stop_at = start + duration

    async def closed_worker() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while loop.time() < stop_at:
                t0 = loop.time()
                writer.write(request_bytes)
                await writer.drain()
                status, _body = await _read_response(reader)
                latencies.append(loop.time() - t0)
                counters["requests"] += 1
                if status != 200:
                    counters["errors"] += 1
        finally:
            writer.close()

    async def open_worker(offsets: List[float]) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for offset in offsets:
                delay = (start + offset) - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                # Latency from the *scheduled* time: backlog counts.
                writer.write(request_bytes)
                await writer.drain()
                status, _body = await _read_response(reader)
                latencies.append(loop.time() - (start + offset))
                counters["requests"] += 1
                if status != 200:
                    counters["errors"] += 1
        finally:
            writer.close()

    if fire_times is None:
        workers = [closed_worker() for _ in range(connections)]
    else:
        workers = [open_worker(offsets) for offsets in fire_times]
    results = await asyncio.gather(*workers, return_exceptions=True)
    failures = [r for r in results if isinstance(r, BaseException)]
    elapsed = loop.time() - start
    return {"latencies": latencies, "elapsed": elapsed,
            "connection_failures": len(failures), **counters}


def _report(url: str, mode: str, connections: int,
            rows_per_request: int, raw: Dict[str, Any],
            batchers_before: Dict[str, Any]) -> Dict[str, Any]:
    elapsed = max(raw["elapsed"], 1e-9)
    requests = raw["requests"]
    report = {
        "mode": mode,
        "connections": connections,
        "rows_per_request": rows_per_request,
        "duration_s": round(elapsed, 4),
        "requests": requests,
        "errors": raw["errors"],
        "connection_failures": raw["connection_failures"],
        "requests_per_s": round(requests / elapsed, 1),
        "rows_per_s": round(requests * rows_per_request / elapsed, 1),
        "latency_ms": _latency_summary(raw["latencies"]),
        "batch_fill": _batch_fill_delta(batchers_before,
                                        _scrape_batchers(url)),
    }
    return report


def run_closed_loop(url: str, model: str,
                    inputs: Sequence[Sequence[float]], *,
                    connections: int = 64, duration: float = 2.0,
                    vdd: Optional[float] = None) -> Dict[str, Any]:
    """Saturate ``url`` with back-to-back ``/predict`` requests.

    Every connection repeats the same ``inputs`` payload (rows ×
    features) for ``duration`` seconds; returns the report dict
    described in the module docstring.
    """
    if connections < 1:
        raise AnalysisError("connections must be >= 1")
    host, port = _split_url(url)
    request_bytes = _predict_request_bytes(host, model, inputs, vdd)
    before = _scrape_batchers(url)
    raw = asyncio.run(_drive(host, port, request_bytes, connections,
                             duration, None))
    return _report(url, "closed", connections, len(inputs), raw, before)


def run_open_loop(url: str, model: str,
                  inputs: Sequence[Sequence[float]], *,
                  rate: float, connections: int = 16,
                  duration: float = 2.0,
                  vdd: Optional[float] = None) -> Dict[str, Any]:
    """Fire ``rate`` requests/s on a fixed schedule for ``duration``.

    Arrivals are spread evenly and assigned round-robin across the
    connections; latency percentiles are measured from each request's
    scheduled time, so they include any backlog the server builds.
    The report adds ``offered_rows_per_s`` — compare it against
    ``rows_per_s`` to see whether the server kept up.
    """
    if connections < 1:
        raise AnalysisError("connections must be >= 1")
    if rate <= 0:
        raise AnalysisError("rate must be > 0 requests/s")
    host, port = _split_url(url)
    request_bytes = _predict_request_bytes(host, model, inputs, vdd)
    total = max(1, int(rate * duration))
    fire_times: List[List[float]] = [[] for _ in range(connections)]
    for k in range(total):
        fire_times[k % connections].append(k / rate)
    before = _scrape_batchers(url)
    raw = asyncio.run(_drive(host, port, request_bytes, connections,
                             duration, fire_times))
    report = _report(url, "open", connections, len(inputs), raw, before)
    report["offered_requests_per_s"] = round(rate, 1)
    report["offered_rows_per_s"] = round(rate * len(inputs), 1)
    return report
