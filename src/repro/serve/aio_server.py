"""Asyncio HTTP core and the serving API built on it.

:class:`AsyncHttpServer` is the repository's one HTTP/1.1 server.  It
owns everything that is not application logic:

* **bind at construction** — the listening socket exists (and a port
  collision raises ``OSError``) before :meth:`~AsyncHttpServer.start`
  or :meth:`~AsyncHttpServer.run`, so ``url``/``port`` are real from
  the start, ``port=0`` included;
* **lifecycle** — :meth:`~AsyncHttpServer.start` hosts the event loop
  on a background thread (tests, examples), :meth:`~AsyncHttpServer.run`
  owns the calling thread (CLI), :meth:`~AsyncHttpServer.close` drains;
* **persistent connections** — HTTP/1.1 keep-alive with sequential
  pipelining per connection, one task per connection;
* **bounded parsing** — requests are assembled from the stream as
  bytes arrive (head at the blank line, body by ``Content-Length``).
  A malformed head, an unsupported method, a chunked body, a bad or
  oversized ``Content-Length`` (:data:`MAX_BODY_BYTES`) each get one
  JSON error reply and a close; a head or body read that stalls for
  :data:`READ_TIMEOUT_S` (an idle keep-alive connection included)
  closes the connection.

Subclasses supply ``_dispatch`` (one parsed request in, ``(status,
body, content_type)`` out).  Two exist: :class:`AsyncPerceptronServer`
below and :class:`repro.store.dashboard.CampaignDashboard`.

:class:`AsyncPerceptronServer` serves the JSON API described in
:mod:`repro.serve.server` (:class:`~repro.serve.server.ServingCore`
holds its request validation and response shapes):

* **cross-connection micro-batching** — each model's
  :class:`~repro.serve.scheduler.AsyncMicroBatcher` lives on the event
  loop, so concurrent ``/predict`` rows from *different* connections
  coalesce into single
  :class:`~repro.serve.engine.BatchInferenceEngine` calls.  This is the
  throughput lever: 64 connections sending 4-row requests ride
  ~64-row forward passes instead of 64 tiny ones;
* **worker-process pool** — engines whose registry capability level is
  not ``"behavioral"`` (``rc``, ``spice``) dispatch to an
  :class:`~repro.serve.pool.EngineWorkerPool` and are awaited as
  futures, so transistor-level margin requests do not serialise the
  event loop behind the GIL (``--workers 0`` falls back to the shared
  thread executor);
* **observability** — ``repro_eventloop_lag_seconds``,
  ``repro_worker_pool_queue_depth`` and ``repro_open_connections``
  gauges refresh from an in-loop heartbeat; with telemetry enabled,
  each connection records a span (requests link to it via ``parent``)
  through the stack-free :meth:`repro.telemetry.trace.Tracer.record`.

Experiment and campaign runs execute on the default thread executor —
they are minutes-long CPU work that must not stall the predict path.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import socket
import threading
import time
from functools import partial
from http.client import responses as _http_reasons
from typing import Any, Dict, Optional, Tuple

from .. import telemetry
from ..circuit.exceptions import AnalysisError
from .artifacts import ModelStore
from .pool import EngineWorkerPool
from .server import (
    ServingCore,
    encode_json,
    error_response,
    predict_error_fields,
)

#: How often the in-loop heartbeat samples event-loop lag and refreshes
#: the pool/connection gauges.  Also the lag floor: a stall shorter
#: than one interval may be missed; anything longer is measured.
HEARTBEAT_INTERVAL = 0.25

#: Largest accepted request body.  A 64-row ``/predict`` body is a few
#: kilobytes; this leaves room for big batches and experiment overrides.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest wait for one request head or body.  A client that stalls
#: mid-request, or leaves a keep-alive connection idle this long, is
#: disconnected.  Generous on purpose: monitoring clients hold one
#: keep-alive connection idle between scrapes.
READ_TIMEOUT_S = 60.0


def _content_length(headers: Dict[str, str]
                    ) -> Tuple[int, Optional[Tuple[int, str]]]:
    """Body length from the headers, or ``(0, (status, message))`` for a
    value the server refuses (400 malformed, 413 over the cap)."""
    raw = headers.get("content-length") or "0"
    try:
        length = int(raw)
    except ValueError:
        length = -1
    if length < 0:
        return 0, (400, f"invalid Content-Length {raw!r}")
    if length > MAX_BODY_BYTES:
        return 0, (413, f"request body of {length} bytes exceeds the "
                        f"{MAX_BODY_BYTES}-byte limit")
    return length, None


def _parse_head(blob: bytes) -> Tuple[str, str, str, Dict[str, str]]:
    """Request line + headers from one ``...\\r\\n\\r\\n`` block.

    Header names are lower-cased (HTTP headers are case-insensitive);
    raises ``ValueError`` on anything malformed.
    """
    lines = blob.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip() or " " in name:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.lower()] = value.strip()
    return method, target, version, headers


def _response_head(status: int, content_type: str, length: int, *,
                   keep_alive: bool) -> bytes:
    reason = _http_reasons.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    return (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {length}\r\n"
            f"Connection: {connection}\r\n\r\n").encode("latin-1")


def _wants_prometheus(target: str, headers: Dict[str, str]) -> bool:
    """Content negotiation for ``/metrics``: Prometheus asks with
    ``Accept: text/plain`` (or OpenMetrics); humans and tests can force
    it with ``?format=prometheus``."""
    query = target.partition("?")[2]
    if "format=prometheus" in query:
        return True
    if "format=json" in query:
        return False
    accept = headers.get("accept", "")
    return "text/plain" in accept or "openmetrics" in accept


def _parse_body_json(body: bytes, *, required: bool) -> Any:
    """Request body as JSON; ``{}`` when absent and optional."""
    if not body:
        if required:
            raise AnalysisError("empty request body")
        return {}
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"request body is not JSON: {exc}") from exc


class AsyncHttpServer:
    """Bound listening socket + asyncio connection loop.

    The socket is bound in the constructor; read the real address back
    from :attr:`host`/:attr:`port` (``port=0`` picks a free one).  Use
    as a context manager / :meth:`start` (background thread) or
    :meth:`run` (calling thread); :meth:`close` releases the socket
    whether or not the server ever started.
    """

    #: Request methods the subclass routes; any other gets a 501 reply
    #: and a close before its body is read.
    allowed_methods: Tuple[str, ...] = ("GET", "POST")

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        # IPPROTO_TCP, not 0: asyncio sets TCP_NODELAY on accepted
        # connections only when the listening socket names the protocol.
        self._sock = socket.socket(family, socket.SOCK_STREAM,
                                   socket.IPPROTO_TCP)
        try:
            if os.name == "posix":
                self._sock.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._sock.listen(100)
        except OSError:
            self._sock.close()
            raise
        self.host, self.port = self._sock.getsockname()[:2]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._conn_seq = 0
        self._open_connections = 0
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._writers: "set[asyncio.StreamWriter]" = set()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(self._handle_conn,
                                            sock=self._sock)
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            # Close idle keep-alive connections (their readers see EOF
            # and the handler tasks return) rather than letting
            # asyncio.run cancel them mid-await.
            for writer in list(self._writers):
                writer.close()
            if self._conn_tasks:
                await asyncio.wait(self._conn_tasks, timeout=5.0)
            await server.wait_closed()
            self._loop = None

    def start(self) -> "AsyncHttpServer":
        """Host the event loop on a background thread (tests/examples)."""
        if self._thread is None:
            self._started.clear()
            self._thread = threading.Thread(
                target=partial(asyncio.run, self._main()), daemon=True,
                name=f"repro-{type(self).__name__}")
            self._thread.start()
            self._started.wait(timeout=10.0)
        return self

    def run(self) -> None:
        """Serve from the calling thread until interrupted (CLI)."""
        with contextlib.suppress(KeyboardInterrupt):
            asyncio.run(self._main())

    def close(self) -> None:
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._sock.close()

    def __enter__(self) -> "AsyncHttpServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- connection handling -----------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        rt = telemetry.active()
        conn_span: Optional[int] = None
        if rt is not None:
            self._conn_seq += 1
            peer = writer.get_extra_info("peername")
            conn_span = rt.tracer.record(
                "serve.connection", ts=time.time(), dur=0.0,
                tags={"conn": self._conn_seq,
                      "peer": str(peer[1]) if peer else ""})
        self._open_connections += 1
        t0 = time.perf_counter()
        served = 0
        try:
            while True:
                try:
                    async with asyncio.timeout(READ_TIMEOUT_S):
                        head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError,
                        TimeoutError):
                    break          # client went away or went quiet
                except asyncio.LimitOverrunError:
                    await self._write_response(
                        writer, 400,
                        encode_json({"error": "request head too large"}),
                        keep_alive=False)
                    break
                try:
                    method, target, version, headers = _parse_head(head)
                except ValueError as exc:
                    await self._write_response(
                        writer, 400, encode_json({"error": str(exc)}),
                        keep_alive=False)
                    break
                if method not in self.allowed_methods:
                    await self._write_response(
                        writer, 501, encode_json({
                            "error": f"unsupported method {method}"}),
                        keep_alive=False)
                    break
                if "transfer-encoding" in headers:
                    await self._write_response(
                        writer, 501, encode_json({
                            "error": "chunked transfer encoding is "
                                     "not supported"}),
                        keep_alive=False)
                    break
                length, error = _content_length(headers)
                if error is not None:
                    await self._write_response(
                        writer, error[0], encode_json({"error": error[1]}),
                        keep_alive=False)
                    break
                body = b""
                if length > 0:
                    async with asyncio.timeout(READ_TIMEOUT_S):
                        body = await reader.readexactly(length)
                keep_alive = (version == "HTTP/1.1" and "close" not in
                              headers.get("connection", "").lower())
                status, out, content_type = await self._dispatch(
                    method, target, headers, body, conn_span)
                served += 1
                await self._write_response(
                    writer, status, out, keep_alive=keep_alive,
                    content_type=content_type)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                TimeoutError, OSError):
            pass
        finally:
            self._open_connections -= 1
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            if rt is not None:
                rt.tracer.record(
                    "serve.connection.close", ts=time.time(),
                    dur=time.perf_counter() - t0,
                    tags={"requests": served}, parent=conn_span)
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, status: int,
                              body: bytes, *, keep_alive: bool,
                              content_type: str = "application/json"
                              ) -> None:
        writer.write(_response_head(status, content_type, len(body),
                                    keep_alive=keep_alive) + body)
        await writer.drain()

    async def _dispatch(self, method: str, target: str,
                        headers: Dict[str, str], body: bytes,
                        conn_span: Optional[int]
                        ) -> Tuple[int, bytes, str]:
        """Answer one request: ``(status, body, content_type)``."""
        raise NotImplementedError

    async def _run_blocking(self, fn, *args):
        """Long synchronous work (experiments, store scans) goes to the
        default thread executor so the loop keeps serving."""
        return await asyncio.get_running_loop().run_in_executor(
            None, partial(fn, *args))


class AsyncPerceptronServer(ServingCore, AsyncHttpServer):
    """The model-serving HTTP API over a :class:`ModelStore`.

    Bound at construction (``port=0`` picks a free port, readable from
    :attr:`port` at once); serve with :meth:`start` / the context
    manager (background thread) or :meth:`run` (calling thread).
    """

    def __init__(self, store: ModelStore, *, host: str = "127.0.0.1",
                 port: int = 0, max_batch: int = 64,
                 max_latency: float = 0.005,
                 campaign_dir: "str | None" = None, workers: int = 2):
        if workers < 0:
            raise AnalysisError("workers must be >= 0")
        ServingCore.__init__(self, store, max_batch=max_batch,
                             max_latency=max_latency,
                             campaign_dir=campaign_dir)
        AsyncHttpServer.__init__(self, host, port)
        reg = self.metrics.registry
        restarts = reg.counter(
            "repro_worker_pool_restarts_total",
            "Worker-process pools replaced after a worker died "
            "mid-request.")
        self.pool = EngineWorkerPool(workers, on_restart=restarts.inc)
        self._lag_gauge = reg.gauge(
            "repro_eventloop_lag_seconds",
            "Event-loop scheduling lag sampled by the serve heartbeat.")
        self._pool_depth_gauge = reg.gauge(
            "repro_worker_pool_queue_depth",
            "Slow-engine requests submitted to the worker pool and "
            "not yet finished.")
        self._conn_gauge = reg.gauge(
            "repro_open_connections",
            "Currently open HTTP connections.")

    async def handle_predict_async(self,
                                   payload: Dict[str, Any]) -> Dict[str, Any]:
        """One ``/predict`` payload on the event loop.

        Behavioural requests ride the model's cross-connection
        :class:`AsyncMicroBatcher`; engines at any other capability
        level go to the worker-process pool (or, with the pool
        disabled, the thread executor) and are awaited — the loop keeps
        serving while they solve.
        """
        request = self.parse_predict(payload)
        if request.engine == "behavioral":
            margins = await request.loaded.batcher.submit(
                request.X, vdd=request.vdd)
            return self.predict_response(request, margins)
        # Same registry choke point (and error text) the in-process
        # path hits inside model_margins, paid before shipping work.
        from ..engines import require_capability
        from ..exec.batch import resolve_solver

        resolved = require_capability(request.engine, "serving_margins",
                                      context="served analog margins")
        resolve_solver(request.solver, engine_id=request.engine)
        loop = asyncio.get_running_loop()
        if resolved.capabilities().level != "behavioral" \
                and self.pool.enabled:
            margins = await asyncio.wrap_future(self.pool.submit(
                request.loaded.doc, request.X, request.vdd,
                request.engine, request.solver))
        else:
            margins = await loop.run_in_executor(None, partial(
                self.engine.model_margins, request.loaded.model,
                request.X, vdd=request.vdd, engine=request.engine,
                solver=request.solver))
        return self.predict_response(request, margins)

    async def _main(self) -> None:
        heartbeat = asyncio.get_running_loop().create_task(
            self._heartbeat())
        try:
            await super()._main()
        finally:
            heartbeat.cancel()
            # On the loop thread: AsyncMicroBatcher futures resolve
            # where they live, so in-flight requests drain cleanly.
            self.close_models()
            self.pool.shutdown()

    # -- in-loop observability ---------------------------------------------

    async def _heartbeat(self) -> None:
        """Sample event-loop lag and refresh the serving gauges.

        Lag is how late a ``sleep(interval)`` wakes up — the canonical
        loop-health signal: anything blocking the loop (an accidental
        synchronous solve, GC, a huge JSON encode) shows up here before
        it shows up as tail latency.
        """
        loop = asyncio.get_running_loop()
        while True:
            t0 = loop.time()
            await asyncio.sleep(HEARTBEAT_INTERVAL)
            lag = max(0.0, loop.time() - t0 - HEARTBEAT_INTERVAL)
            with self.metrics.registry.lock:
                self._lag_gauge.set(lag)
                self._pool_depth_gauge.set(self.pool.queue_depth)
                self._conn_gauge.set(self._open_connections)

    # -- request dispatch ---------------------------------------------------

    async def _observed(self, endpoint: str, handler,
                        error_extra=None) -> Tuple[int, Dict[str, Any]]:
        """Run one handler coroutine, map exceptions through
        :func:`error_response`, record metrics."""
        t0 = time.perf_counter()
        status, payload, rows = 500, {"error": "internal error"}, 0
        try:
            status, payload, rows = await handler()
        except Exception as exc:
            status, payload = error_response(exc)
            rows = 0
            if error_extra is not None:
                payload = {**payload, **error_extra()}
        self.metrics.observe(endpoint, time.perf_counter() - t0,
                             rows=rows, error=status >= 400)
        return status, payload

    async def _dispatch(self, method: str, target: str,
                        headers: Dict[str, str], body: bytes,
                        conn_span: Optional[int]
                        ) -> Tuple[int, bytes, str]:
        """Route one request; returns ``(status, body, content_type)``.

        Response bytes are a pinned contract: they must match the
        recorded ``tests/fixtures/serve_wire.json``.
        """
        t0_wall, t0 = time.time(), time.perf_counter()
        path = target.split("?", 1)[0].rstrip("/") or "/"
        content_type = "application/json"

        if method == "GET" and path == "/metrics" \
                and _wants_prometheus(target, headers):
            status, text = 200, ""
            try:
                text = self.prometheus_metrics()
            except Exception as exc:  # pragma: no cover - defensive
                status = 500
                text = f"# scrape failed: {type(exc).__name__}: {exc}\n"
            self.metrics.observe("/metrics", time.perf_counter() - t0,
                                 error=status >= 400)
            out = text.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
            self._trace_request(conn_span, "/metrics", status,
                                t0_wall, t0)
            return status, out, content_type

        endpoint, handler, error_extra = self._route(method, target,
                                                     path, body)
        status, payload = await self._observed(endpoint, handler,
                                               error_extra)
        self._trace_request(conn_span, endpoint, status, t0_wall, t0)
        return status, encode_json(payload), content_type

    def _trace_request(self, conn_span: Optional[int], endpoint: str,
                       status: int, t0_wall: float, t0: float) -> None:
        rt = telemetry.active()
        if rt is not None:
            rt.tracer.record(
                "serve.request", ts=t0_wall,
                dur=time.perf_counter() - t0,
                tags={"endpoint": endpoint, "status": status},
                parent=conn_span)

    def _route(self, method: str, target: str, path: str, body: bytes):
        """Pick ``(endpoint_label, handler_coroutine, error_extra)``."""
        if method == "GET":
            if path in ("/healthz", "/"):
                async def healthz():
                    return 200, {"status": "ok",
                                 "models_loaded": len(self._models)}, 0
                return "/healthz", healthz, None
            if path == "/models":
                async def models():
                    listed = await self._run_blocking(self.store.list)
                    return 200, {"models": listed}, 0
                return "/models", models, None
            if path == "/experiments":
                async def experiments():
                    return 200, await self._run_blocking(
                        self.describe_experiments), 0
                return "/experiments", experiments, None
            if path == "/engines":
                async def engines():
                    return 200, await self._run_blocking(
                        self.describe_engines), 0
                return "/engines", engines, None
            if path == "/campaigns":
                async def campaigns():
                    return 200, await self._run_blocking(
                        self.list_campaigns), 0
                return "/campaigns", campaigns, None
            if path.startswith("/experiments/"):
                experiment_id = path[len("/experiments/"):]

                async def describe():
                    return 200, await self._run_blocking(
                        self.describe_experiment, experiment_id), 0
                return "/experiments", describe, None
            if path == "/metrics":
                async def metrics():
                    payload = self.metrics.snapshot()
                    payload["batchers"] = self.batcher_metrics()
                    return 200, payload, 0
                return "/metrics", metrics, None
        elif method == "POST":
            if path == "/predict":
                raw: Dict[str, Any] = {"payload": None}

                async def predict():
                    raw["payload"] = _parse_body_json(body,
                                                      required=True)
                    result = await self.handle_predict_async(
                        raw["payload"])
                    return 200, result, result["count"]
                return "/predict", predict, (
                    lambda: predict_error_fields(raw["payload"]))
            if path.startswith("/experiments/") and path.endswith("/run"):
                experiment_id = path[len("/experiments/"):-len("/run")]

                async def run_exp():
                    payload = _parse_body_json(body, required=False)
                    return 200, await self._run_blocking(
                        self.handle_run_experiment, experiment_id,
                        payload), 0
                return "/experiments/run", run_exp, None
            if path.startswith("/campaigns/") and path.endswith("/run"):
                name = path[len("/campaigns/"):-len("/run")]

                async def run_campaign():
                    payload = _parse_body_json(body, required=False)
                    return 200, await self._run_blocking(
                        self.handle_run_campaign, name, payload), 0
                return "/campaigns/run", run_campaign, None

        async def unknown():
            return 404, {"error": f"unknown endpoint {target}"}, 0
        return "unknown", unknown, None
