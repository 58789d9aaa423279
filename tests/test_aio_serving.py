"""The asyncio serving plane: scheduler, HTTP core, pool, loadgen.

Pins the guarantees the serving plane rests on:

* the :class:`AsyncMicroBatcher` delivers exactly the handler's
  answers under coalescing, deadline flushes, oversized-request
  splitting, and shutdown with in-flight futures;
* the server answers **byte-identically** to the recorded wire
  fixture (``tests/fixtures/serve_wire.json``) — success and error
  bodies alike — so clients see no change across releases;
* ``/predict`` error bodies always carry ``error``/``model``/
  ``engine`` in that order;
* the HTTP core binds at construction, bounds malformed, oversized
  and stalled requests, and keeps serving afterwards;
* schema-v3 artifacts round-trip custom cell designs and older
  documents migrate (v2 → v3, v1 → v3);
* the worker pool dispatches by artifact document with per-process
  caching, and the new gauges show up in the Prometheus exposition;
* the load generator measures the server without erroring.
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import os
import signal
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.datasets import make_blobs
from repro.circuit import AnalysisError
from repro.core.cells import CellDesign
from repro.core.perceptron import DifferentialPwmPerceptron
from repro.core.training import PerceptronTrainer
from repro.core.weighted_adder import AdderConfig
from repro.serve import (
    ARTIFACT_SCHEMA_VERSION,
    AsyncMicroBatcher,
    AsyncPerceptronServer,
    BatchInferenceEngine,
    EngineWorkerPool,
    ModelStore,
    deserialize_model,
    serialize_model,
)
from repro.serve import aio_server
from repro.serve.artifacts import artifact_hash, upgrade_artifact
from repro.serve.loadgen import run_closed_loop, run_open_loop
from repro.serve.pool import _pool_margins
from repro.telemetry.metrics import validate_prometheus_text

ENGINE = BatchInferenceEngine()

WIRE_FIXTURE = Path(__file__).parent / "fixtures" / "serve_wire.json"


def _raw(host, port, method, path, body=None):
    """One request, raw response bytes (the byte-identity probe)."""
    conn = http.client.HTTPConnection(host, port, timeout=15)
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    status, data = response.status, response.read()
    conn.close()
    return status, data


# -- the async scheduler ---------------------------------------------------


class TestAsyncMicroBatcher:
    @staticmethod
    def _handler(calls):
        def handler(features, vdds):
            calls.append((features.copy(),
                          None if vdds is None else vdds.copy()))
            return features[:, 0] * 2.0
        return handler

    def test_needs_running_loop(self):
        with pytest.raises(AnalysisError, match="running event loop"):
            AsyncMicroBatcher(lambda f, v: f[:, 0])

    def test_coalesces_across_submitters(self):
        async def scenario():
            calls = []
            batcher = AsyncMicroBatcher(self._handler(calls),
                                        max_batch=8, max_latency=0.05)
            rows = [np.full((2, 3), k, dtype=float) for k in range(4)]
            results = await asyncio.gather(
                *[batcher.submit(r) for r in rows])
            return calls, rows, results

        calls, rows, results = asyncio.run(scenario())
        # 4 x 2 rows fill max_batch exactly: one flush, in order.
        assert len(calls) == 1 and calls[0][0].shape == (8, 3)
        for row, result in zip(rows, results):
            assert np.array_equal(result, row[:, 0] * 2.0)

    def test_deadline_flushes_partial_batch(self):
        async def scenario():
            calls = []
            batcher = AsyncMicroBatcher(self._handler(calls),
                                        max_batch=64, max_latency=0.005)
            t0 = time.perf_counter()
            result = await batcher.submit(np.array([[1.0, 2.0]]))
            return calls, result, time.perf_counter() - t0

        calls, result, elapsed = asyncio.run(scenario())
        assert len(calls) == 1
        assert np.array_equal(result, [2.0])
        assert elapsed >= 0.004   # waited for the deadline, not forever

    def test_deadline_with_empty_queue_is_noop(self):
        async def scenario():
            batcher = AsyncMicroBatcher(self._handler([]), max_batch=4,
                                        max_latency=0.002)
            # Fill to max_batch: the size trigger flushes synchronously
            # and cancels the timer...
            tasks = [asyncio.ensure_future(
                batcher.submit(np.ones((1, 2)))) for _ in range(4)]
            await asyncio.gather(*tasks)
            assert not batcher._queue
            # ...and a deadline callback racing the cancel must
            # tolerate finding nothing to flush.
            batcher._on_deadline()
            await asyncio.sleep(0.01)
            # The batcher still works afterwards.
            return await batcher.submit(np.array([[3.0, 0.0]]))

        assert np.array_equal(asyncio.run(scenario()), [6.0])

    def test_oversized_request_splits_across_batches(self):
        async def scenario():
            calls = []
            batcher = AsyncMicroBatcher(self._handler(calls),
                                        max_batch=8, max_latency=0.005)
            X = np.arange(40.0).reshape(20, 2)
            result = await batcher.submit(X, vdd=1.5)
            return calls, X, result, batcher.stats

        calls, X, result, stats = asyncio.run(scenario())
        # 20 rows through an 8-row envelope: 8 + 8 + 4.
        assert [c[0].shape[0] for c in calls] == [8, 8, 4]
        assert stats.max_batch_rows <= 8
        assert np.array_equal(result, X[:, 0] * 2.0)  # order preserved
        for _, vdds in calls:                          # vdd rides along
            assert vdds is not None and np.all(vdds == 1.5)

    def test_stop_drains_in_flight_futures(self):
        async def scenario():
            calls = []
            batcher = AsyncMicroBatcher(self._handler(calls),
                                        max_batch=64, max_latency=5.0)
            tasks = [asyncio.ensure_future(
                batcher.submit(np.full((1, 2), k, dtype=float)))
                for k in range(3)]
            await asyncio.sleep(0)     # let the submits enqueue
            batcher.stop(drain=True)   # long before any deadline
            results = await asyncio.gather(*tasks)
            with pytest.raises(AnalysisError, match="not running"):
                await batcher.submit(np.ones((1, 2)))
            return calls, results

        calls, results = asyncio.run(scenario())
        assert len(calls) == 1 and calls[0][0].shape == (3, 2)
        assert [float(r[0]) for r in results] == [0.0, 2.0, 4.0]

    def test_stop_without_drain_fails_pending_futures(self):
        async def scenario():
            batcher = AsyncMicroBatcher(self._handler([]),
                                        max_batch=64, max_latency=5.0)
            task = asyncio.ensure_future(
                batcher.submit(np.ones((1, 2))))
            await asyncio.sleep(0)
            batcher.stop(drain=False)
            with pytest.raises(AnalysisError, match="stopped"):
                await task

        asyncio.run(scenario())

    def test_handler_error_propagates_to_batch(self):
        async def scenario():
            def broken(features, vdds):
                raise ValueError("flush exploded")

            batcher = AsyncMicroBatcher(broken, max_batch=2,
                                        max_latency=0.002)
            with pytest.raises(ValueError, match="flush exploded"):
                await batcher.submit(np.ones((2, 2)))
            return batcher.stats.batches

        assert asyncio.run(scenario()) == 1

    def test_validation(self):
        async def scenario():
            with pytest.raises(AnalysisError):
                AsyncMicroBatcher(lambda f, v: f, max_batch=0)
            with pytest.raises(AnalysisError):
                AsyncMicroBatcher(lambda f, v: f, max_latency=-1)
            batcher = AsyncMicroBatcher(lambda f, v: f[:, 0])
            with pytest.raises(AnalysisError):
                await batcher.submit(np.empty((0, 2)))

        asyncio.run(scenario())


# -- the HTTP server ----------------------------------------------------------


def _demo_store(root):
    """The wire fixture's store: one blobs perceptron named ``demo``."""
    data = make_blobs(n_per_class=20, n_features=2, separation=0.35,
                      spread=0.09, seed=7)
    model = PerceptronTrainer(2, seed=7).fit(data.X, data.y,
                                             epochs=40).perceptron
    store = ModelStore(root)
    store.save("demo", model)
    return data, model, store


@pytest.fixture(scope="class")
def aio_stack(request, tmp_path_factory):
    """One store, one model, one server."""
    data, model, store = _demo_store(tmp_path_factory.mktemp("models"))
    aio = AsyncPerceptronServer(store, port=0, max_batch=16,
                                max_latency=0.002, workers=0).start()
    request.cls.data = data
    request.cls.model = model
    request.cls.store = store
    request.cls.aio = aio
    yield
    aio.close()


def _replay_wire_fixture(root):
    """Replay the whole wire fixture on a fresh server, in order.

    Returns ``(exchange, got, expected)`` triples; ``got`` and
    ``expected`` are ``(status, content type, body bytes)``. The order
    matters: ``/healthz`` reports how many models the earlier requests
    loaded.
    """
    exchanges = json.loads(WIRE_FIXTURE.read_text())["exchanges"]
    _, _, store = _demo_store(root)
    results = []
    with AsyncPerceptronServer(store, max_batch=16, max_latency=0.002,
                               workers=0) as server:
        for ex in exchanges:
            request = ex["request"]
            conn = http.client.HTTPConnection(server.host, server.port,
                                              timeout=30)
            conn.request(
                ex["method"], ex["path"],
                body=None if request is None else request.encode(),
                headers={"Content-Type": "application/json"}
                if request else {})
            response = conn.getresponse()
            got = (response.status, response.getheader("Content-Type"),
                   response.read())
            conn.close()
            body = ex["body"].replace("<store>", str(store.root))
            results.append((ex, got, (ex["status"], ex["content_type"],
                                      body.encode("utf-8"))))
    return results


class TestTransportByteIdentity:
    """Clients must not see the wire change across releases: the server
    answers byte-identically to the recorded wire fixture."""

    @staticmethod
    def _check(results, select, expected_count):
        chosen = [(ex, got, want) for ex, got, want in results
                  if select(ex)]
        assert len(chosen) == expected_count
        for ex, got, want in chosen:
            assert got == want, (ex["method"], ex["path"], ex["request"])

    def test_predict_success_bodies_identical(self, tmp_path):
        self._check(_replay_wire_fixture(tmp_path),
                    lambda ex: ex["method"] == "POST"
                    and ex["status"] == 200, 3)

    def test_predict_error_bodies_identical(self, tmp_path):
        self._check(_replay_wire_fixture(tmp_path),
                    lambda ex: ex["method"] == "POST"
                    and ex["status"] != 200, 9)

    def test_get_endpoints_identical(self, tmp_path):
        self._check(_replay_wire_fixture(tmp_path),
                    lambda ex: ex["method"] == "GET", 6)


@pytest.mark.usefixtures("aio_stack")
class TestErrorShapeContract:
    """Every /predict error body: error, model, engine — in order."""

    def _post_pairs(self, payload):
        status, raw = _raw(self.aio.host, self.aio.port, "POST",
                           "/predict", json.dumps(payload).encode())
        return status, json.loads(raw,
                                  object_pairs_hook=lambda p: p)

    def test_error_bodies_carry_model_and_engine(self):
        for payload, model, engine in (
                ({"model": "nope", "inputs": [[0.1, 0.2]]},
                 "nope", "behavioral"),
                ({"model": "demo", "inputs": [[0.1]],
                  "engine": "rc"}, "demo", "rc"),
                ({"inputs": [[0.1, 0.2]]}, None, "behavioral"),
                ({"model": "demo"}, "demo", "behavioral")):
            status, pairs = self._post_pairs(payload)
            assert status >= 400
            assert [k for k, _ in pairs] == \
                ["error", "model", "engine"], payload
            fields = dict(pairs)
            assert fields["model"] == model
            assert fields["engine"] == engine

    def test_success_bodies_unchanged_by_contract(self):
        status, raw = _raw(self.aio.host, self.aio.port, "POST",
                           "/predict",
                           json.dumps({"model": "demo",
                                       "inputs": [[0.3, 0.7]]
                                       }).encode())
        assert status == 200
        assert list(json.loads(raw)) == \
            ["model", "predictions", "margins", "count", "engine",
             "solver"]


@pytest.mark.usefixtures("aio_stack")
class TestAioTransport:
    def _get(self, path, headers=None):
        conn = http.client.HTTPConnection(self.aio.host, self.aio.port,
                                          timeout=15)
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        status, raw = response.status, response.read()
        conn.close()
        return status, raw

    def test_predict_matches_engine(self):
        X = self.data.X
        status, raw = _raw(self.aio.host, self.aio.port, "POST",
                           "/predict",
                           json.dumps({"model": "demo",
                                       "inputs": X.tolist()}).encode())
        body = json.loads(raw)
        assert status == 200
        assert body["predictions"] == \
            [int(v) for v in ENGINE.predict(self.model, X)]
        assert np.allclose(body["margins"],
                           ENGINE.margins(self.model, X))

    def test_keep_alive_reuses_one_connection(self):
        conn = http.client.HTTPConnection(self.aio.host, self.aio.port,
                                          timeout=15)
        payload = json.dumps({"model": "demo",
                              "inputs": [[0.4, 0.6]]}).encode()
        for _ in range(5):
            conn.request("POST", "/predict", body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 200
            assert response.read()
            # HTTP/1.1 keep-alive: the server must not close on us.
            assert not response.will_close
        conn.close()

    def test_concurrent_connections_coalesce(self):
        """Rows from different connections ride shared batches."""
        before = self.aio.batcher_metrics().get("demo",
                                                {"batches": 0,
                                                 "rows": 0})

        async def blast():
            async def one():
                reader, writer = await asyncio.open_connection(
                    self.aio.host, self.aio.port)
                body = json.dumps({"model": "demo",
                                   "inputs": [[0.5, 0.5]]}).encode()
                head = (f"POST /predict HTTP/1.1\r\n"
                        f"Host: x\r\nContent-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n"
                        ).encode() + body
                writer.write(head)
                await writer.drain()
                raw = await reader.readuntil(b"\r\n\r\n")
                length = int([ln.split(b":")[1] for ln in
                              raw.split(b"\r\n")
                              if ln.lower().startswith(
                                  b"content-length")][0])
                await reader.readexactly(length)
                writer.close()

            await asyncio.gather(*[one() for _ in range(12)])

        asyncio.run(blast())
        after = self.aio.batcher_metrics()["demo"]
        new_rows = after["rows"] - before["rows"]
        new_batches = after["batches"] - before["batches"]
        assert new_rows == 12
        assert new_batches < 12    # coalescing actually happened

    @pytest.mark.parametrize("value,status", [
        ("abc", 400), ("-5", 400), ("9999999999", 413)])
    def test_bad_content_length_answered_and_closed(self, value, status):
        with socket.create_connection((self.aio.host, self.aio.port),
                                      timeout=15) as sock:
            sock.sendall(b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: " + value.encode()
                         + b"\r\n\r\n")
            raw = b""
            while True:          # the server closes after answering
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == str(status).encode()
        assert b"connection: close" in head.lower()
        assert "error" in json.loads(body)
        # The server keeps serving new connections.
        assert self._get("/healthz")[0] == 200

    def test_prometheus_gauges_exposed(self):
        time.sleep(0.3)            # one heartbeat interval
        status, raw = self._get("/metrics?format=prometheus")
        text = raw.decode()
        assert status == 200
        validate_prometheus_text(text)
        for gauge in ("repro_eventloop_lag_seconds",
                      "repro_worker_pool_queue_depth",
                      "repro_open_connections"):
            assert f"# TYPE {gauge} gauge" in text
            assert any(line.startswith(gauge)
                       for line in text.splitlines()
                       if not line.startswith("#")), gauge

    def test_rc_engine_served_off_the_event_loop(self):
        X = [[0.3, 0.8]]
        status, raw = _raw(self.aio.host, self.aio.port, "POST",
                           "/predict",
                           json.dumps({"model": "demo", "inputs": X,
                                       "engine": "rc"}).encode())
        body = json.loads(raw)
        assert status == 200 and body["engine"] == "rc"
        expected = ENGINE.model_margins(self.model, np.asarray(X),
                                        engine="rc")
        assert np.allclose(body["margins"], expected)

    def test_hot_reload_after_reexport(self):
        data = self.data
        retrained = PerceptronTrainer(2, seed=99).fit(
            data.X, data.y, epochs=10).perceptron
        self.store.save("reload-demo", self.model)
        payload = json.dumps({"model": "reload-demo",
                              "inputs": data.X[:3].tolist()}).encode()
        _, first = _raw(self.aio.host, self.aio.port, "POST",
                        "/predict", payload)
        time.sleep(0.01)           # ensure a distinct mtime
        self.store.save("reload-demo", retrained)
        _, second = _raw(self.aio.host, self.aio.port, "POST",
                         "/predict", payload)
        expected = ENGINE.margins(retrained, data.X[:3])
        assert np.allclose(json.loads(second)["margins"], expected)
        if not np.allclose(expected,
                           ENGINE.margins(self.model, data.X[:3])):
            assert first != second

    def test_experiment_run_over_aio(self):
        status, raw = _raw(self.aio.host, self.aio.port, "POST",
                           "/experiments/table1/run",
                           json.dumps({"fidelity": "fast"}).encode())
        body = json.loads(raw)
        assert status == 200
        assert body["experiment_id"] == "table1"
        assert body["result"]["experiment_id"] == "table1"

    def test_workers_validation(self):
        with pytest.raises(AnalysisError):
            AsyncPerceptronServer(self.store, workers=-1)

    def test_bind_failure_surfaces_on_both_entry_points(self):
        # A port collision must raise loudly, not exit a silent 0.  The
        # socket is bound at construction, ahead of both start()
        # (background thread) and run() (CLI path), for the serving
        # API and the campaign dashboard alike.
        from repro.campaigns import CampaignSpec
        from repro.exec.cache import ResultCache
        from repro.store import CampaignDashboard

        with pytest.raises(OSError):
            AsyncPerceptronServer(self.store, port=self.aio.port)
        spec = CampaignSpec.from_dict({
            "name": "clash", "experiment": "ext_montecarlo",
            "axes": [{"param": "seed", "values": [1]}]})
        with pytest.raises(OSError):
            CampaignDashboard(spec, ResultCache(self.store.root),
                              port=self.aio.port)

    def test_port_bound_at_construction(self):
        server = AsyncPerceptronServer(self.store, workers=0)
        try:
            assert server.port != 0
            assert server.url == f"http://127.0.0.1:{server.port}"
            with pytest.raises(OSError):     # already held by server
                socket.create_server(("127.0.0.1", server.port))
        finally:
            server.close()

    def test_accepted_connections_disable_nagle(self):
        # Small responses must not wait on Nagle's algorithm; asyncio
        # sets TCP_NODELAY only if the listening socket names TCP.
        with socket.create_connection((self.aio.host, self.aio.port),
                                      timeout=15):
            deadline = time.monotonic() + 5
            while not self.aio._writers and time.monotonic() < deadline:
                time.sleep(0.01)
            writers = list(self.aio._writers)
            assert writers
            for writer in writers:
                sock = writer.get_extra_info("socket")
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)

    @pytest.mark.parametrize("sent", [
        b"POST /predict HTTP/1.1\r\nHost: x\r\n",
        b"POST /predict HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"mo",
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
    ], ids=["partial-head", "partial-body", "idle-keep-alive"])
    def test_stalled_client_is_closed(self, monkeypatch, sent):
        monkeypatch.setattr(aio_server, "READ_TIMEOUT_S", 0.2)
        with socket.create_connection((self.aio.host, self.aio.port),
                                      timeout=15) as sock:
            sock.sendall(sent)
            t0 = time.monotonic()
            raw = b""
            while True:          # returns once the server hangs up
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
            assert time.monotonic() - t0 < 10
        if sent.startswith(b"GET"):
            # Answered in full, then dropped for idling.
            assert raw.startswith(b"HTTP/1.1 200 OK")
            assert b"connection: keep-alive" in raw.lower()
        else:
            assert raw == b""
        # The next connection is still served.
        assert self._get("/healthz")[0] == 200


# -- worker pool ------------------------------------------------------------


class TestEngineWorkerPool:
    def test_pool_margins_match_in_process(self, tmp_path):
        data = make_blobs(n_per_class=10, n_features=2,
                          separation=0.35, spread=0.09, seed=3)
        model = PerceptronTrainer(2, seed=3).fit(data.X, data.y,
                                                 epochs=20).perceptron
        doc = serialize_model(model, name="pool-demo")
        X = data.X[:6]
        expected = ENGINE.model_margins(model, X)
        # The worker function itself (what the pool pickles over).
        direct = _pool_margins(doc, X, None, "behavioral", "auto")
        assert np.allclose(direct, expected)
        pool = EngineWorkerPool(workers=1)
        try:
            future = pool.submit(doc, X, None, "behavioral", "auto")
            assert np.allclose(future.result(timeout=120), expected)
            deadline = time.time() + 5
            while pool.queue_depth and time.time() < deadline:
                time.sleep(0.01)
            assert pool.queue_depth == 0
            assert pool.completed == 1
        finally:
            pool.shutdown()

    def test_disabled_pool_refuses_submits(self):
        pool = EngineWorkerPool(workers=0)
        assert not pool.enabled
        with pytest.raises(RuntimeError):
            pool.submit({}, np.ones((1, 2)), None, "behavioral", "auto")


class TestWorkerPoolRecovery:
    def test_killed_worker_is_replaced(self, tmp_path):
        store = ModelStore(tmp_path)
        store.save("m", DifferentialPwmPerceptron([3, 3], bias=-3))
        aio = AsyncPerceptronServer(store, port=0, workers=1).start()
        payload = json.dumps({"model": "m", "engine": "spice",
                              "inputs": [[0.9, 0.9], [0.2, 0.3]]}).encode()
        try:
            # A first request starts the worker process.
            assert _raw(aio.host, aio.port, "POST", "/predict",
                        payload)[0] == 200
            reply = {}
            sender = threading.Thread(target=lambda: reply.update(
                r=_raw(aio.host, aio.port, "POST", "/predict", payload)))
            sender.start()
            deadline = time.time() + 30
            while aio.pool.queue_depth == 0 and time.time() < deadline:
                time.sleep(0.005)
            for pid in list(aio.pool._executor._processes):
                os.kill(pid, signal.SIGKILL)
            sender.join(timeout=120)
            status, raw = reply["r"]
            # Resubmitted once on a fresh pool: success, or one
            # structured error at worst.
            assert status == 200 or "error" in json.loads(raw)
            status, raw = _raw(aio.host, aio.port, "POST", "/predict",
                               payload)
            assert status == 200 and json.loads(raw)["engine"] == "spice"
            assert aio.pool.restarts == 1
            _, text = _raw(aio.host, aio.port, "GET",
                           "/metrics?format=prometheus")
            assert "repro_worker_pool_restarts_total 1" in text.decode()
        finally:
            aio.close()


# -- schema v3 artifacts ----------------------------------------------------


class TestArtifactSchemaV3:
    def _custom_cell(self):
        base = CellDesign()
        return dataclasses.replace(
            base,
            nmos=dataclasses.replace(base.nmos, vt0=0.55, kp=110e-6),
            pmos=dataclasses.replace(base.pmos, vt0=-0.62),
            nmos_width=3.2e-6, pmos_width=7.5e-6, length=0.6e-6,
            rout=55e3, scale=0.8)

    def test_custom_cell_round_trip_exact(self):
        cell = self._custom_cell()
        config = AdderConfig(vdd=1.8, cell=cell)
        p = DifferentialPwmPerceptron([3, -2], bias=1, config=config)
        doc = serialize_model(p, name="custom")
        assert doc["schema"] == ARTIFACT_SCHEMA_VERSION == 3
        q = deserialize_model(doc)
        assert q.config.cell == cell
        assert q.config.vdd == 1.8
        X = np.array([[0.2, 0.9], [0.7, 0.1]])
        assert np.array_equal(ENGINE.margins(p, X),
                              ENGINE.margins(q, X))

    def test_v2_document_migrates_to_table1_cell(self):
        p = DifferentialPwmPerceptron([1, 2], bias=0)
        doc = serialize_model(p, name="legacy")
        del doc["config"]["cell"]          # what a v2 file looked like
        doc["schema"] = 2
        doc["hash"] = artifact_hash(doc)
        upgraded = upgrade_artifact(doc)
        assert upgraded["schema"] == 3
        assert "cell" in upgraded["config"]
        assert upgraded["hash"] == artifact_hash(upgraded)
        q = deserialize_model(upgraded)
        assert q.config.cell == CellDesign()   # the implicit Table I

    def test_v2_artifact_loads_from_store(self, tmp_path):
        p = DifferentialPwmPerceptron([2, -1], bias=1)
        store = ModelStore(tmp_path)
        path = store.save("legacy", p)
        doc = json.loads(path.read_text())
        del doc["config"]["cell"]
        doc["schema"] = 2
        doc["hash"] = artifact_hash(doc)
        path.write_text(json.dumps(doc))
        q = store.load("legacy")
        assert q.weights == p.weights and q.bias == p.bias
        assert q.config.cell == CellDesign()

    def test_v1_chains_all_the_way_to_v3(self):
        p = DifferentialPwmPerceptron([1, 1], bias=0)
        doc = serialize_model(p)
        doc["schema"] = 1
        del doc["config"]["cell"]
        doc["calibration"] = [0.1, 0.9]    # v1: one list, both banks
        del doc["comparator"]
        upgraded = upgrade_artifact(doc)
        assert upgraded["schema"] == 3
        assert upgraded["calibration"] == {"pos": [0.1, 0.9],
                                           "neg": [0.1, 0.9]}
        assert upgraded["comparator"] == {"offset": 0.0,
                                          "hysteresis": 0.0}
        assert "cell" in upgraded["config"]
        deserialize_model(upgraded)        # rebuilds cleanly

    def test_unsupported_schema_rejected(self):
        with pytest.raises(AnalysisError, match="unsupported artifact"):
            upgrade_artifact({"schema": 99, "kind": "perceptron"})


# -- load generator ---------------------------------------------------------


@pytest.mark.usefixtures("aio_stack")
class TestLoadgen:
    def test_closed_loop_reports(self):
        report = run_closed_loop(self.aio.url, "demo",
                                 self.data.X[:4].tolist(),
                                 connections=4, duration=0.3)
        assert report["mode"] == "closed"
        assert report["requests"] > 0 and report["errors"] == 0
        assert report["connection_failures"] == 0
        assert report["rows_per_s"] > 0
        assert set(report["latency_ms"]) == \
            {"mean", "p50", "p95", "p99", "max"}
        assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]
        fill = report["batch_fill"]["demo"]
        assert fill["rows"] == report["requests"] * 4
        assert sum(fill["batch_rows_hist"].values()) == fill["batches"]

    def test_open_loop_honours_schedule(self):
        report = run_open_loop(self.aio.url, "demo",
                               self.data.X[:2].tolist(),
                               rate=100.0, connections=4,
                               duration=0.4)
        assert report["mode"] == "open"
        assert report["requests"] == 40      # every scheduled arrival
        assert report["errors"] == 0
        assert report["offered_requests_per_s"] == 100.0
        assert report["offered_rows_per_s"] == 200.0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            run_closed_loop("nonsense", "demo", [[0.1, 0.2]])
        with pytest.raises(AnalysisError):
            run_closed_loop(self.aio.url, "demo", [[0.1, 0.2]],
                            connections=0)
        with pytest.raises(AnalysisError):
            run_open_loop(self.aio.url, "demo", [[0.1, 0.2]], rate=0)
