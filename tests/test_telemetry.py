"""The telemetry subsystem: metrics, tracing, profiles, serving wiring.

Pins the guarantees observability rests on:

* instrumentation observes only — results are bit-identical with
  telemetry enabled or disabled, and run profiles never leak into the
  serialised (golden/cached) result encoding;
* the trace is structurally sound — nested spans carry correct
  parent/child links, export/load round-trips through JSONL, and tag
  cardinality stays bounded on real solver runs;
* the metrics registry renders valid Prometheus text exposition, and
  ``ServingMetrics`` snapshots are atomic across instruments under
  concurrent observers (the single-lock fix);
* the error surfaces (``resolve_solver``) name the offending
  experiment.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.request

import numpy as np
import pytest

from repro import telemetry
from repro.circuit import AnalysisError
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Registry,
    validate_prometheus_text,
)
from repro.telemetry.trace import Tracer, load_jsonl, span_depths


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with telemetry disabled (global)."""
    telemetry.disable()
    yield
    telemetry.disable()


# -- metrics primitives ------------------------------------------------------


class TestMetrics:
    def test_counter_and_labels(self):
        reg = Registry()
        c = reg.counter("hits_total", "hits", labelnames=("kind",))
        c.inc(kind="a")
        c.inc(2, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3
        assert c.value(kind="b") == 1
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1, kind="a")
        with pytest.raises(ValueError, match="takes labels"):
            c.inc(wrong="x")

    def test_gauge(self):
        reg = Registry()
        g = reg.gauge("temp")
        g.set(3.5)
        g.inc(0.5)
        assert g.value() == 4.0

    def test_histogram_buckets(self):
        reg = Registry()
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.total_count() == 4
        assert h.total_sum() == pytest.approx(55.55)
        with pytest.raises(ValueError, match="ascending"):
            reg.histogram("bad", buckets=(1.0, 1.0))

    def test_registration_idempotent_but_typed(self):
        reg = Registry()
        a = reg.counter("x_total", "x")
        assert reg.counter("x_total") is a
        with pytest.raises(ValueError, match="different type"):
            reg.gauge("x_total")
        with pytest.raises(ValueError, match="different type"):
            reg.counter("x_total", labelnames=("k",))

    def test_flat_values(self):
        reg = Registry()
        reg.counter("n_total", labelnames=("k",)).inc(2, k="v")
        reg.histogram("h").observe(0.5)
        flat = reg.flat_values()
        assert flat['n_total{k="v"}'] == 2
        assert flat["h#count"] == 1
        assert flat["h#sum"] == 0.5

    def test_prometheus_text_validates(self):
        reg = Registry()
        reg.counter("repro_hits_total", "Hits.",
                    labelnames=("kind",)).inc(3, kind='we"ird')
        reg.gauge("repro_level", "Level.").set(2.5)
        h = reg.histogram("repro_latency_seconds", "Latency.")
        h.observe(0.002)
        h.observe(4.0)
        samples = validate_prometheus_text(reg.prometheus_text())
        by_name = {}
        for s in samples:
            by_name.setdefault(s["name"], []).append(s)
        assert by_name["repro_hits_total"][0]["labels"] == {"kind": 'we"ird'}
        # Cumulative buckets end at +Inf == _count.
        buckets = by_name["repro_latency_seconds_bucket"]
        assert buckets[-1]["labels"]["le"] == "+Inf"
        assert buckets[-1]["value"] == 2
        assert len(buckets) == len(DEFAULT_BUCKETS) + 1

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError, match="no # TYPE family"):
            validate_prometheus_text("orphan_metric 1\n")
        with pytest.raises(ValueError, match="malformed sample"):
            validate_prometheus_text(
                "# TYPE x counter\nx one\n")
        with pytest.raises(ValueError, match="missing \\+Inf"):
            validate_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="1"} 1\nh_count 1\nh_sum 0.5\n')


# -- tracing -----------------------------------------------------------------


class TestTracer:
    def test_nesting_and_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", {"k": 1}):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        target = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(str(target)) == 3
        events = load_jsonl(str(target))
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], []).append(e)
        outer = by_name["outer"][0]
        assert outer["parent"] is None
        assert all(e["parent"] == outer["id"] for e in by_name["inner"])
        depths = span_depths(events)
        assert depths[outer["id"]] == 1
        assert all(depths[e["id"]] == 2 for e in by_name["inner"])

    def test_exception_tags_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (event,) = tracer.events()
        assert event["tags"]["error"] == "RuntimeError"

    def test_bounded_buffer_counts_drops(self):
        tracer = Tracer(max_events=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.events()) == 2
        assert tracer.dropped == 3

    def test_record_bypasses_the_span_stack(self):
        # The asyncio transport's stack-free path: connection and
        # request spans recorded by explicit parent id, with the
        # thread-local stack left untouched.
        tracer = Tracer()
        with tracer.span("ambient"):
            conn = tracer.record("conn", ts=1.0, dur=0.0,
                                 tags={"peer": "x"})
            child = tracer.record("req", ts=1.1, dur=0.2, parent=conn)
            assert tracer.current() is not None
            assert tracer.current().name == "ambient"
        events = {e["name"]: e for e in tracer.events()}
        # record() must not parent onto (or under) the ambient span.
        assert events["conn"]["parent"] is None
        assert events["req"]["parent"] == conn
        assert events["req"]["id"] == child
        assert events["conn"]["tags"] == {"peer": "x"}
        assert events["ambient"]["parent"] is None
        assert child > conn  # ids stay monotonic across both paths

    def test_threads_get_separate_stacks(self):
        tracer = Tracer()
        seen = {}

        def worker(name):
            with tracer.span(name) as sp:
                seen[name] = sp.parent_id

        with tracer.span("main-root"):
            t = threading.Thread(target=worker, args=("child-thread",))
            t.start()
            t.join()
        # The other thread's span must not parent onto this thread's.
        assert seen["child-thread"] is None


# -- zero perturbation + run profiles ---------------------------------------


class TestZeroPerturbation:
    def test_disabled_span_is_shared_noop(self):
        a = telemetry.span("x", k=1)
        b = telemetry.span("y")
        assert a is b  # no per-call allocation on the disabled path
        with a:
            a.set_tag("k", 2)

    def test_results_bit_identical_enabled_vs_disabled(self):
        from repro.experiments import RunConfig, run_config

        config = RunConfig.build("table2", "fast", {})
        baseline = run_config(config).to_dict()
        telemetry.enable()
        enabled = run_config(config).to_dict()
        assert enabled == baseline

    def test_profile_attached_but_never_serialised(self):
        from repro.experiments import RunConfig, run_config

        config = RunConfig.build("table2", "fast", {})
        assert run_config(config).profile is None  # disabled
        telemetry.enable()
        result = run_config(config)
        profile = result.profile
        assert profile["experiment_id"] == "table2"
        assert profile["fidelity"] == "fast"
        assert "adder.evaluate" in profile["spans"]
        assert profile["duration_seconds"] > 0
        # The serialised encoding (goldens, cache) must not carry it.
        assert "profile" not in result.to_dict()
        restored = type(result).from_dict(result.to_dict())
        assert restored.profile is None


class TestShootingTraceRoundTrip:
    def test_jacobian_batched_trace_nests_and_bounds_tags(self, tmp_path):
        from repro.circuit.batch_transient import shooting_jacobian_batched
        from repro.core.weighted_adder import AdderConfig, WeightedAdder

        rt = telemetry.enable()
        adder = WeightedAdder(AdderConfig())
        circuit = adder.build_circuit((0.2, 0.6, 0.8), (5, 6, 7))
        shooting_jacobian_batched(circuit, 1.0 / adder.config.frequency,
                                  observe=["out"], steps_per_period=20)
        target = tmp_path / "trace.jsonl"
        rt.export_trace(str(target))
        events = load_jsonl(str(target))
        by_id = {e["id"]: e for e in events}
        depths = span_depths(events)
        # pss.shooting_jacobian -> mna.transient.batch -> mna.newton:
        # at least three levels of real solver nesting.
        assert max(depths.values()) >= 3
        newtons = [e for e in events if e["name"] == "mna.newton"]
        assert newtons
        # Newton solves nest under a transient (batched Jacobian
        # columns or the scalar warmup/capture pass) or directly under
        # the shooting span (periodic-point solves); never float free.
        full_chains = 0
        for e in newtons:
            parent = by_id[e["parent"]]
            assert parent["name"] in ("mna.transient.batch",
                                      "mna.transient",
                                      "pss.shooting_jacobian")
            if parent["name"] == "mna.transient.batch":
                root = by_id[parent["parent"]]
                assert root["name"] == "pss.shooting_jacobian"
                assert root["parent"] is None
                full_chains += 1
        assert full_chains > 0
        for e in events:
            assert e["dur"] >= 0
            assert e["ts"] > 0
        # Bounded tag cardinality: a trace of thousands of events must
        # use a small, fixed tag vocabulary (no per-event unique keys).
        tag_keys = {k for e in events for k in e["tags"]}
        assert tag_keys <= {"analysis", "mode", "size", "points",
                            "circuit", "iterations", "steps", "method"}
        circuits = {e["tags"].get("circuit") for e in events
                    if "circuit" in e["tags"]}
        assert len(circuits) == 1


# -- error surfaces (resolve_solver names the experiment) --------------------


class TestResolveSolverErrors:
    def test_unknown_solver_names_experiment(self):
        from repro.exec.batch import resolve_solver

        with pytest.raises(AnalysisError,
                           match="experiment 'table2': .*'turbo'"):
            resolve_solver("turbo", engine_id="spice",
                           experiment_id="table2")

    def test_unknown_engine_names_experiment(self):
        from repro.exec.batch import resolve_solver

        with pytest.raises(AnalysisError,
                           match="experiment 'table2': unknown engine "
                                 "'nope'"):
            resolve_solver("auto", engine_id="nope",
                           experiment_id="table2")

    def test_wrong_level_names_experiment(self):
        from repro.exec.batch import resolve_solver

        with pytest.raises(AnalysisError,
                           match="experiment 'ext_robustness': solver "
                                 "'dense' only applies to "
                                 "transistor-level"):
            resolve_solver("dense", engine_id="rc",
                           experiment_id="ext_robustness")

    def test_without_experiment_stays_bare(self):
        from repro.exec.batch import resolve_solver

        with pytest.raises(AnalysisError, match="^solver 'dense'"):
            resolve_solver("dense", engine_id="behavioral")


# -- serving metrics: atomic snapshots + Prometheus endpoint -----------------


class TestServingMetricsAtomicity:
    def test_threaded_snapshot_invariants(self):
        from repro.serve.server import ServingMetrics

        metrics = ServingMetrics()
        n_threads, per_thread = 8, 200
        start = threading.Barrier(n_threads + 1)
        stop = threading.Event()

        def hammer():
            start.wait()
            for _ in range(per_thread):
                metrics.observe("/predict", 0.001, rows=1)

        threads = [threading.Thread(target=hammer)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()

        violations = []

        def scrape():
            while not stop.is_set():
                with metrics.registry.lock:
                    snap = metrics.snapshot()
                    hist = metrics.registry.get(
                        "repro_request_latency_seconds").total_count()
                n = sum(snap["requests_total"].values())
                # Atomic across instruments: every counted request has
                # its latency observation and its prediction row.
                if hist != n or snap["predictions_total"] != n:
                    violations.append((n, hist,
                                       snap["predictions_total"]))

        scraper = threading.Thread(target=scrape)
        scraper.start()
        start.wait()
        for t in threads:
            t.join()
        stop.set()
        scraper.join()
        assert violations == []
        final = metrics.snapshot()
        total = n_threads * per_thread
        assert final["requests_total"] == {"/predict": total}
        assert final["predictions_total"] == total
        assert final["errors_total"] == 0
        assert final["latency_ms_mean"] == pytest.approx(1.0)

    def test_snapshot_keys_unchanged(self):
        from repro.serve.server import ServingMetrics

        metrics = ServingMetrics()
        metrics.observe("/healthz", 0.002)
        snap = metrics.snapshot()
        assert sorted(snap) == ["errors_total", "latency_ms_max",
                                "latency_ms_mean", "predictions_total",
                                "requests_total", "uptime_seconds"]
        assert isinstance(snap["errors_total"], int)
        assert isinstance(snap["requests_total"]["/healthz"], int)


class TestMetricsEndpoint:
    def _server(self, tmp_path):
        from repro.serve import AsyncPerceptronServer
        from repro.serve.artifacts import ModelStore

        return AsyncPerceptronServer(ModelStore(tmp_path), workers=0)

    def test_content_negotiation(self, tmp_path):
        with self._server(tmp_path) as server:
            url = server.url + "/metrics"
            urllib.request.urlopen(server.url + "/healthz").read()
            # Default: the JSON snapshot, unchanged shape.
            snap = json.load(urllib.request.urlopen(url))
            assert "requests_total" in snap and "batchers" in snap
            # Prometheus asks with Accept: text/plain.
            req = urllib.request.Request(
                url, headers={"Accept": "text/plain"})
            resp = urllib.request.urlopen(req)
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            samples = validate_prometheus_text(resp.read().decode())
            families = {s["family"] for s in samples}
            assert "repro_predict_latency_seconds" in families
            assert "repro_requests_total" in families
            assert "repro_request_latency_seconds" in families
            # ?format=prometheus forces the text view without headers.
            text = urllib.request.urlopen(
                url + "?format=prometheus").read().decode()
            validate_prometheus_text(text)

    def test_shared_registry_exposes_solver_counters(self, tmp_path):
        telemetry.enable()
        telemetry.count("repro_mna_newton_solves_total", 5)
        with self._server(tmp_path) as server:
            text = urllib.request.urlopen(
                server.url + "/metrics?format=prometheus").read().decode()
        samples = validate_prometheus_text(text)
        by_name = {s["name"]: s["value"] for s in samples}
        assert by_name["repro_mna_newton_solves_total"] == 5


class TestMicroBatcherFillRatio:
    def test_mean_fill_ratio(self):
        from repro.serve import AsyncMicroBatcher

        async def scenario():
            batcher = AsyncMicroBatcher(lambda f, v: f[:, 0], max_batch=8)
            await batcher.submit(np.zeros((4, 2)))
            return batcher.stats.snapshot()

        stats = asyncio.run(scenario())
        # One 4-row flush against max_batch=8 is half full.
        assert stats["batches"] == 1
        assert stats["mean_fill_ratio"] == 0.5


# -- CLI flags ---------------------------------------------------------------


class TestCliTelemetry:
    def test_run_with_trace_out(self, tmp_path, capsys):
        from repro.__main__ import main

        target = tmp_path / "trace.jsonl"
        assert main(["run", "table2", "--telemetry",
                     "--trace-out", str(target)]) == 0
        err = capsys.readouterr().err
        assert "telemetry: profile" in err
        assert f"trace events to {target}" in err
        events = load_jsonl(str(target))
        roots = [e for e in events if e["parent"] is None]
        assert [e["name"] for e in roots] == ["experiment"]
        assert roots[0]["tags"]["experiment"] == "table2"
