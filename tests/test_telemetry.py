"""The telemetry subsystem: metrics, tracing, profiles, serving wiring.

Pins the guarantees observability rests on:

* instrumentation observes only — results are bit-identical with
  telemetry enabled or disabled, and run profiles never leak into the
  serialised (golden/cached) result encoding;
* the trace is structurally sound — nested spans carry correct
  parent/child links, export/load round-trips through JSONL, and tag
  cardinality stays bounded on real solver runs;
* each ``@telemetry.traced`` entry point emits exactly its spans and
  tag keys and moves its counters by exact amounts, and every name the
  benchmark's layer tracer hooks exists;
* the metrics registry renders valid Prometheus text exposition,
  bound children (``labels(...)``) render exactly as unbound updates,
  ``ServingMetrics`` renders a fixed observe sequence byte for byte as
  recorded, and its snapshots are atomic across instruments under
  concurrent observers (the single-lock fix);
* the error surfaces (``resolve_solver``) name the offending
  experiment.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

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

    def test_bound_children_render_as_unbound_updates(self):
        def fill(bound):
            reg = Registry()
            c = reg.counter("c_total", "C.", labelnames=("k",))
            g = reg.gauge("g", "G.", labelnames=("k",))
            h = reg.histogram("h", "H.", labelnames=("k",),
                              buckets=(0.1, 1.0))
            plain = reg.gauge("plain", "P.")
            if bound:
                ca, cb = c.labels(k="a"), c.labels(k="b")
                ca.inc()
                ca.inc(2.5)
                cb.inc(0)
                g.labels(k="a").set(3)
                g.labels(k="a").inc(-0.5)
                ha = h.labels(k="a")
                for v in (0.05, 0.1, 0.5, 7.0, float("nan")):
                    ha.observe(v)
                plain.labels().set(1.25)
            else:
                c.inc(k="a")
                c.inc(2.5, k="a")
                c.inc(0, k="b")
                g.set(3, k="a")
                g.inc(-0.5, k="a")
                for v in (0.05, 0.1, 0.5, 7.0, float("nan")):
                    h.observe(v, k="a")
                plain.set(1.25)
            return reg

        bound, unbound = fill(True), fill(False)
        assert bound.prometheus_text() == unbound.prometheus_text()
        assert json.dumps(bound.snapshot()) == \
            json.dumps(unbound.snapshot())
        counts = bound.snapshot()["h"]["series"][0]["counts"]
        assert counts == [2, 1]          # 7.0 and NaN: +Inf only

    def test_bound_child_validates_once_and_creates_no_series(self):
        reg = Registry()
        c = reg.counter("c_total", labelnames=("k",))
        child = c.labels(k="a")
        assert c.series_count() == 0
        assert child.value() == 0.0
        child.inc(4)
        assert child.value() == c.value(k="a") == 4
        with pytest.raises(ValueError, match="only go up"):
            child.inc(-1)
        with pytest.raises(ValueError, match="takes labels"):
            c.labels(wrong="x")
        with pytest.raises(AttributeError):
            child.set(1)                 # counters cannot be set
        h = reg.histogram("h", labelnames=("k",)).labels(k="a")
        assert not hasattr(h, "inc")

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
        # pss.shooting -> mna.transient.batch -> mna.newton: at least
        # three levels of real solver nesting.
        assert max(depths.values()) >= 3
        newtons = [e for e in events if e["name"] == "mna.newton"]
        assert newtons
        # Newton solves nest under a lock-step period run or directly
        # under the shooting span (the DC operating point); never float
        # free.
        full_chains = 0
        for e in newtons:
            parent = by_id[e["parent"]]
            assert parent["name"] in ("mna.transient.batch",
                                      "pss.shooting")
            if parent["name"] == "mna.transient.batch":
                root = by_id[parent["parent"]]
                assert root["name"] == "pss.shooting"
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


# -- what each traced entry point records -----------------------------------


def _rc_pulse(r: float = 1e3):
    """A pulse-driven RC: linear, so every count below is exact."""
    from repro.circuit import Capacitor, Circuit, Resistor, Vpulse

    c = Circuit("rc_pulse")
    c.add(Vpulse("VIN", "in", "0", v1=0.0, v2=1.0, rise=1e-9, fall=1e-9,
                 width=4e-9, period=10e-9))
    c.add(Resistor("R1", "in", "out", r))
    c.add(Capacitor("C1", "out", "0", 1e-12))
    return c


def _newton():
    from repro.circuit import MnaContext
    MnaContext(_rc_pulse()).solve_newton(None, 0.0)


def _batch_newton():
    from repro.circuit.batch_transient import BatchTransientSolver
    BatchTransientSolver([_rc_pulse(), _rc_pulse()]).run(
        20e-9, 1e-9, x0=np.zeros((2, 3)))


def _transient():
    from repro.circuit import transient
    transient(_rc_pulse(), 20e-9, 1e-9)


def _shooting(**kw):
    from repro.circuit import shooting
    shooting(_rc_pulse(kw.pop("r", 1e4)), 10e-9, steps_per_period=20, **kw)


def _shooting_batch(**kw):
    from repro.circuit.batch_transient import shooting_batch
    rs = kw.pop("rs", (1e4, 2e4))
    shooting_batch([_rc_pulse(r) for r in rs], 10e-9, steps_per_period=20,
                   **kw)


def _shooting_jacobian():
    from repro.circuit.batch_transient import shooting_jacobian_batched
    shooting_jacobian_batched(_rc_pulse(1e4), 10e-9, steps_per_period=20)


def _rc_batch():
    from repro.core.rc_model import RcBatchSolver
    RcBatchSolver(duty=[0.5], phase=[0.0], r_up=[[1e3], [2e3]],
                  r_down=[[1e3], [1e3]], v_up=1.0, cout=1e-12,
                  period=1e-9).solve()


def _rc_switch():
    from repro.core.rc_model import RcLeg, RcSwitchSolver
    RcSwitchSolver([RcLeg(1e3, 1e3, 0.5)], cout=1e-12, period=1e-9,
                   vdd=2.5).solve()


def _adder():
    from repro.core.weighted_adder import AdderConfig, WeightedAdder
    WeightedAdder(AdderConfig()).evaluate((0.2, 0.6, 0.8), (5, 6, 7))


def _engine_op(op):
    def call():
        from repro.core.cells import CellDesign
        from repro.engines.base import CellStimulus, get_engine
        eng = get_engine("behavioral")
        if op == "evaluate":
            eng.evaluate(CellDesign(), CellStimulus(duty=0.5))
        else:
            eng.sweep_supply(CellDesign(), CellStimulus(duty=0.5),
                             [1.0, 2.5])
    return call


_NEWTON = ["analysis", "size"]
_BATCH_NEWTON = ["analysis", "points", "size"]
_TRAN = ["circuit", "method", "steps"]
_BATCH_TRAN = ["points", "size"]

#: id -> (call, {span name: sorted tag keys}, {counter: exact delta}).
#: Counters outside the table (backend decisions, iterations by
#: backend, latency histograms) are not pinned here.
TRACED_ENTRY_POINTS = {
    "mna.solve_newton": (_newton, {"mna.newton": _NEWTON}, {
        "repro_mna_newton_solves_total": 1.0}),
    "batch._solve_newton": (_batch_newton, {
        "mna.newton": _BATCH_NEWTON,
        "mna.transient.batch": _BATCH_TRAN}, {
        "repro_mna_newton_solves_total": 80.0,
        "repro_mna_lane_iterations_total": 160.0,
        "repro_mna_steps_total": 160.0,
        "repro_mna_step_halvings_total": 0.0}),
    "transient": (_transient, {
        "mna.newton": _BATCH_NEWTON, "mna.transient": _TRAN,
        "mna.transient.batch": _BATCH_TRAN}, {
        "repro_mna_newton_solves_total": 81.0,
        "repro_mna_lane_iterations_total": 80.0,
        "repro_mna_steps_total": 80.0,
        "repro_mna_step_halvings_total": 0.0}),
    "shooting": (_shooting, {
        "mna.newton": _BATCH_NEWTON, "mna.transient.batch": _BATCH_TRAN,
        "pss.shooting": ["circuit", "iterations"]}, {
        "repro_mna_newton_solves_total": 105.0,
        "repro_mna_lane_iterations_total": 104.0,
        "repro_mna_steps_total": 104.0,
        "repro_mna_step_halvings_total": 0.0,
        "repro_pss_solves_total": 1.0,
        "repro_pss_iterations_total": 2.0}),
    "shooting_batch": (_shooting_batch, {
        "mna.newton": _BATCH_NEWTON, "mna.transient.batch": _BATCH_TRAN,
        "pss.shooting_batch": ["iterations", "points"]}, {
        "repro_mna_newton_solves_total": 106.0,
        "repro_mna_lane_iterations_total": 208.0,
        "repro_mna_steps_total": 208.0,
        "repro_mna_step_halvings_total": 0.0,
        "repro_pss_solves_total": 2.0,
        "repro_pss_iterations_total": 4.0}),
    "shooting_jacobian_batched": (_shooting_jacobian, {
        "mna.newton": _BATCH_NEWTON, "mna.transient.batch": _BATCH_TRAN,
        "pss.shooting": ["circuit", "iterations"]}, {
        "repro_mna_newton_solves_total": 105.0,
        "repro_mna_lane_iterations_total": 104.0,
        "repro_mna_steps_total": 104.0,
        "repro_mna_step_halvings_total": 0.0,
        "repro_pss_solves_total": 1.0,
        "repro_pss_iterations_total": 2.0}),
    "RcBatchSolver.solve": (_rc_batch, {
        "rc.solve": ["kind", "points"]}, {}),
    "RcSwitchSolver.solve": (_rc_switch, {
        "rc.solve": ["kind", "legs"]}, {}),
    "WeightedAdder.evaluate": (_adder, {
        "adder.evaluate": ["engine"], "rc.solve": ["kind", "legs"]}, {}),
    "engine.evaluate": (_engine_op("evaluate"), {
        "engine.evaluate": ["engine"]}, {
        'repro_engine_calls_total{engine="behavioral",op="evaluate"}': 1.0,
        'repro_engine_latency_seconds{engine="behavioral",op="evaluate"}'
        '#count': 1.0}),
    "engine.sweep_supply": (_engine_op("sweep_supply"), {
        "engine.sweep_supply": ["engine"]}, {
        'repro_engine_calls_total{engine="behavioral",op="sweep_supply"}':
            1.0,
        'repro_engine_latency_seconds{engine="behavioral",'
        'op="sweep_supply"}#count': 1.0}),
}


def _recorded(call):
    """Span name -> tag keys, and the counter values, of one call."""
    with telemetry.session() as rt:
        call()
    spans = {}
    for event in rt.tracer.events():
        spans.setdefault(event["name"], set()).update(event["tags"])
    return ({name: sorted(keys) for name, keys in spans.items()},
            rt.registry.flat_values())


class TestTracedEntryPoints:
    """Every traced entry point emits its span, with its tag keys, and
    moves its counters by exact amounts; nothing else is emitted."""

    @pytest.mark.parametrize("entry", sorted(TRACED_ENTRY_POINTS))
    def test_spans_tags_and_counters(self, entry):
        call, spans, counters = TRACED_ENTRY_POINTS[entry]
        got_spans, got_counters = _recorded(call)
        assert got_spans == spans
        assert {k: got_counters.get(k) for k in counters} == counters
        if not any(k.startswith("repro_pss_") for k in counters):
            assert not any(k.startswith("repro_pss_") for k in got_counters)

    def test_span_tag_values(self):
        with telemetry.session() as rt:
            _shooting()
        (pss,) = [e for e in rt.tracer.events()
                  if e["name"] == "pss.shooting"]
        assert pss["tags"] == {"circuit": "rc_pulse", "iterations": 2}
        # Two iterations, each one period of one lane (the Jacobian
        # rides along as sensitivity columns).
        runs = [e["tags"] for e in rt.tracer.events()
                if e["name"] == "mna.transient.batch"]
        assert runs == [{"points": 1, "size": 3}] * 2
        with telemetry.session() as rt:
            _transient()
        (trans,) = [e for e in rt.tracer.events()
                    if e["name"] == "mna.transient"]
        # 20 ns at a largest step of 1 ns, graded up from 1/40 ns after
        # the start and each of the pulse's 7 breakpoints inside the run.
        assert trans["tags"] == {"circuit": "rc_pulse", "method": "trap",
                                 "steps": 80}

    @pytest.mark.parametrize("run", [
        lambda: _shooting(r=1e6, max_iterations=1),
        lambda: _shooting_batch(rs=(1e6,), max_iterations=1),
    ], ids=["shooting", "shooting_batch"])
    def test_forced_non_convergence_counts_one_failure(self, run):
        from repro.circuit import ConvergenceError

        with telemetry.session() as rt:
            with pytest.raises(ConvergenceError):
                run()
        counters = rt.registry.flat_values()
        assert counters["repro_pss_convergence_failures_total"] == 1.0
        assert "repro_pss_solves_total" not in counters
        (root,) = [e for e in rt.tracer.events() if e["parent"] is None]
        assert root["name"].startswith("pss.")
        assert root["tags"]["error"] == "ConvergenceError"


class TestPerfbenchHooks:
    def test_every_hook_target_exists(self):
        """The benchmark's layer tracer finds every name it hooks."""
        root = Path(__file__).resolve().parent.parent
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(root / 'perfbench')!r})\n"
            "import repro.experiments, repro.serve.aio_server\n"
            "import tracer\n"
            "t = tracer.LayerTracer()\n"
            "tracer.install_circuit_hooks(t)\n"
            "tracer.install_serve_hooks(t)\n"
            "assert t.missing == [], t.missing\n"
            "print('ok')\n")
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"


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

    def test_exposition_pinned_across_bound_series(self):
        """A fixed observe sequence renders byte for byte as recorded
        when every update still validated its labels
        (``tests/fixtures/serving_metrics_exposition.json``)."""
        from repro.serve.server import ServingMetrics

        fixture = json.loads(
            (Path(__file__).parent / "fixtures"
             / "serving_metrics_exposition.json").read_text())
        metrics = ServingMetrics()
        for endpoint, seconds, rows, error in fixture["sequence"]:
            metrics.observe(endpoint, seconds, rows=rows, error=error)
        assert metrics.registry.prometheus_text() == \
            fixture["prometheus_text"]
        assert metrics.registry.snapshot() == fixture["registry_snapshot"]
        snap = metrics.snapshot()
        del snap["uptime_seconds"]
        assert snap == fixture["snapshot"]


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
