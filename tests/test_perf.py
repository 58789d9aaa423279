"""Performance-observability subsystem tests.

The contracts under test:

* the ``@benchmark`` registry rejects malformed specs (bad kind,
  wrong workload metric, non-positive repeats, duplicate ids) and
  resolves/filters like the ``@experiment`` registry;
* the runner samples workloads under the declared warmup/repeat
  policy (setup excluded), tracks min-of-repeats, extracts report
  metrics, and stamps every run with an environment fingerprint;
* perf runs round-trip through the SQLite store (headers, per-repeat
  samples, baseline flag, history series, age-based gc) without
  touching the results tables — a perf write never perturbs stored
  experiment payloads or the campaign aggregate document;
* the comparator applies per-benchmark relative noise bands in both
  metric directions and classifies new/missing entries;
* ``perf gate`` fails (exit != 0) on an injected slowdown inside the
  traced MNA transient and names both the benchmark and the dominant
  span from the traced re-run;
* the CLI surface (``perf list|run|history|compare|gate``) and the
  dashboard ``/perf`` endpoint serve the same data.
"""

from __future__ import annotations

import json
import time
import urllib.request
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignRunner,
    CampaignSpec,
    collect_results,
    results_document,
)
from repro.circuit import AnalysisError, MnaContext
from repro.exec import ResultCache
from repro.experiments import RunConfig, run_config
from repro.perf import (
    BENCHMARKS,
    baseline_document,
    benchmark,
    compare_runs,
    environment_fingerprint,
    gate_run,
    load_baseline,
    run_benchmark,
    run_benchmarks,
    self_times,
    sparkline,
)
from repro.perf.registry import get_benchmark
from repro.store import CampaignDashboard


@pytest.fixture()
def scratch_registry():
    """Track benchmark ids registered inside a test; always clean up."""
    before = set(BENCHMARKS)
    yield None
    for bench_id in set(BENCHMARKS) - before:
        del BENCHMARKS[bench_id]


def _register_counting(bench_id: str, repeats: int = 4, warmup: int = 1,
                       **kwargs):
    calls = {"setup": 0, "run": 0}

    @benchmark(bench_id, title="counting workload", repeats=repeats,
               warmup=warmup, tags=("test",), **kwargs)
    def _workload(quick=False):
        calls["setup"] += 1

        def run():
            calls["run"] += 1
        return run

    return calls


class TestRegistry:
    def test_bad_specs_rejected(self, scratch_registry):
        with pytest.raises(AnalysisError, match="unknown kind"):
            benchmark("t.badkind", title="x", kind="sideways")
        with pytest.raises(AnalysisError, match="best_seconds"):
            benchmark("t.badmetric", title="x", kind="workload",
                      metric="speedup")
        with pytest.raises(AnalysisError, match="repeats"):
            benchmark("t.badrepeats", title="x", repeats=0)
        with pytest.raises(AnalysisError, match="noise"):
            benchmark("t.badnoise", title="x", noise=-0.1)

    def test_duplicate_id_rejected(self, scratch_registry):
        _register_counting("t.dup")
        with pytest.raises(AnalysisError, match="duplicate"):
            _register_counting("t.dup")

    def test_unknown_id_lists_known(self):
        with pytest.raises(AnalysisError, match="pss.shooting.adder"):
            get_benchmark("t.nope")

    def test_builtin_suite_registers_and_describes(self):
        spec = get_benchmark("mna.transient.ladder")
        assert spec.kind == "workload"
        assert spec.resolved_metric() == "best_seconds"
        doc = spec.describe()
        assert doc["id"] == "mna.transient.ladder"
        assert "fn" not in doc
        rate = get_benchmark("serve.loadgen.aio")
        assert rate.kind == "report"
        assert not rate.lower_is_better

    def test_committed_baseline_names_registered_benchmarks(self):
        # The gate only warns about a baseline entry it cannot run, so a
        # retired benchmark must take its baseline line with it.
        doc = load_baseline(Path(__file__).resolve().parent.parent
                            / "benchmarks" / "perf_baseline.json")
        names = [entry["benchmark"] for entry in doc["benchmarks"]]
        assert names and all(name in BENCHMARKS for name in names), \
            sorted(set(names) - set(BENCHMARKS))


class TestRunner:
    def test_workload_policy_and_min(self, scratch_registry):
        calls = _register_counting("t.count", repeats=4, warmup=2)
        entry = run_benchmark(BENCHMARKS["t.count"])
        assert calls["setup"] == 1          # setup outside the timing
        assert calls["run"] == 6            # 2 warmup + 4 recorded
        assert len(entry["samples"]) == 4
        assert entry["value"] == min(entry["samples"])
        assert entry["metric"] == "best_seconds"

    def test_quick_and_explicit_repeats(self, scratch_registry):
        calls = _register_counting("t.quick", repeats=5, warmup=0)
        run_benchmark(BENCHMARKS["t.quick"], quick=True)
        assert calls["run"] == 3            # default quick_repeats
        calls["run"] = 0
        run_benchmark(BENCHMARKS["t.quick"], repeats=2)
        assert calls["run"] == 2

    def test_report_metric_extraction(self, scratch_registry):
        @benchmark("t.report", title="x", kind="report",
                   metric="speedup", unit="x", lower_is_better=False)
        def _report(quick=False):
            return {"speedup": 4.5, "noise": "ignored"}

        entry = run_benchmark(BENCHMARKS["t.report"])
        assert entry["value"] == 4.5
        assert entry["samples"] == [4.5]
        assert entry["payload"]["speedup"] == 4.5
        assert entry["wall_seconds"] >= 0

    def test_report_wall_seconds_when_metric_none(self, scratch_registry):
        @benchmark("t.wall", title="x", kind="report", metric=None)
        def _wall(quick=False):
            return {"anything": True}

        entry = run_benchmark(BENCHMARKS["t.wall"])
        assert entry["metric"] == "wall_seconds"
        assert entry["value"] > 0

    def test_malformed_benchmarks_raise(self, scratch_registry):
        @benchmark("t.notcallable", title="x")
        def _bad(quick=False):
            return 42

        with pytest.raises(AnalysisError, match="expected a callable"):
            run_benchmark(BENCHMARKS["t.notcallable"])

        @benchmark("t.badpayload", title="x", kind="report",
                   metric="missing")
        def _worse(quick=False):
            return {"other": 1}

        with pytest.raises(AnalysisError, match="expected a\\s+number"):
            run_benchmark(BENCHMARKS["t.badpayload"])

    def test_fingerprint_fields(self):
        stamp = environment_fingerprint(Path(__file__).parent.parent)
        assert set(stamp) == {"git_sha", "python", "numpy", "scipy",
                              "platform", "machine", "cpu_count"}
        assert stamp["python"].count(".") == 2
        assert stamp["cpu_count"] >= 1

    def test_run_benchmarks_document(self, scratch_registry):
        _register_counting("t.doc", repeats=2, warmup=0)
        doc = run_benchmarks(["t.doc"])
        assert doc["schema"] == 1
        assert not doc["quick"]
        assert [b["benchmark"] for b in doc["benchmarks"]] == ["t.doc"]
        with pytest.raises(AnalysisError, match="matched nothing"):
            run_benchmarks(tag="t.absent")


class TestPerfStore:
    def _record(self, store, value, *, bench="t.stored", quick=True,
                lower=True, samples=None):
        doc = {
            "schema": 1, "created_at": time.time(), "quick": quick,
            "fingerprint": {"git_sha": "f" * 40},
            "benchmarks": [{
                "benchmark": bench, "kind": "workload",
                "metric": "best_seconds", "unit": "s",
                "lower_is_better": lower, "noise": 0.5,
                "samples": samples if samples is not None else [value],
                "value": value,
            }],
        }
        return store.record_perf_run(doc)

    def test_round_trip_and_direction(self, tmp_path):
        store = ResultCache(tmp_path)
        run_id = self._record(store, 0.5, samples=[0.7, 0.5, 0.9])
        doc = store.perf_run(run_id)
        bench = doc["benchmarks"][0]
        assert bench["samples"] == [0.7, 0.5, 0.9]
        assert bench["value"] == 0.5            # min when lower-better
        assert doc["fingerprint"]["git_sha"] == "f" * 40
        hi = self._record(store, 3.0, bench="t.ratio", lower=False,
                          samples=[2.0, 3.0])
        assert store.perf_run(hi)["benchmarks"][0]["value"] == 3.0
        assert store.perf_run() is not None     # latest
        assert store.perf_run(999_999) is None

    def test_baseline_flag_and_previous(self, tmp_path):
        store = ResultCache(tmp_path)
        first = self._record(store, 1.0)
        second = self._record(store, 2.0)
        assert store.perf_baseline_run() is None
        store.set_perf_baseline(first)
        assert store.perf_baseline_run()["run_id"] == first
        store.set_perf_baseline(second)      # reflagging clears the old
        assert store.perf_baseline_run()["run_id"] == second
        assert store.previous_perf_run(second)["run_id"] == first
        assert store.previous_perf_run(first) is None
        with pytest.raises(AnalysisError, match="no stored perf run"):
            store.set_perf_baseline(12345)

    def test_history_series(self, tmp_path):
        store = ResultCache(tmp_path)
        for value in (1.0, 1.2, 0.8):
            self._record(store, value)
        history = store.perf_history("t.stored")
        points = history["t.stored"]
        assert [p["value"] for p in points] == [1.0, 1.2, 0.8]
        assert points[0]["run_id"] < points[-1]["run_id"]
        limited = store.perf_history("t.stored", limit=2)
        assert [p["value"] for p in limited["t.stored"]] == [1.2, 0.8]
        assert store.perf_history("t.absent") == {}

    def test_gc_age_based_retention(self, tmp_path):
        store = ResultCache(tmp_path)
        old = self._record(store, 1.0)
        keep = self._record(store, 2.0)
        flagged = self._record(store, 3.0)
        store.set_perf_baseline(flagged)
        ancient = time.time() - 40 * 86400
        with store._lock:
            store._conn.execute(
                "UPDATE perf_runs SET created_at = ? "
                "WHERE run_id IN (?, ?)", (ancient, old, flagged))
            store._conn.commit()
        dry = store.gc(dry_run=True, older_than_days=30)
        # The baseline run is immune however old it is.
        assert dry["perf_candidates"] == 1 and dry["perf_deleted"] == 0
        assert store.perf_run(old) is not None
        wet = store.gc(older_than_days=30)
        assert wet["perf_deleted"] == 1
        assert store.perf_run(old) is None
        assert store.perf_run(keep) is not None
        assert store.perf_run(flagged) is not None

    def test_gc_age_guard_spares_fresh_stale_rows(self, tmp_path):
        store = ResultCache(tmp_path)
        config = RunConfig.build("table1", "fast")
        store.put_config(run_config(config), config)
        with store._lock:
            store._conn.execute("UPDATE results SET stale = 1")
            store._conn.commit()
        # Stale but freshly written: an age-scoped gc keeps it...
        assert store.gc(older_than_days=30)["deleted"] == 0
        # ...an unscoped gc reclaims it as before.
        assert store.gc()["deleted"] == 1

    def test_perf_write_never_perturbs_results(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "perf-isolation",
            "experiment": "ext_montecarlo",
            "fidelity": "fast",
            "axes": [{"param": "seed",
                      "range": {"start": 0, "count": 2}}],
        })
        store = ResultCache(tmp_path)
        CampaignRunner(spec, store).run()
        config = spec.expand()[0]
        report_before = json.dumps(
            results_document(spec, collect_results(spec, store)),
            indent=2, sort_keys=True)
        payload_before = store.get_config(config).render(charts=True)
        for _ in range(3):
            self._record(store, 0.123)
        store.set_perf_baseline(store.perf_run()["run_id"])
        report_after = json.dumps(
            results_document(spec, collect_results(spec, store)),
            indent=2, sort_keys=True)
        assert report_after == report_before
        assert store.get_config(config).render(charts=True) \
            == payload_before


class TestComparator:
    def _doc(self, value, *, bench="t.cmp", noise=0.5, lower=True):
        return {"schema": 1, "quick": True, "fingerprint": {},
                "benchmarks": [{
                    "benchmark": bench, "metric": "best_seconds",
                    "unit": "s", "lower_is_better": lower,
                    "noise": noise, "value": value,
                    "samples": [value]}]}

    def test_noise_band_lower_is_better(self):
        base = baseline_document(self._doc(1.0))
        ok = compare_runs(self._doc(1.4), base)[0]
        assert ok["status"] == "ok"
        bad = compare_runs(self._doc(1.6), base)[0]
        assert bad["status"] == "regression"
        assert bad["delta_pct"] == pytest.approx(60.0)
        good = compare_runs(self._doc(0.4), base)[0]
        assert good["status"] == "improvement"

    def test_noise_band_higher_is_better(self):
        base = baseline_document(self._doc(10.0, lower=False))
        assert compare_runs(self._doc(6.0, lower=False),
                            base)[0]["status"] == "ok"
        assert compare_runs(self._doc(4.0, lower=False),
                            base)[0]["status"] == "regression"
        assert compare_runs(self._doc(16.0, lower=False),
                            base)[0]["status"] == "improvement"

    def test_baseline_noise_overrides_current(self):
        base = baseline_document(self._doc(1.0, noise=2.0))
        row = compare_runs(self._doc(2.5, noise=0.1), base)[0]
        assert row["noise"] == 2.0
        assert row["status"] == "ok"

    def test_new_and_missing(self):
        base = baseline_document(self._doc(1.0, bench="t.gone"))
        rows = compare_runs(self._doc(1.0, bench="t.fresh"), base)
        assert {r["benchmark"]: r["status"] for r in rows} == \
            {"t.fresh": "new", "t.gone": "missing"}
        verdict = gate_run(self._doc(1.0, bench="t.fresh"), base,
                           attribute=False)
        assert verdict["ok"]                # missing warns, not fails
        assert [r["benchmark"] for r in verdict["missing"]] == ["t.gone"]

    def test_baseline_file_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline_document(self._doc(1.0))))
        doc = load_baseline(path)
        assert doc["benchmarks"][0]["benchmark"] == "t.cmp"
        path.write_text(json.dumps({"schema": 99}))
        with pytest.raises(AnalysisError, match="unexpected shape"):
            load_baseline(path)
        with pytest.raises(AnalysisError, match="cannot read"):
            load_baseline(tmp_path / "absent.json")

    def test_self_times_subtract_children(self):
        events = [
            {"name": "outer", "id": 1, "parent": None, "dur": 1.0},
            {"name": "inner", "id": 2, "parent": 1, "dur": 0.7},
            {"name": "inner", "id": 3, "parent": 2, "dur": 0.2},
        ]
        folded = self_times(events)
        assert folded["outer"]["self_seconds"] == pytest.approx(0.3)
        assert folded["inner"]["self_seconds"] == pytest.approx(0.7)
        assert folded["inner"]["count"] == 2

    def test_sparkline(self):
        assert sparkline([1, 2, 3, 4]) == "▁▃▆█"
        assert sparkline([2, 2, 2]) == "▁▁▁"
        assert sparkline([]) == ""
        assert len(sparkline(range(100), width=10)) == 10


@pytest.fixture()
def slow_transient(monkeypatch):
    """Inject a deliberate slowdown into every MNA transient run.

    The sleep sits in ``MnaContext.breakpoints``, which the lock-step
    stepper calls once per run (when it plans the step grid) inside its
    ``mna.transient.batch`` span and outside any child span.
    """
    real = MnaContext.breakpoints

    def slowed(*args, **kwargs):
        time.sleep(0.02)
        return real(*args, **kwargs)

    monkeypatch.setattr(MnaContext, "breakpoints", slowed)
    return slowed


class TestGateEndToEnd:
    def test_gate_catches_injected_slowdown(self, tmp_path,
                                            slow_transient):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({
            "schema": 1, "quick": True, "fingerprint": {}, "notes": "",
            "benchmarks": [{
                "benchmark": "mna.transient.ladder",
                "metric": "best_seconds", "unit": "s",
                "lower_is_better": True, "noise": 1.0, "value": 0.001,
            }]}))
        current = run_benchmarks(["mna.transient.ladder"], quick=True)
        verdict = gate_run(current, load_baseline(baseline_path),
                           quick=True)
        assert not verdict["ok"]
        (row,) = verdict["regressions"]
        assert row["benchmark"] == "mna.transient.ladder"
        assert row["ratio"] > 2.0           # ~20x with the sleep
        attribution = row["attribution"]
        assert attribution["dominant_span"] == "mna.transient.batch"
        assert attribution["dominant_share"] > 0.5


class TestPerfCli:
    def _main(self, argv):
        from repro.__main__ import main as cli_main
        return cli_main(argv)

    def test_list(self, capsys):
        assert self._main(["perf", "list"]) == 0
        out = capsys.readouterr().out
        assert "pss.shooting.adder" in out
        assert self._main(["perf", "list", "--tag", "circuit",
                           "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] >= 2
        assert all("circuit" in b["tags"] for b in doc["benchmarks"])

    def test_run_history_compare_gate_cycle(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        base = ["--cache-dir", root]
        assert self._main(["perf", "run", "mna.transient.ladder",
                           "--quick", "--set-baseline"] + base) == 0
        capsys.readouterr()
        assert self._main(["perf", "run", "mna.transient.ladder",
                           "--quick"] + base) == 0
        capsys.readouterr()
        assert self._main(["perf", "history", "mna.transient.ladder",
                           "--json"] + base) == 0
        history = json.loads(capsys.readouterr().out)
        assert len(history["mna.transient.ladder"]) == 2
        assert self._main(["perf", "compare"] + base) == 0
        out = capsys.readouterr().out
        assert "run 2 vs" in out and "mna.transient.ladder" in out
        # Same tree, generous band: the gate passes against the
        # flagged store baseline.
        assert self._main(["perf", "gate"] + base) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gate_fails_and_names_the_span(self, tmp_path, capsys,
                                           slow_transient):
        root = str(tmp_path / "cache")
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({
            "schema": 1, "quick": True, "fingerprint": {}, "notes": "",
            "benchmarks": [{
                "benchmark": "mna.transient.ladder",
                "metric": "best_seconds", "unit": "s",
                "lower_is_better": True, "noise": 1.0, "value": 0.001,
            }]}))
        assert self._main(["perf", "run", "mna.transient.ladder",
                           "--quick", "--cache-dir", root]) == 0
        capsys.readouterr()
        code = self._main(["perf", "gate", "--baseline",
                           str(baseline_path), "--cache-dir", root])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "mna.transient.ladder" in out
        assert "dominant span: mna.transient.batch" in out

    def test_run_errors(self, tmp_path, capsys):
        assert self._main(["perf", "run", "t.unknown", "--no-store",
                           "--cache-dir", str(tmp_path)]) == 2
        assert "unknown benchmark" in capsys.readouterr().err
        assert self._main(["perf", "gate", "--cache-dir",
                           str(tmp_path / "empty")]) == 2
        assert "no stored perf run" in capsys.readouterr().err

    def test_baseline_out_export(self, tmp_path, capsys):
        out_path = tmp_path / "exported" / "baseline.json"
        assert self._main(["perf", "run", "mna.transient.ladder",
                           "--quick", "--no-store",
                           "--cache-dir", str(tmp_path),
                           "--baseline-out", str(out_path)]) == 0
        capsys.readouterr()
        doc = load_baseline(out_path)
        assert doc["quick"] is True
        assert doc["benchmarks"][0]["benchmark"] == \
            "mna.transient.ladder"

    def test_store_gc_older_than_cli(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        assert self._main(["perf", "run", "mna.transient.ladder",
                           "--quick", "--cache-dir", root]) == 0
        capsys.readouterr()
        store = ResultCache(tmp_path / "cache")
        with store._lock:
            store._conn.execute(
                "UPDATE perf_runs SET created_at = created_at "
                "- 90 * 86400")
            store._conn.commit()
        store.close()
        assert self._main(["store", "gc", "--cache-dir", root,
                           "--older-than", "30"]) == 0
        out = capsys.readouterr().out
        assert "deleted 1 perf run(s)" in out
        store = ResultCache(tmp_path / "cache")
        assert store.perf_run() is None


class TestPerfDashboard:
    def test_perf_endpoint_sparklines(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "perf-dash", "experiment": "ext_montecarlo",
            "fidelity": "fast",
            "axes": [{"param": "seed",
                      "range": {"start": 0, "count": 1}}],
        })
        store = ResultCache(tmp_path)
        CampaignRunner(spec, store).run()
        recorder = TestPerfStore()
        for value in (1.0, 2.0, 1.5):
            recorder._record(store, value, bench="t.dash")
        with CampaignDashboard(spec, store) as board:
            with urllib.request.urlopen(board.url + "/perf",
                                        timeout=30) as response:
                doc = json.loads(response.read())
            with urllib.request.urlopen(board.url + "/",
                                        timeout=30) as response:
                index = response.read()
        assert b"/perf" in index
        (bench,) = doc["benchmarks"]
        assert bench["benchmark"] == "t.dash"
        assert bench["runs"] == 3
        assert bench["latest"] == 1.5
        assert bench["best"] == 1.0
        assert len(bench["sparkline"]) == 3
