"""Result cache, query layer, watch/dashboard and alerts tests.

The contracts under test:

* :class:`ResultCache` stores one row per config in
  ``<root>/store.sqlite`` — campaign runs, resume and aggregate reports
  are byte-identical to the recorded flat-JSON cache of an older build
  (``tests/fixtures/flat_cache``), corruption reads as a miss, and a
  schema-version mismatch or a non-database file fails loudly;
* ``store migrate`` imports a flat cache verbatim (zero result diffs,
  payload text byte-identical) and marks rows no current-version probe
  can reach as stale or legacy for ``store gc``;
* :class:`StoreQuery` filters (SQL JSON1 or the Python fallback)
  return identical, deterministically-ordered rows, and
  marginalisation feeds the reporting layer;
* N concurrent writer processes lose no writes, and concurrent shards
  agree with a serial run's ground-truth ``campaign_status``;
* declarative alert rules parse/round-trip on the spec without
  changing its execution key, the engine fires each (rule, config)
  once, and webhook failures never raise;
* the dashboard serves /status /alerts /results /healthz over HTTP.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.campaigns import (
    AlertRule,
    CampaignRunner,
    CampaignSpec,
    campaign_status,
    collect_results,
    results_document,
)
from repro.circuit import AnalysisError
from repro.exec import ResultCache
from repro.experiments import RunConfig, run_config
from repro.store import (
    AlertEngine,
    CampaignDashboard,
    StoreQuery,
    evaluate_alerts,
    status_with_eta,
    watch,
)
from repro.store.watch import format_watch_line

REPO_ROOT = Path(__file__).resolve().parent.parent
YIELD_SPEC = REPO_ROOT / "examples" / "campaigns" / "montecarlo_yield.json"
#: The flat-JSON cache an older build wrote for YIELD_SPEC at fast
#: fidelity (package version 1.0.0): one file per config.
FLAT_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "flat_cache"


def montecarlo_spec(count: int = 3, **extra) -> CampaignSpec:
    doc = {
        "name": "store-smoke",
        "experiment": "ext_montecarlo",
        "fidelity": "fast",
        "axes": [{"param": "seed", "range": {"start": 0, "count": count}}],
    }
    doc.update(extra)
    return CampaignSpec.from_dict(doc)


def _aggregate_text(spec: CampaignSpec, cache) -> str:
    document = results_document(spec, collect_results(spec, cache))
    return json.dumps(document, indent=2, sort_keys=True)


def _flat_copy(tmp_path: Path) -> Path:
    """A writable copy of the recorded flat cache."""
    return Path(shutil.copytree(FLAT_FIXTURE, tmp_path / "flat"))


def _imported_fixture(tmp_path: Path) -> ResultCache:
    cache = ResultCache(tmp_path / "imported")
    cache.import_flat_cache(FLAT_FIXTURE)
    return cache


class TestResultStoreContract:
    def test_round_trip_byte_identical(self, tmp_path):
        store = ResultCache(tmp_path)
        config = RunConfig.build("ext_montecarlo", "fast", {"seed": 3})
        assert store.get_config(config) is None
        result = run_config(RunConfig.build("ext_montecarlo", "fast",
                                    {"seed": 3}))
        store.put_config(result, config)
        hit = store.get_config(config)
        assert hit is not None
        assert hit.render(charts=True) == result.render(charts=True)
        # Stable across repeated reads (same deserialisation path).
        assert store.get_config(config).render() == result.render()

    def test_corrupt_payload_is_a_miss(self, tmp_path):
        store = ResultCache(tmp_path)
        config = RunConfig.build("table1", "fast")
        result = run_config(RunConfig.build("table1", "fast"))
        entry = store.put_config(result, config)
        with store._lock:
            store._conn.execute(
                "UPDATE results SET payload = ? WHERE entry = ?",
                ('{"schema": 1, "result": {"experime', entry))
        assert store.get_config(config) is None

    def test_schema_mismatch_fails_loudly(self, tmp_path):
        store = ResultCache(tmp_path)
        with store._lock:
            store._conn.execute(
                "UPDATE store_meta SET value = '999' "
                "WHERE key = 'schema'")
        store.close()
        with pytest.raises(AnalysisError, match="schema 999"):
            ResultCache(tmp_path)

    def test_not_a_database_fails_loudly(self, tmp_path):
        db = tmp_path / "store.sqlite"
        db.write_bytes(b"not a sqlite file " * 64)
        with pytest.raises(AnalysisError, match="move it aside") as err:
            ResultCache(tmp_path)
        assert str(db) in str(err.value)

    def test_path_for_config_names_db_and_entry(self, tmp_path):
        store = ResultCache(tmp_path)
        config = RunConfig.build("table1", "fast")
        where = store.path_for_config(config)
        assert str(store.db_path) in where
        assert "table1/fast-rc" in where

    def test_get_configs_aligns_with_serial_probes(self, tmp_path):
        spec = montecarlo_spec(4)
        store = ResultCache(tmp_path)
        CampaignRunner(spec, store).run()
        configs = spec.expand()
        store.put_config(  # overwrite nothing, just ensure >0 rows
            store.get_config(configs[0]), configs[0])
        missing = RunConfig.build("ext_montecarlo", "fast", {"seed": 99})
        batch = store.get_configs(list(configs) + [missing])
        serial = [store.get_config(c) for c in configs] + [None]
        assert len(batch) == len(serial)
        for got, want in zip(batch, serial):
            if want is None:
                assert got is None
            else:
                assert got.render() == want.render()


class TestStoreCampaignIdentity:
    def test_store_backed_run_matches_flat_cache_bytes(self, tmp_path):
        spec = CampaignSpec.load(YIELD_SPEC)
        store = ResultCache(tmp_path / "store")
        CampaignRunner(spec, store).run()
        flat = _imported_fixture(tmp_path)
        assert _aggregate_text(spec, store) == _aggregate_text(spec, flat)
        # Every payload is byte-for-byte the file the flat writer left.
        for config in spec.expand():
            entry = store._entry_for_config(config)
            assert store._payload_text(entry) == \
                (FLAT_FIXTURE / entry).read_text()

    def test_store_is_the_resume_checkpoint(self, tmp_path):
        spec = montecarlo_spec(3)
        store = ResultCache(tmp_path)
        first = CampaignRunner(spec, store).run()
        assert (first.executed, first.skipped) == (3, 0)
        second = CampaignRunner(spec, store).run()
        assert (second.executed, second.skipped) == (0, 3)
        status = campaign_status(spec, store)
        assert (status["done"], status["missing"]) == (3, 0)


class TestMigrate:
    def test_migrate_is_byte_identical(self, tmp_path):
        spec = CampaignSpec.load(YIELD_SPEC)
        flat = _flat_copy(tmp_path)
        store = ResultCache(tmp_path / "store")
        summary = store.import_flat_cache(flat)
        assert summary == {"scanned": 6, "migrated": 6, "legacy": 0,
                           "stale": 0, "skipped": 0}
        # Every imported entry hits: the keys still match this build.
        assert campaign_status(spec, store)["missing"] == 0
        # The payload text is stored verbatim...
        for path in sorted(flat.glob("*/*.json")):
            entry = path.relative_to(flat).as_posix()
            assert store._payload_text(entry) == path.read_text()
        # ...so the report equals a fresh run's, byte for byte.
        fresh = ResultCache(tmp_path / "fresh")
        CampaignRunner(spec, fresh).run()
        assert _aggregate_text(spec, store) == _aggregate_text(spec, fresh)

    def test_unreadable_files_are_skipped_not_raised(self, tmp_path):
        flat = _flat_copy(tmp_path)
        (flat / "ext_yield" / "fast-deadbeef.json").write_text("{tor")
        (flat / "ext_yield" / "fast-beef.json").write_bytes(b"\xff\xfe")
        (flat / "ext_yield" / "fast-cafe.json").write_text("[1, 2]")
        store = ResultCache(tmp_path, db_path=tmp_path / "m.sqlite")
        summary = store.import_flat_cache(flat)
        assert summary["scanned"] == 9
        assert summary["migrated"] == 6
        assert summary["skipped"] == 3

    def test_foreign_version_entries_go_stale_and_gc(self, tmp_path):
        flat = _flat_copy(tmp_path)
        # An entry written by another package version: valid payload
        # under a canonical-looking name with the wrong hash.
        real = sorted(flat.glob("ext_yield/*.json"))[0]
        foreign = real.with_name("fast-rc" + "0" * 16 + ".json")
        foreign.write_text(real.read_text())
        store = ResultCache(tmp_path, db_path=tmp_path / "m.sqlite")
        summary = store.import_flat_cache(flat)
        assert summary["migrated"] == 7
        assert summary["stale"] == 1
        # Stale rows never serve queries or probes...
        assert len(StoreQuery(store, "ext_yield").rows()) == 6
        params = json.loads(real.read_text())["params"]
        assert store.get_config(
            RunConfig.build("ext_yield", "fast", params)) is not None
        # ...and gc reclaims them (dry run first, then for real).
        assert store.gc(dry_run=True) == \
            {"candidates": 1, "deleted": 0, "perf_candidates": 0,
             "perf_deleted": 0, "dry_run": True}
        assert store.gc()["deleted"] == 1
        assert store.counts()["stale"] == 0

    def test_gc_legacy_drops_kwargs_rows(self, tmp_path):
        flat = _flat_copy(tmp_path)
        # A pre-RunConfig entry: kwargs-hash file name, no "rc" prefix.
        real = sorted(flat.glob("ext_yield/*.json"))[0]
        real.rename(real.with_name("fast-0123456789abcdef.json"))
        store = ResultCache(tmp_path, db_path=tmp_path / "m.sqlite")
        assert store.import_flat_cache(flat)["legacy"] == 1
        assert store.counts()["by_kind"] == {"canonical": 5, "legacy": 1}
        assert store.gc()["deleted"] == 1
        assert store.counts()["by_kind"] == {"canonical": 5}


class TestStoreQuery:
    @pytest.fixture()
    def store(self, tmp_path):
        spec = montecarlo_spec(4)
        store = ResultCache(tmp_path)
        CampaignRunner(spec, store).run()
        return store

    def test_where_filters_and_orders_rows(self, store):
        q = StoreQuery(store, "ext_montecarlo")
        assert len(q.rows()) == 4
        lt = q.where("seed", "<", 2).rows()
        assert sorted(r.params["seed"] for r in lt) == [0, 1]
        eq = q.where("seed", "=", 3).rows()
        assert [r.params["seed"] for r in eq] == [3]
        isin = q.where("seed", "in", [0, 3]).rows()
        assert sorted(r.params["seed"] for r in isin) == [0, 3]
        assert [r.entry for r in q.rows()] == \
            sorted(r.entry for r in q.rows())

    def test_python_fallback_matches_sql_path(self, store):
        q = StoreQuery(store, "ext_montecarlo").where("seed", ">=", 2)
        sql_rows = q.rows()
        store.has_json1 = False
        try:
            assert [r.entry for r in q.rows()] == \
                [r.entry for r in sql_rows]
        finally:
            store.has_json1 = True

    def test_bad_filters_rejected(self, store):
        q = StoreQuery(store, "ext_montecarlo")
        with pytest.raises(AnalysisError, match="invalid parameter"):
            q.where("seed; DROP TABLE results", "=", 1)
        with pytest.raises(AnalysisError, match="unknown filter"):
            q.where("seed", "~=", 1)
        with pytest.raises(AnalysisError, match="non-empty list"):
            q.where("seed", "in", [])
        with pytest.raises(AnalysisError, match="numbers or strings"):
            q.where("seed", "=", True)

    def test_table_and_tidy_shapes(self, store):
        q = StoreQuery(store, "ext_montecarlo").where("seed", "<", 2)
        table = q.table()
        assert table.headers[0] == "entry"
        assert "seed" in table.headers
        assert len(table.rows) == 2
        tidy = q.tidy()
        assert tidy["count"] == 2
        assert tidy["filters"] == [["seed", "<", 2]]
        assert all(set(row) == {"entry", "experiment", "fidelity",
                                "params", "metrics"}
                   for row in tidy["rows"])

    def test_marginalize_and_figure(self, store):
        q = StoreQuery(store, "ext_montecarlo")
        metric = q.metric_names()[0]
        points = q.marginalize(metric, "seed")
        assert [k for k, _ in points] == [0, 1, 2, 3]
        assert q.marginalize(metric, "seed", agg="count") == \
            [(s, 1.0) for s in (0, 1, 2, 3)]
        figure = q.figure(metric, "seed")
        assert [s.name for s in figure.series] == ["mean", "min", "max"]
        with pytest.raises(AnalysisError, match="unknown aggregation"):
            q.marginalize(metric, "seed", agg="median")
        with pytest.raises(AnalysisError, match="no numeric"):
            q.figure("no_such_metric", "seed")


class TestConcurrentWriters:
    N_PROCS = 4
    PER_PROC = 8

    _WORKER = """
import sys
from repro.experiments import RunConfig, run_config
from repro.exec.cache import ResultCache

root, worker = sys.argv[1], int(sys.argv[2])
store = ResultCache(root)
result = run_config(RunConfig.build("ext_montecarlo", "fast",
                                    {{"seed": 1000 + worker}}))
for k in range({per_proc}):
    seed = 1000 + worker * {per_proc} + k
    config = RunConfig.build("ext_montecarlo", "fast", {{"seed": seed}})
    store.put_config(result, config)
print(store.counts()["total"])
"""

    def test_hammering_one_store_loses_no_writes(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        script = self._WORKER.format(per_proc=self.PER_PROC)
        procs = [subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path), str(i)],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) for i in range(self.N_PROCS)]
        for proc in procs:
            _out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
        store = ResultCache(tmp_path)
        expected = self.N_PROCS * self.PER_PROC
        assert store.counts()["total"] == expected
        # Every row is individually readable (no torn payloads).
        for seed in range(1000, 1000 + expected):
            config = RunConfig.build("ext_montecarlo", "fast",
                                     {"seed": seed})
            assert store.get_config(config) is not None

    def test_concurrent_shards_match_flat_ground_truth(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        store_dir, serial_dir = tmp_path / "store", tmp_path / "serial"
        procs = [subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run",
             str(YIELD_SPEC), "--shard", f"{i}/2",
             "--cache-dir", str(store_dir)],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) for i in (1, 2)]
        for proc in procs:
            _out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
        serial = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "run",
             str(YIELD_SPEC), "--cache-dir", str(serial_dir)],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300)
        assert serial.returncode == 0, serial.stderr
        spec = CampaignSpec.load(YIELD_SPEC)
        store_status = campaign_status(spec, ResultCache(store_dir),
                                       n_shards=2)
        serial_status = campaign_status(spec, ResultCache(serial_dir))
        assert store_status["missing"] == 0
        assert store_status["done"] == serial_status["done"]
        # The acceptance criterion: byte-identical aggregate reports,
        # against a serial run and against the recorded flat cache.
        sharded = _aggregate_text(spec, ResultCache(store_dir))
        assert sharded == _aggregate_text(spec, ResultCache(serial_dir))
        assert sharded == _aggregate_text(spec, _imported_fixture(tmp_path))


class TestAlertRules:
    def test_from_dict_validation(self):
        rule = AlertRule.from_dict({"metric": "yield", "below": 0.9},
                                   "alerts[0]")
        assert rule.breached(0.5) == "below"
        assert rule.breached(0.95) is None
        assert rule.breached(None) is None
        both = AlertRule.from_dict(
            {"metric": "m", "below": 0.1, "above": 0.9}, "x")
        assert both.breached(0.95) == "above"
        for bad in ({"below": 1.0},                      # no metric
                    {"metric": "m"},                     # no threshold
                    {"metric": "m", "below": True},      # bool threshold
                    {"metric": "m", "below": 1, "nope": 2},
                    {"metric": "m", "below": 1, "webhook": 7}):
            with pytest.raises(AnalysisError):
                AlertRule.from_dict(bad, "alerts[0]")

    def test_spec_round_trips_and_key_ignores_alerts(self):
        plain = montecarlo_spec(2)
        alerting = montecarlo_spec(
            2, alerts=[{"metric": "yield", "below": 0.9,
                        "webhook": "http://example.invalid/hook"}])
        assert CampaignSpec.from_dict(alerting.describe()) == alerting
        assert "alerts" in alerting.describe()
        assert "alerts" not in plain.describe()
        # Observability config never invalidates shard manifests.
        assert alerting.key() == plain.key()

    def test_evaluate_and_engine_dedupe(self, tmp_path):
        spec = montecarlo_spec(
            2, alerts=[{"metric": "sigma_mV[row0]", "below": 1e6}])
        store = ResultCache(tmp_path)
        CampaignRunner(spec, store).run()
        alerts = evaluate_alerts(spec, collect_results(spec, store))
        assert len(alerts) == 2
        assert all(a["direction"] == "below" for a in alerts)
        seen = []
        engine = AlertEngine(spec, store, hooks=[seen.append])
        first = engine.poll()
        assert len(first["fired"]) == 2 and len(seen) == 2
        second = engine.poll()
        assert len(second["alerts"]) == 2   # still breaching...
        assert second["fired"] == []        # ...but fired only once

    def test_webhook_delivery_and_failure_is_quiet(self, tmp_path,
                                                   capsys):
        from repro.serve.aio_server import AsyncHttpServer

        received = []

        class Hook(AsyncHttpServer):
            async def _dispatch(self, method, target, headers, body,
                                conn_span):
                received.append(json.loads(body))
                return 204, b"", "application/json"

        with Hook() as hook:
            spec = montecarlo_spec(1, alerts=[
                {"metric": "sigma_mV[row0]", "below": 1e6,
                 "webhook": f"{hook.url}/hook"},
                {"metric": "sigma_mV[row0]", "below": 1e6,
                 "webhook": "http://127.0.0.1:1/unreachable"},
            ])
            store = ResultCache(tmp_path)
            CampaignRunner(spec, store).run()
            engine = AlertEngine(spec, store, hooks=[])
            outcome = engine.poll()    # the dead webhook must not raise
            assert len(outcome["fired"]) == 2
            assert len(received) == 1
            assert received[0]["metric"] == "sigma_mV[row0]"
            assert "webhook" not in received[0]
            assert "hook failed" in capsys.readouterr().err


class TestWatchAndDashboard:
    def test_status_with_eta_and_watch_line(self, tmp_path):
        spec = montecarlo_spec(3)
        store = ResultCache(tmp_path)
        CampaignRunner(spec, store, shard=(1, 2)).run()
        status = status_with_eta(spec, store)
        # The widest manifest partition drives the shard breakdown.
        assert len(status["shards"]) == 2
        eta = status["eta"]
        assert eta["fresh"] >= 1
        assert eta["mean_seconds_per_fresh"] > 0
        assert eta["eta_seconds"] is not None
        line = format_watch_line(status)
        assert "shard 1/2" in line and "eta ~" in line
        CampaignRunner(spec, store, shard=(2, 2)).run()
        done = status_with_eta(spec, store)
        assert done["missing"] == 0
        assert done["eta"]["eta_seconds"] == 0.0
        assert "complete" in format_watch_line(done)

    def test_eta_with_empty_manifests(self, tmp_path):
        # No shard has ever run: no manifests, no timings, no ETA —
        # the poll must still produce a complete, render-able document.
        spec = montecarlo_spec(3)
        store = ResultCache(tmp_path)
        status = status_with_eta(spec, store)
        assert status["missing"] == 3
        assert len(status["shards"]) == 1
        eta = status["eta"]
        assert eta["fresh"] == 0
        assert eta["mean_seconds_per_fresh"] is None
        assert eta["running_shards"] == 0
        assert eta["eta_seconds"] is None
        line = format_watch_line(status)
        assert "0/3 done (0.0%)" in line
        assert "eta" not in line and "complete" not in line

    def test_eta_with_zero_completed_shards(self, tmp_path):
        # Manifests exist (both shards started) but every config is
        # still pending: zero fresh completions must not divide by
        # zero, and the widest manifest partition still drives the
        # shard breakdown.
        from repro.campaigns.runner import _ShardManifest

        spec = montecarlo_spec(2)
        store = ResultCache(tmp_path)
        for index in (1, 2):
            _ShardManifest(spec, store.root, (index, 2),
                           total=2, in_shard=1)
        status = status_with_eta(spec, store)
        assert len(status["shards"]) == 2
        assert all(b["done"] == 0 for b in status["shards"])
        assert status["eta"]["fresh"] == 0
        assert status["eta"]["eta_seconds"] is None

    def test_watch_single_poll_incomplete(self, tmp_path, capsys):
        # --max-polls 1 on an incomplete campaign: exactly one status
        # line, the final document still reports the misses.
        spec = montecarlo_spec(3)
        store = ResultCache(tmp_path)
        CampaignRunner(spec, store, shard=(1, 3)).run()
        final = watch(spec, store, interval=0.0, max_polls=1,
                      stream=sys.stdout)
        out = capsys.readouterr().out
        # Hash-based sharding ran some but not all of the 3 configs.
        assert 0 < final["missing"] < 3
        assert out.count("[watch") == 1

    def test_watch_polls_until_complete(self, tmp_path, capsys):
        spec = montecarlo_spec(
            2, alerts=[{"metric": "sigma_mV[row0]", "below": 1e6}])
        store = ResultCache(tmp_path)
        CampaignRunner(spec, store).run()
        final = watch(spec, store, interval=0.0, max_polls=3,
                      stream=sys.stdout)
        out = capsys.readouterr().out
        assert final["missing"] == 0
        assert len(final["alerts"]) == 2
        assert out.count("[watch") == 1      # complete on the first poll
        assert out.count("ALERT sigma_mV[row0]") == 2

    def test_dashboard_serves_json_endpoints(self, tmp_path):
        spec = montecarlo_spec(
            2, alerts=[{"metric": "sigma_mV[row0]", "below": 1e6}])
        store = ResultCache(tmp_path)
        CampaignRunner(spec, store).run()
        expected = results_document(spec, collect_results(spec, store))
        with CampaignDashboard(spec, store, hooks=[lambda a: None]) \
                as board:
            def fetch(endpoint):
                with urllib.request.urlopen(board.url + endpoint,
                                            timeout=30) as response:
                    return response.status, response.read()

            status, body = fetch("/healthz")
            assert status == 200
            assert json.loads(body) == {"status": "ok",
                                        "campaign": spec.name}
            _, body = fetch("/status")
            doc = json.loads(body)
            assert (doc["done"], doc["missing"]) == (2, 0)
            assert doc["eta"]["eta_seconds"] == 0.0
            _, body = fetch("/alerts")
            doc = json.loads(body)
            assert len(doc["rules"]) == 1
            assert len(doc["alerts"]) == 2
            _, body = fetch("/results")
            assert json.loads(body) == expected
            _, body = fetch("/")
            assert b"campaign store-smoke" in body
            with pytest.raises(urllib.error.HTTPError) as err:
                fetch("/nope")
            assert err.value.code == 404

    def test_dashboard_works_over_flat_cache_too(self, tmp_path):
        # A cache root an older build filled with flat JSON files is
        # served once `store migrate` has imported it.
        spec = CampaignSpec.load(YIELD_SPEC)
        root = _flat_copy(tmp_path)
        cache = ResultCache(root)
        cache.import_flat_cache(root)
        with CampaignDashboard(spec, cache) as board:
            with urllib.request.urlopen(board.url + "/status",
                                        timeout=30) as response:
                assert json.loads(response.read())["done"] == 6


class TestDashboardHttp:
    """The dashboard shares the serving plane's bounded HTTP core."""

    @pytest.mark.parametrize("request_bytes,status", [
        (b"GET /status HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"GET /status HTTP/1.1\r\nContent-Length: 9999999999\r\n\r\n",
         413),
        (b"BROKEN\r\n\r\n", 400),
        (b"POST /status HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501),
    ], ids=["bad-length", "huge-length", "bad-request-line", "post"])
    def test_bad_requests_answered_and_closed(self, tmp_path,
                                              request_bytes, status):
        spec = montecarlo_spec(1)
        with CampaignDashboard(spec, ResultCache(tmp_path)) as board:
            with socket.create_connection((board.host, board.port),
                                          timeout=15) as sock:
                sock.sendall(request_bytes)
                raw = b""
                while True:      # the server closes after answering
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0].split()[1] == \
                str(status).encode()
            assert b"connection: close" in head.lower()
            assert b"content-type: application/json" in head.lower()
            assert "error" in json.loads(body)
            with urllib.request.urlopen(board.url + "/healthz",
                                        timeout=30) as response:
                assert json.loads(response.read())["status"] == "ok"


class TestStoreCli:
    def _main(self, argv):
        from repro.__main__ import main as cli_main
        return cli_main(argv)

    def test_store_flag_routes_campaign_through_sqlite(self, tmp_path,
                                                       capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(montecarlo_spec(2).describe()))
        root = tmp_path / "cache"
        assert self._main(["campaign", "run", str(spec_path),
                           "--cache-dir", str(root)]) == 0
        assert (root / "store.sqlite").exists()
        assert not list(root.glob("ext_montecarlo/*.json"))
        capsys.readouterr()
        assert self._main(["campaign", "status", str(spec_path),
                           "--cache-dir", str(root)]) == 0
        assert "2/2 configs done" in capsys.readouterr().out
        assert self._main(["campaign", "watch", str(spec_path),
                           "--cache-dir", str(root),
                           "--interval", "0", "--max-polls", "1",
                           "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["missing"] == 0

    @pytest.mark.parametrize("command", ["run", "status", "report",
                                         "watch", "dashboard"])
    def test_campaign_has_no_backend_switch(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            self._main(["campaign", command, str(YIELD_SPEC), "--store"])
        assert err.value.code == 2
        assert "--store" in capsys.readouterr().err

    def test_corrupt_database_is_an_error_line(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        db.write_bytes(b"not a sqlite file " * 64)
        assert self._main(["campaign", "status", str(YIELD_SPEC),
                           "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(db) in err

    def test_migrate_query_gc_round_trip(self, tmp_path, capsys):
        root = _flat_copy(tmp_path)
        assert self._main(["store", "migrate",
                           "--cache-dir", str(root)]) == 0
        assert "6 migrated" in capsys.readouterr().out
        assert self._main(["store", "query", "ext_yield",
                           "--cache-dir", str(root),
                           "--where", "seed", "<", "3200", "--json"]) == 0
        tidy = json.loads(capsys.readouterr().out)
        assert tidy["count"] == 2
        assert sorted(r["params"]["seed"] for r in tidy["rows"]) == \
            [2551, 3107]
        assert self._main(["store", "query", "ext_yield",
                           "--cache-dir", str(root),
                           "--figure", "pwm_yield", "seed"]) == 0
        assert "seed" in capsys.readouterr().out
        assert self._main(["store", "gc", "--cache-dir", str(root),
                           "--dry-run"]) == 0
        assert "would delete 0" in capsys.readouterr().out
