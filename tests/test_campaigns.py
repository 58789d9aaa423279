"""Campaign orchestration tests: expansion, sharding, resume, surfaces.

The contracts under test:

* a :class:`CampaignSpec` expands deterministically (ordered, validated,
  de-duplicated) for every axis kind (values / range / sample / zip);
* ``--shard i/N`` partitions the expansion exactly (disjoint cover,
  stable under re-expansion), and a campaign executed as 2 shards on
  separate processes produces a merged results table byte-identical to
  an unsharded run;
* re-running an interrupted campaign executes only the cache misses —
  including misses caused by corrupt/truncated cache entries, which
  must read as misses, never raise (the ResultCache regression net);
* a campaign killed mid-run — a failing row write, or SIGKILL —
  resumes to a report byte-identical to an uninterrupted run;
* ``GET /campaigns`` lists the spec documents the CLI runs.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignRunner,
    CampaignSpec,
    campaign_status,
    collect_results,
    find_campaigns,
    parse_shard,
    read_manifests,
    results_document,
    results_table,
    shard_index,
)
from repro.circuit import AnalysisError
from repro.exec import ResultCache, default_cache_dir
from repro.experiments import RunConfig, run_config
from repro.reporting import build_campaign_report

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_DIR = REPO_ROOT / "examples" / "campaigns"
YIELD_SPEC = EXAMPLE_DIR / "montecarlo_yield.json"
ROBUSTNESS_SPEC = EXAMPLE_DIR / "supply_robustness.json"


def montecarlo_spec(count: int = 3, **extra) -> CampaignSpec:
    """A cheap campaign (ext_montecarlo runs in milliseconds at fast)."""
    doc = {
        "name": "mc-smoke",
        "experiment": "ext_montecarlo",
        "fidelity": "fast",
        "axes": [{"param": "seed", "range": {"start": 0, "count": count}}],
    }
    doc.update(extra)
    return CampaignSpec.from_dict(doc)


def write_payload(cache: ResultCache, config: RunConfig, payload) -> None:
    """Overwrite a config's stored payload with raw text (or bytes)."""
    with cache._lock:
        cache._conn.execute(
            "INSERT OR REPLACE INTO results (entry, experiment, fidelity, "
            "params, payload, updated_at) VALUES (?, ?, ?, '{}', ?, 0)",
            (cache._entry_for_config(config), config.experiment_id,
             config.fidelity, payload))


def drop_entry(cache: ResultCache, config: RunConfig) -> None:
    """Lose one config's row, as an interrupted campaign would."""
    with cache._lock:
        cache._conn.execute("DELETE FROM results WHERE entry = ?",
                            (cache._entry_for_config(config),))


def aggregate_text(spec: CampaignSpec, cache: ResultCache) -> str:
    document = results_document(spec, collect_results(spec, cache))
    return json.dumps(document, indent=2, sort_keys=True)


class TestAxisExpansion:
    def test_product_order_last_axis_fastest(self):
        spec = CampaignSpec.from_dict({
            "name": "order",
            "experiment": "ext_montecarlo",
            "axes": [
                {"param": "seed", "values": [1, 2]},
                {"param": "method", "values": ["loop", "vectorized"]},
            ],
        })
        points = [dict(c.params) for c in spec.expand()]
        assert [(p["seed"], p["method"]) for p in points] == [
            (1, "loop"), (1, "vectorized"), (2, "loop"), (2, "vectorized")]

    def test_range_axis_with_step(self):
        spec = CampaignSpec.from_dict({
            "name": "r",
            "experiment": "ext_montecarlo",
            "axes": [{"param": "seed",
                      "range": {"start": 4, "count": 3, "step": 2}}],
        })
        assert [dict(c.params)["seed"] for c in spec.expand()] == [4, 6, 8]

    def test_int_sample_fractional_bounds_shrink_inward(self):
        spec = CampaignSpec.from_dict({
            "name": "frac",
            "experiment": "ext_montecarlo",
            "axes": [{"param": "seed",
                      "sample": {"count": 32, "low": 0.5, "high": 2.5,
                                 "seed": 0}}],
        })
        seeds = {dict(c.params)["seed"] for c in spec.expand()}
        assert seeds <= {1, 2}, "draws must stay inside [ceil(low), floor(high)]"
        empty = CampaignSpec.from_dict({
            "name": "empty",
            "experiment": "ext_montecarlo",
            "axes": [{"param": "seed",
                      "sample": {"count": 2, "low": 1.2, "high": 1.8}}],
        })
        with pytest.raises(AnalysisError, match="no integers"):
            empty.expand()

    def test_sample_axis_deterministic_and_bounded(self):
        doc = {
            "name": "s",
            "experiment": "ext_montecarlo",
            "axes": [{"param": "seed",
                      "sample": {"count": 8, "low": 10, "high": 20,
                                 "seed": 5}}],
        }
        first = [dict(c.params)["seed"]
                 for c in CampaignSpec.from_dict(doc).expand()]
        second = [dict(c.params)["seed"]
                  for c in CampaignSpec.from_dict(doc).expand()]
        assert first == second
        assert all(10 <= s <= 20 for s in first)
        assert all(isinstance(s, int) for s in first)

    def test_zip_axis_lockstep(self):
        spec = CampaignSpec.from_dict({
            "name": "z",
            "experiment": "ext_montecarlo",
            "axes": [{"zip": [
                {"param": "seed", "values": [1, 2]},
                {"param": "method", "values": ["loop", "vectorized"]},
            ]}],
        })
        points = [dict(c.params) for c in spec.expand()]
        assert [(p["seed"], p["method"]) for p in points] == [
            (1, "loop"), (2, "vectorized")]

    def test_zip_length_mismatch_rejected(self):
        spec = CampaignSpec.from_dict({
            "name": "z",
            "experiment": "ext_montecarlo",
            "axes": [{"zip": [
                {"param": "seed", "values": [1, 2, 3]},
                {"param": "method", "values": ["loop"]},
            ]}],
        })
        with pytest.raises(AnalysisError, match="mismatched lengths"):
            spec.expand()

    def test_floats_param_values_become_grids(self):
        spec = CampaignSpec.from_dict({
            "name": "grids",
            "experiment": "ext_robustness",
            "axes": [{"param": "vdd_values",
                      "values": [[1.0, 2.0], [2.5, 3.0, 3.5]]}],
        })
        values = [dict(c.params)["vdd_values"] for c in spec.expand()]
        assert values == [(1.0, 2.0), (2.5, 3.0, 3.5)]

    def test_duplicate_points_deduped_keeping_order(self):
        spec = CampaignSpec.from_dict({
            "name": "dup",
            "experiment": "ext_montecarlo",
            "axes": [{"param": "seed", "values": [3, 3, 1]}],
        })
        assert [dict(c.params)["seed"] for c in spec.expand()] == [3, 1]

    def test_base_params_apply_to_every_config(self):
        spec = montecarlo_spec(2, base={"method": "loop"})
        assert all(dict(c.params)["method"] == "loop"
                   for c in spec.expand())

    @pytest.mark.parametrize("doc, match", [
        ({"name": "x", "experiment": "nope", "axes": []},
         "unknown experiment"),
        ({"name": "x", "experiment": "ext_montecarlo",
          "axes": [{"param": "nope", "values": [1]}]},
         "not\\s+declared"),
        ({"name": "x", "experiment": "ext_montecarlo",
          "base": {"seed": 1},
          "axes": [{"param": "seed", "values": [2]}]},
         "assigned\\s+more than once"),
        ({"name": "bad name!", "experiment": "ext_montecarlo",
          "axes": []}, "campaign name"),
        ({"name": "x", "experiment": "ext_montecarlo",
          "fidelity": "turbo", "axes": []}, "fidelity"),
        ({"name": "x", "experiment": "ext_montecarlo",
          "axes": [{"param": "seed"}]}, "exactly one of"),
        ({"name": "x", "experiment": "ext_montecarlo",
          "axes": [{"param": "seed", "values": [1],
                    "range": {"start": 0, "count": 1}}]},
         "exactly one of"),
        ({"name": "x", "experiment": "ext_montecarlo",
          "axes": [{"param": "seed",
                    "sample": {"count": 2, "low": 5, "high": 1}}]},
         "low.*high"),
        ({"name": "x", "experiment": "ext_montecarlo",
          "axes": [{"param": "seed",
                    "range": {"start": "a", "count": 2}}]},
         "must be a number"),
        ({"name": "x", "experiment": "ext_montecarlo",
          "axes": [{"param": "seed",
                    "sample": {"count": 2, "low": 0, "high": 9,
                               "seed": 1.5}}]},
         "'seed' must be an integer"),
        ({"name": "x", "experiment": "ext_montecarlo", "typo": 1,
          "axes": []}, "unknown field"),
    ])
    def test_invalid_specs_rejected(self, doc, match):
        with pytest.raises(AnalysisError, match=match):
            CampaignSpec.from_dict(doc).expand()

    def test_out_of_bounds_value_fails_at_expansion(self):
        spec = CampaignSpec.from_dict({
            "name": "neg",
            "experiment": "ext_montecarlo",
            "axes": [{"param": "seed", "values": [-1]}],
        })
        with pytest.raises(AnalysisError, match=">= 0"):
            spec.expand()

    def test_describe_round_trips(self):
        spec = CampaignSpec.load(ROBUSTNESS_SPEC)
        again = CampaignSpec.from_dict(spec.describe())
        assert again == spec
        assert again.key() == spec.key()

    def test_committed_examples_are_valid(self):
        entries = find_campaigns(EXAMPLE_DIR)
        assert len(entries) == 2
        for path, loaded in entries:
            assert isinstance(loaded, CampaignSpec), (path, loaded)
            assert loaded.expand()
            assert loaded.size_bound() == len(loaded.expand())

    def test_size_bound_never_expands(self):
        spec = CampaignSpec.from_dict({
            "name": "huge",
            "experiment": "ext_montecarlo",
            "axes": [
                {"param": "seed",
                 "range": {"start": 0, "count": 10_000_000}},
                {"param": "method", "values": ["loop", "vectorized"]},
            ],
        })
        # O(axes): instant even for a 20M-point declaration.
        assert spec.size_bound() == 20_000_000

    def test_non_utf8_spec_file_is_a_listed_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00garbage")
        entries = find_campaigns(tmp_path)
        assert len(entries) == 1
        assert isinstance(entries[0][1], AnalysisError)


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("2/4") == (2, 4)
        for bad in ("0/2", "3/2", "2/0", "x", "2", "1/x", "-1/2"):
            with pytest.raises(AnalysisError):
                parse_shard(bad)

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_shards_partition_exactly(self, n_shards):
        configs = montecarlo_spec(7).expand()
        buckets = [shard_index(c, n_shards) for c in configs]
        assert all(0 <= b < n_shards for b in buckets)
        # Re-expansion assigns identically: the partition is a pure
        # function of the config content.
        assert buckets == [shard_index(c, n_shards)
                           for c in montecarlo_spec(7).expand()]

    def test_shard_entries_cover_disjointly(self, tmp_path):
        spec = montecarlo_spec(6)
        cache = ResultCache(tmp_path)
        seen = {}
        for index in (1, 2, 3):
            runner = CampaignRunner(spec, cache, shard=(index, 3))
            for entry in runner.shard_entries():
                assert entry.config not in seen, "overlapping shards"
                seen[entry.config] = index
        assert len(seen) == 6


class TestRunAndResume:
    def _counting(self, monkeypatch):
        """Patch the runner's run_config to count real executions."""
        import repro.campaigns.runner as runner_mod

        calls = []

        def wrapped(config, **kwargs):
            calls.append(config)
            return run_config(config, **kwargs)

        monkeypatch.setattr(runner_mod, "run_config", wrapped)
        return calls

    def test_resume_executes_only_misses(self, tmp_path, monkeypatch):
        calls = self._counting(monkeypatch)
        spec = montecarlo_spec(4)
        cache = ResultCache(tmp_path)
        summary = CampaignRunner(spec, cache).run()
        assert (summary.executed, summary.skipped) == (4, 0)
        assert len(calls) == 4
        # A completed campaign re-runs for free.
        summary = CampaignRunner(spec, cache).run()
        assert (summary.executed, summary.skipped) == (0, 4)
        assert len(calls) == 4
        # Interrupt simulation: lose one entry, re-run fills exactly it.
        victim = spec.expand()[2]
        drop_entry(cache, victim)
        summary = CampaignRunner(spec, cache).run()
        assert (summary.executed, summary.skipped) == (1, 3)
        assert calls[-1] == victim

    def test_corrupt_entry_is_rerun_and_healed(self, tmp_path,
                                               monkeypatch):
        calls = self._counting(monkeypatch)
        spec = montecarlo_spec(3)
        cache = ResultCache(tmp_path)
        CampaignRunner(spec, cache).run()
        victim = spec.expand()[0]
        write_payload(cache, victim, '{"schema": 1, "resu')
        status = campaign_status(spec, cache)
        assert status["missing"] == 1
        summary = CampaignRunner(spec, cache).run()
        assert summary.executed == 1 and calls[-1] == victim
        assert cache.get_config(victim) is not None

    def test_manifests_record_progress(self, tmp_path):
        spec = montecarlo_spec(4)
        cache = ResultCache(tmp_path)
        for index in (1, 2):
            CampaignRunner(spec, cache, shard=(index, 2)).run()
        manifests = read_manifests(spec, cache.root)
        assert len(manifests) == 2
        assert all(doc["status"] == "complete" for doc in manifests)
        assert sum(len(doc["completed"]) for doc in manifests) == 4
        assert all(doc["spec_key"] == spec.key() for doc in manifests)

    def test_torn_journal_tail_is_skipped(self, tmp_path):
        spec = montecarlo_spec(3)
        cache = ResultCache(tmp_path)
        CampaignRunner(spec, cache).run()
        log = (cache.root / "campaigns" / spec.name / "shard-1of1.log")
        with log.open("a") as handle:
            handle.write('{"key": "torn-mid-wri')  # killed mid-append
        manifests = read_manifests(spec, cache.root)
        assert len(manifests) == 1
        assert len(manifests[0]["completed"]) == 3

    def test_torn_non_utf8_tail_is_partial_not_fatal(self, tmp_path):
        spec = montecarlo_spec(3)
        cache = ResultCache(tmp_path)
        CampaignRunner(spec, cache).run()
        directory = cache.root / "campaigns" / spec.name
        log = directory / "shard-1of1.log"
        with log.open("ab") as handle:
            handle.write(b'{"key": "torn \xc3')  # cut mid UTF-8 sequence
        manifests = read_manifests(spec, cache.root)
        assert len(manifests) == 1
        assert len(manifests[0]["completed"]) == 3
        # A header torn into invalid bytes is as good as no manifest.
        (directory / "shard-1of1.json").write_bytes(b'{"name": \xff\xfe')
        assert read_manifests(spec, cache.root) == []

    def test_status_breaks_down_by_shard(self, tmp_path):
        spec = montecarlo_spec(5)
        cache = ResultCache(tmp_path)
        CampaignRunner(spec, cache, shard=(1, 2)).run()
        status = campaign_status(spec, cache, n_shards=2)
        assert status["total"] == 5
        assert status["done"] == status["shards"][0]["done"]
        assert status["shards"][0]["done"] == status["shards"][0]["total"]
        assert status["shards"][1]["done"] == 0
        assert len(status["missing_labels"]) == status["missing"]
        assert status["missing_labels_truncated"] is False
        # Manifests are summarised, never the full per-config journal.
        assert all("completed" not in doc for doc in status["manifests"])

    def test_status_caps_missing_labels(self, tmp_path):
        from repro.campaigns.runner import MISSING_LABEL_CAP

        spec = montecarlo_spec(MISSING_LABEL_CAP + 5)
        cache = ResultCache(tmp_path)  # nothing run: everything missing
        status = campaign_status(spec, cache)
        assert status["missing"] == MISSING_LABEL_CAP + 5
        assert len(status["missing_labels"]) == MISSING_LABEL_CAP
        assert status["missing_labels_truncated"] is True

    def test_key_ignores_cosmetic_fields(self):
        base = montecarlo_spec(2)
        retitled = montecarlo_spec(
            2, title="New title", description="typo fixed")
        assert retitled.key() == base.key()
        widened = montecarlo_spec(3)
        assert widened.key() != base.key()


class TestShardedMergeIdentity:
    """Acceptance: 2 shards on separate processes == unsharded, byte-wise."""

    def _cli(self, args, env):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args], cwd=REPO_ROOT,
            env=env, capture_output=True, text=True, timeout=300)

    def test_two_process_shards_match_serial_run(self, tmp_path):
        env = {**os.environ,
               "PYTHONPATH": str(REPO_ROOT / "src")}
        spec_arg = str(YIELD_SPEC)
        sharded_cache, serial_cache = tmp_path / "a", tmp_path / "b"
        procs = [subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run", spec_arg,
             "--shard", f"{i}/2", "--cache-dir", str(sharded_cache)],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) for i in (1, 2)]
        for proc in procs:
            _out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
        serial = self._cli(["campaign", "run", spec_arg,
                            "--cache-dir", str(serial_cache)], env)
        assert serial.returncode == 0, serial.stderr

        reports = []
        for cache_dir, name in ((sharded_cache, "sharded"),
                                (serial_cache, "serial")):
            json_path = tmp_path / f"{name}.json"
            result = self._cli(
                ["campaign", "report", spec_arg, "--cache-dir",
                 str(cache_dir), "--json", str(json_path),
                 "--require-complete"], env)
            assert result.returncode == 0, result.stderr
            reports.append((result.stdout, json_path.read_bytes()))
        assert reports[0] == reports[1], \
            "sharded and serial campaign aggregates must be byte-identical"


class TestResultsAggregation:
    def test_table_rows_follow_expansion_order(self, tmp_path):
        spec = montecarlo_spec(3)
        cache = ResultCache(tmp_path)
        CampaignRunner(spec, cache).run()
        table = results_table(spec, collect_results(spec, cache))
        assert table.headers[:3] == ["#", "config", "seed"]
        assert [row[0] for row in table.rows] == ["0", "1", "2"]
        # Metric columns are the union over results, sorted.
        assert table.headers[3:] == sorted(table.headers[3:])

    def test_incomplete_campaign_reports_partial_table(self, tmp_path):
        spec = montecarlo_spec(3)
        cache = ResultCache(tmp_path)
        CampaignRunner(spec, cache).run()
        drop_entry(cache, spec.expand()[1])
        collected = collect_results(spec, cache)
        document = results_document(spec, collected)
        assert (document["total"], document["done"]) == (3, 2)
        assert [row["position"] for row in document["rows"]] == [0, 2]
        report = build_campaign_report(
            name=spec.name, title=spec.display_title,
            experiment_id=spec.experiment_id, fidelity=spec.fidelity,
            table=results_table(spec, collected),
            total=3, done=2)
        assert "1 config(s) still missing" in report

    def test_document_is_deterministic_content_only(self, tmp_path):
        spec = montecarlo_spec(2)
        cache = ResultCache(tmp_path)
        CampaignRunner(spec, cache).run()
        document = results_document(spec, collect_results(spec, cache))
        text = json.dumps(document, sort_keys=True)
        assert str(tmp_path) not in text  # no paths leak
        again = results_document(spec, collect_results(spec, cache))
        assert json.dumps(again, sort_keys=True) == text


class TestCacheCorruptionRegression:
    """A corrupt/truncated cache entry is a miss, never an exception."""

    GARBAGE = [
        "",                                        # truncated to nothing
        '{"schema": 1, "result": {"experime',      # torn mid-write
        "null",                                    # valid JSON, wrong shape
        "[1, 2, 3]",
        '"a string"',
        '{"schema": 1}',                           # missing result
        '{"schema": 1, "result": null}',
        '{"schema": 1, "result": []}',
        '{"schema": 1, "result": {}}',             # result missing fields
        '{"schema": 1, "result": {"experiment_id": "x"}}',
        '{"schema": 1, "result": {"experiment_id": "x", "title": "t", '
        '"fidelity": "fast", "table": {"headers": []}}}',  # bad table
    ]

    def test_every_garbage_shape_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = RunConfig.build("ext_montecarlo", "fast")
        for garbage in self.GARBAGE:
            write_payload(cache, config, garbage)
            assert cache.get_config(config) is None, garbage
            assert cache.get_configs([config]) == [None], garbage
        write_payload(cache, config, b"\x80\x81\xff")  # not even UTF-8
        assert cache.get_config(config) is None

    def test_corrupt_entry_overwritten_on_next_write(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = RunConfig.build("ext_montecarlo", "fast")
        write_payload(cache, config, '{"schema": 1, "resu')
        result = run_config(config, cache=cache)  # miss -> run -> put
        hit = cache.get_config(config)
        assert hit is not None
        assert hit.render() == result.render()


class TestFaultInjection:
    """An interrupted campaign resumes to the uninterrupted report."""

    def test_failed_row_write_propagates_and_resumes(self, tmp_path,
                                                     monkeypatch):
        spec = montecarlo_spec(4)
        cache = ResultCache(tmp_path / "faulty")
        real_write = ResultCache._write_row
        writes = []

        def flaky_write(self, **row):
            writes.append(row["entry"])
            if len(writes) == 2:
                raise sqlite3.OperationalError("database is locked")
            return real_write(self, **row)

        monkeypatch.setattr(ResultCache, "_write_row", flaky_write)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            CampaignRunner(spec, cache).run()
        monkeypatch.setattr(ResultCache, "_write_row", real_write)
        assert cache._payload_text(writes[1]) is None
        assert cache.counts()["total"] == 1
        [manifest] = read_manifests(spec, cache.root)
        assert manifest["status"] != "complete"

        missing = campaign_status(spec, cache)["missing"]
        summary = CampaignRunner(spec, cache).run()
        assert (summary.executed, summary.skipped) == (missing, 4 - missing)
        fresh = ResultCache(tmp_path / "fresh")
        CampaignRunner(spec, fresh).run()
        assert aggregate_text(spec, cache) == aggregate_text(spec, fresh)

    def test_sigkilled_run_resumes(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        doc = json.loads(YIELD_SPEC.read_text())
        doc["axes"] = [{"param": "seed", "range": {"start": 0,
                                                   "count": 20}}]
        spec_path = tmp_path / "yield20.json"
        spec_path.write_text(json.dumps(doc))
        spec = CampaignSpec.load(spec_path)
        root = tmp_path / "killed"
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run",
             str(spec_path), "--cache-dir", str(root)],
            cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        db = root / "store.sqlite"
        deadline = time.monotonic() + 120
        try:
            while time.monotonic() < deadline:
                if db.exists():
                    try:
                        with sqlite3.connect(str(db), timeout=5) as conn:
                            rows = conn.execute(
                                "SELECT COUNT(*) FROM results").fetchone()[0]
                    except sqlite3.OperationalError:
                        rows = 0   # schema not created yet
                    if rows:
                        break
                time.sleep(0.002)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGKILL

        cache = ResultCache(root)
        done = cache.counts()["total"]
        assert 1 <= done < 20
        assert all(m["status"] != "complete"
                   for m in read_manifests(spec, root))
        assert cli_main(["campaign", "run", str(spec_path),
                         "--cache-dir", str(root)]) == 0
        assert f"{20 - done} executed, {done} resumed" in \
            capsys.readouterr().out
        fresh = ResultCache(tmp_path / "fresh")
        CampaignRunner(spec, fresh).run()
        assert aggregate_text(spec, cache) == aggregate_text(spec, fresh)


class TestCampaignCli:
    def test_run_status_report_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        cache_dir = tmp_path / "cache"
        spec_arg = str(YIELD_SPEC)
        assert cli_main(["campaign", "run", spec_arg,
                         "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "6 executed" in out
        assert cli_main(["campaign", "status", spec_arg,
                         "--cache-dir", str(cache_dir), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert (status["done"], status["missing"]) == (6, 0)
        out_md = tmp_path / "report.md"
        csv_dir = tmp_path / "csv"
        json_path = tmp_path / "agg.json"
        assert cli_main(["campaign", "report", spec_arg,
                         "--cache-dir", str(cache_dir),
                         "--out", str(out_md), "--csv", str(csv_dir),
                         "--json", str(json_path),
                         "--require-complete"]) == 0
        assert "montecarlo-yield" in capsys.readouterr().out
        assert "pwm_yield" in out_md.read_text()
        assert (csv_dir / "campaign_montecarlo-yield.csv").exists()
        assert json.loads(json_path.read_text())["done"] == 6

    def test_require_complete_fails_on_missing(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        cache_dir = tmp_path / "cache"
        assert cli_main(["campaign", "report", str(YIELD_SPEC),
                         "--cache-dir", str(cache_dir),
                         "--require-complete"]) == 1
        assert "incomplete" in capsys.readouterr().err

    def test_bad_spec_file_is_a_clean_error(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["campaign", "status", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cache_dir_env_is_default_root(self, tmp_path, monkeypatch,
                                           capsys):
        from repro.__main__ import main as cli_main

        root = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        assert default_cache_dir() == root
        spec = montecarlo_spec(2)
        spec_path = tmp_path / "mc.json"
        spec_path.write_text(json.dumps(spec.describe()))
        assert cli_main(["campaign", "run", str(spec_path)]) == 0
        capsys.readouterr()
        assert ResultCache(root).counts()["by_experiment"] == \
            {"ext_montecarlo": 2}, \
            "campaign results must land under $REPRO_CACHE_DIR"

    def test_help_documents_cache_env_var(self, capsys):
        from repro.__main__ import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["campaign", "run", "--help"])
        assert "REPRO_CACHE_DIR" in capsys.readouterr().out


class TestHttpCampaigns:
    @pytest.fixture()
    def server(self, tmp_path):
        from repro.serve.artifacts import ModelStore
        from repro.serve import AsyncPerceptronServer

        store = ModelStore(tmp_path / "models")
        with AsyncPerceptronServer(store, workers=0,
                                   campaign_dir=str(EXAMPLE_DIR)) as srv:
            yield srv

    def _get(self, server, path):
        with urllib.request.urlopen(server.url + path, timeout=30) as r:
            return json.loads(r.read())

    def test_get_campaigns_lists_specs(self, server):
        doc = self._get(server, "/campaigns")
        names = {c["name"] for c in doc["campaigns"]}
        assert names == {"montecarlo-yield", "supply-robustness"}
        yield_entry = next(c for c in doc["campaigns"]
                           if c["name"] == "montecarlo-yield")
        assert yield_entry["n_configs"] == 6
        assert yield_entry["experiment"] == "ext_yield"

    def test_no_campaign_dir_serves_empty_list(self, tmp_path):
        from repro.serve.artifacts import ModelStore
        from repro.serve import AsyncPerceptronServer

        store = ModelStore(tmp_path / "models")
        with AsyncPerceptronServer(store, workers=0) as srv:
            assert self._get(srv, "/campaigns") == {"count": 0,
                                                    "campaigns": []}

    def test_invalid_spec_file_listed_with_error(self, tmp_path):
        from repro.serve.artifacts import ModelStore
        from repro.serve import AsyncPerceptronServer

        camp_dir = tmp_path / "camps"
        camp_dir.mkdir()
        (camp_dir / "broken.json").write_text("{oops")
        store = ModelStore(tmp_path / "models")
        with AsyncPerceptronServer(store, workers=0,
                                   campaign_dir=str(camp_dir)) as srv:
            doc = self._get(srv, "/campaigns")
        assert doc["count"] == 1
        assert "error" in doc["campaigns"][0]

    def test_oversized_campaign_listed_without_expansion(self, tmp_path):
        from repro.serve.artifacts import ModelStore
        from repro.serve import AsyncPerceptronServer

        camp_dir = tmp_path / "camps"
        camp_dir.mkdir()
        (camp_dir / "huge.json").write_text(json.dumps({
            "name": "huge",
            "experiment": "ext_montecarlo",
            "axes": [{"param": "seed",
                      "range": {"start": 0, "count": 10_000_000}}],
        }))
        store = ModelStore(tmp_path / "models")
        with AsyncPerceptronServer(store, workers=0,
                                   campaign_dir=str(camp_dir)) as srv:
            # Listing reports the declared size cheaply, marked inexact.
            doc = self._get(srv, "/campaigns")
            entry = doc["campaigns"][0]
            assert entry["n_configs"] == 10_000_000
            assert entry["n_configs_exact"] is False

    def test_expand_time_error_does_not_hide_valid_listings(self, tmp_path):
        from repro.serve.artifacts import ModelStore
        from repro.serve import AsyncPerceptronServer

        camp_dir = tmp_path / "camps"
        camp_dir.mkdir()
        # Loads fine, fails only at expansion (zip length mismatch).
        (camp_dir / "bad.json").write_text(json.dumps({
            "name": "bad-zip",
            "experiment": "ext_montecarlo",
            "axes": [{"zip": [
                {"param": "seed", "values": [1, 2]},
                {"param": "method", "values": ["loop"]},
            ]}],
        }))
        (camp_dir / "good.json").write_text(json.dumps({
            "name": "good",
            "experiment": "ext_montecarlo",
            "axes": [{"param": "seed", "values": [1]}],
        }))
        store = ModelStore(tmp_path / "models")
        with AsyncPerceptronServer(store, workers=0,
                                   campaign_dir=str(camp_dir)) as srv:
            doc = self._get(srv, "/campaigns")
        by_name = {c.get("name"): c for c in doc["campaigns"]}
        assert "error" in by_name["bad-zip"]
        assert by_name["good"]["n_configs"] == 1

    def test_duplicate_name_counts_expansion_failures(self, tmp_path):
        from repro.serve.artifacts import ModelStore
        from repro.serve import AsyncPerceptronServer

        camp_dir = tmp_path / "camps"
        camp_dir.mkdir()
        # Twin A expands fine; twin B only fails at expansion — the
        # listing must still flag the collision.
        (camp_dir / "a.json").write_text(json.dumps({
            "name": "clash",
            "experiment": "ext_montecarlo",
            "axes": [{"param": "seed", "values": [1]}],
        }))
        (camp_dir / "b.json").write_text(json.dumps({
            "name": "clash",
            "experiment": "ext_montecarlo",
            "axes": [{"zip": [
                {"param": "seed", "values": [1, 2]},
                {"param": "method", "values": ["loop"]},
            ]}],
        }))
        store = ModelStore(tmp_path / "models")
        with AsyncPerceptronServer(store, workers=0,
                                   campaign_dir=str(camp_dir)) as srv:
            doc = self._get(srv, "/campaigns")
        assert all(c.get("duplicate_name") for c in doc["campaigns"])

    def test_duplicate_campaign_names_flagged(self, tmp_path):
        from repro.serve.artifacts import ModelStore
        from repro.serve import AsyncPerceptronServer

        camp_dir = tmp_path / "camps"
        camp_dir.mkdir()
        for filename, seeds in (("a.json", [1]), ("b.json", [2])):
            (camp_dir / filename).write_text(json.dumps({
                "name": "clash",
                "experiment": "ext_montecarlo",
                "axes": [{"param": "seed", "values": seeds}],
            }))
        store = ModelStore(tmp_path / "models")
        with AsyncPerceptronServer(store, workers=0,
                                   campaign_dir=str(camp_dir)) as srv:
            doc = self._get(srv, "/campaigns")
        assert all(c.get("duplicate_name") for c in doc["campaigns"])
