"""Persistent experiment-result cache: one WAL-mode SQLite file.

Paper-fidelity experiments are minutes-scale simulations whose outputs
are fully determined by a validated
:class:`~repro.experiments.spec.RunConfig` — the textbook shape for a
content-addressed cache.  :class:`ResultCache` stores every
:class:`~repro.experiments.base.ExperimentResult` as one row of a
single SQLite database, ``<root>/store.sqlite`` (:data:`STORE_DB_NAME`):

* **keys** — each row is keyed by ``<experiment>/<fidelity>-rc<hash>.json``,
  where the hash is a SHA-256 over the config's canonical JSON with the
  package version folded in, so released numeric changes invalidate
  old entries.  Spelling a default explicitly never forks the key.
* **payloads** — the result document is stored as JSON text; floats
  survive the round trip exactly (``repr`` shortest-round-trip), so a
  hit's ``render()`` is byte-identical to the original run.
* **corruption** — a payload that no longer decodes (torn, wrong
  shape, other payload schema) reads as a miss, never an exception; the
  re-run overwrites it.  A file that is not a SQLite database, or one
  written with another table layout (:data:`STORE_SCHEMA_VERSION`),
  fails at open with an :class:`AnalysisError` naming the file.
* **concurrent writers** — WAL journal mode plus a busy timeout: N
  shard processes insert rows with last-full-write-wins semantics.
* **indexed queries** — ``experiment`` / ``fidelity`` / ``engine`` /
  ``config_key`` are indexed columns and ``params`` holds the canonical
  parameter JSON, so :mod:`repro.store.query` filters on any axis
  parameter via JSON1 with expression indexes created on demand.
* **perf history** — :mod:`repro.perf` records fingerprinted benchmark
  runs in the ``perf_runs`` / ``perf_samples`` tables of the same file.

The cache is wired into :func:`repro.experiments.registry.run_config`
and every ``python -m repro`` command that persists results (``run`` /
``all`` ``--cache-dir``, ``campaign``, ``store``, ``perf``).  Caches
written by older builds as one JSON file per entry are imported once
with :meth:`ResultCache.import_flat_cache` (``repro store migrate``).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from .. import telemetry
from ..circuit.exceptions import AnalysisError

#: Bump when the serialised layout of ExperimentResult changes.
CACHE_SCHEMA_VERSION = 1

#: Bump when the table layout below changes incompatibly.
STORE_SCHEMA_VERSION = 1

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Database file name inside a cache root.
STORE_DB_NAME = "store.sqlite"

#: How long a writer waits for another process's write lock.
BUSY_TIMEOUT_S = 30.0

PathLike = Union[str, Path]

#: Parameter names are schema-validated identifiers; anything else must
#: never reach SQL (index names, json paths).
_PARAM_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS results (
    entry       TEXT PRIMARY KEY,
    experiment  TEXT NOT NULL,
    fidelity    TEXT NOT NULL,
    config_key  TEXT,
    engine      TEXT,
    kind        TEXT NOT NULL DEFAULT 'canonical',
    stale       INTEGER NOT NULL DEFAULT 0,
    params      TEXT NOT NULL,
    payload     TEXT NOT NULL,
    updated_at  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_experiment
    ON results(experiment, fidelity);
CREATE INDEX IF NOT EXISTS idx_results_engine ON results(engine);
CREATE INDEX IF NOT EXISTS idx_results_config_key ON results(config_key);
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
-- Performance history (repro.perf).  Additive tables: older builds
-- simply never touch them, so STORE_SCHEMA_VERSION stays at 1 and
-- existing databases gain them on first open by a perf-aware build.
CREATE TABLE IF NOT EXISTS perf_runs (
    run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    created_at  REAL NOT NULL,
    quick       INTEGER NOT NULL DEFAULT 0,
    baseline    INTEGER NOT NULL DEFAULT 0,
    fingerprint TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS perf_samples (
    run_id          INTEGER NOT NULL,
    benchmark       TEXT NOT NULL,
    metric          TEXT NOT NULL,
    unit            TEXT,
    lower_is_better INTEGER NOT NULL DEFAULT 1,
    kind            TEXT NOT NULL DEFAULT 'workload',
    noise           REAL,
    repeat          INTEGER NOT NULL,
    value           REAL NOT NULL,
    PRIMARY KEY (run_id, benchmark, repeat)
);
CREATE INDEX IF NOT EXISTS idx_perf_samples_benchmark
    ON perf_samples(benchmark, run_id);
"""


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-pwm``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-pwm"


class ResultCache:
    """Content-addressed experiment-result cache over one SQLite file.

    ``root`` is the cache working directory (campaign shard manifests
    live under it); the database defaults to ``<root>/store.sqlite``
    (:data:`STORE_DB_NAME`).  One instance owns one connection, shared
    across threads behind a lock; concurrent *processes* each open
    their own instance — WAL mode serialises their writes.

    >>> from repro.experiments import RunConfig
    >>> cache = ResultCache("/tmp/repro-cache-doctest")
    >>> cache.get_config(RunConfig.build("table1", "fast")) is None
    True
    """

    def __init__(self, root: PathLike, *,
                 db_path: Optional[PathLike] = None):
        self.root = Path(root)
        self.db_path = (Path(db_path) if db_path is not None
                        else self.root / STORE_DB_NAME)
        self.db_path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(str(self.db_path),
                                     timeout=BUSY_TIMEOUT_S,
                                     isolation_level=None,
                                     check_same_thread=False)
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
            self._init_schema()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise AnalysisError(
                f"cannot open result cache {self.db_path} ({exc}); if it "
                "is not a database, move it aside") from None
        except AnalysisError:
            self._conn.close()
            raise
        self.has_json1 = self._probe_json1()

    # -- lifecycle ----------------------------------------------------------

    def _init_schema(self) -> None:
        with self._lock:
            self._conn.executescript(_SCHEMA_SQL)
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT OR IGNORE INTO store_meta(key, value) "
                    "VALUES ('schema', ?), ('created_at', ?)",
                    (str(STORE_SCHEMA_VERSION), repr(time.time())))
                row = self._conn.execute(
                    "SELECT value FROM store_meta WHERE key = 'schema'"
                ).fetchone()
            if row[0] != str(STORE_SCHEMA_VERSION):
                raise AnalysisError(
                    f"result cache {self.db_path} has schema {row[0]}, "
                    f"this build expects {STORE_SCHEMA_VERSION}; move it "
                    "aside")

    def _probe_json1(self) -> bool:
        try:
            self._conn.execute("SELECT json_extract('{}', '$.x')")
            return True
        except sqlite3.OperationalError:
            return False

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<ResultCache db={str(self.db_path)!r}>"

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def _entry_for_config(config) -> str:
        # The package version is folded into the key so released numeric
        # changes invalidate old entries; within one version, stale
        # replays after local code edits are handled by the CLI's
        # cache-hit notice and --no-cache.
        from .. import __version__

        canonical = config.canonical_json() + f"|repro={__version__}"
        key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        return f"{config.experiment_id}/{config.fidelity}-rc{key}.json"

    def path_for_config(self, config) -> str:
        """Human-readable location of a config's entry (CLI notices)."""
        return f"{self.db_path}#{self._entry_for_config(config)}"

    # -- decode: any corruption reads as a miss -----------------------------

    @staticmethod
    def _decode(text: Optional[str]):
        """Deserialise one payload; any corruption reads as a miss.

        A torn write or a hand-edited row can leave invalid JSON, JSON
        of the wrong shape (``null``, a list, a dict missing
        ``result``), or a result document that no longer deserialises.
        All of those are misses — the caller re-runs and the next
        :meth:`put_config` replaces the bad row — never exceptions: a
        corrupt entry must not take down the campaign trying to heal it.
        """
        from ..experiments.base import ExperimentResult

        if text is None:
            return None
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) \
                or payload.get("schema") != CACHE_SCHEMA_VERSION \
                or not isinstance(payload.get("result"), dict):
            return None
        try:
            return ExperimentResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError, AttributeError,
                AnalysisError):
            return None

    def _payload_text(self, entry: str) -> Optional[str]:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE entry = ?",
                (entry,)).fetchone()
        return row[0] if row is not None else None

    # -- RunConfig-keyed interface ------------------------------------------

    def get_config(self, config):
        """Cached result for a RunConfig, or ``None`` on miss."""
        result = self._decode(self._payload_text(
            self._entry_for_config(config)))
        telemetry.count("repro_exec_cache_lookups_total",
                        result="hit" if result is not None else "miss")
        return result

    def get_configs(self, configs: Iterable[Any]) -> List[Any]:
        """Batched :meth:`get_config` (one ``IN`` query per 400 configs).

        Returns results aligned with ``configs`` (``None`` per miss) —
        what :func:`repro.campaigns.results.collect_results` uses
        instead of one round trip per config.
        """
        configs = list(configs)
        entries = [self._entry_for_config(c) for c in configs]
        payloads: Dict[str, str] = {}
        with self._lock:
            for i in range(0, len(entries), 400):
                chunk = entries[i:i + 400]
                marks = ",".join("?" * len(chunk))
                rows = self._conn.execute(
                    f"SELECT entry, payload FROM results "
                    f"WHERE entry IN ({marks})", chunk).fetchall()
                payloads.update(rows)
        results = [self._decode(payloads.get(entry)) for entry in entries]
        rt = telemetry.active()
        if rt is not None:
            hits = sum(1 for r in results if r is not None)
            if hits:
                rt.count("repro_exec_cache_lookups_total", hits,
                         result="hit")
            if len(results) - hits:
                rt.count("repro_exec_cache_lookups_total",
                         len(results) - hits, result="miss")
        return results

    def put_config(self, result, config) -> str:
        """Store a result under the config's canonical key."""
        params = config.canonical_dict()["params"]
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "params": params,
            "result": result.to_dict(),
        }
        entry = self._entry_for_config(config)
        self._write_row(
            entry=entry, experiment=config.experiment_id,
            fidelity=config.fidelity, config_key=config.key(),
            engine=self._engine_of(params), kind="canonical", stale=0,
            params_text=_canonical_json(params),
            payload_text=json.dumps(payload))
        telemetry.count("repro_exec_cache_writes_total")
        return entry

    def _write_row(self, *, entry: str, experiment: str, fidelity: str,
                   config_key: Optional[str], engine: Optional[str],
                   kind: str, stale: int, params_text: str,
                   payload_text: str) -> None:
        # INSERT OR REPLACE in autocommit mode: one atomic statement,
        # last full write wins.
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO results "
                "(entry, experiment, fidelity, config_key, engine, kind, "
                " stale, params, payload, updated_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (entry, experiment, fidelity, config_key, engine, kind,
                 stale, params_text, payload_text, time.time()))

    @staticmethod
    def _engine_of(params: Dict[str, Any]) -> Optional[str]:
        engine = params.get("engine")
        return engine if isinstance(engine, str) else None

    def clear(self) -> int:
        """Delete every result row; returns the number removed."""
        with self._lock:
            return self._conn.execute("DELETE FROM results").rowcount

    # -- import of the former one-file-per-entry layout ---------------------

    def import_flat_cache(self, source: PathLike) -> Dict[str, Any]:
        """Ingest a flat-JSON cache directory, byte-identically.

        Older builds wrote one ``<experiment>/<fidelity>-<key>.json``
        file per entry; the row key is that relative path, so a current
        canonical (``rc``-keyed) entry hits exactly as it did on disk.
        The file text is stored verbatim (no re-encoding).  Entries
        whose recomputed current-version key no longer matches their
        file name (older package version, drifted schema) are kept but
        marked ``stale``; pre-RunConfig kwargs-keyed files are kept as
        ``kind='legacy'`` rows.  No probe hits either, and :meth:`gc`
        reclaims both.  Unreadable or wrong-shape files are skipped,
        never raised.
        """
        source = Path(source)
        summary = {"scanned": 0, "migrated": 0, "legacy": 0,
                   "stale": 0, "skipped": 0}
        with telemetry.span("store.migrate", source=str(source)):
            with self._lock:
                self._conn.execute("BEGIN")
                try:
                    for path in sorted(source.glob("*/*.json")):
                        summary["scanned"] += 1
                        if self._import_one(source, path, summary):
                            summary["migrated"] += 1
                        else:
                            summary["skipped"] += 1
                    self._conn.execute("COMMIT")
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise
        rt = telemetry.active()
        if rt is not None and summary["migrated"]:
            rt.count("repro_store_migrated_total", summary["migrated"])
        return summary

    def _import_one(self, source: Path, path: Path,
                    summary: Dict[str, Any]) -> bool:
        try:
            text = path.read_text()
            payload = json.loads(text)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return False
        if not isinstance(payload, dict) \
                or payload.get("schema") != CACHE_SCHEMA_VERSION \
                or not isinstance(payload.get("result"), dict) \
                or not isinstance(payload.get("params"), dict):
            return False
        entry = path.relative_to(source).as_posix()
        experiment = path.parent.name
        fidelity = path.stem.partition("-")[0]
        params = payload["params"]
        canonical = path.stem.partition("-")[2].startswith("rc")
        config_key = engine = None
        stale = 0
        if canonical:
            config = self._rebuild_config(experiment, fidelity, params)
            if config is not None:
                config_key = config.key()
                engine = self._engine_of(params)
                if self._entry_for_config(config) != entry:
                    stale = 1  # written by another package version
            else:
                stale = 1      # params no longer validate (schema drift)
        summary["stale"] += stale
        if not canonical:
            summary["legacy"] += 1
        self._write_row(
            entry=entry, experiment=experiment, fidelity=fidelity,
            config_key=config_key, engine=engine,
            kind="canonical" if canonical else "legacy", stale=stale,
            params_text=_canonical_json(params), payload_text=text)
        return True

    @staticmethod
    def _rebuild_config(experiment: str, fidelity: str,
                        params: Dict[str, Any]):
        from ..experiments.spec import RunConfig

        try:
            return RunConfig.build(experiment, fidelity, params)
        except AnalysisError:
            return None

    # -- performance history (repro.perf) -----------------------------------

    def record_perf_run(self, doc: Dict[str, Any]) -> int:
        """Persist one :mod:`repro.perf` run document; returns its id.

        One transaction: the ``perf_runs`` header plus every
        per-repeat sample — a run is either fully recorded or absent.
        """
        with telemetry.span("store.perf_record"):
            with self._lock:
                self._conn.execute("BEGIN")
                try:
                    cursor = self._conn.execute(
                        "INSERT INTO perf_runs"
                        "(created_at, quick, baseline, fingerprint) "
                        "VALUES (?, ?, 0, ?)",
                        (float(doc.get("created_at", time.time())),
                         1 if doc.get("quick") else 0,
                         _canonical_json(doc.get("fingerprint", {}))))
                    run_id = cursor.lastrowid
                    for bench in doc.get("benchmarks", []):
                        for repeat, value in enumerate(bench["samples"]):
                            self._conn.execute(
                                "INSERT INTO perf_samples"
                                "(run_id, benchmark, metric, unit, "
                                " lower_is_better, kind, noise, repeat, "
                                " value) "
                                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                                (run_id, bench["benchmark"],
                                 bench["metric"], bench.get("unit"),
                                 1 if bench.get("lower_is_better", True)
                                 else 0,
                                 bench.get("kind", "workload"),
                                 bench.get("noise"), repeat,
                                 float(value)))
                    self._conn.execute("COMMIT")
                except BaseException:
                    self._conn.execute("ROLLBACK")
                    raise
        telemetry.count("repro_store_perf_writes_total")
        return int(run_id)

    def _perf_header(self, row) -> Dict[str, Any]:
        run_id, created_at, quick, baseline, fingerprint = row
        try:
            stamp = json.loads(fingerprint)
        except (json.JSONDecodeError, TypeError):
            stamp = {}
        return {"run_id": int(run_id), "created_at": float(created_at),
                "quick": bool(quick), "baseline": bool(baseline),
                "fingerprint": stamp}

    _PERF_RUN_COLS = "run_id, created_at, quick, baseline, fingerprint"

    def perf_run(self, run_id: Optional[int] = None
                 ) -> Optional[Dict[str, Any]]:
        """One stored run as a runner-shaped document (latest when
        ``run_id`` is ``None``); ``None`` if absent."""
        with self._lock:
            if run_id is None:
                row = self._conn.execute(
                    f"SELECT {self._PERF_RUN_COLS} FROM perf_runs "
                    "ORDER BY run_id DESC LIMIT 1").fetchone()
            else:
                row = self._conn.execute(
                    f"SELECT {self._PERF_RUN_COLS} FROM perf_runs "
                    "WHERE run_id = ?", (int(run_id),)).fetchone()
            if row is None:
                return None
            samples = self._conn.execute(
                "SELECT benchmark, metric, unit, lower_is_better, kind, "
                "noise, value FROM perf_samples WHERE run_id = ? "
                "ORDER BY rowid", (row[0],)).fetchall()
        doc = self._perf_header(row)
        benchmarks: Dict[str, Dict[str, Any]] = {}
        for name, metric, unit, lower, kind, noise, value in samples:
            slot = benchmarks.setdefault(name, {
                "benchmark": name, "kind": kind, "metric": metric,
                "unit": unit, "lower_is_better": bool(lower),
                "noise": noise, "samples": []})
            slot["samples"].append(float(value))
        for slot in benchmarks.values():
            pick = min if slot["lower_is_better"] else max
            slot["value"] = pick(slot["samples"])
        doc["benchmarks"] = list(benchmarks.values())
        return doc

    def perf_runs(self, *, limit: Optional[int] = None
                  ) -> List[Dict[str, Any]]:
        """Run headers, newest first, with per-run benchmark counts."""
        sql = (f"SELECT {self._PERF_RUN_COLS}, "
               "(SELECT COUNT(DISTINCT benchmark) FROM perf_samples s "
               " WHERE s.run_id = perf_runs.run_id) "
               "FROM perf_runs ORDER BY run_id DESC")
        args: Tuple[Any, ...] = ()
        if limit is not None:
            sql += " LIMIT ?"
            args = (int(limit),)
        with self._lock:
            rows = self._conn.execute(sql, args).fetchall()
        headers = []
        for row in rows:
            header = self._perf_header(row[:5])
            header["benchmarks"] = int(row[5])
            headers.append(header)
        return headers

    def previous_perf_run(self, run_id: int) -> Optional[Dict[str, Any]]:
        """The newest run older than ``run_id`` (compare's default)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT run_id FROM perf_runs WHERE run_id < ? "
                "ORDER BY run_id DESC LIMIT 1", (int(run_id),)).fetchone()
        return self.perf_run(int(row[0])) if row is not None else None

    def set_perf_baseline(self, run_id: int) -> None:
        """Flag exactly one stored run as the gate baseline."""
        with self._lock:
            exists = self._conn.execute(
                "SELECT 1 FROM perf_runs WHERE run_id = ?",
                (int(run_id),)).fetchone()
            if exists is None:
                raise AnalysisError(
                    f"no stored perf run {run_id} to flag as baseline")
            self._conn.execute("BEGIN")
            try:
                self._conn.execute("UPDATE perf_runs SET baseline = 0")
                self._conn.execute(
                    "UPDATE perf_runs SET baseline = 1 WHERE run_id = ?",
                    (int(run_id),))
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def perf_baseline_run(self) -> Optional[Dict[str, Any]]:
        """The run flagged by :meth:`set_perf_baseline`, if any."""
        with self._lock:
            row = self._conn.execute(
                "SELECT run_id FROM perf_runs WHERE baseline = 1 "
                "ORDER BY run_id DESC LIMIT 1").fetchone()
        return self.perf_run(int(row[0])) if row is not None else None

    def perf_history(self, benchmark: Optional[str] = None, *,
                     limit: int = 60) -> Dict[str, List[Dict[str, Any]]]:
        """Per-benchmark tracked-value series, oldest-to-newest.

        ``{benchmark: [{"run_id", "created_at", "quick", "value",
        "unit", "lower_is_better"}, ...]}`` — the last ``limit`` runs
        per benchmark, the ``/perf`` sparkline feed.
        """
        sql = ("SELECT s.benchmark, s.run_id, r.created_at, r.quick, "
               "s.unit, s.lower_is_better, MIN(s.value), MAX(s.value) "
               "FROM perf_samples s "
               "JOIN perf_runs r ON r.run_id = s.run_id")
        args: Tuple[Any, ...] = ()
        if benchmark is not None:
            sql += " WHERE s.benchmark = ?"
            args = (benchmark,)
        sql += " GROUP BY s.benchmark, s.run_id ORDER BY s.benchmark, s.run_id"
        with self._lock:
            rows = self._conn.execute(sql, args).fetchall()
        history: Dict[str, List[Dict[str, Any]]] = {}
        for name, run_id, created_at, quick, unit, lower, vmin, vmax in rows:
            history.setdefault(name, []).append({
                "run_id": int(run_id),
                "created_at": float(created_at),
                "quick": bool(quick),
                "unit": unit,
                "lower_is_better": bool(lower),
                "value": float(vmin if lower else vmax),
            })
        if limit is not None:
            history = {name: points[-int(limit):]
                       for name, points in history.items()}
        return history

    # -- maintenance --------------------------------------------------------

    def gc(self, *, dry_run: bool = False,
           older_than_days: Optional[float] = None) -> Dict[str, Any]:
        """Reclaim rows no current-version probe can ever hit.

        Deletes ``stale`` rows (entries whose version-folded key no
        longer matches their content — old package versions, drifted
        schemas) and every ``kind='legacy'`` row (the pre-RunConfig
        kwargs-keyed generation, imported or written by older builds).
        ``dry_run`` reports without deleting.  The database is
        compacted (``VACUUM``) after a real collection.

        ``older_than_days`` turns collection into an age-based
        retention policy: result rows only qualify when *also* older
        than the cutoff, and perf runs (with their samples) older than
        the cutoff are reclaimed too — except the flagged baseline
        run, which is history worth keeping at any age.
        """
        cutoff = (time.time() - float(older_than_days) * 86400.0
                  if older_than_days is not None else None)
        predicate = "(stale != 0 OR kind = 'legacy')"
        args: Tuple[Any, ...] = ()
        if cutoff is not None:
            predicate += " AND updated_at < ?"
            args = (cutoff,)
        perf_doomed = 0
        with telemetry.span("store.gc", dry_run=dry_run):
            with self._lock:
                doomed = self._conn.execute(
                    f"SELECT COUNT(*) FROM results WHERE {predicate}",
                    args).fetchone()[0]
                if cutoff is not None:
                    perf_doomed = self._conn.execute(
                        "SELECT COUNT(*) FROM perf_runs "
                        "WHERE baseline = 0 AND created_at < ?",
                        (cutoff,)).fetchone()[0]
                if not dry_run and (doomed or perf_doomed):
                    if doomed:
                        self._conn.execute(
                            f"DELETE FROM results WHERE {predicate}",
                            args)
                    if perf_doomed:
                        self._conn.execute(
                            "DELETE FROM perf_samples WHERE run_id IN "
                            "(SELECT run_id FROM perf_runs "
                            " WHERE baseline = 0 AND created_at < ?)",
                            (cutoff,))
                        self._conn.execute(
                            "DELETE FROM perf_runs "
                            "WHERE baseline = 0 AND created_at < ?",
                            (cutoff,))
                    self._conn.execute("VACUUM")
        if not dry_run:
            if doomed:
                telemetry.count("repro_store_gc_deleted_total", doomed)
            if perf_doomed:
                telemetry.count("repro_store_gc_perf_runs_deleted_total",
                                perf_doomed)
        return {"candidates": int(doomed),
                "deleted": 0 if dry_run else int(doomed),
                "perf_candidates": int(perf_doomed),
                "perf_deleted": 0 if dry_run else int(perf_doomed),
                "dry_run": dry_run}

    def counts(self) -> Dict[str, Any]:
        """Row totals (overall / per experiment / per kind)."""
        with self._lock:
            total = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0]
            by_experiment = dict(self._conn.execute(
                "SELECT experiment, COUNT(*) FROM results "
                "GROUP BY experiment ORDER BY experiment").fetchall())
            by_kind = dict(self._conn.execute(
                "SELECT kind, COUNT(*) FROM results GROUP BY kind"
            ).fetchall())
            stale = self._conn.execute(
                "SELECT COUNT(*) FROM results WHERE stale != 0"
            ).fetchone()[0]
        return {"total": int(total), "by_experiment": by_experiment,
                "by_kind": by_kind, "stale": int(stale)}

    def ensure_param_index(self, param: str) -> bool:
        """Expression index over one params field (idempotent).

        Created lazily by the query layer per filtered parameter, so
        axis filters (``where("vdd", "<", 0.7)``) run off an index
        instead of extracting JSON per row.  Returns ``False`` when the
        sqlite build lacks JSON1 (queries then filter in Python).
        """
        if not _PARAM_RE.match(param):
            raise AnalysisError(
                f"invalid parameter name {param!r} for an index")
        if not self.has_json1:
            return False
        with self._lock:
            self._conn.execute(
                f"CREATE INDEX IF NOT EXISTS idx_param_{param} "
                f"ON results(json_extract(params, '$.{param}'))")
        return True

    # -- raw row access (query layer) ---------------------------------------

    def select_rows(self, where_sql: str, args: Tuple[Any, ...]
                    ) -> List[Tuple[str, str, str, str, str]]:
        """``(entry, experiment, fidelity, params, payload)`` rows
        matching a prepared WHERE clause (query-layer plumbing)."""
        sql = ("SELECT entry, experiment, fidelity, params, payload "
               "FROM results")
        if where_sql:
            sql += f" WHERE {where_sql}"
        sql += " ORDER BY entry"
        with self._lock:
            return self._conn.execute(sql, args).fetchall()


def _canonical_json(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
