"""Sharded, resumable campaign execution over the result cache.

Execution model
---------------
:meth:`CampaignSpec.expand` yields a deterministic ordered config list;
every config is assigned to a shard by its canonical content hash
(:func:`shard_index` — ``int(config.key(), 16) % n_shards``), so ``N``
independent processes (or machines) each launched with a distinct
``--shard i/N`` cover the set exactly once, with no coordinator and no
shared state beyond the result cache.

Resumability is the cache itself: every finished config is persisted by
:func:`repro.experiments.registry.run_config` under its canonical
:class:`~repro.experiments.spec.RunConfig` key, so re-running a killed
campaign re-executes only the misses — a guarantee the test suite pins.
Corrupt or truncated cache entries read as misses (see
:meth:`repro.exec.cache.ResultCache.get_config`) and are overwritten by
the re-run.

Each runner additionally journals progress to a per-shard manifest
(``<cache root>/campaigns/<name>/shard-<i>of<n>.json`` header plus an
append-only ``.log`` line per config) — purely observability
(``campaign status`` reads it for last-activity reporting);
correctness never depends on it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..circuit.exceptions import AnalysisError
from ..exec.cache import ResultCache
from ..experiments.registry import run_config
from ..experiments.spec import RunConfig
from .spec import CampaignSpec


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a CLI ``I/N`` shard spelling into 1-based ``(index, count)``.

    >>> parse_shard("2/4")
    (2, 4)
    """
    head, sep, tail = text.partition("/")
    try:
        index, count = int(head), int(tail)
    except ValueError:
        index = count = 0
    if not sep or index < 1 or count < 1 or index > count:
        raise AnalysisError(
            f"invalid shard {text!r}: expected I/N with 1 <= I <= N "
            "(e.g. --shard 2/4)")
    return index, count


def shard_index(config: RunConfig, n_shards: int) -> int:
    """Deterministic 0-based shard for a config (content-hash keyed).

    Depends only on the config's canonical encoding — every process
    computes the same partition without coordination, and adding
    configs to a campaign never moves existing ones between shards of
    the same ``n_shards``.
    """
    if n_shards < 1:
        raise AnalysisError(f"shard count must be >= 1, got {n_shards}")
    return int(config.key(), 16) % n_shards


@dataclass(frozen=True)
class PlanEntry:
    """One expanded config with its campaign position and shard."""

    position: int      #: 0-based index in the expansion order
    config: RunConfig
    shard: int         #: 0-based assigned shard
    cached: bool       #: True if the cache already holds the result


@dataclass(frozen=True)
class RunSummary:
    """What one :meth:`CampaignRunner.run` call did."""

    campaign: str
    shard: Tuple[int, int]   #: 1-based (index, count)
    total: int               #: configs in the whole campaign
    in_shard: int            #: configs assigned to this shard
    executed: int            #: freshly run this call
    skipped: int             #: already in the cache (resume hits)
    #: Aggregated per-run telemetry profiles (None with telemetry off).
    telemetry: Optional[Dict[str, Any]] = None


class CampaignRunner:
    """Execute one campaign shard through the experiment engine.

    ``shard`` is the CLI-facing 1-based ``(index, count)`` pair;
    ``(1, 1)`` (the default) runs the whole campaign.  Each config runs
    in-process through :func:`run_config`; shards are the way to
    parallelise a campaign — launch ``N`` processes with distinct
    ``--shard i/N``.
    """

    def __init__(self, spec: CampaignSpec, cache: ResultCache, *,
                 shard: Tuple[int, int] = (1, 1)):
        index, count = shard
        if not (1 <= index <= count):
            raise AnalysisError(
                f"invalid shard {index}/{count}: need 1 <= index <= count")
        self.spec = spec
        self.cache = cache
        self.shard = (index, count)
        self.configs = spec.expand()

    # -- planning -----------------------------------------------------------

    def _assignments(self) -> List[Tuple[int, RunConfig, int]]:
        """(position, config, shard) for the whole campaign — no I/O."""
        _, count = self.shard
        return [(i, config, shard_index(config, count))
                for i, config in enumerate(self.configs)]

    def shard_entries(self) -> List[PlanEntry]:
        """This runner's slice of the campaign, in expansion order.

        Only this shard's configs are probed against the cache — N
        shard processes together do one probe per config, not N.
        """
        mine = self.shard[0] - 1
        return [PlanEntry(position=i, config=config, shard=shard,
                          cached=self.cache.get_config(config) is not None)
                for i, config, shard in self._assignments()
                if shard == mine]

    # -- execution ----------------------------------------------------------

    def run(self, progress: Optional[Callable[[PlanEntry, bool], None]]
            = None) -> RunSummary:
        """Run this shard's cache misses; returns what happened.

        ``progress`` (if given) is called after each config with the
        entry and whether it was freshly executed (``True``) or
        resumed from the cache (``False``).
        """
        rt = telemetry.active()
        entries = self.shard_entries()
        executed = skipped = 0
        profiles: List[Dict[str, Any]] = []
        manifest = _ShardManifest(self.spec, self.cache.root, self.shard,
                                  total=len(self.configs),
                                  in_shard=len(entries))
        for entry in entries:
            fresh = not entry.cached
            t0 = time.perf_counter()
            if fresh:
                result = run_config(entry.config, cache=self.cache)
                executed += 1
                profile = getattr(result, "profile", None)
                if profile is not None:
                    profiles.append(profile)
            else:
                skipped += 1
            seconds = time.perf_counter() - t0
            if rt is not None:
                rt.count("repro_campaign_configs_total",
                         result="fresh" if fresh else "cached")
            manifest.record(entry, fresh, seconds)
            if progress is not None:
                progress(entry, fresh)
        manifest.finish()
        aggregated = None
        if rt is not None:
            from ..telemetry.profile import aggregate_profiles

            aggregated = aggregate_profiles(profiles)
        return RunSummary(campaign=self.spec.name, shard=self.shard,
                          total=len(self.configs), in_shard=len(entries),
                          executed=executed, skipped=skipped,
                          telemetry=aggregated)


class _ShardManifest:
    """Progress journal for one shard: small header + append-only log.

    The header (``shard-<i>of<n>.json``, written atomically at start
    and finish) carries the identity/status fields; per-config progress
    appends one JSONL line to ``shard-<i>of<n>.log`` — O(1) bytes per
    config, where rewriting a growing ``completed`` map per config
    would cost O(n^2) over a shard.  One file pair per ``(index,
    count)`` means concurrent shard processes never contend; a torn
    trailing log line (killed mid-append) is skipped by the reader.
    """

    def __init__(self, spec: CampaignSpec, cache_root: Path,
                 shard: Tuple[int, int], *, total: int, in_shard: int):
        index, count = shard
        directory = Path(cache_root) / "campaigns" / spec.name
        stem = f"shard-{index}of{count}"
        self.path = directory / f"{stem}.json"
        self.log_path = directory / f"{stem}.log"
        self.doc: Dict[str, Any] = {
            "campaign": spec.name,
            "spec_key": spec.key(),
            "experiment": spec.experiment_id,
            "fidelity": spec.fidelity,
            "shard": [index, count],
            "total_configs": total,
            "shard_configs": in_shard,
            "status": "running",
            "started_at": time.time(),
            "updated_at": time.time(),
        }
        self._write_header()
        # A fresh run owns the journal: truncate any previous attempt
        # (its information lives on in the cache entries themselves).
        self.log_path.write_text("")

    def record(self, entry: PlanEntry, fresh: bool,
               seconds: float = 0.0) -> None:
        line = json.dumps({"key": entry.config.key(),
                           "position": entry.position,
                           "fresh": fresh,
                           "seconds": round(seconds, 6)})
        with self.log_path.open("a") as handle:
            handle.write(line + "\n")

    def finish(self) -> None:
        self.doc["status"] = "complete"
        self._write_header()

    def _write_header(self) -> None:
        self.doc["updated_at"] = time.time()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.doc))
        os.replace(tmp, self.path)


def read_manifests(spec: CampaignSpec,
                   cache_root: Path) -> List[Dict[str, Any]]:
    """Every readable shard manifest for a campaign (advisory data).

    Each returned document is the shard header with ``completed``
    rebuilt from its journal; unparseable journal lines (torn tails)
    are skipped.
    """
    directory = Path(cache_root) / "campaigns" / spec.name
    manifests = []
    if not directory.is_dir():
        return manifests
    for path in sorted(directory.glob("shard-*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            continue  # a torn write is as good as no manifest
        if not isinstance(doc, dict):
            continue
        completed: Dict[str, Any] = {}
        log_path = path.with_suffix(".log")
        try:
            # A torn tail may cut a line mid-UTF-8-sequence; decode
            # with replacement so the intact lines before it survive
            # (the mangled one then fails JSON parsing and is skipped).
            lines = log_path.read_bytes().decode(
                "utf-8", errors="replace").splitlines()
        except OSError:
            lines = []
        for line in lines:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "key" in record:
                completed[record["key"]] = {
                    "position": record.get("position"),
                    "fresh": record.get("fresh"),
                    "seconds": record.get("seconds", 0.0),
                }
        doc["completed"] = completed
        manifests.append(doc)
    return manifests


#: Most missing-config labels carried in a status document — a 50k-run
#: campaign at 10% done must not serialise 45k labels to say so.
MISSING_LABEL_CAP = 20


def shard_timings(spec: CampaignSpec,
                  cache_root: Path) -> List[Dict[str, Any]]:
    """Per-shard wall-time summary from the manifest journals.

    Advisory (journals are observability, not ground truth): for each
    readable shard manifest, sums the per-config ``seconds`` recorded
    by :meth:`_ShardManifest.record`, split into fresh executions and
    cache resumes — the ``campaign status --telemetry`` payload.
    """
    timings = []
    for doc in read_manifests(spec, cache_root):
        completed = doc.get("completed", {})
        fresh = [c for c in completed.values() if c.get("fresh")]
        cached = [c for c in completed.values() if not c.get("fresh")]
        fresh_seconds = sum(float(c.get("seconds") or 0.0)
                            for c in fresh)
        timings.append({
            "shard": doc.get("shard"),
            "status": doc.get("status"),
            "configs": len(completed),
            "fresh": len(fresh),
            "cached": len(cached),
            "fresh_seconds": round(fresh_seconds, 6),
            "mean_seconds_per_fresh": round(
                fresh_seconds / len(fresh), 6) if fresh else 0.0,
            "wall_seconds": round(
                float(doc.get("updated_at", 0.0))
                - float(doc.get("started_at", 0.0)), 3),
        })
    return timings


def campaign_status(spec: CampaignSpec, cache: ResultCache, *,
                    n_shards: int = 1,
                    with_telemetry: bool = False) -> Dict[str, Any]:
    """Ground-truth campaign progress (cache probes, not manifests).

    ``n_shards`` picks the partition to break the counts down by — the
    same configs are reported however the campaign is being sharded.
    ``missing_labels`` carries at most :data:`MISSING_LABEL_CAP`
    entries (``missing`` is always the full count), and each manifest
    is summarised with ``completed_count`` instead of its full journal.
    ``with_telemetry`` adds the :func:`shard_timings` summary under a
    ``"telemetry"`` key (``campaign status --telemetry``).
    """
    configs = spec.expand()
    per_shard = [{"shard": f"{i + 1}/{n_shards}", "total": 0, "done": 0}
                 for i in range(n_shards)]
    done = 0
    missing: List[str] = []
    for config in configs:
        bucket = per_shard[shard_index(config, n_shards)]
        bucket["total"] += 1
        if cache.get_config(config) is not None:
            bucket["done"] += 1
            done += 1
        elif len(missing) < MISSING_LABEL_CAP:
            missing.append(config.label())
    manifests = []
    for doc in read_manifests(spec, cache.root):
        summary = {k: v for k, v in doc.items() if k != "completed"}
        summary["completed_count"] = len(doc.get("completed", {}))
        manifests.append(summary)
    stale = [doc for doc in manifests
             if doc.get("spec_key") not in (None, spec.key())]
    doc: Dict[str, Any] = {
        "campaign": spec.name,
        "experiment": spec.experiment_id,
        "fidelity": spec.fidelity,
        "spec_key": spec.key(),
        "total": len(configs),
        "done": done,
        "missing": len(configs) - done,
        "missing_labels": missing,
        "missing_labels_truncated": (len(configs) - done) > len(missing),
        "shards": per_shard,
        "manifests": manifests,
        "stale_manifests": len(stale),
    }
    if with_telemetry:
        doc["telemetry"] = shard_timings(spec, cache.root)
    return doc
