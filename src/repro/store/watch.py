"""Live campaign status: poll the store, report progress and ETA.

``python -m repro campaign watch SPEC.json`` sits in a loop over the
campaign's ground truth (result-cache probes via
:func:`~repro.campaigns.runner.campaign_status`) plus the advisory
shard manifests, printing one status line per poll::

    [watch montecarlo-yield] 4/6 done (66.7%) | shard 1/2: 2/3 |
        shard 2/2: 2/3 | eta ~3.1s

The ETA comes from the manifests' per-config timings
(:func:`~repro.campaigns.runner.shard_timings`): mean seconds per
fresh execution, scaled by the remaining misses and divided across the
shards still running.  It is advisory, exactly like the manifests it
is derived from — the loop's stop condition (``missing == 0``) reads
only the store.

Declared alert rules (the spec's ``"alerts"`` list) are evaluated on
every poll through the same engine the dashboard uses
(:mod:`repro.store.dashboard`); newly-fired alerts print inline, so an
overnight ``watch`` in a terminal doubles as a threshold monitor.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional

from .. import telemetry
from ..campaigns.runner import campaign_status
from ..campaigns.spec import CampaignSpec


def status_with_eta(spec: CampaignSpec, cache) -> Dict[str, Any]:
    """One watch poll: the status document plus an ``eta`` section.

    ``cache`` is the campaign's :class:`~repro.exec.cache.ResultCache`.
    The shard breakdown follows the widest partition any manifest
    recorded (a 2-shard run reports 2 buckets even when watched from a
    third machine); with no manifests it is 1.
    """
    n_shards = 1
    probe = campaign_status(spec, cache, n_shards=1, with_telemetry=True)
    for doc in probe["manifests"]:
        shard = doc.get("shard")
        if isinstance(shard, (list, tuple)) and len(shard) == 2 \
                and isinstance(shard[1], int) and shard[1] > n_shards:
            n_shards = shard[1]
    status = probe if n_shards == 1 else campaign_status(
        spec, cache, n_shards=n_shards, with_telemetry=True)
    status["eta"] = _eta(status)
    return status


def _eta(status: Dict[str, Any]) -> Dict[str, Any]:
    timings: List[Dict[str, Any]] = status.get("telemetry", [])
    fresh = sum(t.get("fresh", 0) for t in timings)
    fresh_seconds = sum(float(t.get("fresh_seconds", 0.0))
                        for t in timings)
    running = sum(1 for t in timings if t.get("status") == "running")
    missing = status["missing"]
    mean = fresh_seconds / fresh if fresh else None
    eta_seconds: Optional[float] = None
    if missing == 0:
        eta_seconds = 0.0
    elif mean is not None:
        # Remaining misses split over the shards still executing; a
        # finished (or never-started) campaign has no running shard,
        # in which case assume one resumes.
        eta_seconds = round(missing * mean / max(running, 1), 3)
    return {
        "fresh": fresh,
        "mean_seconds_per_fresh": round(mean, 6) if mean else None,
        "running_shards": running,
        "eta_seconds": eta_seconds,
    }


def format_watch_line(status: Dict[str, Any]) -> str:
    """The one-line terminal rendering of a watch poll."""
    total = status["total"] or 1
    parts = [f"[watch {status['campaign']}] {status['done']}/"
             f"{status['total']} done "
             f"({100.0 * status['done'] / total:.1f}%)"]
    for bucket in status["shards"]:
        if len(status["shards"]) > 1:
            parts.append(f"shard {bucket['shard']}: "
                         f"{bucket['done']}/{bucket['total']}")
    eta = status.get("eta", {}).get("eta_seconds")
    if status["missing"] == 0:
        parts.append("complete")
    elif eta is not None:
        parts.append(f"eta ~{eta:.1f}s")
    return " | ".join(parts)


def watch(spec: CampaignSpec, cache, *, interval: float = 2.0,
          max_polls: Optional[int] = None, stream=None,
          until_complete: bool = True) -> Dict[str, Any]:
    """Poll until the campaign completes (or ``max_polls`` is spent).

    Prints one :func:`format_watch_line` per poll to ``stream``
    (default stderr) and, when the spec declares alert rules, any
    newly-fired alerts.  Returns the final status document (with
    ``eta`` and, when rules exist, ``alerts``).
    """
    from .dashboard import AlertEngine

    if interval < 0:
        interval = 0.0
    out = stream if stream is not None else sys.stderr
    # hooks=[]: watch prints its own ALERT lines below (webhooks on
    # the rules still deliver through the engine).
    engine = AlertEngine(spec, cache, hooks=[]) if spec.alerts else None
    polls = 0
    while True:
        status = status_with_eta(spec, cache)
        telemetry.count("repro_store_watch_polls_total")
        polls += 1
        print(format_watch_line(status), file=out)
        if engine is not None:
            outcome = engine.poll()
            status["alerts"] = outcome["alerts"]
            for alert in outcome["fired"]:
                print(f"  ALERT {alert['metric']} {alert['direction']} "
                      f"{alert['threshold']:g}: {alert['value']:g} "
                      f"({alert['label']})", file=out)
        done = until_complete and status["missing"] == 0
        exhausted = max_polls is not None and polls >= max_polls
        if done or exhausted:
            return status
        time.sleep(interval)
