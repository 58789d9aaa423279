"""Campaign orchestration: declarative multi-config sweeps.

A campaign turns one registered experiment into a *population* of runs:

* :mod:`repro.campaigns.spec` — :class:`CampaignSpec`, a declarative
  JSON spec whose grid/range/sample/zip axes expand into a
  deterministic, ordered list of canonical
  :class:`~repro.experiments.spec.RunConfig` objects;
* :mod:`repro.campaigns.runner` — :class:`CampaignRunner`, sharded
  (``--shard i/N`` partitions by config hash) and resumable (the
  result cache is the checkpoint: re-runs execute only the misses),
  with per-shard progress manifests and :func:`campaign_status`;
* :mod:`repro.campaigns.results` — aggregation of every config's
  metrics into one tidy table/JSON document that feeds
  :mod:`repro.reporting` for cross-config reports.

Surfaces: ``python -m repro campaign run|status|report SPEC.json``,
``campaign dashboard`` to watch one, and the serving API's
``GET /campaigns`` listing.
"""

from .results import (
    collect_results,
    metric_names,
    results_document,
    results_table,
)
from .runner import (
    CampaignRunner,
    PlanEntry,
    RunSummary,
    campaign_status,
    parse_shard,
    read_manifests,
    shard_index,
    shard_timings,
)
from .spec import (
    AlertRule,
    AxisSpec,
    CampaignSpec,
    find_campaigns,
    load_campaign,
)

__all__ = [
    "AlertRule", "AxisSpec", "CampaignSpec", "load_campaign",
    "find_campaigns",
    "CampaignRunner", "PlanEntry", "RunSummary",
    "campaign_status", "parse_shard", "read_manifests", "shard_index",
    "shard_timings",
    "collect_results", "metric_names", "results_document", "results_table",
]
