"""Queries, live watch and dashboard over the SQLite result cache.

Every result lives in one :class:`~repro.exec.cache.ResultCache`
(``<cache-root>/store.sqlite``); this package is the analysis and
observability layer on top of it:

* :mod:`repro.store.query` — :class:`StoreQuery`, typed filters over
  the JSON1 ``params`` column, axis marginalisation and tidy export
  feeding :mod:`repro.reporting`;
* :mod:`repro.store.watch` — ``repro campaign watch``: live progress
  lines with per-shard ETA from the manifests;
* :mod:`repro.store.dashboard` — :class:`CampaignDashboard`, an HTTP
  dashboard (JSON endpoints) and the edge-triggered
  :class:`AlertEngine` for declarative threshold rules.

CLI surfaces: ``campaign watch``, ``campaign dashboard`` and
``store migrate | query | gc``.
"""

from .dashboard import (
    AlertEngine,
    CampaignDashboard,
    evaluate_alerts,
    log_hook,
)
from .query import OPS, StoreQuery, StoreRow
from .watch import format_watch_line, status_with_eta, watch

__all__ = [
    "StoreQuery", "StoreRow", "OPS",
    "AlertEngine", "CampaignDashboard", "evaluate_alerts", "log_hook",
    "format_watch_line", "status_with_eta", "watch",
]
