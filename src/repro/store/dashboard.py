"""Campaign dashboard: JSON endpoints over a live store, plus alerts.

A small read-only HTTP server on the serving plane's asyncio core
(:class:`~repro.serve.aio_server.AsyncHttpServer`: bind at
construction, keep-alive, bounded parsing, read timeouts) that watches
one campaign while its shards run elsewhere.  Store scans run on the
default thread executor, so a slow scan never stalls ``/healthz``.
Only ``GET`` is served; any other method gets a 501 and a close.

``GET /healthz``
    Liveness: ``{"status": "ok", "campaign": <name>}``.
``GET /status``
    The live status document — ground-truth done/missing counts from
    the store, per-shard progress from the manifests, and the watch
    layer's ETA (:func:`repro.store.watch.status_with_eta`).
``GET /alerts``
    Evaluates the spec's declarative threshold rules against every
    finished config and returns ``{"rules", "alerts", "fired"}``;
    newly-breached (rule, config) pairs fire the engine's hooks
    exactly once per server lifetime (log line, optional webhook).
``GET /results``
    The aggregate tidy results document
    (:func:`repro.campaigns.results.results_document`) for everything
    finished so far — no re-running.
``GET /perf``
    Per-benchmark performance history out of the store's
    ``perf_runs``/``perf_samples`` tables (:mod:`repro.perf`), each
    series rendered as a unicode sparkline plus its latest/best
    values.  Serving from a flat cache (no perf tables) returns an
    empty benchmark list with a note instead of an error.
``GET /``
    A minimal HTML index linking the endpoints (auto-refreshing
    status summary; deliberately no JS framework, no assets).

Alert rules come from the campaign spec::

    "alerts": [{"metric": "yield", "below": 0.9},
               {"metric": "accuracy", "below": 0.8,
                "webhook": "http://hooks.internal/campaign"}]

The engine is deliberately *edge-triggered*: an alert fires once per
(rule, config) pair when it first breaches, so a dashboard polled
every second does not re-deliver the same webhook forever.  Hook
failures (unreachable webhook) are counted and logged, never raised —
observability must not take down the campaign it observes.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.request
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .. import telemetry
from ..campaigns.results import collect_results, results_document
from ..campaigns.spec import CampaignSpec
from ..perf.harness import sparkline
from ..serve.aio_server import AsyncHttpServer
from ..serve.server import encode_json
from .watch import status_with_eta

#: An alert hook: called once per newly-fired alert document.
AlertHook = Callable[[Dict[str, Any]], None]


def evaluate_alerts(spec: CampaignSpec,
                    collected) -> List[Dict[str, Any]]:
    """Every (rule, finished config) breach, as plain documents.

    ``collected`` is the :func:`collect_results` row list; configs
    without a stored result are skipped (they cannot breach yet).
    Pure and stateless — the edge-triggering lives in
    :class:`AlertEngine`.
    """
    alerts = []
    for index, rule in enumerate(spec.alerts):
        threshold = rule.below if rule.below is not None else rule.above
        for position, config, result in collected:
            if result is None:
                continue
            value = result.metrics.get(rule.metric)
            direction = rule.breached(value)
            if direction is None:
                continue
            alerts.append({
                "campaign": spec.name,
                "rule_index": index,
                "metric": rule.metric,
                "direction": direction,
                "threshold": rule.below if direction == "below"
                else rule.above,
                "value": float(value),
                "position": position,
                "config_key": config.key(),
                "label": config.label(),
                "webhook": rule.webhook,
            })
    return alerts


def log_hook(stream=None) -> AlertHook:
    """An :data:`AlertHook` printing one line per alert (default
    stderr)."""
    def hook(alert: Dict[str, Any]) -> None:
        out = stream if stream is not None else sys.stderr
        print(f"[alert {alert['campaign']}] {alert['metric']} "
              f"{alert['direction']} {alert['threshold']:g}: "
              f"{alert['value']:g} ({alert['label']})", file=out)
    return hook


class AlertEngine:
    """Edge-triggered evaluation of a spec's alert rules.

    :meth:`poll` re-collects the campaign's finished results, finds
    every breach, and fires hooks (plus each rule's webhook) for the
    (rule, config) pairs not seen before.  Thread-safe: the dashboard
    polls from its executor threads, possibly several at once.
    """

    def __init__(self, spec: CampaignSpec, cache, *,
                 hooks: Optional[List[AlertHook]] = None,
                 webhook_timeout: float = 5.0):
        self.spec = spec
        self.cache = cache
        self.hooks: List[AlertHook] = \
            list(hooks) if hooks is not None else [log_hook()]
        self.webhook_timeout = webhook_timeout
        self._fired: Set[Tuple[int, str]] = set()
        self._lock = threading.Lock()

    def poll(self) -> Dict[str, Any]:
        """Evaluate now; returns ``{"alerts": all, "fired": new}``."""
        collected = collect_results(self.spec, self.cache)
        alerts = evaluate_alerts(self.spec, collected)
        fresh = []
        with self._lock:
            for alert in alerts:
                key = (alert["rule_index"], alert["config_key"])
                if key not in self._fired:
                    self._fired.add(key)
                    fresh.append(alert)
        for alert in fresh:
            telemetry.count("repro_store_alerts_fired_total",
                            metric=alert["metric"])
            for hook in self.hooks:
                self._guarded(hook, alert)
            if alert["webhook"]:
                self._guarded(self._deliver_webhook, alert)
        return {"alerts": alerts, "fired": fresh}

    def _deliver_webhook(self, alert: Dict[str, Any]) -> None:
        body = json.dumps(
            {k: v for k, v in alert.items() if k != "webhook"}
        ).encode("utf-8")
        request = urllib.request.Request(
            alert["webhook"], data=body, method="POST",
            headers={"Content-Type": "application/json"})
        urllib.request.urlopen(request, timeout=self.webhook_timeout)

    def _guarded(self, fn: Callable[[Dict[str, Any]], None],
                 alert: Dict[str, Any]) -> None:
        try:
            fn(alert)
        except Exception as exc:
            telemetry.count("repro_store_alert_hook_errors_total")
            print(f"[alert {self.spec.name}] hook failed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)


_INDEX_HTML = """<!doctype html>
<html><head><meta charset="utf-8">
<meta http-equiv="refresh" content="5">
<title>repro campaign {name}</title></head>
<body style="font-family: monospace; margin: 2em">
<h1>campaign {name}</h1>
<p>{experiment} [{fidelity}] &mdash; {done}/{total} configs done,
{alerts} alert rule(s)</p>
<ul>
<li><a href="/status">/status</a> &mdash; live progress + per-shard ETA</li>
<li><a href="/alerts">/alerts</a> &mdash; threshold rule evaluation</li>
<li><a href="/results">/results</a> &mdash; aggregate tidy results</li>
<li><a href="/perf">/perf</a> &mdash; benchmark history sparklines</li>
<li><a href="/healthz">/healthz</a></li>
</ul>
<p>(auto-refreshes every 5 s)</p>
</body></html>
"""


class CampaignDashboard(AsyncHttpServer):
    """One campaign's live HTTP dashboard over a store (or flat cache).

    Bound at construction (``port=0`` picks a free port, readable from
    :attr:`port` at once); serve with the context manager (tests) or
    :meth:`run` (CLI).
    """

    allowed_methods = ("GET",)

    def __init__(self, spec: CampaignSpec, cache, *,
                 host: str = "127.0.0.1", port: int = 0,
                 hooks: Optional[List[AlertHook]] = None):
        self.spec = spec
        self.cache = cache
        self.alert_engine = AlertEngine(spec, cache, hooks=hooks)
        #: JSON endpoints answered from store scans, off the loop.
        self._scans: Dict[str, Callable[[], Dict[str, Any]]] = {
            "/status": self.status_payload,
            "/alerts": self.alerts_payload,
            "/results": self.results_payload,
            "/perf": self.perf_payload,
        }
        super().__init__(host, port)

    # -- endpoint payloads -------------------------------------------------

    def status_payload(self) -> Dict[str, Any]:
        return status_with_eta(self.spec, self.cache)

    def alerts_payload(self) -> Dict[str, Any]:
        outcome = self.alert_engine.poll()
        return {
            "campaign": self.spec.name,
            "rules": [rule.describe() for rule in self.spec.alerts],
            "alerts": outcome["alerts"],
            "fired": outcome["fired"],
        }

    def results_payload(self) -> Dict[str, Any]:
        return results_document(
            self.spec, collect_results(self.spec, self.cache))

    def perf_payload(self, limit: int = 40) -> Dict[str, Any]:
        history_fn = getattr(self.cache, "perf_history", None)
        if history_fn is None:
            return {"campaign": self.spec.name, "benchmarks": [],
                    "note": "perf history needs the SQLite store "
                            "(campaign dashboard --store)"}
        history = history_fn(limit=limit)
        benchmarks = []
        for name in sorted(history):
            points = history[name]
            values = [p["value"] for p in points]
            lower = points[-1]["lower_is_better"]
            benchmarks.append({
                "benchmark": name,
                "unit": points[-1]["unit"],
                "lower_is_better": lower,
                "runs": len(points),
                "latest": values[-1],
                "best": min(values) if lower else max(values),
                "sparkline": sparkline(values),
                "history": points,
            })
        return {"campaign": self.spec.name, "benchmarks": benchmarks}

    def index_html(self) -> str:
        status = status_with_eta(self.spec, self.cache)
        return _INDEX_HTML.format(
            name=self.spec.name, experiment=self.spec.experiment_id,
            fidelity=self.spec.fidelity, done=status["done"],
            total=status["total"], alerts=len(self.spec.alerts))

    # -- routing -----------------------------------------------------------

    async def _dispatch(self, method: str, target: str,
                        headers: Dict[str, str], body: bytes,
                        conn_span: Optional[int]
                        ) -> Tuple[int, bytes, str]:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if path == "/":
            try:
                html = await self._run_blocking(self.index_html)
            except Exception as exc:
                return 500, _error_body(exc), _JSON
            return 200, html.encode("utf-8"), "text/html; charset=utf-8"
        if path != "/healthz" and path not in self._scans:
            return (404, encode_json({"error": f"unknown endpoint {target}"}),
                    _JSON)
        t0 = time.perf_counter()
        try:
            if path == "/healthz":     # liveness: O(1), on the loop
                payload = {"status": "ok", "campaign": self.spec.name}
            else:
                payload = await self._run_blocking(self._scans[path])
            status, out = 200, encode_json(payload)
        except Exception as exc:
            status, out = 500, _error_body(exc)
        rt = telemetry.active()
        if rt is not None:
            rt.count("repro_dashboard_requests_total", endpoint=path)
            rt.observe("repro_dashboard_latency_seconds",
                       time.perf_counter() - t0, endpoint=path)
        return status, out, _JSON


_JSON = "application/json"


def _error_body(exc: BaseException) -> bytes:
    return encode_json({"error": f"{type(exc).__name__}: {exc}"})
