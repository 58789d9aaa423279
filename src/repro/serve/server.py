"""The serving JSON API for stored models.

JSON API (content type ``application/json`` throughout):

``GET /healthz``
    Liveness: ``{"status": "ok", "models": <count>}``.
``GET /models``
    Artifact metadata from the backing
    :class:`~repro.serve.artifacts.ModelStore`.
``GET /metrics``
    Request / latency / batch-size counters.  Content-negotiated:
    the default is the JSON snapshot; ``Accept: text/plain`` (what
    Prometheus sends) or ``?format=prometheus`` returns the text
    exposition format 0.0.4 rendered from the backing
    :class:`repro.telemetry.metrics.Registry` — including the
    ``repro_predict_latency_seconds`` histogram and, when the process
    runs with telemetry enabled (``REPRO_TELEMETRY=1`` or ``serve
    --telemetry``), every solver-level counter recorded under the
    shared registry.
``POST /predict``
    ``{"model": <name>, "inputs": [[...], ...], "vdd": <optional>,
    "engine": <optional>, "solver": <optional>}`` →
    ``{"model", "predictions", "margins", "count", "engine", "solver"}``.
    ``inputs`` may also be one flat feature row; ``vdd`` a scalar
    supply for the whole request.  ``engine`` picks the analog-margin
    fidelity from the :mod:`repro.engines` registry (default
    ``"behavioral"``, the micro-batched hot path; ``"rc"`` computes
    exact switch-level margins and ``"spice"`` full transistor-level
    shooting-PSS margins, both bypassing the batcher; ids without the
    serving capability are rejected with the registry's help).
    ``solver`` picks the MNA linear backend (``auto``/``dense``/
    ``sparse``) and is only legal with transistor-level engines.
    A transistor-level solve that does not converge answers 422 with
    the solver's message.
``GET /engines``
    The engine registry: ids, titles and capability flags from
    :func:`repro.engines.describe`.
``GET /experiments`` / ``GET /experiments/<id>``
    The self-describing experiment registry: typed parameter schemas
    straight from :func:`repro.experiments.describe`.
``GET /campaigns``
    Campaign specs found in the server's ``--campaign-dir`` (name,
    experiment, fidelity, expanded config count).

The server describes experiments and campaigns but does not run them:
``python -m repro run`` and ``python -m repro campaign run`` do, into
the result cache, and ``campaign dashboard`` watches a campaign.

Each loaded model owns one micro-batcher, so predictions from
concurrent requests against the same model coalesce into single
:class:`~repro.serve.engine.BatchInferenceEngine` calls.

This module holds the HTTP-independent half of the server:
:class:`ServingCore` — model loading, request validation, the
prediction/error response shapes, the describing GET endpoints and
metrics.  :class:`~repro.serve.aio_server.AsyncPerceptronServer` puts
it on the asyncio HTTP core; ``python -m repro serve`` runs that.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import Any, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .. import telemetry
from ..circuit.exceptions import AnalysisError, ConvergenceError
from ..exec.batch import resolve_solver
from ..telemetry.metrics import Registry
from .artifacts import ModelStore, NotFoundError, deserialize_model
from .engine import (
    BatchInferenceEngine,
    check_duty_range,
    model_decision_offset,
    model_n_features,
)
from .scheduler import AsyncMicroBatcher


class ServingMetrics:
    """Thread-safe request/latency counters for ``/metrics``.

    Backed by :class:`repro.telemetry.metrics.Registry` instruments
    that share one re-entrant lock: :meth:`observe` applies its whole
    multi-instrument update inside ``registry.lock`` and
    :meth:`snapshot` reads every instrument under the same lock, so a
    scrape can never see a request whose latency (or error flag) has
    not landed yet — the read-vs-observe race the ad-hoc counters used
    to have.  When the process-wide telemetry runtime is enabled the
    server shares its registry, so one Prometheus scrape also exposes
    the solver-level counters (Newton iterations, backend decisions,
    cache hits, ...) next to the serving metrics.
    """

    def __init__(self, registry: Optional[Registry] = None):
        self.registry = registry if registry is not None else Registry()
        self.started_at = time.time()
        reg = self.registry
        self._requests = reg.counter(
            "repro_requests_total", "HTTP requests served, by endpoint.",
            labelnames=("endpoint",))
        self._errors = reg.counter(
            "repro_errors_total", "Requests answered with status >= 400.")
        self._predictions = reg.counter(
            "repro_predictions_total",
            "Prediction rows returned by /predict.")
        self._latency = reg.histogram(
            "repro_request_latency_seconds",
            "Wall-clock request latency, by endpoint.",
            labelnames=("endpoint",))
        self._predict_latency = reg.histogram(
            "repro_predict_latency_seconds",
            "Wall-clock latency of /predict requests.")
        self._latency_max = reg.gauge(
            "repro_request_latency_seconds_max",
            "Largest single-request latency observed.")
        self._uptime = reg.gauge(
            "repro_uptime_seconds", "Seconds since server start.")
        # Bound once, so observe() validates no labels: the unlabelled
        # series here, each endpoint's pair on its first request (the
        # router's endpoint labels are a fixed set).
        self._errors_series = self._errors.labels()
        self._predictions_series = self._predictions.labels()
        self._predict_latency_series = self._predict_latency.labels()
        self._latency_max_series = self._latency_max.labels()
        self._by_endpoint: Dict[str, Tuple[Any, Any]] = {}

    def observe(self, endpoint: str, seconds: float, *, rows: int = 0,
                error: bool = False) -> None:
        with self.registry.lock:
            bound = self._by_endpoint.get(endpoint)
            if bound is None:
                bound = self._by_endpoint[endpoint] = (
                    self._requests.labels(endpoint=endpoint),
                    self._latency.labels(endpoint=endpoint))
            requests, latency = bound
            # One lock acquisition: the bound updates' *_held forms.
            requests.inc_held()
            if rows:
                self._predictions_series.inc_held(rows)
            if error:
                self._errors_series.inc_held()
            latency.observe_held(seconds)
            if endpoint == "/predict":
                self._predict_latency_series.observe_held(seconds)
            if seconds > self._latency_max_series.value_held():
                self._latency_max_series.set_held(seconds)

    def snapshot(self) -> Dict[str, Any]:
        with self.registry.lock:
            requests = {key[0]: int(value) for key, value in
                        self._requests.values_by_label().items()}
            n = sum(requests.values())
            return {
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "requests_total": requests,
                "errors_total": int(self._errors.value()),
                "predictions_total": int(self._predictions.value()),
                "latency_ms_mean": round(
                    1e3 * self._latency.total_sum() / n, 3) if n else 0.0,
                "latency_ms_max": round(
                    1e3 * self._latency_max.value(), 3),
            }

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        self._uptime.set(time.time() - self.started_at)
        return self.registry.prometheus_text()


def encode_json(payload: Dict[str, Any]) -> bytes:
    """The one JSON encoding of every response body (the bytes are a
    pinned contract, ``tests/fixtures/serve_wire.json``)."""
    return json.dumps(payload).encode("utf-8")


def predict_error_fields(payload: Any) -> Dict[str, Any]:
    """The ``model``/``engine`` context every ``/predict`` error body
    carries (best-effort from the raw request payload; ``None`` when
    the request never said).  Key order is part of the wire contract:
    ``error``, then ``model``, then ``engine``."""
    model = engine = None
    if isinstance(payload, dict):
        name = payload.get("model")
        if isinstance(name, str) and name:
            model = name
        requested = payload.get("engine", "behavioral")
        if isinstance(requested, str) and requested:
            engine = requested
    return {"model": model, "engine": engine}


def error_response(exc: BaseException) -> Tuple[int, Dict[str, Any]]:
    """Map a handler exception to ``(status, body)``."""
    if isinstance(exc, NotFoundError):
        return 404, {"error": str(exc)}
    if isinstance(exc, AnalysisError):
        return 400, {"error": str(exc)}
    if isinstance(exc, ConvergenceError):
        # Includes SingularMatrixError: the request was well-formed but
        # the circuit it asked for has no solution the solver can find.
        return 422, {"error": str(exc)}
    return 500, {"error": f"{type(exc).__name__}: {exc}"}


class PredictRequest(NamedTuple):
    """One validated ``/predict`` payload, ready to dispatch."""

    name: str
    loaded: "_LoadedModel"
    X: np.ndarray
    vdd: Optional[float]
    engine: str
    solver: str


class _LoadedModel:
    """A stored model plus its private micro-batcher.

    Built on the serving event loop: the :class:`AsyncMicroBatcher`
    schedules its flushes there.
    """

    def __init__(self, name: str, model, engine: BatchInferenceEngine, *,
                 max_batch: int,
                 artifact_hash: Optional[str] = None,
                 artifact_stat: Optional[Tuple[int, int]] = None,
                 doc: Optional[Dict[str, Any]] = None):
        self.name = name
        self.model = model
        self.artifact_hash = artifact_hash
        self.artifact_stat = artifact_stat
        #: The upgraded artifact document — what the worker-process
        #: pool ships to rebuild the model in a worker.
        self.doc = doc
        self.n_features = model_n_features(model)
        #: Decision threshold on the batched margins — one forward pass
        #: yields both margins and predictions.
        self.offset = model_decision_offset(model)
        nominal = model.config.vdd

        def handler(features: np.ndarray,
                    vdds: Optional[np.ndarray]) -> np.ndarray:
            supply: "float | np.ndarray" = nominal
            if vdds is not None:
                supply = np.where(np.isnan(vdds), nominal, vdds)
            # handle_predict_async routed the request by engine id and
            # parse_predict checked its rows: the flush skips
            # model_margins' registry lookups and input check.
            return engine.behavioral_margins(model, features, vdd=supply)

        self.batcher = AsyncMicroBatcher(handler, max_batch=max_batch)


class ServingCore:
    """Everything the serving API does that is not HTTP.

    :class:`~repro.serve.aio_server.AsyncPerceptronServer` mixes this
    into the asyncio HTTP core; model access runs on its event loop.
    """

    #: Largest campaign ``GET /campaigns`` expands for an exact config
    #: count.  Spec files are outside input: a bigger spec reports its
    #: O(axes) declared bound instead, so a 10M-config file cannot cost
    #: a full expansion on every listing request.
    campaign_config_max = 128

    def __init__(self, store: ModelStore, *, max_batch: int = 64,
                 campaign_dir: "str | None" = None):
        self.store = store
        self.campaign_dir = campaign_dir
        self.engine = BatchInferenceEngine()
        rt = telemetry.active()
        self.metrics = ServingMetrics(
            registry=rt.registry if rt is not None else None)
        self.max_batch = max_batch
        self._models: Dict[str, _LoadedModel] = {}
        self._models_lock = threading.Lock()

    # -- model access -----------------------------------------------------

    def get_model(self, name: str) -> _LoadedModel:
        """Cached model + batcher, reloaded when the artifact changes.

        Freshness is checked per request so re-exporting a model under
        the same name takes effect without a restart — ``/predict`` can
        never drift from what ``/models`` advertises.  The fast path is
        one ``stat()``: only when mtime/size moved (or the model was
        never loaded) is the document re-read and hash-verified.
        """
        stat = self.store.stat(name)
        with self._models_lock:
            loaded = self._models.get(name)
            if loaded is not None and stat is not None \
                    and loaded.artifact_stat == stat:
                return loaded
        doc = self.store.load_doc(name)  # raises on unknown/corrupt name
        with self._models_lock:
            loaded = self._models.get(name)
            if loaded is not None and \
                    loaded.artifact_hash == doc.get("hash"):
                # Same content rewritten (hash unchanged): adopt the new
                # stat so the fast path holds again.
                loaded.artifact_stat = stat
                return loaded
            if loaded is not None:
                loaded.batcher.stop()  # drains pending futures
            loaded = _LoadedModel(name, deserialize_model(doc),
                                  self.engine,
                                  max_batch=self.max_batch,
                                  artifact_hash=doc.get("hash"),
                                  artifact_stat=stat, doc=doc)
            self._models[name] = loaded
            return loaded

    def close_models(self) -> None:
        """Stop every model's batcher (drain, so in-flight callers get
        their futures resolved instead of timing out)."""
        with self._models_lock:
            for loaded in self._models.values():
                loaded.batcher.stop()
            self._models.clear()

    # -- request handling -------------------------------------------------

    def parse_predict(self, payload: Dict[str, Any]) -> PredictRequest:
        """Validate one ``/predict`` payload; raises AnalysisError on
        bad input (mapped to HTTP 4xx by :func:`error_response`)."""
        if not isinstance(payload, dict):
            raise AnalysisError("request body must be a JSON object")
        name = payload.get("model")
        if not isinstance(name, str) or not name:
            raise AnalysisError("missing 'model' name")
        inputs = payload.get("inputs")
        if inputs is None:
            raise AnalysisError("missing 'inputs'")
        loaded = self.get_model(name)
        try:
            X = np.asarray(inputs, dtype=float)
        except (TypeError, ValueError) as exc:
            raise AnalysisError(f"non-numeric inputs: {exc}") from exc
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != loaded.n_features:
            raise AnalysisError(
                f"model {name!r} expects rows of {loaded.n_features} "
                f"features, got shape {tuple(X.shape)}")
        vdd = payload.get("vdd")
        if vdd is not None:
            try:
                vdd = float(vdd)
            except (TypeError, ValueError):
                vdd = math.nan
            # json.loads accepts Infinity/NaN — reject them here.
            if not math.isfinite(vdd) or vdd <= 0:
                raise AnalysisError("vdd must be a positive finite number")
        engine = payload.get("engine", "behavioral")
        if not isinstance(engine, str):
            raise AnalysisError("'engine' must be an engine id string")
        solver = payload.get("solver", "auto")
        if not isinstance(solver, str):
            raise AnalysisError("'solver' must be an MNA backend string")
        if engine == "behavioral" and solver != "auto":
            # The hot path has no MNA system; reject a non-default
            # backend with the same registry-backed error the slow
            # paths raise instead of silently ignoring it.  ("auto"
            # always passes, so the default costs no registry lookup.)
            resolve_solver(solver, engine_id=engine)
        # The one range check of these rows: the batcher flush trusts
        # them, so one bad request cannot fail its batch neighbours.
        check_duty_range(X)
        return PredictRequest(name, loaded, X, vdd, engine, solver)

    @staticmethod
    def predict_response(request: PredictRequest,
                         margins: np.ndarray) -> Dict[str, Any]:
        """The ``/predict`` success body (key order is contract)."""
        margins = np.asarray(margins, dtype=float)
        predictions = (margins > request.loaded.offset).astype(int)
        return {
            "model": request.name,
            "predictions": predictions.tolist(),
            "margins": margins.tolist(),
            "count": int(request.X.shape[0]),
            "engine": request.engine,
            "solver": request.solver,
        }

    def batcher_metrics(self) -> Dict[str, Any]:
        with self._models_lock:
            return {name: loaded.batcher.stats.snapshot()
                    for name, loaded in self._models.items()}

    def prometheus_metrics(self) -> str:
        """``GET /metrics`` as Prometheus text (refreshes gauges)."""
        self._refresh_batcher_gauges()
        return self.metrics.prometheus_text()

    def _refresh_batcher_gauges(self) -> None:
        """Mirror per-model batcher aggregates into gauges at scrape
        time, so the text exposition carries the same figures as the
        JSON snapshot's ``batchers`` block (cheap: O(models) sets per
        scrape instead of instrumenting the batcher's hot flush path).
        """
        reg = self.metrics.registry
        gauges = {
            key: reg.gauge(f"repro_batcher_{key}",
                           f"Micro-batcher {key}, per model.",
                           labelnames=("model",))
            for key in ("batches", "rows", "mean_batch_rows",
                        "max_batch_rows", "mean_queue_wait_ms",
                        "mean_fill_ratio")}
        for name, stats in self.batcher_metrics().items():
            for key, gauge in gauges.items():
                gauge.set(stats[key], model=name)

    # -- experiments, engines and campaigns, described --------------------
    #
    # The experiment registry is imported lazily: the serving layer
    # stays importable (and fast to start) without the experiment
    # modules, and model-only deployments never pay for them.

    def describe_experiments(self) -> Dict[str, Any]:
        from ..experiments import describe

        return describe()

    def describe_engines(self) -> Dict[str, Any]:
        """``GET /engines``: the simulation-engine registry."""
        from ..engines import describe

        return describe()

    def describe_experiment(self, experiment_id: str) -> Dict[str, Any]:
        from ..experiments import describe

        try:
            return describe(experiment_id)
        except AnalysisError as exc:
            raise NotFoundError(str(exc)) from None

    def list_campaigns(self) -> Dict[str, Any]:
        """``GET /campaigns``: specs found in the campaign directory.

        Config counts come from the O(axes) ``size_bound`` — a spec
        declaring millions of points must not cost a full expansion
        per listing request.  Specs within ``campaign_config_max`` are
        expanded and report their exact (de-duplicated) count;
        anything over the cap reports the declared bound with
        ``n_configs_exact`` False.
        """
        from ..campaigns import find_campaigns

        entries = []
        names: Dict[str, int] = {}
        for path, loaded in find_campaigns(self.campaign_dir):
            if isinstance(loaded, Exception):
                entries.append({"file": path.name, "error": str(loaded)})
                continue
            names[loaded.name] = names.get(loaded.name, 0) + 1
            try:
                # Expansion can fail where loading cannot (zip length
                # mismatches, out-of-bounds sampled values); one bad
                # file must not take down the whole listing.
                bound = loaded.size_bound()
                exact = bound <= self.campaign_config_max
                n_configs = len(loaded.expand()) if exact else bound
            except AnalysisError as exc:
                entries.append({"name": loaded.name, "file": path.name,
                                "error": str(exc)})
                continue
            entries.append({
                "name": loaded.name,
                "file": path.name,
                "title": loaded.display_title,
                "experiment": loaded.experiment_id,
                "fidelity": loaded.fidelity,
                "axis_params": list(loaded.axis_params()),
                "n_configs": n_configs,
                "n_configs_exact": exact,
            })
        for entry in entries:
            if names.get(entry.get("name", ""), 0) > 1:
                entry["duplicate_name"] = True
        return {"count": len(entries), "campaigns": entries}
