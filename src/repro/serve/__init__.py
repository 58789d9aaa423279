"""Model serving: persistent artifacts, batch inference, HTTP API.

The training side of this library produces
:class:`~repro.core.perceptron.DifferentialPwmPerceptron` and
:class:`~repro.core.network.PwmMlp` models; this subpackage turns them
into something deployable:

``repro.serve.artifacts``
    Versioned JSON model-artifact format and the on-disk
    :class:`ModelStore` (save / load / list, schema-versioned,
    hash-stamped).
``repro.serve.engine``
    :class:`BatchInferenceEngine` — the behavioural forward pass as
    whole-``(samples, features)`` numpy matrix ops, bit-identical to the
    scalar path, plus RC supply-sweep batching through
    :class:`~repro.core.rc_model.RcBatchSolver`.
``repro.serve.scheduler``
    :class:`AsyncMicroBatcher` — the event-loop micro-batching request
    scheduler (flushes at the max batch size or at the end of the loop
    tick, rows coalesced across connections) feeding the engine.
``repro.serve.server``
    :class:`ServingCore` — the HTTP-independent request handling
    (validation, response/error shapes, metrics) behind the JSON API
    (``/predict``, ``/models``, ``/experiments``, ``/engines``,
    ``/campaigns``, ``/healthz``, ``/metrics``).  Experiments and
    campaigns are described there, not run: ``python -m repro run``
    and ``campaign run`` run them.
``repro.serve.aio_server``
    :class:`~repro.serve.aio_server.AsyncHttpServer` — the one
    HTTP/1.1 core (bind at construction, keep-alive, bounded parsing
    and read timeouts), shared with the campaign dashboard — and
    :class:`AsyncPerceptronServer`, the serving API on it:
    cross-connection micro-batching, slow engines sharded over the
    :class:`~repro.serve.pool.EngineWorkerPool`.  Wired into the CLI
    as ``python -m repro serve`` / ``export-model`` / ``predict``.
``repro.serve.pool``
    :class:`EngineWorkerPool` — process-pool dispatch for rc/spice
    ``/predict`` requests, with per-worker model caching.
``repro.serve.loadgen``
    Closed- and open-loop HTTP load generation against the server:
    saturation rows/s, latency percentiles, batch-fill
    histograms (``benchmarks/bench_loadgen.py`` and the serving perf
    gate build on it).
"""

from __future__ import annotations

from .._lazy import lazy_package
from .artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    ModelStore,
    NotFoundError,
    artifact_hash,
    deserialize_model,
    serialize_model,
)
from .engine import BatchInferenceEngine

#: The serving stack's names and their modules.  They load on first
#: access (PEP 562), so the training and experiment code that imports
#: :mod:`repro.serve.engine` loads neither asyncio nor the HTTP server.
_LAZY = {
    "AsyncPerceptronServer": "aio_server",
    "AsyncMicroBatcher": "scheduler",
    "BatchStats": "scheduler",
    "EngineWorkerPool": "pool",
    "ServingCore": "server",
    "ServingMetrics": "server",
}

__all__ = [
    "NotFoundError",
    "ARTIFACT_SCHEMA_VERSION",
    "ModelStore",
    "artifact_hash",
    "deserialize_model",
    "serialize_model",
    "BatchInferenceEngine",
    "BatchStats",
    "AsyncMicroBatcher",
    "AsyncPerceptronServer",
    "EngineWorkerPool",
    "ServingCore",
    "ServingMetrics",
]


lazy_package(__name__)
