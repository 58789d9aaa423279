"""Worker-process pool for slow-engine ``/predict`` dispatch.

The behavioural hot path is pure numpy and stays on the serving event
loop, but ``rc`` (switch-level) and ``spice`` (transistor-level)
margins are per-row periodic solves — tens of milliseconds each — that
would serialise every other connection behind the GIL if they ran
in-process.  :class:`EngineWorkerPool` ships those requests to a
``ProcessPoolExecutor``:

* the *artifact document* travels, not the model object — workers
  rebuild the model with :func:`~repro.serve.artifacts.deserialize_model`
  and memoise it per process keyed by the artifact's content hash, so
  repeated requests against one model deserialise once per worker;
* dispatch is futures-based: the event loop awaits
  ``asyncio.wrap_future(pool.submit(...))`` without blocking;
* queue depth (submitted minus completed) is tracked for the
  ``repro_worker_pool_queue_depth`` gauge;
* a worker that dies mid-request breaks the whole executor
  (``BrokenProcessPool``): the pool replaces it with a fresh one and
  resubmits each affected request once, reporting every replacement
  through ``on_restart`` (the ``repro_worker_pool_restarts_total``
  counter).  A request that breaks the fresh pool too fails with that
  error.

The pool is created lazily on the first slow-engine request, so
behavioural-only deployments never fork a worker.  ``workers=0``
disables it entirely — callers fall back to in-process dispatch.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Optional

import numpy as np

#: Per-worker-process model cache: artifact hash -> rebuilt model.
#: Bounded by the number of distinct models a deployment serves.
_WORKER_MODELS: Dict[str, Any] = {}


def _pool_margins(doc: Dict[str, Any], X: np.ndarray,
                  vdd: Optional[float], engine_id: str,
                  solver: str) -> np.ndarray:
    """Run one slow-engine margin request inside a worker process.

    Module-level (picklable) by construction; ``doc`` is the upgraded,
    hash-stamped artifact document.
    """
    from .artifacts import deserialize_model
    from .engine import BatchInferenceEngine

    key = doc.get("hash") or ""
    model = _WORKER_MODELS.get(key)
    if model is None:
        model = deserialize_model(doc)
        if key:
            _WORKER_MODELS[key] = model
    return np.asarray(BatchInferenceEngine().model_margins(
        model, X, vdd=vdd, engine=engine_id, solver=solver))


class EngineWorkerPool:
    """Lazily-started process pool with queue-depth accounting."""

    def __init__(self, workers: int = 2, *,
                 on_restart: Optional[Callable[[], None]] = None):
        self.workers = int(workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._in_flight = 0
        self.completed = 0
        self.restarts = 0
        self._on_restart = on_restart

    @property
    def enabled(self) -> bool:
        return self.workers > 0

    @property
    def queue_depth(self) -> int:
        """Requests submitted but not yet finished (running + queued)."""
        with self._lock:
            return self._in_flight

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers)
            return self._executor

    def submit(self, doc: Dict[str, Any], X: np.ndarray,
               vdd: Optional[float], engine_id: str,
               solver: str) -> Future:
        """Dispatch one slow-engine request; returns its future."""
        if not self.enabled:
            raise RuntimeError("EngineWorkerPool is disabled (workers=0)")
        with self._lock:
            self._in_flight += 1
        future: Future = Future()
        future.add_done_callback(self._on_done)
        self._dispatch(future, (doc, np.asarray(X), vdd, engine_id, solver),
                       retry=True)
        return future

    def _dispatch(self, future: Future, args: tuple, *, retry: bool) -> None:
        executor = self._ensure_executor()
        try:
            inner = executor.submit(_pool_margins, *args)
        except BrokenProcessPool as exc:
            inner = Future()
            inner.set_exception(exc)
        inner.add_done_callback(
            lambda done: self._relay(done, future, args, executor, retry))

    def _relay(self, inner: Future, future: Future, args: tuple,
               executor: ProcessPoolExecutor, retry: bool) -> None:
        """Hand the worker's outcome to the caller's future, first
        replacing a broken executor and resubmitting once."""
        if future.done():          # the caller cancelled it
            return
        if inner.cancelled():
            future.cancel()
            return
        exc = inner.exception()
        if retry and isinstance(exc, BrokenProcessPool):
            restarted = False
            with self._lock:
                # Every request on the dead executor lands here; only
                # the first replaces it.
                if self._executor is executor:
                    self._executor = None
                    self.restarts += 1
                    restarted = True
            if restarted and self._on_restart is not None:
                self._on_restart()
            self._dispatch(future, args, retry=False)
        elif exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(inner.result())

    def _on_done(self, _future: Future) -> None:
        with self._lock:
            self._in_flight -= 1
            self.completed += 1

    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def __repr__(self) -> str:
        return (f"<EngineWorkerPool workers={self.workers} "
                f"in_flight={self.queue_depth}>")
