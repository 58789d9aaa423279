"""The micro-batching request scheduler of the serving plane.

Serving traffic arrives one small request at a time, but the
:class:`~repro.serve.engine.BatchInferenceEngine` amortises its fixed
per-call cost over whole matrices.  :class:`AsyncMicroBatcher` bridges
the gap on the serving event loop — no worker thread, the loop *is*
the scheduler.  A batch fires when either

* the pending batch reaches ``max_batch`` rows, or
* the oldest pending request has waited ``max_latency`` seconds

— the classic throughput/latency knob pair.  Requests from any number
of connections coalesce in-loop; a size trigger flushes synchronously
on the submitting callback and a ``loop.call_later`` timer bounds the
wait of a partial batch.  Oversized single requests are split across
consecutive batches and reassembled, so one giant request cannot blow
the engine's batch envelope.  Each request awaits an
``asyncio.Future`` resolved with exactly its rows; handler exceptions
propagate to exactly the futures of the batch that failed.
:class:`BatchStats` keeps the O(1) flush telemetry behind ``/metrics``.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

import numpy as np

from ..circuit.exceptions import AnalysisError

#: Upper edges of the batch-size histogram buckets (rows per flush).
#: Fixed and few — a long-running server accumulates O(1) state.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass
class _Request:
    features: np.ndarray        # (rows, n_features)
    vdd: Optional[float]
    future: asyncio.Future
    enqueued_at: float


@dataclass
class BatchStats:
    """Cumulative flush telemetry of one batcher.

    Only O(1) aggregates — a long-running server must not accumulate
    per-flush history.  ``batch_rows_hist`` is the fixed-bucket
    batch-fill histogram (flush count per rows-per-flush bucket, upper
    edges :data:`BATCH_SIZE_BUCKETS` plus an overflow ``inf`` bucket)
    that the load generator reports.
    """

    batches: int = 0
    rows: int = 0
    max_batch_rows: int = 0
    queue_wait_seconds: float = 0.0
    fill_ratio_sum: float = 0.0
    batch_rows_hist: List[int] = field(
        default_factory=lambda: [0] * (len(BATCH_SIZE_BUCKETS) + 1))

    def record(self, rows: int, oldest_wait: float, *,
               capacity: int = 0) -> None:
        self.batches += 1
        self.rows += rows
        self.max_batch_rows = max(self.max_batch_rows, rows)
        self.queue_wait_seconds += oldest_wait
        for b, edge in enumerate(BATCH_SIZE_BUCKETS):
            if rows <= edge:
                self.batch_rows_hist[b] += 1
                break
        else:
            self.batch_rows_hist[-1] += 1
        if capacity > 0:
            # Clamped: fill ratio reads as "fraction of the configured
            # batch the flush actually used".
            self.fill_ratio_sum += min(1.0, rows / capacity)

    def snapshot(self) -> dict:
        mean = self.rows / self.batches if self.batches else 0.0
        wait = (self.queue_wait_seconds / self.batches
                if self.batches else 0.0)
        fill = (self.fill_ratio_sum / self.batches
                if self.batches else 0.0)
        return {"batches": self.batches, "rows": self.rows,
                "mean_batch_rows": round(mean, 3),
                "max_batch_rows": self.max_batch_rows,
                "mean_queue_wait_ms": round(1e3 * wait, 3),
                "mean_fill_ratio": round(fill, 3),
                "batch_rows_hist": {
                    **{str(edge): self.batch_rows_hist[b]
                       for b, edge in enumerate(BATCH_SIZE_BUCKETS)},
                    "inf": self.batch_rows_hist[-1]}}


def _check_rows(features) -> np.ndarray:
    """Validate one request's features as a ``(rows, n_features)``
    matrix."""
    rows = np.asarray(features, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise AnalysisError(
            "submit() needs a (rows, n_features) matrix or one row")
    return rows


def _stack_batch(batch: List[_Request]):
    """Vertically stack one flush: ``(features, vdds)`` in submit
    order, ``vdds`` None when every row rides the nominal supply."""
    features = np.vstack([r.features for r in batch])
    vdds = None
    if any(r.vdd is not None for r in batch):
        vdds = np.concatenate([
            np.full(r.features.shape[0],
                    np.nan if r.vdd is None else r.vdd)
            for r in batch])
    return features, vdds


class AsyncMicroBatcher:
    """Event-loop micro-batcher: coalesce rows *across connections*.

    Lives entirely on one asyncio event loop (construct it from a
    coroutine or loop callback); there is no worker thread and no lock.
    ``await submit(...)`` parks the caller on an ``asyncio.Future``;
    the flush that covers its rows resolves it.  Flush triggers:

    * **size** — the pending queue reaches ``max_batch`` rows; the
      flush runs synchronously on the submitting callback, so a hot
      server never waits for a timer;
    * **deadline** — a ``loop.call_later`` timer armed by the oldest
      pending request fires after ``max_latency`` seconds and flushes
      whatever is queued.  The timer may legitimately find an empty
      queue (a size flush drained it first) — that is a no-op.

    A single request larger than ``max_batch`` is split into
    ``max_batch``-row chunks that flush as consecutive batches; the
    caller still gets one concatenated result, in order.

    The handler runs synchronously in-loop: the behavioural forward
    pass is pure numpy and takes microseconds per batch, so handing it
    to an executor would cost more than it saves.  Slow engines must
    not go through this class at all (the serving plane routes them to
    the worker-process pool instead).

    Parameters
    ----------
    handler:
        ``handler(features, vdds) -> (rows,) predictions`` where
        ``features`` is the vertically-stacked ``(rows, n_features)``
        matrix of a flush and ``vdds`` is ``None`` (all rows nominal) or
        a ``(rows,)`` float array with ``nan`` marking nominal rows.
    max_batch:
        Flush as soon as this many rows are pending.
    max_latency:
        Flush when the oldest pending request is this old (seconds),
        even if the batch is small.
    """

    def __init__(self, handler: Callable, *, max_batch: int = 64,
                 max_latency: float = 0.005):
        if max_batch < 1:
            raise AnalysisError("max_batch must be >= 1")
        if max_latency < 0:
            raise AnalysisError("max_latency must be >= 0")
        self._handler = handler
        self.max_batch = int(max_batch)
        self.max_latency = float(max_latency)
        try:
            self._loop = asyncio.get_running_loop()
        except RuntimeError:
            raise AnalysisError(
                "AsyncMicroBatcher must be created on a running event "
                "loop (it schedules its flush timers there)") from None
        self._queue: Deque[_Request] = deque()
        self._pending_rows = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        self._running = True
        self.stats = BatchStats()

    # -- client side ------------------------------------------------------

    async def submit(self, features, vdd: Optional[float] = None):
        """Enqueue one request; resolves to its ``(rows,)`` results.

        Oversized requests (more rows than ``max_batch``) are split
        into chunks that ride consecutive flushes and reassembled here,
        preserving row order.
        """
        rows = _check_rows(features)
        if rows.shape[0] > self.max_batch:
            futures = [self._enqueue(rows[i:i + self.max_batch], vdd)
                       for i in range(0, rows.shape[0], self.max_batch)]
            parts = await asyncio.gather(*futures)
            return np.concatenate(parts)
        return await self._enqueue(rows, vdd)

    def _enqueue(self, rows: np.ndarray,
                 vdd: Optional[float]) -> "asyncio.Future":
        if not self._running:
            raise AnalysisError("AsyncMicroBatcher is not running")
        future = self._loop.create_future()
        self._queue.append(_Request(
            rows, None if vdd is None else float(vdd), future,
            time.monotonic()))
        self._pending_rows += rows.shape[0]
        if self._pending_rows >= self.max_batch:
            self._flush_full()
        elif self._timer is None:
            self._timer = self._loop.call_later(self.max_latency,
                                                self._on_deadline)
        return future

    # -- flush machinery --------------------------------------------------

    def _take(self, limit: int) -> List[_Request]:
        """Pop up to ``limit`` rows' worth of requests (chunks are
        already ``<= max_batch``, so a take never splits one)."""
        batch: List[_Request] = []
        rows = 0
        while self._queue and (
                rows == 0
                or rows + self._queue[0].features.shape[0] <= limit):
            request = self._queue.popleft()
            rows += request.features.shape[0]
            self._pending_rows -= request.features.shape[0]
            batch.append(request)
        return batch

    def _flush_full(self) -> None:
        """Size trigger: flush only whole batches; a partial remainder
        keeps waiting for its deadline."""
        while self._pending_rows >= self.max_batch:
            self._flush(self._take(self.max_batch))
        if not self._queue and self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_deadline(self) -> None:
        """Deadline trigger — tolerates an already-empty queue."""
        self._timer = None
        while self._queue:
            self._flush(self._take(self.max_batch))

    def _flush(self, batch: List[_Request]) -> None:
        if not batch:
            return
        now = time.monotonic()
        features, vdds = _stack_batch(batch)
        self.stats.record(features.shape[0],
                          now - min(r.enqueued_at for r in batch),
                          capacity=self.max_batch)
        try:
            predictions = np.asarray(self._handler(features, vdds))
        except Exception as exc:  # propagate to this batch's callers
            for r in batch:
                if not r.future.done():
                    r.future.set_exception(exc)
            return
        offset = 0
        for r in batch:
            n = r.features.shape[0]
            if not r.future.done():
                r.future.set_result(predictions[offset:offset + n])
            offset += n

    # -- lifecycle --------------------------------------------------------

    def stop(self, *, drain: bool = True) -> None:
        """Refuse new submissions; by default flush what is queued so
        in-flight futures resolve instead of hanging.  With
        ``drain=False`` pending futures fail with
        :class:`AnalysisError`."""
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if drain:
            while self._queue:
                self._flush(self._take(self.max_batch))
            return
        while self._queue:
            request = self._queue.popleft()
            self._pending_rows -= request.features.shape[0]
            if not request.future.done():
                request.future.set_exception(
                    AnalysisError("AsyncMicroBatcher stopped"))
        self._pending_rows = 0
