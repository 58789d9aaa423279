"""Typed queries over the result store: axis filters, marginals, export.

A campaign writes one row per finished config; analysis wants slices —
"every config where ``vdd < 0.7``", "yield vs seed, marginalised over
supply".  :class:`StoreQuery` is a small immutable builder over
:class:`~repro.exec.cache.ResultCache` rows:

>>> q = StoreQuery(store, "ext_yield").where("seed", "<", 100)
>>> q.rows()                     # doctest: +SKIP
>>> q.table().render()           # doctest: +SKIP
>>> q.marginalize("yield", "seed")          # doctest: +SKIP
>>> q.figure("yield", "seed").render_ascii()  # doctest: +SKIP

Filters compile to SQL against the JSON1 ``params`` column with an
expression index created on demand per filtered parameter, so the
common "one axis filter over a big store" query never scans the table
— the win :mod:`benchmarks.bench_store` measures against the unindexed
Python filter.  On sqlite builds without JSON1 the same
filters evaluate in Python over the base row set (slower, identical
answers).

``campaigns/results.py`` routes its bulk collection through the cache
(:meth:`ResultCache.get_configs`) and :mod:`repro.reporting` consumes
the tables/figures built here — campaign-level metric-vs-axis figures
without re-running anything.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..circuit.exceptions import AnalysisError
from ..reporting.figures import FigureData
from ..reporting.tables import Table
from ..exec.cache import _PARAM_RE, ResultCache

#: Comparison operators a filter may use, with their Python semantics.
OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "in": lambda a, b: a in b,
}

#: SQL spelling per operator (``in`` expands its own placeholder list).
_SQL_OPS = {"=": "=", "==": "=", "!=": "!=", "<": "<", "<=": "<=",
            ">": ">", ">=": ">="}


@dataclass(frozen=True)
class StoreRow:
    """One stored result, decoded to what analysis consumes."""

    entry: str
    experiment: str
    fidelity: str
    params: Dict[str, Any]
    metrics: Dict[str, Any]


def _check_filter(param: str, op: str, value: Any) -> None:
    if not _PARAM_RE.match(param):
        raise AnalysisError(f"invalid parameter name {param!r} in filter")
    if op not in OPS:
        raise AnalysisError(
            f"unknown filter operator {op!r}; allowed: {sorted(OPS)}")
    if op == "in":
        if not isinstance(value, (list, tuple)) or not value:
            raise AnalysisError(
                "'in' filters take a non-empty list of values")
        for v in value:
            _check_scalar(param, v)
    else:
        _check_scalar(param, value)


def _check_scalar(param: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise AnalysisError(
            f"filter on {param!r}: values must be numbers or strings, "
            f"got {value!r} (grid-valued params cannot be compared)")


class StoreQuery:
    """Immutable query builder; every refinement returns a new query."""

    def __init__(self, store: ResultCache, experiment: Optional[str] = None,
                 *, fidelity: Optional[str] = None,
                 engine: Optional[str] = None,
                 filters: Tuple[Tuple[str, str, Any], ...] = ()):
        self.store = store
        self.experiment = experiment
        self.fidelity = fidelity
        self.engine = engine
        self.filters = filters

    def where(self, param: str, op: str, value: Any) -> "StoreQuery":
        """Add one axis-parameter filter (validated immediately)."""
        _check_filter(param, op, value)
        frozen = tuple(value) if isinstance(value, list) else value
        return StoreQuery(self.store, self.experiment,
                          fidelity=self.fidelity, engine=self.engine,
                          filters=self.filters + ((param, op, frozen),))

    # -- execution ----------------------------------------------------------

    def _base_clause(self) -> Tuple[List[str], List[Any]]:
        clauses = ["kind = 'canonical'", "stale = 0"]
        args: List[Any] = []
        if self.experiment is not None:
            clauses.append("experiment = ?")
            args.append(self.experiment)
        if self.fidelity is not None:
            clauses.append("fidelity = ?")
            args.append(self.fidelity)
        if self.engine is not None:
            clauses.append("engine = ?")
            args.append(self.engine)
        return clauses, args

    def rows(self) -> List[StoreRow]:
        """Matching rows, deterministically ordered by entry key."""
        clauses, args = self._base_clause()
        sql_filters = self.filters if self.store.has_json1 else ()
        for param, op, value in sql_filters:
            self.store.ensure_param_index(param)
            path = f"json_extract(params, '$.{param}')"
            if op == "in":
                marks = ",".join("?" * len(value))
                clauses.append(f"{path} IN ({marks})")
                args.extend(value)
            else:
                clauses.append(f"{path} {_SQL_OPS[op]} ?")
                args.append(value)
        with telemetry.span("store.query",
                            experiment=self.experiment or "*"):
            raw = self.store.select_rows(" AND ".join(clauses),
                                         tuple(args))
            telemetry.count("repro_store_queries_total")
            out = []
            for entry, experiment, fidelity, params_text, payload in raw:
                params = json.loads(params_text)
                if not self.store.has_json1 and \
                        not self._matches(params):
                    continue
                doc = json.loads(payload)
                metrics = doc.get("result", {}).get("metrics", {})
                out.append(StoreRow(entry=entry, experiment=experiment,
                                    fidelity=fidelity, params=params,
                                    metrics=metrics))
        return out

    def _matches(self, params: Dict[str, Any]) -> bool:
        for param, op, value in self.filters:
            if param not in params:
                return False
            try:
                if not OPS[op](params[param], value):
                    return False
            except TypeError:
                return False
        return True

    # -- views --------------------------------------------------------------

    def metric_names(self, rows: Optional[List[StoreRow]] = None
                     ) -> List[str]:
        rows = self.rows() if rows is None else rows
        names: "set[str]" = set()
        for row in rows:
            names.update(row.metrics)
        return sorted(names)

    def param_names(self, rows: Optional[List[StoreRow]] = None
                    ) -> List[str]:
        rows = self.rows() if rows is None else rows
        names: "set[str]" = set()
        for row in rows:
            names.update(row.params)
        return sorted(names)

    def table(self, metrics: Optional[Sequence[str]] = None) -> Table:
        """Tidy table: one row per stored config, metrics as columns."""
        rows = self.rows()
        params = self.param_names(rows)
        metric_cols = list(metrics) if metrics is not None \
            else self.metric_names(rows)
        what = self.experiment or "all experiments"
        table = Table(["entry", *params, *metric_cols],
                      title=f"store query: {what} — {len(rows)} row(s)",
                      float_format=".6g")
        for row in rows:
            table.add_row(
                row.entry.rpartition("/")[2][:24],
                *[_cell(row.params.get(p)) for p in params],
                *[row.metrics.get(m, "") for m in metric_cols])
        return table

    def tidy(self) -> Dict[str, Any]:
        """Deterministic machine-readable export (the tidy document)."""
        rows = self.rows()
        return {
            "experiment": self.experiment,
            "fidelity": self.fidelity,
            "engine": self.engine,
            "filters": [[p, op, list(v) if isinstance(v, tuple) else v]
                        for p, op, v in self.filters],
            "params": self.param_names(rows),
            "metrics": self.metric_names(rows),
            "count": len(rows),
            "rows": [{"entry": row.entry,
                      "experiment": row.experiment,
                      "fidelity": row.fidelity,
                      "params": row.params,
                      "metrics": row.metrics} for row in rows],
        }

    # -- marginalisation ----------------------------------------------------

    def marginalize(self, metric: str, axis: str, agg: str = "mean"
                    ) -> List[Tuple[Any, float]]:
        """Aggregate one metric along one axis parameter.

        Groups matching rows by their ``axis`` value and collapses
        every other varied parameter with ``agg`` (``mean`` / ``min``
        / ``max`` / ``sum`` / ``count``) — the campaign-level
        "metric vs axis" curve.  Rows missing the metric or the axis
        are skipped.  Returns ``(axis value, aggregate)`` pairs sorted
        by axis value.
        """
        reducers: Dict[str, Callable[[List[float]], float]] = {
            "mean": lambda vs: sum(vs) / len(vs),
            "min": min, "max": max, "sum": sum,
            "count": lambda vs: float(len(vs)),
        }
        if agg not in reducers:
            raise AnalysisError(
                f"unknown aggregation {agg!r}; allowed: "
                f"{sorted(reducers)}")
        groups: Dict[Any, List[float]] = {}
        for row in self.rows():
            key = row.params.get(axis)
            value = row.metrics.get(metric)
            if key is None or not isinstance(value, (int, float)) \
                    or isinstance(value, bool) \
                    or not math.isfinite(float(value)):
                continue
            if isinstance(key, list):
                continue  # grid-valued axes have no scalar ordering
            groups.setdefault(key, []).append(float(value))
        return [(key, reducers[agg](values))
                for key, values in sorted(groups.items())]

    def figure(self, metric: str, axis: str,
               aggs: Sequence[str] = ("mean", "min", "max")
               ) -> FigureData:
        """Metric-vs-axis :class:`FigureData` (one series per agg)."""
        figure = FigureData(
            figure_id=f"store_{self.experiment or 'all'}_{metric}"
                      f"_vs_{axis}",
            title=f"{metric} vs {axis}"
                  + (f" ({self.experiment})" if self.experiment else ""),
            x_label=axis, y_label=metric)
        for agg in aggs:
            points = self.marginalize(metric, axis, agg=agg)
            numeric = [(k, v) for k, v in points
                       if isinstance(k, (int, float))
                       and not isinstance(k, bool)]
            if not numeric:
                continue
            figure.add_series(agg, [k for k, _ in numeric],
                              [v for _, v in numeric])
        if not figure.series:
            raise AnalysisError(
                f"no numeric ({axis}, {metric}) points in the store for "
                "this query — check the axis/metric names")
        return figure


def _cell(value: Any) -> Any:
    if isinstance(value, list):
        return ",".join(f"{v:g}" if isinstance(v, float) else str(v)
                        for v in value)
    return "" if value is None else value
