"""Aggregate campaign results into one tidy cross-config table.

Every :class:`~repro.experiments.base.ExperimentResult` carries a flat
``metrics`` dict; a campaign's aggregate view is the tidy table with
one row per finished config — the varied axis parameters as identifier
columns, the union of metric names as value columns — ready for
cross-config figures/tables through :mod:`repro.reporting`.

Rows are emitted in campaign expansion order and built only from the
result cache's canonical entries, so the merged table from ``N``
shards is byte-identical to a serial (1-shard) run of the same
campaign — the property the acceptance tests pin down.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..exec.cache import ResultCache
from ..experiments.base import ExperimentResult
from ..experiments.spec import RunConfig, format_param_value
from ..reporting.tables import Table
from .spec import CampaignSpec

#: One collected campaign point: (position, config, result-or-None).
CollectedRow = Tuple[int, RunConfig, Optional[ExperimentResult]]


def collect_results(spec: CampaignSpec,
                    cache: ResultCache) -> List[CollectedRow]:
    """Pair every expanded config with its cached result (miss = None).

    One batched :meth:`~repro.exec.cache.ResultCache.get_configs` probe
    instead of one lookup per config.
    """
    configs = list(spec.expand())
    return list(zip(range(len(configs)), configs,
                    cache.get_configs(configs)))


def metric_names(collected: List[CollectedRow]) -> List[str]:
    """Sorted union of metric keys over the finished configs."""
    names: "set[str]" = set()
    for _, _, result in collected:
        if result is not None:
            names.update(result.metrics)
    return sorted(names)


def _param_cell(value: Any) -> Any:
    """Table cell for a config parameter (grids compact to ``a,b,c``).

    Scalars pass through untouched so the table's own float formatting
    applies; only grids go through the shared compaction rule.
    """
    if isinstance(value, tuple):
        return format_param_value(value)
    return value


def results_table(spec: CampaignSpec,
                  collected: List[CollectedRow]) -> Table:
    """Tidy table: one row per finished config, metrics as columns."""
    params = list(spec.axis_params()) or \
        [name for name, _ in (collected[0][1].params if collected else ())]
    metrics = metric_names(collected)
    done = sum(1 for _, _, result in collected if result is not None)
    table = Table(["#", "config", *params, *metrics],
                  title=f"campaign {spec.name!r}: {spec.experiment_id} "
                        f"[{spec.fidelity}] — {done}/{len(collected)} "
                        "configs",
                  float_format=".6g")
    for position, config, result in collected:
        if result is None:
            continue
        values = config.param_dict()
        table.add_row(position, config.key()[:8],
                      *[_param_cell(values[p]) for p in params],
                      *[result.metrics.get(m, "") for m in metrics])
    return table


def results_document(spec: CampaignSpec,
                     collected: List[CollectedRow]) -> Dict[str, Any]:
    """Deterministic JSON aggregate (the machine-readable table).

    Contains only content derived from the spec and the results —
    no paths, timestamps or host details — so two complete runs of the
    same campaign serialise identically however they were sharded.
    """
    rows = []
    for position, config, result in collected:
        if result is None:
            continue
        rows.append({
            "position": position,
            "config_key": config.key(),
            "params": config.canonical_dict()["params"],
            "metrics": result.to_dict()["metrics"],
        })
    return {
        "campaign": spec.name,
        "spec_key": spec.key(),
        "experiment": spec.experiment_id,
        "fidelity": spec.fidelity,
        "axis_params": list(spec.axis_params()),
        "total": len(collected),
        "done": len(rows),
        "metrics": metric_names(collected),
        "rows": rows,
    }
