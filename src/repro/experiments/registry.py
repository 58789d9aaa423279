"""Experiment registry: every paper artefact and extension by id.

Experiments self-register through the
:func:`~repro.experiments.spec.experiment` decorator; importing this
module pulls every experiment module in (in curated order: paper
artefacts first, then extensions) and exposes the execution choke
points:

* :func:`run_config` executes a validated
  :class:`~repro.experiments.spec.RunConfig` — the single currency for
  the Python API, the CLI and campaigns;
* :func:`run_all` runs the whole registry with per-experiment,
  schema-validated ``overrides``.

Every run executes in-process; its sweeps are batched solves.  The
result cache is wired here once for all experiments: ``cache``
consults a :class:`repro.exec.cache.ResultCache` keyed by the canonical
:class:`RunConfig` encoding before running and stores the result
after.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from .. import telemetry
from ..circuit.exceptions import AnalysisError
from ..exec.cache import ResultCache

# Curated registration order: the paper's artefacts in presentation
# order first, then the extensions.  The decorator registers on import,
# so this import sequence *is* the registry order.
from . import table1_parameters    # noqa: F401  table1
from . import fig4_dc_transfer     # noqa: F401  fig4
from . import fig5_frequency       # noqa: F401  fig5
from . import fig6_fig7_supply     # noqa: F401  fig6, fig7
from . import table2_adder         # noqa: F401  table2
from . import fig8_power           # noqa: F401  fig8
from . import ext_transistor_count  # noqa: F401
from . import ext_robustness       # noqa: F401
from . import ext_montecarlo       # noqa: F401
from . import ext_ablation         # noqa: F401
from . import ext_engine_fidelity  # noqa: F401
from . import ext_kessels          # noqa: F401
from . import ext_noise            # noqa: F401
from . import ext_energy           # noqa: F401
from . import ext_sensitivity      # noqa: F401
from . import ext_full_system      # noqa: F401
from . import ext_multifreq        # noqa: F401
from . import ext_dynamic_supply   # noqa: F401
from . import ext_scaling          # noqa: F401
from . import ext_ac               # noqa: F401
from . import ext_yield            # noqa: F401
from .base import ExperimentResult
from .spec import SPECS, RunConfig, get_spec

Runner = Callable[..., ExperimentResult]

#: Legacy view: id -> (title, runner).  The runners are the decorated
#: module entry points (they validate ``fidelity`` on every call).
REGISTRY: "Dict[str, tuple[str, Runner]]" = {
    spec.id: (spec.title, spec.entry) for spec in SPECS.values()
}

#: Artefacts that appear in the paper itself (vs extensions).
PAPER_ARTEFACTS = tuple(eid for eid, spec in SPECS.items()
                        if "paper" in spec.tags)


def run_config(config: RunConfig, *,
               cache: Optional[ResultCache] = None) -> ExperimentResult:
    """Execute one validated :class:`RunConfig`.

    ``cache`` short-circuits the run when an entry for the config's
    canonical key exists and records the result otherwise.
    """
    spec = get_spec(config.experiment_id)
    if cache is not None:
        hit = cache.get_config(config)
        if hit is not None:
            return hit
    rt = telemetry.active()
    if rt is None:
        result = _execute(spec, config)
    else:
        # Every fresh execution is one "experiment" root span plus a
        # RunProfile window; the profile rides on the result as a plain
        # attribute (never serialised — goldens/caches stay identical).
        from ..telemetry.profile import RunProfile

        with rt.tracer.span("experiment",
                            {"experiment": config.experiment_id,
                             "fidelity": config.fidelity}):
            with RunProfile(rt, experiment_id=config.experiment_id,
                            fidelity=config.fidelity) as prof:
                result = _execute(spec, config)
        result.profile = prof.document()
    if cache is not None:
        cache.put_config(result, config)
    return result


def _execute(spec, config: RunConfig):
    return spec.runner(fidelity=config.fidelity, **config.param_dict())


def run_all(fidelity: str = "fast", *,
            cache: Optional[ResultCache] = None,
            overrides: Optional[Mapping[str, Mapping[str, Any]]] = None
            ) -> "Dict[str, ExperimentResult]":
    """Run every registered experiment (used by the reproduction CLI).

    ``overrides`` maps experiment id -> parameter overrides for that
    experiment; every entry is validated against the target's declared
    schema up front (unknown experiment ids or parameters raise
    :class:`AnalysisError` before anything runs).
    """
    overrides = {eid: dict(params)
                 for eid, params in (overrides or {}).items()}
    unknown = set(overrides) - set(SPECS)
    if unknown:
        raise AnalysisError(
            f"run_all overrides name unknown experiment(s) "
            f"{sorted(unknown)}; available: {sorted(SPECS)}")
    configs = {eid: RunConfig.build(eid, fidelity, overrides.get(eid))
               for eid in SPECS}
    return {eid: run_config(config, cache=cache)
            for eid, config in configs.items()}
