"""The engine registry: one typed surface over the three fidelities.

The paper's claims are exercised at three modelling fidelities —
closed-form PWM math, exact RC switch-level solves, and transistor-level
MNA simulation.  Historically the choice was an ad-hoc string private to
each experiment; this module promotes it to a first-class, registry-
backed layer (mirroring how :mod:`repro.experiments.spec` promoted
experiments to typed specs):

* every engine registers through the :func:`engine` decorator and
  implements the common :class:`Engine` surface —
  :meth:`~Engine.evaluate`, :meth:`~Engine.sweep_supply`,
  :meth:`~Engine.sweep_grid`, :meth:`~Engine.monte_carlo` and
  :meth:`~Engine.capabilities`;
* :func:`get_engine` is the **single validation point** for engine ids:
  the CLI, the HTTP API, experiment parameters and direct Python calls
  all reject unknown ids with the same registry help text;
* :func:`describe` makes the layer self-describing (``python -m repro
  list --engines``, ``GET /engines``, the ROADMAP table).

The unit under test is the paper's Fig. 2 transcoding-inverter cell —
the primitive whose supply elasticity every figure builds on; a
:class:`CellStimulus` pins one operating point of it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Type

import numpy as np

from .. import telemetry
from ..circuit.exceptions import AnalysisError
from ..core.cells import CellDesign


@dataclass(frozen=True)
class CellStimulus:
    """One operating point of the transcoding-inverter cell.

    ``rout`` overrides the load resistor (ohms, ``None`` keeps the
    design's); ``cout`` is the averaging capacitor.  In supply sweeps
    the PWM drive amplitude tracks the rail, as in the paper's setup.
    """

    duty: float
    frequency: float = 500e6
    vdd: float = 2.5
    cout: float = 1e-12
    rout: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.duty <= 1.0:
            raise AnalysisError(
                f"duty must lie in [0, 1], got {self.duty}")
        if self.frequency <= 0 or self.vdd <= 0 or self.cout <= 0:
            raise AnalysisError(
                "frequency, vdd and cout must be positive")
        if self.rout is not None and self.rout <= 0:
            raise AnalysisError("rout override must be positive")


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine models and how it executes.

    The flags drive dispatch decisions across the stack: serving
    refuses engines without ``serving_margins``, and the dynamic-supply
    experiment requires ``dynamic_supply``.  ``batched_monte_carlo``
    describes the engine (``GET /engines`` reports it); the Monte-Carlo
    campaigns always run batched on the switch-level engine.
    """

    level: str                     #: "behavioral" | "switch" | "transistor"
    batched_supply_sweep: bool     #: whole Vdd grid in one solve
    batched_monte_carlo: bool      #: whole trial batch in one solve
    frequency_dependent: bool      #: output depends on PWM frequency
    models_mismatch: bool          #: device mismatch perturbs the output
    dynamic_supply: bool           #: supports time-varying rails
    batched_waveforms: bool        #: whole waveform family in one solve
    serving_margins: bool          #: usable for /predict analog margins
    cost_rank: int                 #: 1 = cheapest, higher = slower

    def describe(self) -> Dict[str, Any]:
        return asdict(self)


class Engine(ABC):
    """Common surface of one modelling fidelity.

    Implementations are stateless singletons; ``id``/``title`` are
    attached by the :func:`engine` decorator at registration.
    """

    id: str = ""
    title: str = ""

    @abstractmethod
    def evaluate(self, design: CellDesign, stimulus: CellStimulus,
                 **options: Any) -> float:
        """Average cell output voltage at one operating point."""

    @abstractmethod
    def sweep_supply(self, design: CellDesign, stimulus: CellStimulus,
                     vdd_values: Sequence[float],
                     **options: Any) -> np.ndarray:
        """Cell output across a supply grid (drive tracks the rail).

        Returns one output voltage per entry of ``vdd_values``;
        ``stimulus.vdd`` is ignored in favour of the grid.
        """

    def sweep_grid(self, design: CellDesign,
                   stimuli: Sequence[CellStimulus],
                   vdd_values: Sequence[float],
                   **options: Any) -> np.ndarray:
        """Cell output over a whole ``(stimulus, supply)`` grid.

        Returns a ``(len(stimuli), len(vdd_values))`` array whose row
        ``i`` equals ``sweep_supply(design, stimuli[i], vdd_values)``.
        This version runs one supply sweep per stimulus; engines that
        can solve the whole grid at once override it.
        """
        return np.stack([self.sweep_supply(design, stimulus, vdd_values,
                                           **options)
                         for stimulus in self.check_stimuli(stimuli)])

    @abstractmethod
    def monte_carlo(self, design: CellDesign, stimulus: CellStimulus,
                    n_trials: int, *, seed: Optional[int] = None,
                    **options: Any) -> np.ndarray:
        """Cell output under ``n_trials`` device-mismatch draws."""

    @abstractmethod
    def capabilities(self) -> EngineCapabilities:
        """Static description of what this engine models."""

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def check_vdd_grid(vdd_values: Sequence[float]) -> np.ndarray:
        vdds = np.asarray([float(v) for v in vdd_values])
        if vdds.ndim != 1 or vdds.size == 0:
            raise AnalysisError("need a non-empty 1-D vdd sweep")
        if np.any(vdds <= 0):
            raise AnalysisError("supply voltages must be positive")
        return vdds

    @staticmethod
    def check_stimuli(stimuli: Sequence[CellStimulus]
                      ) -> List[CellStimulus]:
        stimuli = list(stimuli)
        if not stimuli:
            raise AnalysisError("need at least one stimulus")
        return stimuli

    @staticmethod
    def check_trials(n_trials: int) -> int:
        if n_trials < 1:
            raise AnalysisError("need at least one Monte-Carlo trial")
        return int(n_trials)

    def describe(self) -> Dict[str, Any]:
        doc = (self.__class__.__doc__ or "").strip()
        return {
            "id": self.id,
            "title": self.title,
            "description": doc.splitlines()[0] if doc else "",
            "capabilities": self.capabilities().describe(),
        }


#: id -> engine singleton, in registration (= curated import) order.
ENGINES: "Dict[str, Engine]" = {}


#: Engine operations wrapped with telemetry at registration.
_INSTRUMENTED_OPS = ("evaluate", "sweep_supply", "sweep_grid",
                     "monte_carlo")


def _instrument_engine(eng: Engine) -> Engine:
    """Wrap the singleton's public ops with spans + latency metrics.

    One central wrap point instead of per-engine edits: every
    registered engine gets ``engine.<op>`` spans, a
    ``repro_engine_calls_total{engine,op}`` counter and a
    ``repro_engine_latency_seconds{engine,op}`` histogram (seconds
    since the span opened).  The :func:`~repro.telemetry.traced`
    wrapper costs one ``None`` check per call when telemetry is
    disabled.
    """
    import time

    def note_call(op: str):
        def done(rt, span, result):
            rt.count("repro_engine_calls_total", engine=eng.id, op=op)
            rt.observe("repro_engine_latency_seconds",
                       time.perf_counter() - span._t0_perf,
                       engine=eng.id, op=op)
        return done

    for op in _INSTRUMENTED_OPS:
        trace = telemetry.traced(
            f"engine.{op}", tags=lambda *_, **__: {"engine": eng.id},
            done=note_call(op))
        setattr(eng, op, trace(getattr(eng, op)))
    return eng


def engine(id: str, *, title: str):
    """Register an :class:`Engine` subclass under ``id``.

    The decorator instantiates the class once and stores the singleton;
    :func:`get_engine` hands the same instance to every caller.
    """

    def decorate(cls: Type[Engine]) -> Type[Engine]:
        if id in ENGINES:
            raise AnalysisError(f"engine id {id!r} registered twice")
        cls.id = id
        cls.title = title
        ENGINES[id] = _instrument_engine(cls())
        return cls

    return decorate


def _ensure_registered() -> None:
    """Import the engine modules (they self-register on import).

    Imported unconditionally (module imports are idempotent): guarding
    on a non-empty registry would leave it permanently partial when a
    caller imports one engine submodule directly before touching the
    registry surface.
    """
    from . import behavioral, rc, spice  # noqa: F401


def engine_ids() -> List[str]:
    """Registered engine ids in fidelity order."""
    _ensure_registered()
    return list(ENGINES)


def get_engine(engine_id: str) -> Engine:
    """The single engine-id validation point for every surface.

    CLI flags, HTTP payloads, experiment params and direct Python calls
    all resolve (and fail) here, with the registry's help text.
    """
    _ensure_registered()
    try:
        return ENGINES[engine_id]
    except KeyError:
        raise AnalysisError(
            f"unknown engine {engine_id!r}; registered engines: "
            f"{', '.join(ENGINES)} "
            "(see `python -m repro list --engines`)") from None


def require_capability(engine_id: str, capability: str, *,
                       context: str = "",
                       experiment_id: str = "") -> Engine:
    """Resolve an engine and demand one capability flag.

    Raises :class:`AnalysisError` naming the offending engine, the
    experiment that rejected it (when given) and the engines that *do*
    support the capability, so callers get an actionable message.
    """
    try:
        eng = get_engine(engine_id)
    except AnalysisError as exc:
        if experiment_id:
            raise AnalysisError(
                f"experiment {experiment_id!r}: {exc}") from None
        raise
    if not getattr(eng.capabilities(), capability):
        supported = [eid for eid, e in ENGINES.items()
                     if getattr(e.capabilities(), capability)]
        who = f"experiment {experiment_id!r}: " if experiment_id else ""
        where = f" for {context}" if context else ""
        raise AnalysisError(
            f"{who}engine {engine_id!r} does not support "
            f"{capability}{where}; "
            f"use one of: {', '.join(supported)}")
    return eng


def describe(engine_id: Optional[str] = None) -> Dict[str, Any]:
    """JSON-able schema of one engine, or the whole registry."""
    if engine_id is not None:
        return get_engine(engine_id).describe()
    _ensure_registered()
    return {
        "count": len(ENGINES),
        "engines": [eng.describe() for eng in ENGINES.values()],
    }
