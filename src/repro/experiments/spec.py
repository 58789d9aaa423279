"""Declarative experiment specs: typed parameters and canonical configs.

Every experiment registers itself with the :func:`experiment` decorator
and declares a typed parameter schema::

    @experiment(
        "ext_montecarlo",
        title="Adder output error under mismatch",
        tags=("extension", "monte-carlo"),
        params=[
            seed_param(3),
            Param("method", "str", default="auto",
                  choices=("auto", "loop", "vectorized"),
                  help="Monte-Carlo evaluation backend"),
        ])
    def run(fidelity="fast", seed=3, method="auto"): ...

Three things fall out of the declaration:

* **Introspection** — :func:`describe` / :func:`list_experiments` make
  the whole experiment surface self-describing (the CLI auto-generates
  its ``run <id>`` options from it, the HTTP API serves it as
  ``GET /experiments``, and ``experiments_schema.json`` snapshots it
  for review).
* **Validation** — :meth:`RunConfig.build` checks every parameter
  (type, bounds, choices, unknown names) once, at the choke point, so
  the CLI, HTTP surface and Python API all reject bad input
  identically.  ``fidelity`` is a first-class common parameter,
  validated by the decorator even on direct ``module.run()`` calls.
* **Canonical identity** — a :class:`RunConfig` is frozen and
  hashable, with defaults filled in and values normalised, so the
  result cache key no longer depends on *how* a run was spelled
  (``seed=3`` explicit vs. omitted).

The registry (:mod:`repro.experiments.registry`) executes
:class:`RunConfig` objects; this module owns only the schema layer.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..circuit.exceptions import AnalysisError
from .base import FIDELITIES, ExperimentResult, check_fidelity

#: Bump when the RunConfig canonical encoding (and hence cache keys or
#: the ``experiments_schema.json`` snapshot layout) changes shape.
RUN_CONFIG_SCHEMA_VERSION = 1

#: Parameter value kinds understood by the schema layer.
PARAM_TYPES = ("int", "float", "str", "floats")


@dataclass(frozen=True)
class Param:
    """One typed experiment parameter.

    ``type`` is one of :data:`PARAM_TYPES`; ``"floats"`` is a
    comma-separable sequence of floats (grids, sweeps).  ``minimum`` /
    ``maximum`` bound numeric values (element-wise for ``"floats"``),
    ``choices`` restricts to an explicit set.  A default of ``None``
    means "fidelity-dependent" and is passed through to the runner.
    """

    name: str
    type: str
    default: Any = None
    help: str = ""
    choices: Optional[Tuple[Any, ...]] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self):
        if self.type not in PARAM_TYPES:
            raise AnalysisError(
                f"param {self.name!r}: unknown type {self.type!r}; "
                f"choose from {PARAM_TYPES}")
        if self.choices is not None:
            object.__setattr__(self, "choices", tuple(self.choices))

    # -- validation ---------------------------------------------------------

    def validate(self, value: Any, *, where: str = "") -> Any:
        """Normalised value, or :class:`AnalysisError` with the schema help."""
        label = f"{where}parameter {self.name!r}"
        if value is None:
            if self.default is None:
                return None
            raise AnalysisError(f"{label} must not be null ({self.help})")
        if self.type == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise AnalysisError(
                    f"{label} expects an integer, got {value!r} ({self.help})")
            value = int(value)
        elif self.type == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise AnalysisError(
                    f"{label} expects a number, got {value!r} ({self.help})")
            value = float(value)
        elif self.type == "str":
            if not isinstance(value, str):
                raise AnalysisError(
                    f"{label} expects a string, got {value!r} ({self.help})")
        elif self.type == "floats":
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise AnalysisError(
                    f"{label} expects a sequence of numbers, got {value!r} "
                    f"({self.help})")
            items = []
            for item in value:
                if isinstance(item, bool) or not isinstance(
                        item, (int, float)):
                    raise AnalysisError(
                        f"{label} expects numbers, got {item!r} "
                        f"({self.help})")
                items.append(float(item))
            if not items:
                raise AnalysisError(f"{label} must not be empty")
            value = tuple(items)
        if self.choices is not None and value not in self.choices:
            raise AnalysisError(
                f"{label} must be one of {self.choices}, got {value!r}")
        numbers = value if self.type == "floats" else (value,)
        if self.type in ("int", "float", "floats"):
            for number in numbers:
                if self.minimum is not None and number < self.minimum:
                    raise AnalysisError(
                        f"{label} must be >= {self.minimum}, got {number!r}")
                if self.maximum is not None and number > self.maximum:
                    raise AnalysisError(
                        f"{label} must be <= {self.maximum}, got {number!r}")
        return value

    def parse(self, text: str) -> Any:
        """Parse a CLI/string spelling of this parameter (then validate)."""
        if self.type == "int":
            try:
                value: Any = int(text)
            except ValueError:
                raise AnalysisError(
                    f"parameter {self.name!r} expects an integer, "
                    f"got {text!r} ({self.help})") from None
        elif self.type == "float":
            try:
                value = float(text)
            except ValueError:
                raise AnalysisError(
                    f"parameter {self.name!r} expects a number, "
                    f"got {text!r} ({self.help})") from None
        elif self.type == "floats":
            try:
                value = tuple(float(v) for v in text.split(",") if v.strip())
            except ValueError:
                raise AnalysisError(
                    f"parameter {self.name!r} expects comma-separated "
                    f"numbers, got {text!r} ({self.help})") from None
        else:
            value = text
        return self.validate(value)

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "type": self.type,
            "default": (list(self.default)
                        if isinstance(self.default, tuple) else self.default),
            "choices": list(self.choices) if self.choices is not None
            else None,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "help": self.help,
        }


def format_param_value(value: Any) -> str:
    """Compact human spelling of a normalised param value.

    The one place the grid-compaction rule lives (``(0.4, 0.8)`` ->
    ``'0.4,0.8'``): :meth:`RunConfig.label` and the campaign results
    table both render through it, so the two can never diverge.

    >>> format_param_value((0.4, 0.8))
    '0.4,0.8'
    """
    if isinstance(value, tuple):
        return ",".join(format(v, "g") for v in value)
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


#: ``fidelity`` is declared once, injected into every experiment schema.
FIDELITY_PARAM = Param(
    "fidelity", "str", default="fast", choices=FIDELITIES,
    help="simulation fidelity: 'fast' for coarse smoke grids, "
         "'paper' for the grids behind the paper's artefacts")


def seed_param(default: int, help: str = "base RNG seed "
               "(per-point seeds are derived deterministically)") -> Param:
    """The common ``seed`` parameter with a per-experiment default."""
    return Param("seed", "int", default=default, minimum=0, help=help)


def engine_param(default: Optional[str] = "spice",
                 help: Optional[str] = None) -> Param:
    """The common ``engine`` parameter, choices drawn from the registry.

    Like ``fidelity`` and ``seed``, ``engine`` is a first-class common
    parameter: its legal values are the registered
    :mod:`repro.engines` ids (never a hand-maintained tuple), so the
    CLI parser, :meth:`RunConfig.build` and direct runner calls all
    reject unknown engines against the same single source.  A default
    of ``None`` means "fidelity-dependent" (the runner picks).
    """
    from ..engines import engine_ids

    ids = tuple(engine_ids())
    return Param(
        "engine", "str", default=default, choices=ids,
        help=help or ("simulation engine: one of "
                      f"{', '.join(ids)} (registry-backed; see "
                      "`python -m repro list --engines`)"))


def solver_param(default: str = "auto", help: Optional[str] = None) -> Param:
    """The common ``solver`` parameter (MNA linear-solve backend).

    Choices come from :data:`repro.circuit.sparse.SOLVERS` — the same
    single source the MNA layer validates against — so the CLI parser,
    :meth:`RunConfig.build` and direct runner calls reject unknown
    backends identically.
    """
    from ..circuit.sparse import SOLVERS

    return Param(
        "solver", "str", default=default, choices=SOLVERS,
        help=help or ("MNA linear-solve backend: 'auto' keeps the "
                      "paper's small cells on dense LAPACK and switches "
                      "to scipy.sparse LU past the size/fill crossover "
                      "(see repro.circuit.sparse)"))


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: identity, schema and entry points."""

    id: str
    title: str
    runner: Callable[..., ExperimentResult]  #: undecorated function
    entry: Callable[..., ExperimentResult]   #: fidelity-validating wrapper
    tags: Tuple[str, ...] = ()
    params: Tuple[Param, ...] = (FIDELITY_PARAM,)
    description: str = ""

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise AnalysisError(
            f"experiment {self.id!r} has no parameter {name!r}; "
            f"declared: {[p.name for p in self.params]}")

    @property
    def runner_params(self) -> Tuple[Param, ...]:
        """Declared params minus ``fidelity`` (which is passed separately)."""
        return tuple(p for p in self.params if p.name != "fidelity")

    def describe(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "title": self.title,
            "tags": list(self.tags),
            "description": self.description,
            "params": [p.describe() for p in self.params],
        }


#: id -> spec, in registration (= curated import) order.
SPECS: "Dict[str, ExperimentSpec]" = {}


def experiment(id: str, *, title: str, tags: Iterable[str] = (),
               params: Iterable[Param] = ()):
    """Register a runner under a declarative, typed spec.

    The wrapped function keeps its exact signature and behaviour for
    direct calls, with one addition: ``fidelity`` is validated through
    :func:`check_fidelity` before the body runs, so every experiment
    rejects bad fidelities identically whether invoked directly, via
    :func:`~repro.experiments.registry.run_config`, the CLI, or the
    HTTP API.
    """
    declared = tuple(params)
    names = [p.name for p in declared]
    if len(set(names)) != len(names) or "fidelity" in names:
        raise AnalysisError(
            f"experiment {id!r}: duplicate or reserved parameter names "
            f"in {names}")

    def decorate(fn: Callable[..., ExperimentResult]):
        if id in SPECS:
            raise AnalysisError(f"experiment id {id!r} registered twice")

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            fidelity = args[0] if args else kwargs.get("fidelity", "fast")
            check_fidelity(fidelity)
            return fn(*args, **kwargs)

        doc = (inspect.getdoc(fn)
               or inspect.getdoc(sys.modules.get(fn.__module__)) or "")
        spec = ExperimentSpec(
            id=id, title=title, runner=fn, entry=entry, tags=tuple(tags),
            params=(FIDELITY_PARAM,) + declared,
            description=doc.splitlines()[0] if doc else "")
        SPECS[id] = spec
        entry.__experiment_spec__ = spec
        return entry

    return decorate


def _ensure_registered() -> None:
    """Import the experiment modules (they self-register on import)."""
    if not SPECS:
        from . import registry  # noqa: F401  (imports every module)


def get_spec(experiment_id: str) -> ExperimentSpec:
    _ensure_registered()
    try:
        return SPECS[experiment_id]
    except KeyError:
        raise AnalysisError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(SPECS)}") from None


def list_experiments(tag: Optional[str] = None) -> List[str]:
    """Registered experiment ids, optionally filtered by tag."""
    _ensure_registered()
    return [eid for eid, spec in SPECS.items()
            if tag is None or tag in spec.tags]


def describe(experiment_id: Optional[str] = None) -> Dict[str, Any]:
    """JSON-able schema of one experiment, or the whole surface."""
    if experiment_id is not None:
        return get_spec(experiment_id).describe()
    _ensure_registered()
    return {
        "schema_version": RUN_CONFIG_SCHEMA_VERSION,
        "count": len(SPECS),
        "experiments": [spec.describe() for spec in SPECS.values()],
    }


@dataclass(frozen=True)
class RunConfig:
    """A validated, canonical experiment run request.

    Build through :meth:`build` — it validates against the experiment's
    schema, fills every declared default, and normalises values
    (sequences to float tuples), so two configs are equal (and share a
    cache key) iff they request the same computation.  Instances are
    hashable and safe as dict keys.
    """

    experiment_id: str
    fidelity: str = "fast"
    #: name -> normalised value pairs, sorted by name, defaults filled.
    params: Tuple[Tuple[str, Any], ...] = ()
    schema_version: int = RUN_CONFIG_SCHEMA_VERSION

    @classmethod
    def build(cls, experiment_id: str, fidelity: str = "fast",
              params: Optional[Dict[str, Any]] = None) -> "RunConfig":
        spec = get_spec(experiment_id)
        check_fidelity(fidelity)
        given = dict(params or {})
        if "fidelity" in given:
            # Silently preferring either spelling would let a requested
            # fidelity be ignored; make the caller pick one channel.
            raise AnalysisError(
                f"{experiment_id}: pass fidelity as its own argument "
                "(CLI --fidelity, HTTP top-level \"fidelity\"), not "
                "inside params")
        unknown = set(given) - {p.name for p in spec.runner_params}
        if unknown:
            raise AnalysisError(
                f"unknown parameter(s) {sorted(unknown)} for experiment "
                f"{experiment_id!r}; declared: "
                f"{[p.name for p in spec.runner_params]}")
        normalised = []
        for param in spec.runner_params:
            value = given.get(param.name, param.default)
            normalised.append(
                (param.name,
                 param.validate(value, where=f"{experiment_id}: ")))
        return cls(experiment_id=experiment_id, fidelity=fidelity,
                   params=tuple(sorted(normalised)))

    # -- views --------------------------------------------------------------

    def param_dict(self) -> Dict[str, Any]:
        """Runner kwargs (every declared param, defaults filled)."""
        return dict(self.params)

    def canonical_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "experiment_id": self.experiment_id,
            "fidelity": self.fidelity,
            "params": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in self.params},
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def key(self) -> str:
        """Stable short content hash of the canonical encoding."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")).hexdigest()[:16]

    def label(self) -> str:
        """Compact one-line spelling for progress/status displays.

        >>> RunConfig.build("ext_yield", "fast", {"seed": 2}).label()
        'ext_yield[fast] method=auto seed=2'
        """
        tail = " ".join(f"{k}={format_param_value(v)}"
                        for k, v in self.params)
        head = f"{self.experiment_id}[{self.fidelity}]"
        return f"{head} {tail}" if tail else head

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunConfig":
        """Rebuild (and re-validate) from :meth:`canonical_dict` output."""
        return cls.build(data["experiment_id"],
                         data.get("fidelity", "fast"),
                         data.get("params") or {})
