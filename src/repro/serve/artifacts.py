"""Versioned JSON model artifacts and the on-disk model store.

An *artifact* is everything needed to rebuild a trained model for
serving: the adder configuration, the integer weight codes, and any
calibration polynomials — a few hundred bytes of JSON, schema-versioned
and stamped with a content hash so corrupted or hand-edited files are
rejected at load time.

Three model kinds are covered:

* ``"perceptron"`` — :class:`~repro.core.perceptron.DifferentialPwmPerceptron`
  (with optional per-bank :class:`~repro.core.behavioral.CalibrationModel`);
* ``"mlp"`` — :class:`~repro.core.network.PwmMlp` (hidden bank + trained
  output unit);
* ``"calibration"`` — a standalone calibration polynomial.

Schema history
--------------
* **v1** — initial format; perceptron calibration was a single
  coefficient list applied to both banks.
* **v2** — per-bank calibration (``{"pos": ..., "neg": ...}``) and the
  ``hash`` stamp.
* **v3** (current) — the adder config carries the full
  :class:`~repro.core.cells.CellDesign` (device parameters, geometry,
  output resistor, scale), so models trained on *custom* cell designs
  — not just the paper's Table I cell — serialise and serve.  Older
  documents load transparently through :func:`upgrade_artifact`
  (v2 → v3 fills in the Table I cell they implicitly assumed).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..circuit.exceptions import AnalysisError
from ..core.behavioral import CalibrationModel
from ..core.cells import CellDesign
from ..core.network import PwmMlp
from ..core.perceptron import DifferentialPwmPerceptron
from ..core.weighted_adder import AdderConfig
from ..tech.mosfet_models import MosfetParams

ARTIFACT_SCHEMA_VERSION = 3

#: Artifact fields excluded from the content hash: mutable metadata that
#: does not change the served model.
_UNHASHED_FIELDS = ("hash", "name", "created")

PathLike = Union[str, Path]


class NotFoundError(AnalysisError):
    """A named resource (model, experiment, endpoint) does not exist."""


# -- hashing ---------------------------------------------------------------

def artifact_hash(doc: Dict[str, Any]) -> str:
    """Content hash over the model-defining fields (canonical JSON)."""
    payload = {k: v for k, v in doc.items() if k not in _UNHASHED_FIELDS}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# -- config (de)serialisation ----------------------------------------------

#: Numeric MosfetParams fields carried by a v3 artifact (``polarity``
#: and ``name`` ride separately; ``name`` is cosmetic, compare=False).
_MOSFET_FIELDS = ("vt0", "kp", "lam", "n_sub", "cox", "cgso", "cgdo",
                  "cj_per_w")

#: Numeric CellDesign fields besides the two device parameter sets.
_CELL_FIELDS = ("nmos_width", "pmos_width", "length", "rout", "scale")


def _mosfet_to_dict(params: MosfetParams) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"polarity": params.polarity}
    doc.update({f: float(getattr(params, f)) for f in _MOSFET_FIELDS})
    if params.name:
        doc["name"] = params.name
    return doc


def _mosfet_from_dict(doc: Dict[str, Any]) -> MosfetParams:
    try:
        return MosfetParams(
            polarity=doc["polarity"], name=doc.get("name", ""),
            **{f: float(doc[f]) for f in _MOSFET_FIELDS})
    except (KeyError, TypeError, ValueError) as exc:
        raise AnalysisError(
            f"bad device parameters in artifact cell: {exc}") from exc


def cell_to_dict(cell: CellDesign) -> Dict[str, Any]:
    """Full :class:`CellDesign` → JSON (schema-v3 ``config.cell``)."""
    doc: Dict[str, Any] = {"nmos": _mosfet_to_dict(cell.nmos),
                           "pmos": _mosfet_to_dict(cell.pmos)}
    doc.update({f: float(getattr(cell, f)) for f in _CELL_FIELDS})
    return doc


def cell_from_dict(doc: Dict[str, Any]) -> CellDesign:
    """JSON ``config.cell`` → :class:`CellDesign` (round-trip inverse
    of :func:`cell_to_dict`)."""
    try:
        return CellDesign(
            nmos=_mosfet_from_dict(doc["nmos"]),
            pmos=_mosfet_from_dict(doc["pmos"]),
            **{f: float(doc[f]) for f in _CELL_FIELDS})
    except (KeyError, TypeError, ValueError) as exc:
        raise AnalysisError(
            f"bad cell design in artifact: {exc}") from exc


def _config_to_dict(config: AdderConfig) -> Dict[str, Any]:
    return {
        "n_bits": config.n_bits,
        "vdd": config.vdd,
        "frequency": config.frequency,
        "cout": config.cout,
        "rise_fraction": config.rise_fraction,
        "cell": cell_to_dict(config.cell),
    }


def _config_from_dict(doc: Dict[str, Any]) -> AdderConfig:
    cell = (cell_from_dict(doc["cell"]) if "cell" in doc
            else CellDesign())
    return AdderConfig(
        n_bits=int(doc["n_bits"]), vdd=float(doc["vdd"]),
        frequency=float(doc["frequency"]), cout=float(doc["cout"]),
        rise_fraction=float(doc["rise_fraction"]), cell=cell)


def _calibration_of(adder) -> Optional[List[float]]:
    cal = adder._behavioral.calibration
    return None if cal is None else [float(c) for c in cal.coefficients]


def _attach_calibration(perceptron: DifferentialPwmPerceptron,
                        pos: Optional[List[float]],
                        neg: Optional[List[float]]) -> None:
    if pos is not None:
        perceptron.pos_adder = perceptron.pos_adder.with_calibration(
            CalibrationModel(list(pos)))
    if neg is not None:
        perceptron.neg_adder = perceptron.neg_adder.with_calibration(
            CalibrationModel(list(neg)))


# -- model (de)serialisation -----------------------------------------------

def _perceptron_to_dict(p: DifferentialPwmPerceptron) -> Dict[str, Any]:
    return {
        "weights": [int(w) for w in p.weights],
        "bias": int(p.bias),
        "comparator": {"offset": float(p.comparator.offset),
                       "hysteresis": float(p.comparator.hysteresis)},
        "calibration": {"pos": _calibration_of(p.pos_adder),
                        "neg": _calibration_of(p.neg_adder)},
    }


def _perceptron_from_dict(doc: Dict[str, Any],
                          config: AdderConfig) -> DifferentialPwmPerceptron:
    from ..core.comparator import DifferentialComparator

    comparator = DifferentialComparator(
        offset=float(doc["comparator"]["offset"]),
        hysteresis=float(doc["comparator"]["hysteresis"]))
    p = DifferentialPwmPerceptron(
        [int(w) for w in doc["weights"]], bias=int(doc["bias"]),
        config=config, comparator=comparator)
    cal = doc.get("calibration") or {}
    _attach_calibration(p, cal.get("pos"), cal.get("neg"))
    return p


def serialize_model(model, *, name: str = "") -> Dict[str, Any]:
    """Model → versioned artifact document (hash-stamped)."""
    if isinstance(model, DifferentialPwmPerceptron):
        doc: Dict[str, Any] = {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "kind": "perceptron",
            "config": _config_to_dict(model.config),
        }
        doc.update(_perceptron_to_dict(model))
    elif isinstance(model, PwmMlp):
        if model.output is None:
            raise AnalysisError(
                "cannot export an untrained network; call fit() first")
        doc = {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "kind": "mlp",
            "config": _config_to_dict(model.config),
            "gain": float(model.hidden.gain),
            "hidden": [_perceptron_to_dict(u) for u in model.hidden.units],
            "output": _perceptron_to_dict(model.output),
        }
    elif isinstance(model, CalibrationModel):
        doc = {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "kind": "calibration",
            "coefficients": [float(c) for c in model.coefficients],
        }
    else:
        raise AnalysisError(
            f"cannot serialise model of type {type(model).__name__}")
    if name:
        doc["name"] = name
    doc["hash"] = artifact_hash(doc)
    return doc


def upgrade_artifact(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Migrate an older-schema document to the current schema.

    The migrations chain, one version at a time, and the content hash
    is restamped once at the end:

    * v1 → v2: a perceptron's single ``calibration`` coefficient list
      becomes the per-bank ``{"pos": ..., "neg": ...}`` mapping (v1
      applied one polynomial to both banks);
    * v2 → v3: the adder config gains the full ``cell`` design — v2
      artifacts could only describe the paper's Table I cell, so that
      is exactly what the migration fills in.
    """
    schema = doc.get("schema")
    if schema == ARTIFACT_SCHEMA_VERSION:
        return doc
    if schema not in (1, 2):
        raise AnalysisError(
            f"unsupported artifact schema {schema!r}; this build reads "
            f"versions 1..{ARTIFACT_SCHEMA_VERSION}")
    doc = json.loads(json.dumps(doc))  # deep copy

    def upgrade_unit(unit: Dict[str, Any]) -> None:
        cal = unit.get("calibration")
        if cal is None or isinstance(cal, dict):
            unit["calibration"] = cal or {"pos": None, "neg": None}
        else:
            unit["calibration"] = {"pos": list(cal), "neg": list(cal)}
        unit.setdefault("comparator", {"offset": 0.0, "hysteresis": 0.0})

    if schema == 1:
        if doc["kind"] == "perceptron":
            upgrade_unit(doc)
        elif doc["kind"] == "mlp":
            for unit in doc["hidden"]:
                upgrade_unit(unit)
            upgrade_unit(doc["output"])
        schema = 2
    if schema == 2:
        if isinstance(doc.get("config"), dict):
            doc["config"].setdefault("cell", cell_to_dict(CellDesign()))
        schema = 3
    doc["schema"] = ARTIFACT_SCHEMA_VERSION
    doc["hash"] = artifact_hash(doc)
    return doc


def deserialize_model(doc: Dict[str, Any]):
    """Artifact document → model (any supported schema version)."""
    if "schema" not in doc or "kind" not in doc:
        raise AnalysisError("not a model artifact: missing schema/kind")
    doc = upgrade_artifact(doc)
    kind = doc["kind"]
    if kind == "calibration":
        return CalibrationModel([float(c) for c in doc["coefficients"]])
    config = _config_from_dict(doc["config"])
    if kind == "perceptron":
        return _perceptron_from_dict(doc, config)
    if kind == "mlp":
        hidden_docs = doc["hidden"]
        if not hidden_docs:
            raise AnalysisError("mlp artifact has no hidden units")
        n_features = len(hidden_docs[0]["weights"])
        mlp = PwmMlp(n_features, len(hidden_docs), config=config,
                     gain=float(doc["gain"]), seed=0)
        mlp.hidden.units = [_perceptron_from_dict(u, config)
                            for u in hidden_docs]
        mlp.output = _perceptron_from_dict(doc["output"], config)
        return mlp
    raise AnalysisError(f"unknown artifact kind {kind!r}")


# -- the store -------------------------------------------------------------

class ModelStore:
    """On-disk model registry: one hash-stamped JSON file per model.

    >>> store = ModelStore("/tmp/repro-models-doctest")
    >>> store.list()
    []
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        #: Validated artifact path (a ``str``) per name that has existed,
        #: so :meth:`stat` costs one ``os.stat`` per request.
        self._stat_paths: Dict[str, str] = {}

    def path_for(self, name: str) -> Path:
        if not name or any(c in name for c in "/\\\0") or name.startswith("."):
            raise AnalysisError(f"invalid model name {name!r}")
        return self.root / f"{name}.json"

    def save(self, name: str, model, *, overwrite: bool = True) -> Path:
        """Serialise and persist a model; returns the artifact path."""
        path = self.path_for(name)
        if path.exists() and not overwrite:
            raise AnalysisError(f"model {name!r} already exists at {path}")
        doc = serialize_model(model, name=name)
        doc["created"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path

    def stat(self, name: str) -> Optional[Tuple[int, int]]:
        """Cheap freshness token for ``name``: ``(mtime_ns, size)``.

        The serving plane compares this against the token captured at
        load time to skip re-reading (and re-hashing) the artifact on
        every request while still noticing re-exports.  ``None`` means
        the artifact is missing (or unreadable) right now.
        """
        path = self._stat_paths.get(name) or str(self.path_for(name))
        try:
            st = os.stat(path)
        except OSError:
            return None
        self._stat_paths[name] = path
        return (st.st_mtime_ns, st.st_size)

    def load_doc(self, name: str) -> Dict[str, Any]:
        """Raw artifact document, hash-verified and schema-upgraded."""
        path = self.path_for(name)
        if not path.exists():
            raise NotFoundError(f"no model {name!r} in {self.root}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"corrupt artifact {path}: {exc}") from exc
        stamped = doc.get("hash")
        if stamped is None and doc.get("schema", 0) >= 2:
            # Only pre-hash (v1) artifacts may legitimately lack a stamp.
            raise AnalysisError(f"artifact {path} is missing its hash stamp")
        if stamped is not None and stamped != artifact_hash(doc):
            raise AnalysisError(
                f"artifact {path} failed its hash check "
                f"(stamped {stamped}, computed {artifact_hash(doc)})")
        return upgrade_artifact(doc)

    def load(self, name: str):
        """Rebuild the model behind ``name``."""
        return deserialize_model(self.load_doc(name))

    def list(self) -> List[Dict[str, Any]]:
        """Metadata for every artifact in the store (sorted by name)."""
        if not self.root.exists():
            return []
        out = []
        for path in sorted(self.root.glob("*.json")):
            try:
                doc = json.loads(path.read_text())
            except json.JSONDecodeError:
                continue
            if "kind" not in doc:
                continue
            meta = {
                "name": doc.get("name", path.stem),
                "kind": doc["kind"],
                "schema": doc.get("schema"),
                "hash": doc.get("hash"),
                "created": doc.get("created"),
            }
            if doc["kind"] == "perceptron":
                meta["n_features"] = len(doc["weights"])
            elif doc["kind"] == "mlp":
                meta["n_features"] = len(doc["hidden"][0]["weights"])
                meta["n_hidden"] = len(doc["hidden"])
            out.append(meta)
        return out

    def __repr__(self) -> str:
        return f"<ModelStore root={str(self.root)!r}>"
