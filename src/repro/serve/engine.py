"""Vectorised batch inference for PWM perceptron models.

The scalar inference path (`DifferentialPwmPerceptron.decide`,
`PwmHiddenLayer.forward`) evaluates paper Eq. 2 one sample at a time —
fine for experiments, hopeless for serving.  This module runs the same
behavioural forward pass as whole-``(samples, features)`` numpy matrix
operations.

Bit-exactness
-------------
The batched behavioural path is **bit-for-bit identical** to the scalar
path, not merely close: the Eq. 2 accumulation is performed column by
column in the same order as the scalar ``sum()``, the calibration
polynomial is evaluated with the same Horner recurrence, and the hidden
re-encoding applies the same clip expression.  That exactness is what
lets :class:`~repro.core.training.PerceptronTrainer` and
:meth:`~repro.core.network.PwmMlp.fit` route their epoch loops through
this engine without perturbing a single training trajectory (pinned by
the equivalence tests).

Supply sweeps
-------------
For the switch-level engine, a whole supply sweep of one sample shares
its PWM switching pattern, so it batches through
:class:`~repro.core.rc_model.RcBatchSolver` — one vectorised periodic
solve per sample instead of one scalar solve per ``(sample, vdd)``
point (:meth:`BatchInferenceEngine.predict_supply_sweep`).  The same
timing-sharing argument holds at transistor level: the sweep stacks
into one :func:`~repro.circuit.batch_transient.shooting_batch` per
adder bank, and served margins stack every row of a request into one
batched shooting PSS per bank (:meth:`BatchInferenceEngine.margins_spice`)
— spice-backed ``/predict`` is slow but served, no longer rejected.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..circuit.exceptions import AnalysisError
from ..core.behavioral import CalibrationModel
from ..core.comparator import DifferentialComparator
from ..core.encoding import check_weights, max_weight
from ..core.network import PwmHiddenLayer, PwmMlp
from ..core.perceptron import DifferentialPwmPerceptron
from ..exec.batch import batch_adder_values, leg_resistance_arrays

ArrayLike = Union[float, np.ndarray]


def check_duty_range(X: np.ndarray) -> np.ndarray:
    """Raise unless every entry of the float array ``X`` is a duty
    cycle in [0, 1].

    Two reductions suffice: ``min``/``max`` propagate NaN and NaN fails
    both comparisons, so non-finite entries are rejected too.
    """
    if X.size and not (X.min() >= 0.0 and X.max() <= 1.0):
        raise AnalysisError("duty cycles must be finite and lie in [0, 1]")
    return X


def check_duty_matrix(X, n_features: int) -> np.ndarray:
    """Validate a ``(samples, features)`` duty matrix (vectorised
    counterpart of :func:`repro.core.encoding.check_duties`)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n_features:
        raise AnalysisError(
            f"duty matrix must be (n_samples, {n_features}), got "
            f"{X.shape}")
    return check_duty_range(X)


def _eq2(duties: np.ndarray, weights: Sequence[int], n_bits: int,
         vdd: ArrayLike) -> np.ndarray:
    """Paper Eq. 2 with trusted weights: the one accumulation behind
    :func:`eq2_output_vec` and the engine's margins.

    ``weights`` may hold one entry more than ``duties`` has columns;
    that last weight rides the always-on bias channel and is added as
    ``acc + w``, exactly the ``acc + 1.0 * w`` of a column of ones.
    """
    acc = np.zeros(duties.shape[0])
    for j in range(duties.shape[1]):
        acc = acc + duties[:, j] * weights[j]
    if len(weights) > duties.shape[1]:
        acc = acc + weights[-1]
    return (np.asarray(vdd, dtype=float) * acc
            / (len(weights) * max_weight(n_bits)))


def eq2_output_vec(duties: np.ndarray, weights: Sequence[int], *,
                   n_bits: int, vdd: ArrayLike) -> np.ndarray:
    """Paper Eq. 2 over a ``(samples, channels)`` duty matrix.

    ``vdd`` may be a scalar (shared supply) or a ``(samples,)`` array
    (one supply per row).  The accumulation runs column by column so
    every row reproduces the scalar :func:`repro.core.behavioral.eq2_output`
    bit for bit, regardless of channel count.
    """
    duties = np.asarray(duties, dtype=float)
    k = duties.shape[1]
    weights = check_weights(weights, n_bits)
    if len(weights) != k:
        raise AnalysisError(
            f"{k} duty columns vs {len(weights)} weights")
    if k == 0:
        raise AnalysisError("adder needs at least one input")
    return _eq2(duties, weights, n_bits, vdd)


def calibration_apply_vec(calibration: CalibrationModel,
                          v_ideal: np.ndarray,
                          vdd: ArrayLike) -> np.ndarray:
    """Vectorised :meth:`CalibrationModel.apply` (same Horner order)."""
    vdd = np.asarray(vdd, dtype=float)
    if np.any(vdd <= 0):
        raise AnalysisError("vdd must be positive")
    x = np.asarray(v_ideal, dtype=float) / vdd
    acc = np.zeros_like(x)
    for c in reversed(calibration.coefficients):
        acc = acc * x + c
    return np.clip(acc, 0.0, 1.0) * vdd


def _adder_volts(adder, duties: np.ndarray, weights: Sequence[int],
                 vdd: ArrayLike) -> np.ndarray:
    """Behavioural output voltages of one :class:`WeightedAdder` bank
    (calibration applied when the adder carries one).  ``weights`` are
    trusted: models validate theirs when they are set."""
    v = _eq2(duties, weights, adder.config.n_bits, vdd)
    calibration = adder._behavioral.calibration
    if calibration is not None:
        v = calibration_apply_vec(calibration, v, vdd)
    return v


def _differential(perceptron: DifferentialPwmPerceptron, X: np.ndarray,
                  supply: ArrayLike) -> np.ndarray:
    """``v_pos - v_neg`` over a checked duty matrix; the bias channel's
    weight is the last of each bank's weights."""
    return (_adder_volts(perceptron.pos_adder, X,
                         perceptron._pos_weights, supply)
            - _adder_volts(perceptron.neg_adder, X,
                           perceptron._neg_weights, supply))


def _hidden(layer: PwmHiddenLayer, X: np.ndarray,
            supply: ArrayLike) -> np.ndarray:
    """:meth:`BatchInferenceEngine.hidden_features` over a checked duty
    matrix."""
    out = np.empty((X.shape[0], len(layer.units)))
    for u, unit in enumerate(layer.units):
        ratio = _differential(unit, X, supply) / supply
        out[:, u] = np.clip(0.5 + layer.gain * ratio, 0.0, 1.0)
    return out


def _plain_differential(comparator) -> bool:
    """True when the decision reduces to ``(pos - neg) > offset``."""
    return (type(comparator) is DifferentialComparator
            and comparator.hysteresis == 0.0)


class BatchInferenceEngine:
    """Whole-matrix behavioural forward pass for trained PWM models.

    One engine instance is stateless and thread-safe; the HTTP server
    shares a single instance across its worker threads.
    """

    # -- differential perceptron ------------------------------------------

    def margins(self, perceptron: DifferentialPwmPerceptron, X, *,
                vdd: Optional[ArrayLike] = None,
                _checked: bool = False) -> np.ndarray:
        """Analog decision margins ``v_pos - v_neg`` (volts), one per row.

        ``vdd`` may be a scalar or a per-row array; ``None`` uses the
        model's nominal supply.  ``_checked`` marks ``X`` as a float
        duty matrix its caller already validated with
        :func:`check_duty_matrix` (the serving flush: ``parse_predict``
        checks every request once).
        """
        if not _checked:
            X = check_duty_matrix(X, perceptron.n_features)
        supply = perceptron.config.vdd if vdd is None else vdd
        return _differential(perceptron, X, supply)

    def predict(self, perceptron: DifferentialPwmPerceptron, X, *,
                vdd: Optional[ArrayLike] = None) -> np.ndarray:
        """Batched binary classification, shape ``(samples,)`` of 0/1."""
        if not _plain_differential(perceptron.comparator):
            raise AnalysisError(
                "batched inference requires a plain DifferentialComparator "
                "(hysteresis carries state across samples)")
        offset = perceptron.comparator.offset
        return (self.margins(perceptron, X, vdd=vdd) > offset).astype(int)

    def predict_supply_sweep(self, perceptron: DifferentialPwmPerceptron,
                             x: Sequence[float],
                             vdd_values: Sequence[float], *,
                             engine: str = "behavioral",
                             steps_per_period: int = 60,
                             solver: str = "auto") -> np.ndarray:
        """One sample across a supply sweep, shape ``(len(vdd_values),)``.

        With ``engine="rc"`` the whole sweep shares the sample's PWM
        switching pattern, so it runs as **one**
        :class:`~repro.core.rc_model.RcBatchSolver` solve per cell bank
        instead of one scalar switch-level solve per supply point.  The
        transistor engine exploits the same sharing: all supply points
        stack into one lock-step
        :func:`~repro.circuit.batch_transient.shooting_batch` per adder
        bank (``steps_per_period``/``solver`` apply only there).
        """
        from ..engines import require_capability
        from ..exec.batch import resolve_solver

        resolved = require_capability(engine, "serving_margins",
                                      context="supply-sweep inference")
        solver = resolve_solver(solver, engine_id=engine)
        level = resolved.capabilities().level
        if level not in ("behavioral", "switch", "transistor"):
            raise AnalysisError(
                f"no supply-sweep implementation for engine "
                f"{engine!r} (level {level!r})")
        vdds = np.asarray(list(vdd_values), dtype=float)
        if vdds.ndim != 1 or vdds.size == 0:
            raise AnalysisError("need a non-empty 1-D vdd sweep")
        if level == "behavioral":
            X = np.broadcast_to(np.asarray(x, float),
                                (vdds.size, len(x)))
            return self.predict(perceptron, X, vdd=vdds)
        if not _plain_differential(perceptron.comparator):
            raise AnalysisError(
                "batched inference requires a plain DifferentialComparator "
                "(hysteresis carries state across samples)")
        cfg = perceptron.config
        duties = list(x) + [1.0]
        if level == "transistor":
            from ..circuit.batch_transient import shooting_batch

            period = 1.0 / cfg.frequency
            banks = []
            for weights in (perceptron._pos_weights,
                            perceptron._neg_weights):
                circuits = [perceptron.pos_adder.build_circuit(
                    duties, weights, vdd=float(v)) for v in vdds]
                pss = shooting_batch(circuits, period, observe=["out"],
                                     steps_per_period=steps_per_period,
                                     solver=solver)
                banks.append(pss.averages("out"))
            margins = banks[0] - banks[1]
            return (margins > perceptron.comparator.offset).astype(int)
        r_up, r_down = leg_resistance_arrays(cfg, None, vdds)
        pos = batch_adder_values(cfg, duties, perceptron._pos_weights,
                                 r_up, r_down, vdds).value
        neg = batch_adder_values(cfg, duties, perceptron._neg_weights,
                                 r_up, r_down, vdds).value
        return ((pos - neg) > perceptron.comparator.offset).astype(int)

    # -- multi-layer network ----------------------------------------------

    def hidden_features(self, layer: PwmHiddenLayer, X, *,
                        vdd: Optional[ArrayLike] = None) -> np.ndarray:
        """Hidden duty-cycle activations, shape ``(samples, units)``.

        Reproduces :meth:`PwmHiddenLayer.forward` bit for bit: per-unit
        differential margin, ratiometric gain, clip to [0, 1].
        """
        X = check_duty_matrix(X, layer.units[0].n_features)
        return _hidden(layer, X, layer.config.vdd if vdd is None else vdd)

    def predict_mlp(self, mlp: PwmMlp, X, *,
                    vdd: Optional[ArrayLike] = None) -> np.ndarray:
        """Batched network classification, shape ``(samples,)`` of 0/1."""
        if mlp.output is None:
            raise AnalysisError("network is not trained; call fit() first")
        hidden = self.hidden_features(mlp.hidden, X, vdd=vdd)
        return self.predict(mlp.output, hidden, vdd=vdd)

    # -- generic entry point ----------------------------------------------

    def predict_model(self, model, X, *,
                      vdd: Optional[ArrayLike] = None) -> np.ndarray:
        """Dispatch on model type — the serving entry point."""
        if isinstance(model, PwmMlp):
            return self.predict_mlp(model, X, vdd=vdd)
        if isinstance(model, DifferentialPwmPerceptron):
            return self.predict(model, X, vdd=vdd)
        raise AnalysisError(
            f"cannot serve model of type {type(model).__name__}")

    def margins_rc(self, perceptron: DifferentialPwmPerceptron, X, *,
                   vdd: Optional[ArrayLike] = None) -> np.ndarray:
        """Switch-level analog margins, one exact periodic solve pair
        per row (rows have distinct PWM patterns, so they cannot share
        one batch solve — the cost the registry's ``cost_rank``
        advertises)."""
        X = check_duty_matrix(X, perceptron.n_features)
        cfg = perceptron.config
        supply = np.broadcast_to(
            np.asarray(cfg.vdd if vdd is None else vdd, dtype=float),
            (X.shape[0],))
        # Device resistances depend only on the rail: with one shared
        # supply (the /predict common case) compute them once, not per
        # row.
        uniform = bool(np.all(supply == supply[0])) if supply.size else True
        if uniform:
            v_shared = np.asarray([supply[0]]) if supply.size else supply
            r_up, r_down = leg_resistance_arrays(cfg, None, v_shared)
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            duties = list(row) + [1.0]
            v = np.asarray([supply[i]])
            if not uniform:
                r_up, r_down = leg_resistance_arrays(cfg, None, v)
            pos = batch_adder_values(cfg, duties, perceptron._pos_weights,
                                     r_up, r_down, v).value
            neg = batch_adder_values(cfg, duties, perceptron._neg_weights,
                                     r_up, r_down, v).value
            out[i] = pos[0] - neg[0]
        return out

    def margins_spice(self, perceptron: DifferentialPwmPerceptron, X, *,
                      vdd: Optional[ArrayLike] = None,
                      steps_per_period: int = 60,
                      solver: str = "auto") -> np.ndarray:
        """Transistor-level analog margins, one batched shooting PSS
        per adder bank.

        Each bank's rows stack into one lock-step
        :meth:`~repro.core.weighted_adder.WeightedAdder.evaluate_spice`
        solve (rows differ in PWM timing and supply, not in netlist
        structure); every margin equals its per-row solve bit for bit.
        The default ``steps_per_period`` trades step resolution for
        serving latency (the experiments' fast fidelity); ``solver``
        picks the MNA linear backend.
        """
        X = check_duty_matrix(X, perceptron.n_features)
        cfg = perceptron.config
        supply = np.broadcast_to(
            np.asarray(cfg.vdd if vdd is None else vdd, dtype=float),
            (X.shape[0],))
        banks = []
        for adder, weights in ((perceptron.pos_adder,
                                perceptron._pos_weights),
                               (perceptron.neg_adder,
                                perceptron._neg_weights)):
            results = adder.evaluate_spice(
                [dict(duties=list(row) + [1.0], weights=weights,
                      vdd=float(v)) for row, v in zip(X, supply)],
                steps_per_period=steps_per_period, solver=solver)
            banks.append(np.array([r.value for r in results]))
        return banks[0] - banks[1]

    def model_margins(self, model, X, *,
                      vdd: Optional[ArrayLike] = None,
                      engine: str = "behavioral",
                      solver: str = "auto") -> np.ndarray:
        """Analog evidence per row: the output stage's differential
        margin in volts (for MLPs, of the output unit on its hidden
        activations).

        ``engine`` selects the modelling fidelity through the registry:
        ``"behavioral"`` (the vectorised hot path), ``"rc"`` (exact
        switch-level solves per row) or ``"spice"`` (transistor PSS, each
        adder bank's rows as one batched solve).  Ids without the
        ``serving_margins`` capability are rejected at the registry
        choke point; ``solver`` picks the MNA backend and is only legal
        for transistor-level engines.
        """
        from ..engines import require_capability
        from ..exec.batch import resolve_solver

        resolved = require_capability(engine, "serving_margins",
                                      context="served analog margins")
        solver = resolve_solver(solver, engine_id=engine)
        # Dispatch on the engine's declared modelling level, not its id,
        # so a future serving-capable engine cannot silently fall into
        # the wrong margin implementation.
        level = resolved.capabilities().level
        if level not in ("behavioral", "switch", "transistor"):
            raise AnalysisError(
                f"no served-margin implementation for engine "
                f"{engine!r} (level {level!r})")
        if level in ("switch", "transistor"):
            if isinstance(model, PwmMlp):
                raise AnalysisError(
                    f"{level}-level margins support single differential "
                    "perceptrons; MLPs serve behaviorally")
            if isinstance(model, DifferentialPwmPerceptron):
                if level == "transistor":
                    return self.margins_spice(model, X, vdd=vdd,
                                              solver=solver)
                return self.margins_rc(model, X, vdd=vdd)
            raise AnalysisError(
                f"cannot serve model of type {type(model).__name__}")
        return self.behavioral_margins(
            model, check_duty_matrix(X, model_n_features(model)), vdd=vdd)

    def behavioral_margins(self, model, X: np.ndarray, *,
                           vdd: Optional[ArrayLike] = None) -> np.ndarray:
        """:meth:`model_margins` at the behavioural level, without the
        registry lookups or the input check: for callers that already
        routed the request to the ``"behavioral"`` engine and validated
        ``X`` with :func:`check_duty_matrix` (the serving micro-batcher,
        whose rows ``parse_predict`` checked)."""
        if isinstance(model, PwmMlp):
            if model.output is None:
                raise AnalysisError(
                    "network is not trained; call fit() first")
            layer = model.hidden
            hidden = _hidden(layer, X,
                             layer.config.vdd if vdd is None else vdd)
            return self.margins(model.output, hidden, vdd=vdd,
                                _checked=True)
        if isinstance(model, DifferentialPwmPerceptron):
            return self.margins(model, X, vdd=vdd, _checked=True)
        raise AnalysisError(
            f"cannot serve model of type {type(model).__name__}")


def model_n_features(model) -> int:
    """Input width a served model expects."""
    if isinstance(model, PwmMlp):
        return model.hidden.units[0].n_features
    if isinstance(model, DifferentialPwmPerceptron):
        return model.n_features
    raise AnalysisError(
        f"cannot serve model of type {type(model).__name__}")


def model_output_stage(model) -> DifferentialPwmPerceptron:
    """The perceptron making a model's final decision."""
    if isinstance(model, PwmMlp):
        if model.output is None:
            raise AnalysisError("network is not trained; call fit() first")
        return model.output
    if isinstance(model, DifferentialPwmPerceptron):
        return model
    raise AnalysisError(
        f"cannot serve model of type {type(model).__name__}")


def model_decision_offset(model) -> float:
    """Threshold turning :meth:`BatchInferenceEngine.model_margins` into
    predictions (``margin > offset``) — so one forward pass yields both.

    Raises when the output stage's comparator is stateful (hysteresis),
    which batched inference cannot reproduce.
    """
    stage = model_output_stage(model)
    if not _plain_differential(stage.comparator):
        raise AnalysisError(
            "batched inference requires a plain DifferentialComparator "
            "(hysteresis carries state across samples)")
    return stage.comparator.offset
