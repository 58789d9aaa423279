"""Multi-layer extension: networks of PWM perceptrons.

The paper presents a single perceptron and notes it is the building
block of deep networks.  This module composes layers the way the
hardware would: each hidden unit is a differential pair of weighted
adders, and its *analog differential output* is re-encoded into a duty
cycle ratiometrically (``0.5 + (v_pos - v_neg) / vdd``, clipped), so the
inter-layer signal remains supply-independent.

Training uses the random-hidden-layer (ELM-style) scheme: hidden weights
are drawn once at random on the hardware grid, and only the output
perceptron is trained with the Rosenblatt rule — a scheme that needs no
backpropagation through the analog stack and is therefore realisable
with the paper's Fig. 1 feedback loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..circuit.exceptions import AnalysisError
from .encoding import max_weight
from .perceptron import DifferentialPwmPerceptron
from .weighted_adder import AdderConfig

if TYPE_CHECKING:
    from .training import TrainingResult


class PwmHiddenLayer:
    """A bank of differential PWM units with ratiometric re-encoding."""

    def __init__(self, n_features: int, n_units: int, *,
                 config: Optional[AdderConfig] = None, gain: float = 2.0,
                 seed: Optional[int] = None):
        if n_units < 1:
            raise AnalysisError("hidden layer needs at least one unit")
        self.config = config or AdderConfig()
        self.gain = gain
        rng = np.random.default_rng(seed)
        limit = max_weight(self.config.n_bits)
        self.units: List[DifferentialPwmPerceptron] = []
        for _ in range(n_units):
            weights = rng.integers(-limit, limit + 1, n_features)
            bias = int(rng.integers(-limit, limit + 1))
            self.units.append(DifferentialPwmPerceptron(
                [int(w) for w in weights], bias=bias, config=self.config))

    def forward(self, duties: Sequence[float], *, engine: str = "behavioral",
                vdd: Optional[float] = None) -> "list[float]":
        """Hidden activations as duty cycles in [0, 1].

        The activation is the clipped, gained ratiometric differential:
        a hardware-friendly piecewise-linear sigmoid.
        """
        supply = self.config.vdd if vdd is None else vdd
        out = []
        for unit in self.units:
            decision = unit.decide(duties, engine=engine, vdd=supply)
            ratio = decision.v_out / supply  # differential, in [-1, 1]
            out.append(float(np.clip(0.5 + self.gain * ratio, 0.0, 1.0)))
        return out


class PwmMlp:
    """Two-layer PWM network: random hidden layer + trained output unit."""

    def __init__(self, n_features: int, n_hidden: int, *,
                 config: Optional[AdderConfig] = None, gain: float = 2.0,
                 seed: Optional[int] = None):
        self.hidden = PwmHiddenLayer(n_features, n_hidden, config=config,
                                     gain=gain, seed=seed)
        self.config = self.hidden.config
        self.n_hidden = n_hidden
        self.output: Optional[DifferentialPwmPerceptron] = None
        self._seed = seed

    def hidden_features(self, X: Sequence[Sequence[float]], *,
                        engine: str = "behavioral",
                        vdd: Optional[float] = None) -> np.ndarray:
        """Hidden activations for a whole sample matrix.

        The behavioural engine runs as one vectorised
        :class:`~repro.serve.engine.BatchInferenceEngine` pass —
        bit-identical to the per-sample loop, which the hardware
        engines still use.
        """
        if engine == "behavioral":
            from ..serve.engine import BatchInferenceEngine

            return BatchInferenceEngine().hidden_features(
                self.hidden, np.asarray(X, dtype=float), vdd=vdd)
        return np.asarray([
            self.hidden.forward(x, engine=engine, vdd=vdd) for x in X
        ])

    def fit(self, X: Sequence[Sequence[float]], y: Sequence[int], *,
            epochs: int = 60, engine: str = "behavioral",
            learning_rate: float = 0.2,
            vdd: Optional[float] = None) -> TrainingResult:
        """Train the output unit on the hidden duty-cycle features."""
        from .training import PerceptronTrainer

        H = self.hidden_features(X, engine=engine, vdd=vdd)
        trainer = PerceptronTrainer(self.n_hidden, config=self.config,
                                    learning_rate=learning_rate,
                                    engine=engine, seed=self._seed)
        result = trainer.fit(H, y, epochs=epochs, vdd=vdd)
        self.output = result.perceptron
        return result

    def predict(self, duties: Sequence[float], *, engine: str = "behavioral",
                vdd: Optional[float] = None) -> int:
        if self.output is None:
            raise AnalysisError("network is not trained; call fit() first")
        hidden = self.hidden.forward(duties, engine=engine, vdd=vdd)
        return self.output.predict(hidden, engine=engine, vdd=vdd)

    def predict_batch(self, X: Sequence[Sequence[float]], *,
                      vdd: Optional[float] = None) -> np.ndarray:
        """Behavioural classification of a whole ``(samples, features)``
        matrix in one vectorised pass (bit-identical to per-sample
        :meth:`predict`)."""
        from ..serve.engine import BatchInferenceEngine

        return BatchInferenceEngine().predict_mlp(
            self, np.asarray(X, dtype=float), vdd=vdd)

    def accuracy(self, X: Sequence[Sequence[float]], y: Sequence[int], *,
                 engine: str = "behavioral",
                 vdd: Optional[float] = None) -> float:
        if len(y) == 0:
            return 0.0
        if engine == "behavioral" and self.output is not None:
            from ..serve.engine import _plain_differential

            if _plain_differential(self.output.comparator):
                preds = self.predict_batch(X, vdd=vdd)
                return int(np.sum(preds == np.asarray(y, dtype=int))) / len(y)
        hits = sum(int(self.predict(x, engine=engine, vdd=vdd) == label)
                   for x, label in zip(X, y))
        return hits / len(y)

    @property
    def transistor_count(self) -> int:
        """Adder transistors across all units (comparators excluded)."""
        count = sum(u.transistor_count for u in self.hidden.units)
        if self.output is not None:
            count += self.output.transistor_count
        return count
