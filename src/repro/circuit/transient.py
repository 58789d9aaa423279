"""Transient analysis of one circuit.

:func:`transient` is a one-lane run of the lock-step MNA stepper
(:class:`~repro.circuit.batch_transient.BatchTransientSolver`): it
integrates with trapezoidal companions, drops to backward Euler for a
couple of steps after every source breakpoint (the standard damping of
trapezoidal ringing at corners), and halves a step whose Newton solve
fails.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from .. import telemetry
from .batch_transient import (  # noqa: F401  (re-exported)
    BE_STEPS_AFTER_BREAKPOINT,
    MIN_STEP,
    BatchTransientSolver,
    TransientResult,
)
from .dc import operating_point
from .exceptions import AnalysisError
from .netlist import Circuit


def _tag_steps(rt, span, result: TransientResult) -> None:
    span.set_tag("steps", len(result.t) - 1)


@telemetry.traced("mna.transient",
                  tags=lambda circuit, *_, method, **__: {
                      "circuit": circuit.name, "method": method},
                  done=_tag_steps)
def transient(circuit: Circuit, tstop: float, dt: float, *,
              tstart: float = 0.0, method: str = "trap",
              ic: Optional[Mapping[str, float]] = None, uic: bool = False,
              x0: Optional[np.ndarray] = None,
              max_retries: int = 10,
              solver: str = "auto") -> TransientResult:
    """Integrate the circuit from ``tstart`` to ``tstop``.

    Parameters
    ----------
    dt:
        Nominal (maximum) step.  The stepper always lands exactly on
        source breakpoints and halves the step on Newton failures.
    ic:
        Node-voltage initial conditions.  With ``uic=True`` they are used
        verbatim (skipping the DC operating point); otherwise the DC
        operating point at ``tstart`` is computed first and then
        overridden at the listed nodes.
    x0:
        Full initial solution vector (overrides the operating point).
    solver:
        Linear-solve backend for the MNA systems ("auto"/"dense"/
        "sparse", see :mod:`repro.circuit.sparse`).
    """
    if tstop <= tstart:
        raise AnalysisError(f"tstop ({tstop}) must exceed tstart ({tstart})")
    if dt <= 0:
        raise AnalysisError("dt must be positive")
    if method not in ("trap", "be"):
        raise AnalysisError(f"unknown integration method {method!r}")
    stepper = BatchTransientSolver([circuit], solver=solver)
    if x0 is not None:
        x = np.asarray(x0, dtype=float).copy()
    elif uic:
        x = np.zeros(circuit.size)
    else:
        x = operating_point(circuit, t=tstart,
                            ctx=stepper.contexts[0]).x.copy()
    for node, v in (ic or {}).items():
        idx = circuit.node_index(node)
        if idx >= 0:
            x[idx] = float(v)
    return stepper.run(tstop, dt, tstart=tstart, method=method, x0=x[None],
                       max_retries=max_retries).point(0)
