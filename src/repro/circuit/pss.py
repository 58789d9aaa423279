"""Periodic steady-state (PSS) analysis via the shooting method.

For a circuit driven by sources periodic in ``T``, the map
``F(x0) = x(T)`` (one period of transient integration from state ``x0``)
has the periodic steady state as its fixed point.  The PWM cells studied
here have output time constants of hundreds of periods, so brute-force
integration to steady state is wasteful; shooting converges in a handful
of periods instead.

Newton acts on a small set of *observed* (slow) nodes — by default the
nodes that carry explicit capacitors, which in the perceptron cells are
exactly the slow averaging nodes.  The Jacobian of ``F`` on them is
exact: each period run carries the sensitivities of the state to the
observed start values through every time step.  Fast internal nodes
re-settle within one period and need no Newton treatment of their own.

:func:`shooting` is a one-point
:func:`~repro.circuit.batch_transient.shooting_batch`; both run on the
lock-step MNA stepper, and so does :func:`settle_average`.
"""

from __future__ import annotations

from typing import Optional

from .batch_transient import (  # noqa: F401  (re-exported)
    BatchTransientSolver,
    PssResult,
    TransientResult,
    shooting,
)
from .dc import operating_point
from .exceptions import ConvergenceError
from .netlist import Circuit


def settle_average(circuit: Circuit, period: float, node: str, *,
                   steps_per_period: int = 17, chunk_periods: int = 20,
                   max_chunks: int = 200, tol: float = 1e-3,
                   ic: Optional[dict] = None,
                   method: str = "trap") -> "tuple[float, TransientResult]":
    """Brute-force steady state: integrate until the chunk average settles.

    Returns ``(average, last_chunk_result)``.  Slower than shooting but
    makes no assumption about observability — used to cross-validate the
    shooting engine in tests.
    """
    stepper = BatchTransientSolver([circuit])
    dt = period / steps_per_period
    x = operating_point(circuit, t=0.0, ctx=stepper.contexts[0]).x.copy()
    for node_name, v in (ic or {}).items():
        idx = circuit.node_index(node_name)
        if idx >= 0:
            x[idx] = float(v)
    prev_avg: Optional[float] = None
    for _chunk in range(max_chunks):
        result = stepper.run(chunk_periods * period, dt, x0=x[None],
                             method=method).point(0)
        avg = result.node(node).average()
        x = result.final_x
        if prev_avg is not None and abs(avg - prev_avg) < tol:
            return avg, result
        prev_avg = avg
    raise ConvergenceError(
        f"settle_average did not converge after {max_chunks} chunks",
        analysis="pss/settle")
