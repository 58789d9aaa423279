"""Sparse MNA solve backend with a dense/sparse crossover heuristic.

The dense LAPACK path is unbeatable for the paper's cells (a 6-transistor
inverter bench is a ~10x10 system; the 54-transistor adder ~60x60), but
``O(S^3)`` dense factorisation loses to sparse LU once the system grows
past a few hundred nodes at MNA-typical fill — the regime of the scaled
scenarios on the roadmap (Bayat-style crossbar classifiers).  This module
owns the backend decision:

* :func:`check_solver` validates the user-facing ``solver`` knob
  (``"auto"`` / ``"dense"`` / ``"sparse"``) everywhere it appears — MNA
  contexts, batch solvers, engine options, ``/predict`` payloads;
* :func:`choose_backend` is the crossover heuristic — pure, total and
  cheap, so callers can decide lazily from the first assembled matrix;
* :func:`sparse_solve` / :func:`sparse_solve_batch` wrap
  ``scipy.sparse.linalg.splu`` (CSC + supernodal LU) behind the same
  error surface as the dense path: singular systems raise
  ``numpy.linalg.LinAlgError`` so existing Newton loops handle both
  backends with one ``except`` clause.

scipy is an *optional* dependency and loads on the first sparse
factorisation, not at import: :data:`HAS_SCIPY` only asks whether it is
installed, so the paper's dense-only workloads never load it.  Without
it ``"auto"`` silently stays dense and an explicit ``"sparse"`` request
fails with an actionable message at validation time (not mid-solve).
"""

from __future__ import annotations

import importlib.util
from typing import Optional

import numpy as np

from .. import telemetry
from .exceptions import AnalysisError

HAS_SCIPY = importlib.util.find_spec("scipy") is not None

#: Legal values of the ``solver`` knob, in registry order.
SOLVERS = ("auto", "dense", "sparse")

#: ``auto`` never picks sparse below this system size.  The paper's
#: benches top out near S=60 (the 54-transistor adder) where dense
#: LAPACK wins by an order of magnitude; the conversion + symbolic
#: factorisation overhead of sparse LU only amortises for the scaled
#: crossbar scenarios.
SPARSE_MIN_SIZE = 128

#: ``auto`` never picks sparse above this fill ratio (nnz / S^2).  MNA
#: matrices of big circuits sit well under 10% fill; anything denser
#: factorises faster in LAPACK regardless of size.
SPARSE_MAX_FILL = 0.10


def check_solver(solver: Optional[str]) -> str:
    """Validate the ``solver`` knob (``None`` means ``"auto"``).

    An explicit ``"sparse"`` request without scipy fails here, at the
    choke point, instead of deep inside a Newton iteration.
    """
    if solver is None:
        return "auto"
    if solver not in SOLVERS:
        raise AnalysisError(
            f"unknown solver {solver!r}; use one of: {', '.join(SOLVERS)}")
    if solver == "sparse" and not HAS_SCIPY:
        raise AnalysisError(
            "solver 'sparse' requires scipy, which is not installed; "
            "use 'dense' or 'auto'")
    return solver


def matrix_fill(G: np.ndarray) -> float:
    """Fill ratio ``nnz / S^2`` of one assembled MNA matrix."""
    if G.size == 0:
        return 0.0
    return float(np.count_nonzero(G)) / float(G.size)


def choose_backend(size: int, fill: float, solver: str = "auto") -> str:
    """Resolve a ``solver`` request to a concrete backend.

    Explicit requests pass through (``"sparse"`` only when scipy is
    available — :func:`check_solver` enforces that earlier).  ``"auto"``
    picks sparse iff scipy is present **and** the system is at least
    :data:`SPARSE_MIN_SIZE` unknowns **and** the fill ratio stays under
    :data:`SPARSE_MAX_FILL` — which guarantees the paper's small cells
    always stay on the bit-exact dense path.
    """
    if solver == "dense":
        return "dense"
    if solver == "sparse":
        if not HAS_SCIPY:
            raise AnalysisError(
                "solver 'sparse' requires scipy, which is not installed")
        return "sparse"
    if solver != "auto":
        raise AnalysisError(
            f"unknown solver {solver!r}; use one of: {', '.join(SOLVERS)}")
    if not HAS_SCIPY:
        return "dense"
    if size >= SPARSE_MIN_SIZE and fill <= SPARSE_MAX_FILL:
        return "sparse"
    return "dense"


def _splu(G: np.ndarray):
    """CSC + ``splu`` factorisation of one dense matrix.

    The only place scipy.sparse is imported: it loads on the first sparse
    factorisation, so dense-only processes never pay for it.
    """
    if not HAS_SCIPY:  # pragma: no cover - guarded by check_solver
        raise AnalysisError("sparse solve requires scipy")
    from scipy.sparse import csc_matrix, linalg
    return linalg.splu(csc_matrix(G))


def sparse_solve(G: np.ndarray, I: np.ndarray) -> np.ndarray:
    """Solve one ``(S, S) @ x = (S,)`` system via CSC + splu.

    Error surface matches ``np.linalg.solve``: singular systems raise
    ``numpy.linalg.LinAlgError`` (callers already translate that into
    :class:`~repro.circuit.exceptions.SingularMatrixError`).
    """
    telemetry.count("repro_mna_lu_factorizations_total", backend="sparse")
    try:
        return _splu(G).solve(I)
    except RuntimeError as exc:  # splu signals singularity this way
        raise np.linalg.LinAlgError(str(exc)) from None


def sparse_solve_batch(G_stack: np.ndarray, I_stack: np.ndarray) -> np.ndarray:
    """Solve a stacked ``(B, S, S) @ x = (B, S)`` system sparsely.

    The stack is block-diagonal across points, so each block is
    factorised independently — same iterates as the dense gufunc path,
    just through sparse LU.  Singular blocks raise
    ``numpy.linalg.LinAlgError`` like the scalar wrapper.
    """
    telemetry.count("repro_mna_lu_factorizations_total",
                    G_stack.shape[0], backend="sparse")
    out = np.empty_like(I_stack)
    try:
        for p in range(G_stack.shape[0]):
            out[p] = _splu(G_stack[p]).solve(I_stack[p])
    except RuntimeError as exc:
        raise np.linalg.LinAlgError(str(exc)) from None
    return out
