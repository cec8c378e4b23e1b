"""Sparse linear-system solvers and stationary distributions.

The model checker needs two kinds of linear algebra:

* solving ``A x = b`` for the unbounded-until probabilities (the
  "P0-type" properties of the paper, following Hansson & Jonsson);
* stationary distributions of CTMCs for the steady-state operator.

Both use a direct sparse solver.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ctmc.ctmc import CTMC
from repro.ctmc import graph
from repro.errors import ModelError, NumericalError


def solve_linear_system(matrix, rhs) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by sparse LU.

    *matrix* is a square sparse or dense matrix, *rhs* the right-hand
    side vector.
    """
    A = matrix.tocsr() if sp.issparse(matrix) else sp.csr_matrix(
        np.asarray(matrix, dtype=float))
    b = np.asarray(rhs, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise NumericalError(f"matrix must be square, got {A.shape}")
    if b.shape != (n,):
        raise NumericalError(
            f"rhs has shape {b.shape}, expected ({n},)")
    import scipy.sparse.linalg as spla
    return np.asarray(spla.spsolve(A.tocsc(), b)).ravel()


def stationary_distribution(model: CTMC,
                            check_irreducible: bool = True) -> np.ndarray:
    """The stationary distribution of an irreducible CTMC.

    Solves ``pi Q = 0`` with the normalisation ``sum(pi) = 1`` by
    replacing one balance equation with the normalisation constraint.

    Raises :class:`~repro.errors.ModelError` when the chain is not
    irreducible (use :func:`bscc_stationary_distributions` for the
    general case).
    """
    n = model.num_states
    if check_irreducible:
        bottoms = graph.bottom_sccs(model)
        if len(bottoms) != 1 or len(bottoms[0]) != n:
            raise ModelError(
                "stationary_distribution requires an irreducible chain; "
                "use bscc_stationary_distributions instead")
    generator = model.generator_matrix().tocsc()
    # pi Q = 0  <=>  Q^T pi^T = 0; replace the last equation by sum = 1.
    system = generator.transpose().tolil()
    system[n - 1, :] = 1.0
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    import scipy.sparse.linalg as spla
    pi = np.asarray(spla.spsolve(system.tocsc(), rhs)).ravel()
    # Clean tiny numerical negatives.
    pi = np.where(np.abs(pi) < 1e-15, 0.0, pi)
    if np.any(pi < 0.0):
        raise NumericalError("stationary solve produced negative entries")
    return pi / pi.sum()


def bscc_stationary_distributions(model: CTMC):
    """Stationary distribution of every bottom SCC.

    Returns a list of ``(states, distribution)`` pairs where *states*
    is the sorted list of BSCC member indices and *distribution* is the
    conditional stationary distribution over those states.
    """
    results = []
    for component in graph.bottom_sccs(model):
        members = sorted(component)
        index = {s: i for i, s in enumerate(members)}
        sub = model.rate_matrix[members, :][:, members]
        sub_model = CTMC(sub)
        if len(members) == 1:
            pi = np.array([1.0])
        else:
            pi = stationary_distribution(sub_model, check_irreducible=False)
        results.append((members, pi))
    return results
