"""Numerical substrate: Poisson weights, uniformisation, linear algebra.

The routines in this package implement the numerical recipes on which
the model-checking procedures rest:

* :mod:`~repro.numerics.poisson` -- Fox--Glynn style computation of
  Poisson probabilities and truncation points;
* :mod:`~repro.numerics.uniformization` -- transient analysis of CTMCs
  by uniformisation (Jensen's method / randomisation);
* :mod:`~repro.numerics.linear` -- sparse linear-system solvers
  (direct, Jacobi, Gauss--Seidel, power iteration);
* :mod:`~repro.numerics.dtmc` -- discrete-time auxiliaries (embedded
  chain, reachability probabilities).
"""

from repro.numerics.poisson import (PoissonWeights, poisson_weights,
                                    right_truncation_point)
from repro.numerics.uniformization import (
    transient_distribution, transient_matrix,
    transient_target_probabilities, transient_target_probabilities_sweep,
    accumulated_reward_vector, expected_accumulated_reward,
    expected_instantaneous_reward)
from repro.numerics.linear import (solve_linear_system,
                                   stationary_distribution)
from repro.numerics.dtmc import (embedded_dtmc,
                                 reachability_probabilities)

__all__ = [
    "PoissonWeights", "poisson_weights", "right_truncation_point",
    "transient_distribution", "transient_matrix",
    "transient_target_probabilities",
    "transient_target_probabilities_sweep", "accumulated_reward_vector",
    "expected_accumulated_reward", "expected_instantaneous_reward",
    "solve_linear_system", "stationary_distribution",
    "embedded_dtmc", "reachability_probabilities",
]
