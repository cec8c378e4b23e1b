"""Unit tests for the linear solvers and stationary distributions."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ctmc import CTMC, ModelBuilder
from repro.errors import ModelError, NumericalError
from repro.numerics.linear import (bscc_stationary_distributions,
                                   solve_linear_system,
                                   stationary_distribution)


def diagonally_dominant_system(n, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-1.0, 1.0, size=(n, n))
    matrix += np.diag(np.abs(matrix).sum(axis=1) + 1.0)
    rhs = rng.uniform(-1.0, 1.0, size=n)
    return sp.csr_matrix(matrix), rhs


class TestSolvers:
    def test_solves_sparse_system(self):
        matrix, rhs = diagonally_dominant_system(8, 42)
        solution = solve_linear_system(matrix, rhs)
        assert np.allclose(matrix @ solution, rhs, atol=1e-9)

    def test_dense_input_accepted(self):
        solution = solve_linear_system(np.array([[2.0, 0.0], [0.0, 4.0]]),
                                       [2.0, 8.0])
        assert np.allclose(solution, [1.0, 2.0])

    def test_non_square_rejected(self):
        with pytest.raises(NumericalError, match="square"):
            solve_linear_system(np.ones((2, 3)), [1.0, 1.0])

    def test_rhs_shape_rejected(self):
        with pytest.raises(NumericalError, match="rhs"):
            solve_linear_system(np.eye(3), [1.0, 1.0])


class TestStationary:
    def test_two_state_flip_flop(self):
        builder = ModelBuilder()
        builder.add_state("u")
        builder.add_state("d")
        builder.add_transition("u", "d", 1.0)
        builder.add_transition("d", "u", 3.0)
        pi = stationary_distribution(builder.build())
        assert np.allclose(pi, [0.75, 0.25])

    def test_birth_death_detailed_balance(self):
        from repro.models.workloads import birth_death_mrm
        model = birth_death_mrm(5, arrival_rate=1.0, service_rate=2.0)
        pi = stationary_distribution(model)
        # M/M/1/c: pi_k proportional to (lambda/mu)^k.
        expected = 0.5 ** np.arange(6)
        expected /= expected.sum()
        assert np.allclose(pi, expected)

    def test_reducible_chain_rejected(self):
        builder = ModelBuilder()
        builder.add_state("a")
        builder.add_state("b")
        builder.add_transition("a", "b", 1.0)
        with pytest.raises(ModelError, match="irreducible"):
            stationary_distribution(builder.build())

    def test_bscc_stationary_distributions(self):
        # 0 -> {1 <-> 2} and 0 -> {3}.
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[0, 3] = 1.0
        rates[1, 2] = 2.0
        rates[2, 1] = 2.0
        chain = CTMC(rates)
        results = dict()
        for members, pi in bscc_stationary_distributions(chain):
            results[tuple(members)] = pi
        assert set(results) == {(1, 2), (3,)}
        assert np.allclose(results[(1, 2)], [0.5, 0.5])
        assert np.allclose(results[(3,)], [1.0])

    def test_stationary_is_fixed_point(self):
        from repro.models.workloads import random_mrm
        model = random_mrm(7, seed=3)
        pi = stationary_distribution(model, check_irreducible=False)
        assert np.allclose(pi @ model.generator_matrix().toarray(), 0.0,
                           atol=1e-9)
