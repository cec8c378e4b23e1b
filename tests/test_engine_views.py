"""Every public entry point is a view of the engine's grid core.

Each engine computes one thing, :meth:`JointEngine._compute_joint_sweep`;
the scalar vector is a ``1 x 1`` cell of the sweep, the interval sweep
is the cached point grid widened by the engine's a-priori bound
(Sericola) or bracketed against its companion's grid (discretisation
``d/2``, pseudo-Erlang ``2k``), and the scalar interval is its ``1 x 1``
cell.  Checked bit for bit on the ``t == 0``, ``r == 0`` and
``r >= rho_max t`` edges, an interior point and an impulse model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, clear_caches,
                              richardson_bracket)

ENGINES = {
    "sericola": lambda: SericolaEngine(epsilon=1e-10),
    "erlang": lambda: ErlangEngine(phases=16),
    "discretization": lambda: DiscretizationEngine(step=1.0 / 16),
}

#: (model fixture, t, r, target); rho_max = 3 on the three-level chain.
CASES = {
    "t=0": ("three_level_chain", 0.0, 1.0, [2]),
    "r=0": ("three_level_chain", 1.0, 0.0, [2]),
    "r>=rho_max*t": ("three_level_chain", 1.0, 4.5, [1, 2]),
    "interior": ("three_level_chain", 1.0, 1.25, [2]),
    "impulse": ("impulse_model", 1.0, 1.5, [0, 1]),
}

PARAMS = [pytest.param(engine, case, id=f"{engine}-{case}")
          for engine in ENGINES for case in CASES
          if not (engine == "sericola" and case == "impulse")]


def _query(request, case):
    fixture, t, r, target = CASES[case]
    # The point sits in a grid's first cell: the grid runs to larger
    # bounds, so it shares a longer propagation than the 1 x 1 query.
    return (request.getfixturevalue(fixture), t, r, target,
            [t, t + 0.5], [r, r + 1.0])


@pytest.mark.parametrize("engine_name,case", PARAMS)
def test_vector_is_a_sweep_cell(request, engine_name, case):
    model, t, r, target, times, rewards = _query(request, case)
    clear_caches()
    vector = ENGINES[engine_name]().joint_probability_vector(
        model, t, r, target)
    clear_caches()
    swept = ENGINES[engine_name]().joint_probability_sweep(
        model, times, rewards, target)
    np.testing.assert_array_equal(swept[0, 0], vector)


@pytest.mark.parametrize("engine_name,case", PARAMS)
def test_interval_is_bound_or_bracket_of_cached_points(request, ledger,
                                                       engine_name, case):
    model, t, r, target, times, rewards = _query(request, case)
    clear_caches()
    engine = ENGINES[engine_name]()
    widths = engine._a_priori_widths()
    companion = engine._bracket_companion()
    assert (widths is None) != (companion is None)

    point = engine.joint_probability_vector(model, t, r, target)
    misses = ledger()["cache_misses"]
    lower, upper = engine.joint_probability_interval(model, t, r, target)
    # The point is reused; only the companion's cell is computed.
    assert ledger()["cache_misses"] - misses == (
        0 if companion is None else 1)

    lower_grid, upper_grid = engine.joint_probability_interval_sweep(
        model, times, rewards, target)
    point_grid = engine.joint_probability_sweep(model, times, rewards,
                                                target)
    if widths is not None:
        below, above = widths
        expected = (np.maximum(point - below, 0.0),
                    np.minimum(point + above, 1.0))
        expected_grid = (np.maximum(point_grid - below, 0.0),
                         np.minimum(point_grid + above, 1.0))
    else:
        expected = richardson_bracket(
            point, companion.joint_probability_vector(model, t, r,
                                                      target))
        expected_grid = richardson_bracket(
            point_grid, companion.joint_probability_sweep(
                model, times, rewards, target))
    np.testing.assert_array_equal(lower, expected[0])
    np.testing.assert_array_equal(upper, expected[1])
    np.testing.assert_array_equal(lower_grid, expected_grid[0])
    np.testing.assert_array_equal(upper_grid, expected_grid[1])
    np.testing.assert_array_equal(lower_grid[0, 0], lower)
    np.testing.assert_array_equal(upper_grid[0, 0], upper)
