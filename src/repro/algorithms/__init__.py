"""Computational engines for the joint reward/state distribution.

Model checking time- and reward-bounded until formulas reduces
(Theorems 1 and 2 of the paper) to computing

    Pr{ Y_t <= r, X_t in S' | X_0 = s }

on a transformed MRM, where ``Y_t`` is the reward accumulated up to
time ``t``.  This package provides the paper's three engines behind a
common interface (:class:`~repro.algorithms.base.JointEngine`):

* :class:`~repro.algorithms.erlang.ErlangEngine` -- Section 4.2,
  pseudo-Erlang approximation of the reward bound;
* :class:`~repro.algorithms.discretization.DiscretizationEngine` --
  Section 4.3, the Tijms--Veldman discretisation;
* :class:`~repro.algorithms.sericola.SericolaEngine` -- Section 4.4,
  Sericola's occupation-time algorithm (the only one with an a-priori
  error bound).

Each engine has one core, a whole ``(t, r)`` bound grid with a shared
propagation prefix (:meth:`~repro.algorithms.base.JointEngine.\
joint_probability_sweep`, run as :class:`~repro.algorithms.base.WorkUnit`
blocks by :mod:`repro.exec`, the one scheduler of every sweep); scalar
vectors and certified intervals are views of it.
"""

from repro.algorithms.base import (JointEngine, PartialSweep, WorkUnit,
                                   available_engines, get_engine,
                                   richardson_bracket)
from repro.algorithms.cache import (cache_info, clear_caches, joint_cache,
                                    matrix_cache, value_nbytes)
from repro.algorithms.erlang import ErlangEngine, erlang_expanded_model
from repro.algorithms.discretization import DiscretizationEngine
from repro.algorithms.sericola import SericolaEngine

__all__ = [
    "JointEngine", "get_engine", "available_engines",
    "PartialSweep", "WorkUnit", "richardson_bracket",
    "cache_info", "clear_caches",
    "joint_cache", "matrix_cache", "value_nbytes",
    "ErlangEngine", "erlang_expanded_model",
    "DiscretizationEngine", "SericolaEngine",
]
