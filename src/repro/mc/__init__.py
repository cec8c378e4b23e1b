"""The CSRL model checker.

The central entry point is :class:`~repro.mc.checker.ModelChecker`,
which evaluates CSRL state formulas over a Markov reward model by the
recursive bottom-up procedure of Section 3 of the paper:

* boolean operators by set manipulation;
* ``P<|p(X ...)`` by one-step integration (:mod:`repro.mc.next_op`);
* unbounded until ("P0") by a sparse linear solve;
* time-bounded until ("P1") by transient analysis of a transformed
  chain;
* reward-bounded until ("P2") by the duality transformation of
  [Baier et al. 2000] followed by the P1 procedure;
* time- and reward-bounded until ("P3") by Theorem 1 + one of the
  three joint-distribution engines of :mod:`repro.algorithms`;
* the steady-state operator by BSCC analysis.

:mod:`repro.mc.measures` adds classic performability measures (Meyer's
performability distribution, expected rewards) on top of the same
machinery.
"""

import importlib
from typing import TYPE_CHECKING

from repro.mc.budget import Budget
from repro.mc.checker import ModelChecker
from repro.mc.result import CheckResult, Verdict, interval_verdict
from repro.mc.transform import until_reduction, dual_model
from repro.mc import measures

if TYPE_CHECKING:
    from repro.mc.certified import (DEFAULT_CHAIN, CertifiedChecker,
                                    CertifiedCheckResult, EngineFailure)

#: Names loaded on first use: a plain check never certifies.
_CERTIFIED = ("DEFAULT_CHAIN", "CertifiedChecker", "CertifiedCheckResult",
              "EngineFailure")


def __getattr__(name):
    if name not in _CERTIFIED:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = globals()[name] = getattr(
        importlib.import_module("repro.mc.certified"), name)
    return value


__all__ = ["ModelChecker", "CheckResult", "until_reduction", "dual_model",
           "measures",
           "Budget", "CertifiedChecker", "CertifiedCheckResult",
           "DEFAULT_CHAIN", "EngineFailure", "Verdict", "interval_verdict"]
