"""Ready-made models: the paper's case study and synthetic workloads."""

import importlib
from typing import TYPE_CHECKING

from repro.models.adhoc import (build_adhoc_srn, adhoc_model,
                                reduced_q3_model, Q1, Q2, Q3)

if TYPE_CHECKING:
    from repro.models import workloads


def __getattr__(name):
    # The synthetic workloads load on first use: the case study does
    # not need them.
    if name != "workloads":
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    return importlib.import_module("repro.models.workloads")


__all__ = ["build_adhoc_srn", "adhoc_model", "reduced_q3_model",
           "Q1", "Q2", "Q3", "workloads"]
