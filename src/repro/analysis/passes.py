"""Pass registry and shared analysis context.

A *pass* is a function ``pass_fn(context) -> Iterable[Diagnostic]``
registered under a family (``model``, ``formula``, ``engine``,
``srn``).  Passes are pure inspections: they must not run any
joint-distribution engine or mutate the model.  :func:`run_passes`
executes the registered passes of the requested families over one
:class:`AnalysisContext` and collects the findings into an
:class:`~repro.analysis.diagnostics.AnalysisReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.ctmc.mrm import MarkovRewardModel, as_mrm
from repro.logic import ast

#: The pass families, in execution order.
FAMILIES: Tuple[str, ...] = ("model", "formula", "engine", "srn")

PassFn = Callable[["AnalysisContext"], Iterable[Diagnostic]]

_PASSES: Dict[str, List[PassFn]] = {family: [] for family in FAMILIES}


def register_pass(family: str) -> Callable[[PassFn], PassFn]:
    """Decorator registering a pass under *family*."""
    if family not in _PASSES:
        raise ValueError(
            f"unknown pass family {family!r}; expected one of "
            f"{', '.join(FAMILIES)}")

    def decorator(fn: PassFn) -> PassFn:
        _PASSES[family].append(fn)
        return fn

    return decorator


@dataclass(frozen=True)
class QueryProfile:
    """Static shape of the numerical workload a formula implies.

    Derived from the bound annotations of the temporal operators: the
    engine-compatibility passes size their cost estimates from the
    largest finite time/reward bounds, and demote incompatibilities to
    warnings when no operator actually needs the joint distribution
    (``needs_joint`` false).
    """

    time_bound: Optional[float] = None
    reward_bound: Optional[float] = None
    needs_joint: bool = False

    @classmethod
    def from_formula(cls,
                     formula: Optional[ast.Formula]) -> "QueryProfile":
        """Scan the formula for time/reward-bounded temporal operators."""
        if formula is None:
            return cls()
        time_bound: Optional[float] = None
        reward_bound: Optional[float] = None
        needs_joint = False
        for node in formula.subformulas():
            if not isinstance(node, (ast.Until, ast.Eventually,
                                     ast.Globally, ast.Next)):
                continue
            t_finite = math.isfinite(node.time.upper)
            r_finite = math.isfinite(node.reward.upper)
            if t_finite:
                time_bound = max(time_bound or 0.0, float(node.time.upper))
            if r_finite:
                reward_bound = max(reward_bound or 0.0,
                                   float(node.reward.upper))
            if (t_finite and r_finite
                    and not isinstance(node, ast.Next)):
                needs_joint = True
        return cls(time_bound=time_bound, reward_bound=reward_bound,
                   needs_joint=needs_joint)


@dataclass
class AnalysisContext:
    """Everything the passes may inspect.

    Any component may be ``None``; passes needing an absent component
    simply emit nothing.  A plain CTMC ``model`` becomes the
    zero-reward MRM on construction, so passes read one model type.
    ``engines`` holds the joint-distribution engine(s) whose
    compatibility with the model/query should be judged.
    ``model_path`` enables file-level passes (duplicate ``.tra``
    entries survive only in the file -- they are summed on load).
    """

    model: Optional[MarkovRewardModel] = None
    formula: Optional[ast.StateFormula] = None
    engines: Sequence = ()
    net: Optional[object] = None
    model_path: Optional[str] = None
    query: QueryProfile = field(default_factory=QueryProfile)
    #: Scratch space shared between passes of one run (e.g. the SRN
    #: reachability graph, explored once).
    scratch: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model is not None:
            self.model = as_mrm(self.model)
        if self.formula is not None:
            self.query = QueryProfile.from_formula(self.formula)


def run_passes(context: AnalysisContext,
               families: Optional[Sequence[str]] = None) -> AnalysisReport:
    """Run the registered passes of *families* (default: all) over
    *context* and collect the findings."""
    # Importing the pass modules registers their passes; deferred to
    # avoid import cycles during package initialisation.
    from repro.analysis import (engine_passes, formula_passes,  # noqa: F401
                                model_passes, srn_passes)
    selected = FAMILIES if families is None else tuple(families)
    for family in selected:
        if family not in _PASSES:
            raise ValueError(
                f"unknown pass family {family!r}; expected one of "
                f"{', '.join(FAMILIES)}")
    findings: List[Diagnostic] = []
    for family in FAMILIES:
        if family not in selected:
            continue
        for pass_fn in _PASSES[family]:
            findings.extend(pass_fn(context))
    return AnalysisReport(findings)
