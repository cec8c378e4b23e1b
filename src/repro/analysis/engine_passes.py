"""Engine-compatibility passes: can an engine handle this workload?

Every joint-distribution engine states what it requires of a workload
and what the workload would cost it in one method,
:meth:`~repro.algorithms.base.JointEngine.findings` -- e.g. impulse
rewards vs. the occupation-time algorithm, pseudo-Erlang state-space
explosion, discretisation grid memory.  The engine's runtime guard
raises the hard findings; this pass reports all of them *without
running the engine*.

Codes ``E001``--``E008``; see ``docs/DIAGNOSTICS.md``.  Hard
incompatibilities are ``ERROR`` when the query actually needs the
joint distribution (a time+reward-bounded until is present) and are
demoted to ``WARNING`` when it does not -- the engine would then never
be invoked on the incompatible path.  Cost estimates are ``WARNING``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Union

from repro.algorithms.base import JointEngine, get_engine
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.passes import (AnalysisContext, QueryProfile,
                                   register_pass)
from repro.ctmc.mrm import MarkovRewardModel

EngineLike = Union[str, JointEngine]


def engine_compatibility(engine: EngineLike,
                         model: MarkovRewardModel,
                         query: Optional[QueryProfile] = None
                         ) -> List[Diagnostic]:
    """Static compatibility verdict of one engine for one workload.

    Returns the diagnostics the engine-compatibility pass would emit;
    an empty list (or one without ``ERROR`` entries, see
    :func:`supports`) means the engine can be invoked safely.
    """
    if isinstance(engine, str):
        engine = get_engine(engine)
    if query is None:
        query = QueryProfile()
    hard = Severity.ERROR if query.needs_joint else Severity.WARNING
    return [Diagnostic(code=finding.code,
                       severity=(Severity.WARNING if finding.error is None
                                 else hard),
                       message=finding.message,
                       location=f"engine {engine.name}",
                       hint=finding.hint,
                       source="engine")
            for finding in engine.findings(model, query.time_bound,
                                           query.reward_bound)]


def supports(engine: EngineLike,
             model: MarkovRewardModel,
             query: Optional[QueryProfile] = None) -> bool:
    """Whether *engine* can statically be expected to handle the
    workload (no ``ERROR``-severity incompatibility)."""
    return not any(d.severity is Severity.ERROR
                   for d in engine_compatibility(engine, model, query))


@register_pass("engine")
def engine_compatibility_pass(
        context: AnalysisContext) -> Iterator[Diagnostic]:
    """E001--E008 for every engine under analysis."""
    if context.model is None:
        return
    for engine in context.engines:
        yield from engine_compatibility(engine, context.model,
                                        context.query)
