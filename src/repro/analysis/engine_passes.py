"""Engine-compatibility passes: can an engine handle this workload?

For every joint-distribution engine the pass family judges, *without
running it*, whether the engine can answer the query at all
(:data:`~repro.algorithms.base.EngineCapabilities` -- e.g. impulse
rewards vs. the occupation-time algorithm) and what it would cost
(pseudo-Erlang state-space explosion, discretisation grid memory).

Codes ``E001``--``E007``; see ``docs/DIAGNOSTICS.md``.  Hard
incompatibilities are ``ERROR`` when the query actually needs the
joint distribution (a time+reward-bounded until is present) and are
demoted to ``WARNING`` when it does not -- the engine would then never
be invoked on the incompatible path.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Union

from repro.algorithms.base import JointEngine, get_engine
from repro.algorithms.discretization import lattice_cells
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.passes import (AnalysisContext, QueryProfile,
                                   register_pass)
from repro.numerics.poisson import right_truncation_point

#: Expanded pseudo-Erlang state count beyond which E002 warns.
ERLANG_STATE_WARNING = 100_000

#: Estimated discretisation working-set bytes beyond which E003 warns.
DGRID_MEMORY_WARNING = 512 * 2**20

#: Distinct reward levels beyond which the Sericola series' per-level
#: cost is worth a warning (E007).
SERICOLA_LEVEL_WARNING = 32

EngineLike = Union[str, JointEngine]


def _as_engine(engine: EngineLike) -> JointEngine:
    return get_engine(engine) if isinstance(engine, str) else engine


def _gate(query: Optional[QueryProfile]) -> Severity:
    """ERROR when the query needs the joint distribution, else the
    incompatibility is latent and only worth a WARNING."""
    if query is not None and query.needs_joint:
        return Severity.ERROR
    return Severity.WARNING


def engine_compatibility(engine: EngineLike,
                         model,
                         query: Optional[QueryProfile] = None
                         ) -> List[Diagnostic]:
    """Static compatibility verdict of one engine for one workload.

    Returns the diagnostics the engine-compatibility pass would emit;
    an empty list (or one without ``ERROR`` entries, see
    :func:`supports`) means the engine can be invoked safely.
    """
    engine = _as_engine(engine)
    if query is None:
        query = QueryProfile()
    diagnostics: List[Diagnostic] = list(
        _capability_findings(engine, model, query))
    if engine.name == "sericola":
        diagnostics.extend(_sericola_findings(engine, model, query))
    if engine.name == "erlang":
        diagnostics.extend(_erlang_findings(engine, model, query))
    if engine.name == "discretization":
        diagnostics.extend(_discretization_findings(engine, model, query))
    return diagnostics


def supports(engine: EngineLike,
             model,
             query: Optional[QueryProfile] = None) -> bool:
    """Whether *engine* can statically be expected to handle the
    workload (no ``ERROR``-severity incompatibility)."""
    return not any(d.severity is Severity.ERROR
                   for d in engine_compatibility(engine, model, query))


def _capability_findings(engine: JointEngine, model,
                         query: QueryProfile) -> Iterator[Diagnostic]:
    capabilities = type(engine).capabilities()
    if capabilities.natural_rewards_only and not _natural_rewards(model):
        yield Diagnostic(
            code="E005",
            severity=_gate(query),
            message=(f"the {engine.name} engine needs natural-number "
                     f"reward rates and impulse rewards, but the "
                     f"model's are not integers"),
            location=f"engine {engine.name}",
            hint=("rescale with model.scaled_rewards(integer_reward_"
                  "scale(model.rewards)) and scale the reward bound "
                  "by the same factor"),
            source="engine")
    if (not capabilities.impulse_rewards
            and getattr(model, "has_impulse_rewards", False)):
        impulse_count = model.impulse_matrix.nnz
        yield Diagnostic(
            code="E001",
            severity=_gate(query),
            message=(f"the {engine.name} engine handles state-based "
                     f"rewards only (paper, Section 2.1), but the "
                     f"model carries {impulse_count} impulse "
                     f"reward(s)"),
            location=f"engine {engine.name}",
            hint=("use the discretisation or pseudo-Erlang engine "
                  "(--engine discretization|erlang), or drop the "
                  "impulse rewards"),
            source="engine")


def _sericola_findings(engine: JointEngine, model,
                       query: QueryProfile) -> Iterator[Diagnostic]:
    distinct = getattr(model, "distinct_rewards", None)
    if distinct is None:
        return
    levels = len(distinct())
    if levels > SERICOLA_LEVEL_WARNING:
        yield Diagnostic(
            code="E007",
            severity=Severity.WARNING,
            message=(f"the model has {levels} distinct reward levels; "
                     f"the occupation-time series propagates one "
                     f"column block per level, so memory and work "
                     f"scale with levels * truncation depth * |S|"),
            location=f"engine {engine.name}",
            hint=("round rewards to fewer distinct levels, or use "
                  "the discretisation engine whose cost depends on "
                  "the bound r rather than the level count"),
            source="engine")


def _erlang_findings(engine: JointEngine, model,
                     query: QueryProfile) -> Iterator[Diagnostic]:
    phases = getattr(engine, "phases", None)
    if phases is None:
        return
    n = model.num_states
    expanded = n * phases + 1
    if expanded < ERLANG_STATE_WARNING:
        return
    r = query.reward_bound
    t = query.time_bound
    detail = ""
    if r is not None and r > 0.0 and t is not None:
        max_reward = float(getattr(model, "max_reward", 0.0))
        expanded_rate = model.max_exit_rate + phases * max_reward / r
        depth = right_truncation_point(expanded_rate * t, 1e-12)
        detail = (f"; its uniformisation rate grows to "
                  f"~{expanded_rate:.3g} (phase rate k/r), a "
                  f"predicted truncation depth of ~{depth} terms")
    yield Diagnostic(
        code="E002",
        severity=Severity.WARNING,
        message=(f"the pseudo-Erlang expansion with k={phases} phases "
                 f"creates a chain of n*k+1 = {expanded} states"
                 f"{detail}"),
        location=f"engine {engine.name}",
        hint=("reduce the phase count (accuracy degrades as 1/k), or "
              "use the Sericola or discretisation engine"),
        source="engine")


def _natural_rewards(model, tolerance: float = 1e-12) -> bool:
    """Whether state rewards *and* impulse rewards are all integers."""
    has_integer = getattr(model, "has_integer_rewards", None)
    if has_integer is not None and not has_integer():
        return False
    if getattr(model, "has_impulse_rewards", False):
        impulses = model.impulse_matrix.data
        if impulses.size and not bool(
                (abs(impulses - impulses.round()) <= tolerance).all()):
            return False
    return True


def _discretization_findings(engine: JointEngine, model,
                             query: QueryProfile
                             ) -> Iterator[Diagnostic]:
    step = getattr(engine, "step", None)
    if step is None:
        return
    max_exit = model.max_exit_rate
    if max_exit * step > 1.0:
        yield Diagnostic(
            code="E004",
            severity=_gate(query),
            message=(f"discretisation step d={step:g} is too coarse: "
                     f"max_exit_rate * d = {max_exit:g} * {step:g} = "
                     f"{max_exit * step:.3g} > 1 breaks the "
                     f"first-order scheme's probability "
                     f"interpretation"),
            location=f"engine {engine.name}",
            hint=f"use a step of at most {1.0 / max_exit:.6g}",
            source="engine")
    t = query.time_bound
    if t is not None:
        steps = t / step
        if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
            yield Diagnostic(
                code="E006",
                severity=_gate(query),
                message=(f"the time bound {t:g} is not a multiple of "
                         f"the discretisation step d={step:g}; the "
                         f"scheme only evaluates the joint "
                         f"distribution on the d-grid"),
                location=f"engine {engine.name}",
                hint=(f"choose a step dividing the time bound (e.g. "
                      f"d={t:g}/{max(1, math.ceil(steps)):d}) or "
                      f"round the bound to the grid"),
                source="engine")
    r = query.reward_bound
    if r is not None:
        cells, lattice = lattice_cells(
            model, step, r, getattr(engine, "underflow", "drop"))
        estimated_bytes = 16.0 * model.num_states * cells
        if estimated_bytes > DGRID_MEMORY_WARNING:
            yield Diagnostic(
                code="E003",
                severity=Severity.WARNING,
                message=(f"the discretisation grid needs ~{cells:.3g} "
                         f"reward cells per state (r/(g d) + 1 with "
                         f"lattice spacing g = {lattice}), an "
                         f"estimated working set of "
                         f"~{estimated_bytes / 2**20:.0f} MiB for "
                         f"{model.num_states} states"),
                location=f"engine {engine.name}",
                hint=("increase the step d, lower the reward bound, "
                      "or use the Sericola/pseudo-Erlang engine"),
                source="engine")


@register_pass("engine")
def engine_compatibility_pass(
        context: AnalysisContext) -> Iterator[Diagnostic]:
    """E001--E007 for every engine under analysis."""
    if context.model is None:
        return
    for engine in context.engines:
        yield from engine_compatibility(engine, context.model,
                                        context.query)
