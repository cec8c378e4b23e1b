"""Formula passes: static diagnostics over a parsed CSRL formula.

Codes ``F001``--``F009``; see ``docs/DIAGNOSTICS.md``.  Passes that
relate the formula to a model (vacuous until, unknown propositions)
evaluate *propositional* subformulas only -- nested ``P``/``S``/``R``
operators would need the numerical engines, which static analysis by
definition never runs.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Iterator, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.passes import AnalysisContext, register_pass
from repro.logic import ast

_TEMPORAL = (ast.Until, ast.Eventually, ast.Globally)


def _propositional_sat(formula: ast.Formula,
                       model) -> Optional[FrozenSet[int]]:
    """Satisfaction set of a propositional formula, ``None`` when the
    formula contains probabilistic/steady-state/reward operators."""
    n = model.num_states
    if isinstance(formula, ast.TrueFormula):
        return frozenset(range(n))
    if isinstance(formula, ast.FalseFormula):
        return frozenset()
    if isinstance(formula, ast.Atomic):
        return frozenset(model.states_with(formula.name))
    if isinstance(formula, ast.Not):
        operand = _propositional_sat(formula.operand, model)
        return None if operand is None else frozenset(range(n)) - operand
    if isinstance(formula, (ast.And, ast.Or, ast.Implies)):
        left = _propositional_sat(formula.left, model)
        right = _propositional_sat(formula.right, model)
        if left is None or right is None:
            return None
        if isinstance(formula, ast.And):
            return left & right
        if isinstance(formula, ast.Or):
            return left | right
        return (frozenset(range(n)) - left) | right
    return None


def _temporal_nodes(formula: ast.Formula):
    for node in formula.subformulas():
        if isinstance(node, _TEMPORAL):
            yield node


@register_pass("formula")
def unsupported_bound_combinations(
        context: AnalysisContext) -> Iterator[Diagnostic]:
    """F001: bound combinations outside the decidable fragment.

    Mirrors the rejections of :mod:`repro.mc.until`: reward intervals
    must be downward closed, and a time interval not starting at 0
    cannot be combined with a reward bound (paper, Section 6).
    """
    if context.formula is None:
        return
    seen: Set[str] = set()
    for node in _temporal_nodes(context.formula):
        location = str(node)
        if location in seen:
            continue
        if node.reward.lower > 0.0:
            seen.add(location)
            yield Diagnostic(
                code="F001",
                severity=Severity.ERROR,
                message=(f"reward interval {node.reward} does not "
                         f"start at 0; no computational procedure is "
                         f"available for such bounds (paper, "
                         f"Section 6)"),
                location=location,
                hint="use a downward-closed reward bound [0, r]",
                source="formula")
        elif node.time.lower > 0.0 and not node.reward.is_trivial:
            seen.add(location)
            yield Diagnostic(
                code="F001",
                severity=Severity.ERROR,
                message=(f"time interval {node.time} does not start "
                         f"at 0 while a reward bound is present; the "
                         f"joint procedures need both intervals to "
                         f"start at 0 (paper, Section 6)"),
                location=location,
                hint=("drop the reward bound, or use a time interval "
                      "[0, t]"),
                source="formula")


@register_pass("formula")
def trivial_thresholds(context: AnalysisContext) -> Iterator[Diagnostic]:
    """F002/F003: probability thresholds no measure can miss or meet."""
    if context.formula is None:
        return
    seen: Set[Tuple[str, str]] = set()
    for node in context.formula.subformulas():
        if not isinstance(node, (ast.Prob, ast.SteadyState)):
            continue
        location = str(node)
        threshold = f"{node.comparison}{node.bound:g}"
        if (threshold, location) in seen:
            continue
        trivially_true = ((node.comparison == ">=" and node.bound == 0.0)
                          or (node.comparison == "<=" and node.bound == 1.0))
        trivially_false = ((node.comparison == "<" and node.bound == 0.0)
                           or (node.comparison == ">" and node.bound == 1.0))
        if trivially_true:
            seen.add((threshold, location))
            yield Diagnostic(
                code="F002",
                severity=Severity.WARNING,
                message=(f"threshold {threshold} is trivially true: "
                         f"every probability satisfies it, so the "
                         f"operator holds in every state regardless "
                         f"of the model"),
                location=location,
                hint=("use a strict comparison or a non-trivial "
                      "bound; to read off the probability itself, "
                      "use the probability vector of the result"),
                source="formula")
        elif trivially_false:
            seen.add((threshold, location))
            yield Diagnostic(
                code="F003",
                severity=Severity.WARNING,
                message=(f"threshold {threshold} is trivially false: "
                         f"no probability satisfies it, so the "
                         f"operator holds in no state regardless of "
                         f"the model"),
                location=location,
                hint="probabilities lie in [0, 1]; fix the comparison",
                source="formula")


@register_pass("formula")
def unknown_propositions(
        context: AnalysisContext) -> Iterator[Diagnostic]:
    """F005: atomic propositions absent from the model's labelling."""
    if context.formula is None or context.model is None:
        return
    known = set(context.model.atomic_propositions)
    unknown = sorted(context.formula.atomic_propositions() - known)
    for name in unknown:
        yield Diagnostic(
            code="F005",
            severity=Severity.WARNING,
            message=(f"atomic proposition '{name}' labels no state of "
                     f"the model; its satisfaction set is empty"),
            location=name,
            hint=(f"known propositions: "
                  f"{', '.join(sorted(known)) or '(none)'}; check the "
                  f".lab file or the builder's labels"),
            source="formula")


def _aps_known(formula: ast.Formula, model) -> bool:
    return formula.atomic_propositions() <= set(
        model.atomic_propositions)


@register_pass("formula")
def vacuous_until(context: AnalysisContext) -> Iterator[Diagnostic]:
    """F004/F006: degenerate until operands.

    F004 (goal unsatisfiable) is suppressed when an unknown
    proposition (F005) already explains the empty goal set.
    """
    if context.formula is None or context.model is None:
        return
    model = context.model
    n = model.num_states
    seen: Set[Tuple[str, str]] = set()
    for node in _temporal_nodes(context.formula):
        if isinstance(node, ast.Globally):
            continue
        goal = (node.operand if isinstance(node, ast.Eventually)
                else node.right)
        location = str(node)
        goal_sat = _propositional_sat(goal, model)
        if (goal_sat is not None and not goal_sat
                and _aps_known(goal, model)
                and ("F004", location) not in seen):
            seen.add(("F004", location))
            yield Diagnostic(
                code="F004",
                severity=Severity.WARNING,
                message=(f"the goal '{goal}' is unsatisfiable in this "
                         f"model: the until can never hold and its "
                         f"probability is identically 0"),
                location=location,
                hint=("label some state with the goal proposition(s) "
                      "or fix the formula"),
                source="formula")
        if isinstance(node, ast.Eventually):
            continue
        safe = node.left
        if isinstance(safe, ast.TrueFormula):
            continue  # 'true U ...' is just how eventually desugars
        safe_sat = _propositional_sat(safe, model)
        if (safe_sat is not None and len(safe_sat) == n
                and ("F006", location) not in seen):
            seen.add(("F006", location))
            yield Diagnostic(
                code="F006",
                severity=Severity.INFO,
                message=(f"the safe set '{safe}' covers the whole "
                         f"state space: the until is equivalent to an "
                         f"eventually (F) over the same bounds"),
                location=location,
                hint="write it as F for clarity (same result)",
                source="formula")


def _allowed_interval(comparison: str,
                      bound: float) -> Tuple[float, float, bool, bool]:
    """The set ``{p in [0,1] : p <comparison> bound}`` as
    ``(lo, hi, lo_open, hi_open)``."""
    if comparison == "<":
        return (0.0, bound, False, True)
    if comparison == "<=":
        return (0.0, bound, False, False)
    if comparison == ">":
        return (bound, 1.0, True, False)
    return (bound, 1.0, False, False)


def _intersection_empty(a: Tuple[float, float, bool, bool],
                        b: Tuple[float, float, bool, bool]) -> bool:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    if lo > hi:
        return True
    if lo < hi:
        return False
    lo_open = (a[2] if a[0] == lo else False) or (b[2] if b[0] == lo
                                                  else False)
    hi_open = (a[3] if a[1] == hi else False) or (b[3] if b[1] == hi
                                                  else False)
    return lo_open or hi_open


def _conjuncts(node: ast.StateFormula):
    if isinstance(node, ast.And):
        yield from _conjuncts(node.left)
        yield from _conjuncts(node.right)
    else:
        yield node


@register_pass("formula")
def conflicting_probability_bounds(
        context: AnalysisContext) -> Iterator[Diagnostic]:
    """F007: a conjunction bounds the same path formula contradictorily."""
    if context.formula is None:
        return
    nested_ands = set()
    for node in context.formula.subformulas():
        if isinstance(node, ast.And):
            for child in (node.left, node.right):
                if isinstance(child, ast.And):
                    nested_ands.add(id(child))
    seen: Set[str] = set()
    for node in context.formula.subformulas():
        if not isinstance(node, ast.And) or id(node) in nested_ands:
            continue
        by_path: dict = {}
        for conjunct in _conjuncts(node):
            if isinstance(conjunct, ast.Prob):
                by_path.setdefault(conjunct.path, []).append(conjunct)
        for path, probs in by_path.items():
            if len(probs) < 2:
                continue
            for i in range(len(probs)):
                for j in range(i + 1, len(probs)):
                    a, b = probs[i], probs[j]
                    if not _intersection_empty(
                            _allowed_interval(a.comparison, a.bound),
                            _allowed_interval(b.comparison, b.bound)):
                        continue
                    location = str(node)
                    key = (f"{a.comparison}{a.bound:g}/"
                           f"{b.comparison}{b.bound:g}/{location}")
                    if key in seen:
                        continue
                    seen.add(key)
                    yield Diagnostic(
                        code="F007",
                        severity=Severity.WARNING,
                        message=(f"conflicting probability bounds on "
                                 f"the same path formula: "
                                 f"P{a.comparison}{a.bound:g} and "
                                 f"P{b.comparison}{b.bound:g} of "
                                 f"[ {path} ] cannot both hold, so "
                                 f"the conjunction is unsatisfiable"),
                        location=location,
                        hint="fix one of the two thresholds",
                        source="formula")


@register_pass("formula")
def reward_bound_never_binds(
        context: AnalysisContext) -> Iterator[Diagnostic]:
    """F008: a reward bound at or above the maximum accumulable reward."""
    if context.formula is None or context.model is None:
        return
    model = context.model
    if model.has_impulse_rewards:
        return
    max_reward = model.max_reward
    seen: Set[str] = set()
    for node in _temporal_nodes(context.formula):
        t = node.time.upper
        r = node.reward.upper
        if node.reward.is_trivial or not (math.isfinite(t)
                                          and math.isfinite(r)):
            continue
        if r < max_reward * t:
            continue
        location = str(node)
        if location in seen:
            continue
        seen.add(location)
        yield Diagnostic(
            code="F008",
            severity=Severity.INFO,
            message=(f"the reward bound {r:g} can never bind: at most "
                     f"max_reward * t = {max_reward:g} * {t:g} = "
                     f"{max_reward * t:g} reward accumulates within "
                     f"the time bound, so the query degenerates to a "
                     f"time-bounded one"),
            location=location,
            hint=("drop the reward bound (same result, cheaper "
                  "procedure) or tighten it below max_reward * t"),
            source="formula")


@register_pass("formula")
def point_time_interval(
        context: AnalysisContext) -> Iterator[Diagnostic]:
    """F009: a time interval collapsed to the single instant 0."""
    if context.formula is None:
        return
    seen: Set[str] = set()
    for node in _temporal_nodes(context.formula):
        if not (node.time.is_point and node.time.upper == 0.0):
            continue
        location = str(node)
        if location in seen:
            continue
        seen.add(location)
        yield Diagnostic(
            code="F009",
            severity=Severity.INFO,
            message=("the time interval is [0, 0]: no transition can "
                     "fire at time 0, so the operator only holds "
                     "where its goal already holds"),
            location=location,
            hint="state the goal directly, or widen the time bound",
            source="formula")
