"""Convenience constructors for building CSRL formulas in Python.

These helpers mirror the notation of the paper:

>>> from repro.logic import sugar as f
>>> q3 = f.prob(">", 0.5,
...             f.until(f.ap("call_idle") | f.ap("doze"),
...                     f.ap("call_initiated"),
...                     time=24, reward=600))
>>> str(q3)
'P>0.5 [ (call_idle | doze) U[0,24][0,600] call_initiated ]'
"""

from __future__ import annotations

from typing import Union

from repro.logic import ast
from repro.logic.intervals import Interval

BoundLike = Union[None, float, int, Interval]


def _interval(bound: BoundLike) -> Interval:
    """Normalise a bound specification into an :class:`Interval`.

    ``None`` means unbounded; a number ``b`` means ``[0, b]``.
    """
    if bound is None:
        return Interval.unbounded()
    if isinstance(bound, Interval):
        return bound
    return Interval.upto(float(bound))


def ap(name: str) -> ast.Atomic:
    """Atomic proposition *name*."""
    return ast.Atomic(name)


def true() -> ast.TrueFormula:
    """The formula ``true``."""
    return ast.TRUE


def false() -> ast.FalseFormula:
    """The formula ``false``."""
    return ast.FALSE


def neg(operand: ast.StateFormula) -> ast.Not:
    """Negation."""
    return ast.Not(operand)


def conj(*operands: ast.StateFormula) -> ast.StateFormula:
    """Conjunction of one or more formulas (left associated)."""
    if not operands:
        return ast.TRUE
    result = operands[0]
    for operand in operands[1:]:
        result = ast.And(result, operand)
    return result


def disj(*operands: ast.StateFormula) -> ast.StateFormula:
    """Disjunction of one or more formulas (left associated)."""
    if not operands:
        return ast.FALSE
    result = operands[0]
    for operand in operands[1:]:
        result = ast.Or(result, operand)
    return result


def prob(comparison: str, bound: float,
         path: ast.PathFormula) -> ast.Prob:
    """The probabilistic operator ``P comparison bound [ path ]``."""
    return ast.Prob(comparison, bound, path)


def steady(comparison: str, bound: float,
           operand: ast.StateFormula) -> ast.SteadyState:
    """The steady-state operator ``S comparison bound [ operand ]``."""
    return ast.SteadyState(comparison, bound, operand)


def next_(operand: ast.StateFormula,
          time: BoundLike = None,
          reward: BoundLike = None) -> ast.Next:
    """The NEXT operator ``X_I^J operand``."""
    return ast.Next(operand, _interval(time), _interval(reward))


def until(left: ast.StateFormula,
          right: ast.StateFormula,
          time: BoundLike = None,
          reward: BoundLike = None) -> ast.Until:
    """The UNTIL operator ``left U_I^J right``."""
    return ast.Until(left, right, _interval(time), _interval(reward))


def eventually(operand: ast.StateFormula,
               time: BoundLike = None,
               reward: BoundLike = None) -> ast.Eventually:
    """``F_I^J operand`` -- the paper's diamond operator."""
    return ast.Eventually(operand, _interval(time), _interval(reward))


def globally(operand: ast.StateFormula,
             time: BoundLike = None,
             reward: BoundLike = None) -> ast.Globally:
    """``G_I^J operand``."""
    return ast.Globally(operand, _interval(time), _interval(reward))
