"""Certified checking with adaptive refinement and graceful degradation.

The plain :class:`~repro.mc.checker.ModelChecker` compares a *point*
estimate against the probability bound of ``P<|p [ phi ]`` -- when the
estimate sits within numerical error of the threshold, the boolean
answer is a coin flip.  The :class:`CertifiedChecker` instead asks each
joint-distribution engine for a **sound enclosure** ``[lower, upper]``
of the probability (see
:meth:`~repro.algorithms.base.JointEngine.joint_probability_interval`)
and derives a three-valued :class:`~repro.mc.result.Verdict`:

* ``TRUE`` / ``FALSE`` -- the whole interval is on one side of the
  threshold; the answer is certified.
* ``UNKNOWN`` -- the interval straddles the threshold.  The checker
  then *refines* the engine (smaller ``d``, more phases, tighter
  ``epsilon``) and retries, as long as the per-query :class:`Budget`
  has wall-clock and rounds left.

When an engine fails -- a :class:`~repro.errors.NumericalError` from
underflow or non-convergence, or it cannot refine any further -- the
checker **degrades** to the next engine of its fallback chain instead
of crashing, and every failure is recorded on the result so the
degradation is visible, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.base import JointEngine, get_engine
from repro.ctmc.mrm import MarkovRewardModel
from repro.errors import NumericalError, UnsupportedFormulaError
from repro.exec import BREAKERS, breaker_key
from repro.logic import ast
from repro.mc import prepass, until
from repro.mc.budget import Budget
from repro.mc.checker import FormulaLike, ModelChecker
from repro.mc.result import Verdict, interval_verdict
from repro.mc.transform import until_reduction
from repro.obs import OBS
from repro.obs import span as obs_span

#: Default fallback chain: the a-priori-bounded Sericola engine first
#: (tightest certificates), then the pseudo-Erlang expansion, then the
#: Tijms--Veldman discretisation as the robust workhorse of last resort.
DEFAULT_CHAIN: Tuple[str, ...] = ("sericola", "erlang", "discretization")


@dataclass(frozen=True)
class EngineFailure:
    """One engine's failure on the way down the fallback chain.

    ``skipped_static`` marks engines the static compatibility analysis
    (:func:`repro.analysis.engine_compatibility`) ruled out *before*
    any invocation -- the engine never ran, so no runtime error was
    paid for the knowledge.  ``skipped_breaker`` marks engines whose
    circuit breaker (:data:`repro.exec.BREAKERS`) was open from recent
    repeated failures: the chain degrades past them immediately rather
    than paying for another likely failure, and retries once the
    breaker's cooldown admits a probe.  ``flight_tail`` carries the
    dying worker's last flight-recorder events when the failure came
    out of a process-executor run (see
    :class:`repro.obs.recorder.FlightRecorder`); ``repro check -v``
    prints them so "what was the worker doing when it died" survives
    all the way up the chain.
    """

    engine: str
    reason: str
    skipped_static: bool = False
    skipped_breaker: bool = False
    flight_tail: Tuple = ()

    def __str__(self) -> str:
        if self.skipped_static:
            prefix = "skipped (static): "
        elif self.skipped_breaker:
            prefix = "skipped (breaker): "
        else:
            prefix = ""
        return f"{self.engine}: {prefix}{self.reason}"


def _flight_tail_of(exc: BaseException) -> Tuple:
    """The flight-recorder tail riding on *exc*, if any.

    Process-executor failures carry the victim's last recorded events
    either directly (:class:`~repro.errors.WorkerError` /
    :class:`~repro.errors.WorkerCrashError`) or nested inside a
    :class:`~repro.errors.ParallelExecutionError`'s per-task failures;
    the first non-empty tail wins.
    """
    tail = getattr(exc, "flight_tail", ())
    if tail:
        return tuple(tail)
    for failure in getattr(exc, "failures", ()):
        tail = getattr(failure, "flight_tail", ())
        if tail:
            return tuple(tail)
    return ()


@dataclass(frozen=True)
class CertifiedCheckResult:
    """Outcome of one certified query.

    Attributes
    ----------
    formula:
        The checked ``P<|p`` state formula.
    verdict:
        Three-valued answer under the model's initial distribution:
        ``TRUE``/``FALSE`` only when certified for **every** state
        carrying initial probability mass.
    lower, upper:
        Certified per-state probability bounds from the narrowest
        enclosure any engine produced (``lower[s] <= Pr{s |= phi} <=
        upper[s]``).
    state_verdicts:
        Per-state three-valued verdicts against the formula's bound.
    engine:
        Name of the engine that produced the reported enclosure, or
        ``None`` when every engine failed before producing one.
    rounds_used:
        Engine evaluations spent (initial runs plus refinements,
        across the whole chain).
    failures:
        Everything that went wrong along the way -- engine errors,
        refinement floors, budget exhaustion -- in occurrence order.
        Empty for a clean first-try certification.
    model:
        The model the query ran on.
    """

    formula: ast.StateFormula
    verdict: Verdict
    lower: np.ndarray
    upper: np.ndarray
    state_verdicts: Tuple[Verdict, ...]
    engine: Optional[str]
    rounds_used: int
    failures: Tuple[EngineFailure, ...]
    model: MarkovRewardModel

    @property
    def width(self) -> float:
        """Widest per-state enclosure (``inf`` when no engine ran)."""
        spread = self.upper - self.lower
        if not np.all(np.isfinite(spread)):
            return float("inf")
        return float(np.max(spread)) if spread.size else 0.0

    @property
    def degraded(self) -> bool:
        """Whether any engine failed before the reported enclosure."""
        return bool(self.failures)

    def verdict_of(self, state: int) -> Verdict:
        """The certified verdict for one state."""
        return self.state_verdicts[state]

    def __str__(self) -> str:
        engine = self.engine or "none"
        return (f"{self.formula}: {self.verdict} "
                f"[engine={engine}, rounds={self.rounds_used}, "
                f"width={self.width:.2e}, "
                f"failures={len(self.failures)}]")


def _initial_verdict(model: MarkovRewardModel,
                     state_verdicts: Sequence[Verdict]) -> Verdict:
    """Combine per-state verdicts under the initial distribution.

    Mirrors :attr:`CheckResult.holds_initially`: the formula holds
    initially iff every state with initial mass satisfies it -- so one
    certified FALSE anywhere in the support decides FALSE, and TRUE
    needs certified TRUE everywhere in the support.
    """
    support = [state_verdicts[int(s)]
               for s in np.flatnonzero(model.initial_distribution)]
    if any(v is Verdict.FALSE for v in support):
        return Verdict.FALSE
    if all(v is Verdict.TRUE for v in support):
        return Verdict.TRUE
    return Verdict.UNKNOWN


class CertifiedChecker:
    """Three-valued checker with budgeted refinement and fallback.

    Parameters
    ----------
    model:
        The Markov reward model, or an existing
        :class:`~repro.mc.checker.ModelChecker` to share its formula
        cache (nested subformulas are still checked exactly -- only
        the outermost ``P<|p`` bound is certified).
    chain:
        Fallback chain: engine names or :class:`JointEngine` instances
        tried in order.  Defaults to :data:`DEFAULT_CHAIN`.
    budget:
        Per-query :class:`Budget`; restarted at each :meth:`check`.
        ``None`` means unlimited.
    target_width:
        When set, keep refining past a decided verdict until the
        initial-state enclosure is at most this wide (or the budget or
        the engine's refinement floor stops it).

    Examples
    --------
    >>> from repro.ctmc import ModelBuilder
    >>> builder = ModelBuilder()
    >>> _ = builder.add_state("up", labels=("up",), reward=2.0)
    >>> _ = builder.add_state("down", labels=("down",), reward=0.0)
    >>> builder.add_transition("up", "down", 0.1)
    >>> builder.add_transition("down", "up", 5.0)
    >>> checker = CertifiedChecker(builder.build())
    >>> result = checker.check("P>0.9 [ up U[0,1][0,3] down ]")
    >>> str(result.verdict)
    'FALSE'
    """

    def __init__(self,
                 model: Union[MarkovRewardModel, ModelChecker],
                 chain: Sequence[Union[str, JointEngine]] = DEFAULT_CHAIN,
                 budget: Optional[Budget] = None,
                 target_width: Optional[float] = None,
                 epsilon: float = 1e-12,
                 solver: str = "direct"):
        if isinstance(model, ModelChecker):
            self.checker = model
        else:
            self.checker = ModelChecker(model, epsilon=epsilon,
                                        solver=solver)
        self.model = self.checker.model
        engines = tuple(get_engine(entry) if isinstance(entry, str)
                        else entry for entry in chain)
        if not engines:
            raise NumericalError(
                "the fallback chain must name at least one engine")
        self.chain = engines
        self.budget = budget if budget is not None else Budget.unlimited()
        if target_width is not None and not 0.0 < target_width <= 1.0:
            raise NumericalError(
                f"target_width must be in (0, 1], got {target_width}")
        self.target_width = target_width

    # ------------------------------------------------------------------

    def check(self, formula: FormulaLike) -> CertifiedCheckResult:
        """Certified three-valued check of a ``P<|p [ until ]`` formula.

        Never raises for engine-level numerical trouble: failures feed
        the fallback chain and, in the worst case, an ``UNKNOWN``
        result that says exactly what went wrong.  Formula-level
        problems (not a ``P`` formula, unsupported bounds) still raise,
        since no amount of degradation can fix those.

        The query is reduced, gated per engine and lumped once; every
        engine and refinement round reuses that work.
        """
        formula = ModelChecker._normalize(formula)
        prob, path = self._require_supported(formula)
        phi = set(self.checker.satisfaction_set(path.left))
        psi = set(self.checker.satisfaction_set(path.right))

        budget = self.budget.restart()
        failures: "list[EngineFailure]" = []
        best: Optional[Tuple[float, np.ndarray, np.ndarray, str]] = None

        reduced = until_reduction(self.model, phi, psi)
        vetoes = [self._static_veto(engine, reduced, path)
                  for engine in self.chain]
        if all(veto is not None for veto in vetoes):
            # The gate runs before the lump: a fully vetoed chain never
            # reaches the pre-pass.
            return self._finish(formula, prob, best, vetoes, budget)
        work = self.checker._lump(reduced, psi)

        for engine, veto in zip(self.chain, vetoes):
            if veto is not None:
                failures.append(veto)
                continue  # never invoked; degrade without a round spent
            # Consult -- but never create -- the engine's circuit
            # breaker: an executor run that repeatedly crashed or timed
            # out on this engine/kernel pair opens it, and the chain
            # degrades past the engine while the breaker cools down.
            # allow() on a half-open breaker admits this chain walk as
            # the probe; the outcome below closes or re-opens it.
            breaker = BREAKERS.get(breaker_key(engine))
            if breaker is not None and not breaker.allow():
                failures.append(EngineFailure(
                    engine.name,
                    f"circuit breaker {breaker.key!r} is open "
                    f"({breaker.consecutive_failures} recent failures)",
                    skipped_breaker=True))
                continue
            current: Optional[JointEngine] = engine
            while current is not None:
                if not budget.take_round():
                    failures.append(EngineFailure(
                        current.name,
                        f"budget exhausted before evaluation "
                        f"({budget!r})"))
                    return self._finish(formula, prob, best, failures,
                                        budget)
                if OBS.enabled:
                    OBS.metrics.counter("repro_certified_rounds_total",
                                        engine=current.name).inc()
                try:
                    with obs_span("certified_round", engine=current.name,
                                  round=budget.rounds_used):
                        lower, upper = until.joint_interval(
                            work, path.time, path.reward, current)
                except UnsupportedFormulaError:
                    raise
                except NumericalError as exc:
                    if breaker is not None:
                        breaker.record_failure()
                    failures.append(EngineFailure(
                        current.name, str(exc),
                        flight_tail=_flight_tail_of(exc)))
                    break  # degrade to the next engine in the chain
                if breaker is not None:
                    # A produced enclosure closes a half-open breaker,
                    # so a consumed probe never leaves it stuck open.
                    breaker.record_success()
                width = self._initial_width(lower, upper)
                if best is None or width < best[0]:
                    best = (width, lower, upper, current.name)
                if self._good_enough(prob, lower, upper, width):
                    return self._finish(formula, prob, best, failures,
                                        budget)
                refined = current.refined()
                if refined is None:
                    failures.append(EngineFailure(
                        current.name,
                        f"cannot refine past its accuracy floor "
                        f"(enclosure width {width:.3e})"))
                current = refined
        return self._finish(formula, prob, best, failures, budget)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @staticmethod
    def _require_supported(
            formula: ast.StateFormula) -> Tuple[ast.Prob, ast.Until]:
        if not isinstance(formula, ast.Prob):
            raise UnsupportedFormulaError(
                f"certified checking needs an outermost P operator, "
                f"got {formula}")
        path = formula.path
        if isinstance(path, ast.Eventually):
            path = path.as_until()
        if not isinstance(path, ast.Until):
            raise UnsupportedFormulaError(
                f"certified checking covers until path formulas, "
                f"got {formula.path}")
        until.require_interval_bounds(path.time, path.reward)
        return formula, path

    @staticmethod
    def _static_veto(engine: JointEngine, reduced: MarkovRewardModel,
                     path: ast.Until) -> Optional[EngineFailure]:
        """An :class:`EngineFailure` when the static gate
        (:func:`~repro.mc.prepass.gate`) rules the engine out for this
        query, else ``None``."""
        findings = prepass.gate(engine, reduced, path)
        if not findings:
            return None
        reason = "; ".join(f"[{d.code}] {d.message}" for d in findings)
        return EngineFailure(engine.name, reason, skipped_static=True)

    def _initial_width(self, lower: np.ndarray,
                       upper: np.ndarray) -> float:
        """Widest enclosure over the initial-distribution support."""
        support = np.flatnonzero(self.model.initial_distribution)
        if support.size == 0:
            return float(np.max(upper - lower))
        return float(np.max(upper[support] - lower[support]))

    def _good_enough(self, prob: ast.Prob, lower: np.ndarray,
                     upper: np.ndarray, width: float) -> bool:
        verdicts = self._state_verdicts(prob, lower, upper)
        if _initial_verdict(self.model, verdicts) is Verdict.UNKNOWN:
            return False
        if self.target_width is not None:
            return width <= self.target_width
        return True

    @staticmethod
    def _state_verdicts(prob: ast.Prob, lower: np.ndarray,
                        upper: np.ndarray) -> Tuple[Verdict, ...]:
        return tuple(interval_verdict(float(lo), float(up),
                                      prob.comparison, prob.bound)
                     for lo, up in zip(lower, upper))

    def _finish(self, formula: ast.StateFormula, prob: ast.Prob,
                best, failures: "list[EngineFailure]",
                budget: Budget) -> CertifiedCheckResult:
        n = self.model.num_states
        if best is None:
            # Every engine failed before producing an enclosure; the
            # vacuous [0, 1] bounds are still sound, just useless.
            lower, upper = np.zeros(n), np.ones(n)
            engine_name: Optional[str] = None
        else:
            _, lower, upper, engine_name = best
        verdicts = self._state_verdicts(prob, lower, upper)
        return CertifiedCheckResult(
            formula=formula,
            verdict=_initial_verdict(self.model, verdicts),
            lower=lower,
            upper=upper,
            state_verdicts=verdicts,
            engine=engine_name,
            rounds_used=budget.rounds_used,
            failures=tuple(failures),
            model=self.model)

    def __repr__(self) -> str:
        names = ", ".join(e.name for e in self.chain)
        return (f"{type(self).__name__}(chain=[{names}], "
                f"budget={self.budget!r}, "
                f"target_width={self.target_width})")
