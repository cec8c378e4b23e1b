"""The recursive CSRL model checker (Section 3 of the paper).

Checking a state formula ``Phi`` computes the satisfaction set
``Sat(Phi)`` by a bottom-up traversal of the parse tree: atomic
propositions come from the state labelling, boolean operators are set
operations, and the probabilistic operators trigger the numerical
procedures of :mod:`repro.mc.until`, :mod:`repro.mc.next_op` and
:mod:`repro.mc.steady`.  Satisfaction sets are memoised per
(sub)formula, so shared subformulas are checked once.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Union

import numpy as np

from repro.algorithms.base import JointEngine, get_engine
from repro.ctmc.mrm import MarkovRewardModel, as_mrm
from repro.errors import FormulaError, PreflightError
from repro.logic import ast
from repro.logic.parser import parse_formula
from repro.mc import next_op, prepass, reward_op, steady, until
from repro.mc.result import CheckResult
from repro.mc.transform import until_reduction
from repro.obs import span as obs_span

FormulaLike = Union[str, ast.StateFormula]


class ModelChecker:
    """Checks CSRL formulas over a Markov reward model.

    Parameters
    ----------
    model:
        The MRM (or plain CTMC -- rewards then default to zero and any
        downward-closed reward bound is trivially met).
    engine:
        Joint-distribution engine for time- and reward-bounded until
        formulas: an engine name (``"sericola"``, ``"erlang"``,
        ``"discretization"``), a :class:`JointEngine` instance, or
        ``None`` for the default (Sericola with ``epsilon``).
    epsilon:
        Truncation error bound used by the transient procedures.
    preflight:
        Run the static analysis passes (:mod:`repro.analysis`) before
        invoking the joint-distribution engine on a time- and
        reward-bounded until, and refuse with a
        :class:`~repro.errors.PreflightError` carrying the diagnostic
        codes and fix hints when an ``ERROR``-severity incompatibility
        is found -- instead of letting the engine fail mid-computation.
        Pass ``False`` to force the run anyway.
    lump:
        Lumping pre-pass policy for P3 checks (:mod:`repro.mc.\
prepass`): ``"auto"`` (default) minimises the Theorem-1-reduced model
        by ordinary lumpability whenever the quotient is smaller and the
        model is within the pre-pass state cap, ``True`` lifts that
        cap, ``False`` never lumps.  The pre-pass is exact -- only the
        propagated chain shrinks; quotient rates sum in a different
        floating-point order, so answers agree with ``lump=False`` to
        rounding, not bit for bit.  :attr:`last_lump` reports what the
        last P3 check did.

    Examples
    --------
    >>> from repro.ctmc import ModelBuilder
    >>> builder = ModelBuilder()
    >>> _ = builder.add_state("working", labels=("up",), reward=1.0)
    >>> _ = builder.add_state("failed", labels=("down",), reward=0.0)
    >>> builder.add_transition("working", "failed", 0.1)
    >>> builder.add_transition("failed", "working", 5.0)
    >>> checker = ModelChecker(builder.build())
    >>> checker.check("P>0.9 [ up U[0,1] down ]").states
    frozenset({1})
    """

    def __init__(self,
                 model: MarkovRewardModel,
                 engine: Union[None, str, JointEngine] = None,
                 epsilon: float = 1e-12,
                 preflight: bool = True,
                 lump: prepass.LumpMode = "auto"):
        self.model = as_mrm(model)
        if engine is None:
            engine = get_engine("sericola", epsilon=min(epsilon, 1e-9))
        elif isinstance(engine, str):
            engine = get_engine(engine)
        self.engine = engine
        self.epsilon = float(epsilon)
        self.preflight = bool(preflight)
        self.lump = prepass.validate_mode(lump)
        self._cache: Dict[ast.StateFormula, FrozenSet[int]] = {}
        self._last_lump: Optional[prepass.PrepassInfo] = None

    @property
    def last_lump(self) -> Optional[prepass.PrepassInfo]:
        """Outcome of this checker's most recent lumping pre-pass
        attempt (:class:`~repro.mc.prepass.PrepassInfo`), or ``None``
        when it has run no P3 query yet."""
        return self._last_lump

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def check(self, formula: FormulaLike) -> CheckResult:
        """Check a state formula; returns the full :class:`CheckResult`."""
        formula = self._normalize(formula)
        with obs_span("check", formula=str(formula)):
            return self._check(formula)

    def _check(self, formula: ast.StateFormula) -> CheckResult:
        probabilities: Optional[np.ndarray] = None
        if isinstance(formula, ast.Prob):
            probabilities = self.probability_vector(formula.path)
            states = frozenset(
                int(s) for s in range(self.model.num_states)
                if ast.compare(float(probabilities[s]),
                               formula.comparison, formula.bound))
            self._cache[formula] = states
        elif isinstance(formula, ast.SteadyState):
            operand = self.satisfaction_set(formula.operand)
            probabilities = steady.steady_state_probabilities(
                self.model, set(operand))
            states = frozenset(
                int(s) for s in range(self.model.num_states)
                if ast.compare(float(probabilities[s]),
                               formula.comparison, formula.bound))
            self._cache[formula] = states
        elif isinstance(formula, ast.Reward):
            probabilities = self.expected_reward_vector(formula.query)
            states = frozenset(
                int(s) for s in range(self.model.num_states)
                if ast.compare(float(probabilities[s]),
                               formula.comparison, formula.bound))
            self._cache[formula] = states
        else:
            states = self.satisfaction_set(formula)
        return CheckResult(formula=formula, states=states,
                           model=self.model, probabilities=probabilities)

    def satisfaction_set(self, formula: FormulaLike) -> FrozenSet[int]:
        """The set ``Sat(formula)`` of satisfying state indices."""
        formula = self._normalize(formula)
        cached = self._cache.get(formula)
        if cached is not None:
            return cached
        states = self._compute_sat(formula)
        self._cache[formula] = states
        return states

    def holds_initially(self, formula: FormulaLike) -> bool:
        """Whether the formula holds in the model's initial state(s)."""
        return self.check(formula).holds_initially

    def probability_vector(self, path: ast.PathFormula) -> np.ndarray:
        """Per-state probability measure of the paths satisfying *path*.

        This is the numerical core behind ``P<|p``: entry ``s`` is
        ``Pr{ paths from s satisfying path }``.
        """
        if isinstance(path, ast.Eventually):
            path = path.as_until()
        if isinstance(path, ast.Globally):
            # G phi = !F !phi on the probability level.
            complement = ast.Eventually(ast.Not(path.operand),
                                        path.time, path.reward).as_until()
            return 1.0 - self.probability_vector(complement)
        if isinstance(path, ast.Next):
            phi = set(self.satisfaction_set(path.operand))
            return next_op.next_probabilities(self.model, phi,
                                              path.time, path.reward)
        if isinstance(path, ast.Until):
            return self._until_probabilities(path)
        raise FormulaError(f"unknown path formula {path!r}")

    def until_probability_sweep(self,
                                left: FormulaLike,
                                right: FormulaLike,
                                times,
                                rewards,
                                executor=None,
                                checkpoint=None) -> np.ndarray:
        """P3 probabilities for a whole grid of ``(t, r)`` bounds.

        Returns the ``(len(times), len(rewards), |S|)`` array whose
        cell ``[i, j]`` is the per-state probability of ``left
        U^{[0, times[i]]}_{[0, rewards[j]]} right`` -- the workload of
        the paper's tables, where one formula is swept over its bounds.
        The satisfaction sets and the Theorem 1 reduction are computed
        once and the engine shares the propagation prefix across the
        grid (:meth:`JointEngine.joint_probability_sweep`), instead of
        one full propagation per bound pair.

        *executor*/*checkpoint* run the grid's shared-work units
        through the fault-tolerant executors instead (crash-isolated
        worker processes, durable resume; see :mod:`repro.exec`), with
        bit-identical values.
        """
        until.require_grid_bounds(times, rewards)
        return until.joint_sweep(self._work(left, right), times, rewards,
                                 self.engine, executor=executor,
                                 checkpoint=checkpoint)

    def until_probability_sweeps(self, pairs, times, rewards):
        """One bound grid per ``(left, right)`` formula pair.

        Each pair is reduced once and its grid runs through
        :meth:`until_probability_sweep` -- the same in-process
        executor as any single sweep, its units one after another.
        Results come back in *pairs* order; an engine error propagates
        unchanged.
        """
        return [self.until_probability_sweep(left, right, times, rewards)
                for left, right in pairs]

    def check_certified(self,
                        formula: FormulaLike,
                        chain=None,
                        budget=None,
                        target_width: Optional[float] = None):
        """Certified three-valued check of a ``P<|p [ until ]`` formula.

        Convenience front end to :class:`~repro.mc.certified.\
CertifiedChecker` sharing this checker's formula cache: *chain* is the
        engine fallback chain (default
        :data:`~repro.mc.certified.DEFAULT_CHAIN`), *budget* a
        :class:`~repro.mc.budget.Budget` limiting wall clock and
        refinement rounds.  Returns a :class:`~repro.mc.certified.\
CertifiedCheckResult` whose verdict is TRUE/FALSE only when certified.
        """
        from repro.mc.certified import DEFAULT_CHAIN, CertifiedChecker
        certified = CertifiedChecker(
            self, chain=DEFAULT_CHAIN if chain is None else chain,
            budget=budget, target_width=target_width)
        return certified.check(formula)

    def until_probability_sweep_partial(self,
                                        left: FormulaLike,
                                        right: FormulaLike,
                                        times,
                                        rewards,
                                        deadline: Optional[float] = None,
                                        max_workers: Optional[int] = None,
                                        executor=None,
                                        checkpoint=None):
        """Deadline-bounded variant of :meth:`until_probability_sweep`.

        Runs the ``(t, r)`` grid's shared-work units (a reward column,
        a Sericola column group) under an absolute
        ``time.monotonic()`` *deadline* and returns a
        :class:`~repro.algorithms.base.PartialSweep` instead of
        raising when time runs out: every unit finished before the
        deadline is kept, the cells of units that never started are
        listed in ``unevaluated`` (and hold NaN in the grid), and
        worker failures are isolated into per-cell ``failures``
        rather than poisoning the finished cells.  Completed cells
        land in the shared joint-vector cache, so a retry of the same
        grid resumes where this call stopped.

        *executor* shards the units over *max_workers* crash-isolated
        worker processes (``"process"`` or a :class:`~repro.exec.\
ProcessShardExecutor`); ``None``/``"thread"`` runs them one after
        another in this process, with no workers for *max_workers* to
        size.  *checkpoint* (a path) additionally makes every finished
        unit durable, so the grid survives the death of this process
        and a re-run resumes from the file.  Results are bit-identical
        in all configurations.
        """
        from dataclasses import replace
        work = self._work(left, right)
        partial = self.engine.joint_probability_sweep_partial(
            work.model, times, rewards, work.target, deadline=deadline,
            max_workers=max_workers, executor=executor,
            checkpoint=checkpoint)
        return replace(partial, grid=work.lift(partial.grid))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize(formula: FormulaLike) -> ast.StateFormula:
        if isinstance(formula, str):
            return parse_formula(formula)
        if not isinstance(formula, ast.StateFormula):
            raise FormulaError(
                f"expected a state formula or string, got {formula!r}")
        return formula

    def _compute_sat(self, formula: ast.StateFormula) -> FrozenSet[int]:
        n = self.model.num_states
        if isinstance(formula, ast.TrueFormula):
            return frozenset(range(n))
        if isinstance(formula, ast.FalseFormula):
            return frozenset()
        if isinstance(formula, ast.Atomic):
            return frozenset(self.model.states_with(formula.name))
        if isinstance(formula, ast.Not):
            return frozenset(range(n)) - self.satisfaction_set(
                formula.operand)
        if isinstance(formula, ast.And):
            return (self.satisfaction_set(formula.left)
                    & self.satisfaction_set(formula.right))
        if isinstance(formula, ast.Or):
            return (self.satisfaction_set(formula.left)
                    | self.satisfaction_set(formula.right))
        if isinstance(formula, ast.Implies):
            left = self.satisfaction_set(formula.left)
            right = self.satisfaction_set(formula.right)
            return (frozenset(range(n)) - left) | right
        if isinstance(formula, (ast.Prob, ast.SteadyState, ast.Reward)):
            return self.check(formula).states
        raise FormulaError(f"unknown state formula {formula!r}")

    def expected_reward_vector(self,
                               query: ast.RewardQuery) -> np.ndarray:
        """Per-state expected value of an ``R``-operator query."""
        if isinstance(query, ast.InstantaneousReward):
            return reward_op.instantaneous_reward_vector(
                self.model, query.time, epsilon=self.epsilon)
        if isinstance(query, ast.CumulativeReward):
            return reward_op.cumulative_reward_vector(
                self.model, query.time, epsilon=self.epsilon)
        if isinstance(query, ast.ReachabilityReward):
            phi = set(self.satisfaction_set(query.operand))
            return reward_op.reachability_reward_vector(self.model, phi)
        if isinstance(query, ast.SteadyStateReward):
            from repro.mc.measures import long_run_reward_rate
            return long_run_reward_rate(self.model)
        raise FormulaError(f"unknown reward query {query!r}")

    def _until_probabilities(self, path: ast.Until) -> np.ndarray:
        phi = set(self.satisfaction_set(path.left))
        psi = set(self.satisfaction_set(path.right))
        time, reward = path.time, path.reward
        # With an all-zero reward structure (and no impulses) Y_t = 0,
        # so any bound of the form [0, r] is vacuously met and the
        # reward dimension drops.
        reward_trivial = reward.is_trivial or (
            reward.lower == 0.0
            and not np.any(self.model.rewards > 0.0)
            and not self.model.has_impulse_rewards)
        if time.is_trivial and reward_trivial:
            return until.unbounded_until(self.model, phi, psi)
        if reward_trivial:
            return until.time_bounded_until(self.model, phi, psi, time,
                                            epsilon=self.epsilon)
        if time.is_trivial:
            return until.reward_bounded_until(self.model, phi, psi,
                                              reward, epsilon=self.epsilon)
        until.require_p3_bounds(time, reward)
        return until.joint_vector(self._work(path.left, path.right, path),
                                  time, reward, self.engine)

    def _work(self, left: FormulaLike, right: FormulaLike,
              path: Optional[ast.Until] = None) -> prepass.P3Work:
        """The one P3 pipeline front: reduce once, gate *path* on the
        reduced model (when pre-flight is on), then lump."""
        phi = set(self.satisfaction_set(left))
        psi = set(self.satisfaction_set(right))
        reduced = until_reduction(self.model, phi, psi)
        if path is not None and self.preflight:
            self._preflight_until(reduced, path)
        return self._lump(reduced, psi)

    def _lump(self, reduced: MarkovRewardModel,
              psi: Set[int]) -> prepass.P3Work:
        work = prepass.P3Work.of(reduced, psi, self.lump)
        self._last_lump = work.info
        return work

    def _preflight_until(self, reduced: MarkovRewardModel,
                         path: ast.Until) -> None:
        """Static gate before the joint-distribution engine runs
        (:func:`~repro.mc.prepass.gate` on the reduced model)."""
        with obs_span("preflight", engine=self.engine.name):
            findings = prepass.gate(self.engine, reduced, path)
        if findings:
            details = "; ".join(
                f"[{d.code}] {d.message}" for d in findings)
            raise PreflightError(
                f"pre-flight analysis vetoed the {self.engine.name} "
                f"engine for this query: {details} (pass "
                f"preflight=False to force the run)",
                diagnostics=findings)

    def lint(self, formula: FormulaLike = None):
        """Static diagnostics for this model/engine (and *formula*).

        Runs every :mod:`repro.analysis` pass family that applies and
        returns the :class:`~repro.analysis.AnalysisReport` -- the
        programmatic face of ``repro lint``.
        """
        from repro import analysis
        return analysis.lint(model=self.model, formula=formula,
                             engine=self.engine)
    # ------------------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop all memoised satisfaction sets."""
        self._cache.clear()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(model={self.model!r}, "
                f"engine={self.engine!r})")
