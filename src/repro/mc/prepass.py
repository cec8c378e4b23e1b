"""The P3 checking pipeline: engine gate, lumping pre-pass and lift.

Every time- and reward-bounded until query (class P3) runs one
pipeline, whatever the entry point (``check``, certified intervals,
``(t, r)`` sweeps): Theorem-1 reduction once, the static engine gate
(:func:`gate`) on the reduced model, the lumping pre-pass, the
engine, and the lift back to original states -- the last three carried
by one :class:`P3Work` per query.

The joint-distribution engines see the Theorem-1-reduced model and the
target indicator ``1_{Sat(Psi)}`` -- nothing else.  Whenever that
reduced model admits a non-trivial ordinary lumping whose blocks
neither split the target set nor mix reward rates, the engine can run
on the quotient instead: by ordinary lumpability the backward joint
probability ``Pr{Y_t <= r, X_t in Sat(Psi) | X_0 = s}`` is constant on
each block, so the per-original-state answer is exactly the quotient
answer read through ``block_of``.  The pre-pass is therefore *exact*
-- it changes which chain is propagated, never the quantity computed
-- and it is the lever that turns replica-symmetric 10^5-state models
into few-hundred-block computations.

:func:`attempt` wraps :func:`repro.ctmc.lumping.try_lump` with the
pipeline-specific partition seed (target membership) and the cost caps
that keep a failed attempt cheap, records ``repro_lump_*`` metrics and
a ``lump_prepass`` span, and returns the quotient (``None`` whenever
the unlumped model must be propagated) together with the outcome
(:class:`PrepassInfo`); :meth:`P3Work.of` turns both into the engine's
input.  :func:`prepare` is its quotient-only view.

The knob surface (``ModelChecker(lump=...)``, ``repro check
--no-lump``):

``"auto"``
    attempt the pre-pass under the state-count cap
    (:data:`LUMP_MAX_STATES`) and apply any reduction it finds -- the
    default;
``True``
    the same without the state-count cap (the pass cap still applies);
``False``
    never lump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (AbstractSet, FrozenSet, List, Optional, Set, Tuple,
                    Union)

import numpy as np

from repro.ctmc.lumping import Lumping, try_lump
from repro.ctmc.mrm import MarkovRewardModel
from repro.errors import ModelError
from repro.logic import ast
from repro.obs import OBS
from repro.obs import span as obs_span

#: Largest model the ``"auto"`` mode will attempt to lump; refinement
#: is one sparse re-bucketing plus a hash-grouping per pass, so this
#: keeps a *failed* attempt well under the cost of a single
#: propagation step at the same size.
LUMP_MAX_STATES = 262_144

#: Refinement-pass budget: a partition still unstable after this many
#: passes forfeits the attempt (a partial partition is not a valid
#: lumping).
LUMP_MAX_PASSES = 64

LumpMode = Union[str, bool]

_MODES = ("auto", True, False)


def validate_mode(mode: LumpMode) -> LumpMode:
    """Normalise and validate a ``lump=`` knob value."""
    if mode in _MODES:
        return mode
    raise ModelError(
        f"lump mode must be 'auto', True or False, got {mode!r}")


@dataclass(frozen=True)
class LumpPrepass:
    """A successful pre-pass: the quotient and how to read it back."""
    lumping: Lumping
    psi_blocks: FrozenSet[int]

    @property
    def quotient(self) -> MarkovRewardModel:
        return self.lumping.quotient

    @property
    def block_of(self) -> np.ndarray:
        return self.lumping.block_of

    @property
    def num_blocks(self) -> int:
        return self.lumping.num_blocks


@dataclass(frozen=True)
class PrepassInfo:
    """Outcome of one pre-pass attempt (``check -v``)."""
    num_states: int
    num_blocks: Optional[int]
    applied: bool
    reason: str


Attempt = Tuple[Optional[LumpPrepass], PrepassInfo]


def _record(info: PrepassInfo,
            pre: Optional[LumpPrepass] = None) -> Attempt:
    if OBS.enabled:
        if info.applied:
            OBS.metrics.counter("repro_lump_applied_total").inc()
            OBS.metrics.gauge("repro_lump_states_before").set(
                info.num_states)
            OBS.metrics.gauge("repro_lump_states_after").set(
                info.num_blocks)
        else:
            OBS.metrics.counter("repro_lump_skipped_total",
                                reason=info.reason).inc()
    return pre, info


def attempt(model: MarkovRewardModel,
            psi: Set[int],
            mode: LumpMode = "auto") -> Attempt:
    """Attempt to lump the (Theorem-1-reduced) *model* for checking.

    *psi* is the target set the engine will be pointed at; its
    membership seeds the initial partition so the quotient target is
    well defined.  Returns ``(prepass, info)``: *prepass* is ``None``
    -- leaving the caller on the original model -- when lumping is
    disabled, capped out, unsound (impulse rewards) or yields no
    reduction, and *info* says which.
    """
    mode = validate_mode(mode)
    n = model.num_states
    if mode is False:
        return _record(PrepassInfo(n, None, False, "disabled"))
    max_states = LUMP_MAX_STATES if mode == "auto" else None
    if max_states is not None and n > max_states:
        return _record(PrepassInfo(n, None, False, "too_large"))
    if model.has_impulse_rewards:
        return _record(PrepassInfo(n, None, False, "impulse_rewards"))
    seed = np.zeros(n, dtype=np.int64)
    if psi:
        seed[np.fromiter(psi, dtype=np.int64, count=len(psi))] = 1
    with obs_span("lump_prepass", states=n) as span:
        lumping = try_lump(model,
                           respect_labels=(),
                           respect_initial=False,
                           respect_partition=seed,
                           max_states=max_states,
                           max_passes=LUMP_MAX_PASSES)
        span.set(blocks=(lumping.num_blocks if lumping is not None
                         else n))
    if lumping is None:
        return _record(PrepassInfo(n, None, False, "no_reduction"))
    psi_blocks = frozenset(
        int(b) for b in np.unique(lumping.block_of[list(psi)])
    ) if psi else frozenset()
    return _record(PrepassInfo(n, lumping.num_blocks, True, "applied"),
                   LumpPrepass(lumping=lumping, psi_blocks=psi_blocks))


def prepare(model: MarkovRewardModel,
            psi: Set[int],
            mode: LumpMode = "auto") -> Optional[LumpPrepass]:
    """The quotient of :func:`attempt`, or ``None``."""
    return attempt(model, psi, mode)[0]


@dataclass(frozen=True)
class P3Work:
    """One P3 query's engine input and the way back to its answer.

    ``reduced`` is the Theorem-1 model; ``model`` and ``target`` are
    what the engine propagates -- the lumped quotient and its target
    blocks, or ``reduced`` and ``Sat(Psi)`` when the pre-pass does not
    apply; ``info`` is the pre-pass outcome.  Build it with
    :meth:`of`, once per query, and read every engine result back
    through :meth:`lift`.
    """
    reduced: MarkovRewardModel
    model: MarkovRewardModel
    target: AbstractSet[int]
    block_of: Optional[np.ndarray]
    info: PrepassInfo

    @classmethod
    def of(cls, reduced: MarkovRewardModel, psi: Set[int],
           lump: LumpMode = "auto") -> "P3Work":
        """Run the pre-pass on *reduced* (target *psi*) under *lump*."""
        pre, info = attempt(reduced, psi, mode=lump)
        if pre is None:
            return cls(reduced, reduced, psi, None, info)
        return cls(reduced, pre.quotient, pre.psi_blocks, pre.block_of,
                   info)

    def lift(self, values) -> np.ndarray:
        """Per-original-state probabilities from engine output over
        :attr:`model` (last axis = states), clipped to ``[0, 1]``."""
        values = np.asarray(values)
        if self.block_of is not None:
            values = values[..., self.block_of]
        return np.clip(values, 0.0, 1.0)


def gate(engine, reduced: MarkovRewardModel, path: ast.Until) -> List:
    """Error-severity engine-compatibility findings for a P3 query.

    The verdict is taken on the Theorem-1 *reduced* model, not the
    original: absorbing the ``psi`` and failure states clears their
    impulse rows, so a model that carries impulses only on absorbed
    transitions is legitimately fine for an engine without impulse
    support.  An empty list means *engine* may run.
    """
    from repro.analysis import QueryProfile, Severity, engine_compatibility
    query = QueryProfile.from_formula(ast.Prob("<", 1.0, path))
    return [d for d in engine_compatibility(engine, reduced, query)
            if d.severity is Severity.ERROR]
