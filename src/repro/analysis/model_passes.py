"""Model passes: structural diagnostics over a CTMC/MRM.

Codes ``M001``--``M009``; see ``docs/DIAGNOSTICS.md`` for the full
catalogue.  All passes are pure graph/vector inspections (M009 runs a
capped partition refinement) -- no transient analysis, no engine runs.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.passes import AnalysisContext, register_pass
from repro.ctmc import graph
from repro.numerics.poisson import right_truncation_point

#: Exit-rate spread beyond which the uniformisation series is
#: considered stiff (M005).
STIFFNESS_RATIO = 1e5

#: Uniformisation workload ``max_exit_rate * t`` beyond which the
#: predicted Fox--Glynn truncation depth is worth a warning (M008).
UNIFORMIZATION_WORKLOAD = 1e4


def _states(model, indices: Sequence[int], limit: int = 6) -> str:
    """Render a state list as named locations, truncated for brevity."""
    indices = [int(s) for s in indices]
    shown = ", ".join(model.name_of(s) for s in indices[:limit])
    extra = len(indices) - limit
    if extra > 0:
        shown += f", ... ({extra} more)"
    noun = "state" if len(indices) == 1 else "states"
    return f"{noun} {shown}"


@register_pass("model")
def unreachable_states(context: AnalysisContext) -> Iterator[Diagnostic]:
    """M001: states unreachable from the initial distribution."""
    model = context.model
    if model is None or model.num_states == 0:
        return
    support = np.flatnonzero(model.initial_distribution)
    reached = graph.reachable(model, (int(s) for s in support))
    unreachable = sorted(set(range(model.num_states)) - reached)
    if unreachable:
        yield Diagnostic(
            code="M001",
            severity=Severity.WARNING,
            message=(f"{len(unreachable)} of {model.num_states} states "
                     f"are unreachable from the initial distribution"),
            location=_states(model, unreachable),
            hint=("remove the unreachable states (e.g. with 'repro "
                  "lump') or fix the initial distribution; they "
                  "inflate every propagation without affecting any "
                  "result"),
            source="model")


@register_pass("model")
def absorbing_reward_divergence(
        context: AnalysisContext) -> Iterator[Diagnostic]:
    """M002: absorbing states with positive reward rate."""
    model = context.model
    if model is None:
        return
    divergent = [s for s in range(model.num_states)
                 if model.is_absorbing(s) and model.rewards[s] > 0.0]
    if divergent:
        yield Diagnostic(
            code="M002",
            severity=Severity.WARNING,
            message=(f"{len(divergent)} absorbing state(s) carry a "
                     f"positive reward rate: accumulated reward "
                     f"diverges there, so any finite reward bound is "
                     f"eventually exceeded with probability one"),
            location=_states(model, divergent),
            hint=("set the reward of absorbing states to zero unless "
                  "the divergence is intended (Theorem 1 does exactly "
                  "this for the states it absorbs)"),
            source="model")


@register_pass("model")
def all_zero_rewards(context: AnalysisContext) -> Iterator[Diagnostic]:
    """M003: an all-zero reward structure."""
    model = context.model
    if model is None or model.num_states == 0:
        return
    if not np.any(model.rewards > 0.0) and not model.has_impulse_rewards:
        yield Diagnostic(
            code="M003",
            severity=Severity.INFO,
            message=("every reward rate is zero (and there are no "
                     "impulse rewards): Y_t == 0, so any reward bound "
                     "[0, r] is trivially met and reward-bounded "
                     "operators degenerate to time-bounded ones"),
            hint=("drop the reward bounds, or supply a .rew file / "
                  "reward vector if rewards were intended"),
            source="model")


@register_pass("model")
def zero_reward_cycles(context: AnalysisContext) -> Iterator[Diagnostic]:
    """M004: cycles through zero-reward states.

    Time passes inside such a cycle without accumulating reward, which
    breaks the time/reward duality (it needs strictly positive
    rewards) and forces the zero-reward elimination step of the
    reward-bounded until procedure.
    """
    model = context.model
    if model is None:
        return
    rho = model.rewards
    if not np.any(rho > 0.0):
        return  # covered by M003; every cycle is zero-reward then
    zero = np.flatnonzero(rho == 0.0)
    if zero.size == 0:
        return
    sub = sp.csr_matrix(model.rate_matrix[zero][:, zero])
    if model.has_impulse_rewards:
        # A transition carrying an impulse *does* accumulate reward,
        # so it cannot be part of a reward-free cycle.
        impulses = model.impulse_matrix[zero][:, zero]
        sub = sub - sub.multiply(impulses > 0)
        sub.eliminate_zeros()
    if sub.nnz == 0:
        return
    n_components, labels = csgraph.connected_components(
        sub, directed=True, connection="strong")
    sizes = np.bincount(labels, minlength=n_components)
    diag = sub.diagonal()
    cyclic: List[int] = []
    for component in range(n_components):
        members = np.flatnonzero(labels == component)
        if sizes[component] > 1 or np.any(diag[members] > 0.0):
            cyclic.extend(int(zero[m]) for m in members)
    if cyclic:
        yield Diagnostic(
            code="M004",
            severity=Severity.WARNING,
            message=(f"{len(cyclic)} zero-reward state(s) lie on a "
                     f"cycle: paths can let time pass without "
                     f"accumulating reward, which rules out the "
                     f"time/reward duality and costs an extra "
                     f"zero-reward elimination in reward-bounded "
                     f"until checking"),
            location=_states(model, sorted(cyclic)),
            hint=("give the cycle states a positive reward rate if "
                  "one was intended; otherwise expect the checker to "
                  "eliminate them behind the scenes"),
            source="model")


@register_pass("model")
def rate_stiffness(context: AnalysisContext) -> Iterator[Diagnostic]:
    """M005: stiff exit-rate spread."""
    model = context.model
    if model is None:
        return
    exit_rates = model.exit_rates
    positive = exit_rates[exit_rates > 0.0]
    if positive.size < 2:
        return
    fastest = float(positive.max())
    slowest = float(positive.min())
    ratio = fastest / slowest
    if ratio < STIFFNESS_RATIO:
        return
    t_ref = context.query.time_bound
    horizon = t_ref if t_ref is not None else 1.0 / slowest
    depth = right_truncation_point(fastest * horizon, 1e-9)
    yield Diagnostic(
        code="M005",
        severity=Severity.WARNING,
        message=(f"stiff model: exit rates span a factor "
                 f"{ratio:.1e} ({slowest:g} .. {fastest:g}); "
                 f"uniformisation at rate {fastest:g} over a horizon "
                 f"of {horizon:g} needs a Fox-Glynn truncation depth "
                 f"of ~{depth} terms"),
        hint=("consider lumping fast states ('repro lump'), steady-"
              "state detection, or the discretisation engine whose "
              "cost does not grow with the rate spread"),
        source="model")


@register_pass("model")
def uniformization_workload(
        context: AnalysisContext) -> Iterator[Diagnostic]:
    """M008: large ``max_exit_rate * t`` uniformisation workload."""
    model = context.model
    t = context.query.time_bound
    if model is None or t is None:
        return
    workload = model.max_exit_rate * float(t)
    if workload < UNIFORMIZATION_WORKLOAD:
        return
    depth = right_truncation_point(workload, 1e-9)
    yield Diagnostic(
        code="M008",
        severity=Severity.WARNING,
        message=(f"uniformisation workload max_exit_rate * t = "
                 f"{model.max_exit_rate:g} * {float(t):g} = "
                 f"{workload:.3g}: the transient series needs "
                 f"~{depth} Fox-Glynn terms per query"),
        hint=("lower the time bound, lump the model, or budget the "
              "run ('repro check --certify --budget')"),
        source="model")


@register_pass("model")
def self_loops(context: AnalysisContext) -> Iterator[Diagnostic]:
    """M006: self-loop transitions."""
    model = context.model
    if model is None or model.num_states == 0:
        return
    diagonal = model.rate_matrix.diagonal()
    loops = np.flatnonzero(diagonal > 0.0)
    if loops.size:
        yield Diagnostic(
            code="M006",
            severity=Severity.INFO,
            message=(f"{loops.size} state(s) have self-loop "
                     f"transitions; they do not change the process "
                     f"distribution but inflate exit rates (and hence "
                     f"the uniformisation rate), and may carry "
                     f"impulse rewards"),
            location=_states(model, [int(s) for s in loops]),
            hint=("drop reward-free self-loops; keep them only when "
                  "an impulse reward on the loop is intended"),
            source="model")


@register_pass("model")
def lumpable_model(context: AnalysisContext) -> Iterator[Diagnostic]:
    """M009: the model admits a non-trivial ordinary lumping.

    Runs the same capped partition refinement the checker's automatic
    pre-pass uses (:mod:`repro.mc.prepass`), but respecting *every*
    label, so the reported quotient is valid whatever formula is later
    checked.  Informational: the pre-pass exploits this automatically
    unless it was disabled.
    """
    from repro.ctmc.lumping import try_lump
    from repro.mc.prepass import LUMP_MAX_PASSES, LUMP_MAX_STATES
    model = context.model
    if model is None or model.num_states == 0:
        return
    if model.num_states > LUMP_MAX_STATES:
        return  # refinement at this size is the pre-pass's business
    if model.has_impulse_rewards:
        return  # impulse rewards rule the quotient construction out
    lumping = try_lump(model,
                       respect_initial=False,
                       max_passes=LUMP_MAX_PASSES)
    if lumping is None:
        return
    ratio = model.num_states / lumping.num_blocks
    yield Diagnostic(
        code="M009",
        severity=Severity.INFO,
        message=(f"the model is ordinarily lumpable: {model.num_states} "
                 f"states collapse to {lumping.num_blocks} blocks "
                 f"({ratio:.1f}x) with identical checking results"),
        hint=("the checker's pre-pass (lump=\"auto\") applies this "
              "automatically; pass lump=True to lift its state cap, or "
              "run 'repro lump' to materialise the quotient"),
        source="model")


def _tra_duplicates(path: str) -> List[Tuple[int, int, int]]:
    """``(source, target, count)`` of duplicated ``.tra`` entries
    (1-based indices, count > 1)."""
    counts: Dict[Tuple[int, int], int] = {}
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith(("%", "#")):
                continue
            parts = line.split()
            if parts[0].upper() in ("STATES", "TRANSITIONS"):
                continue
            if len(parts) != 3:
                continue  # malformed lines are load_mrm's business
            key = (int(parts[0]), int(parts[1]))
            counts[key] = counts.get(key, 0) + 1
    return [(s, t, c) for (s, t), c in sorted(counts.items()) if c > 1]


@register_pass("model")
def duplicate_transitions(
        context: AnalysisContext) -> Iterator[Diagnostic]:
    """M007: duplicated entries in the ``.tra`` file.

    ``load_mrm`` silently *sums* duplicated ``(source, target)``
    entries, so the in-memory rate differs from every individual line
    -- almost always a copy-paste mistake in the file.
    """
    base = context.model_path
    if base is None:
        return
    tra = f"{base}.tra"
    if not os.path.exists(tra):
        return
    duplicates = _tra_duplicates(tra)
    if not duplicates:
        return
    shown = ", ".join(f"({s}, {t}) x{c}" for s, t, c in duplicates[:6])
    extra = len(duplicates) - 6
    if extra > 0:
        shown += f", ... ({extra} more)"
    yield Diagnostic(
        code="M007",
        severity=Severity.WARNING,
        message=(f"{len(duplicates)} transition(s) appear multiple "
                 f"times in {os.path.basename(tra)}; duplicated "
                 f"entries are summed on load, so the effective rate "
                 f"differs from every individual line"),
        location=f"transitions {shown} (1-based, as in the file)",
        hint="merge the duplicated lines into one entry per transition",
        source="model")
