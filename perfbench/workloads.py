"""The benchmark's three workloads: their inputs, operations and checks.

Each workload builds its models once (set-up) and then exposes a list of
:class:`Op` kinds.  An op has three faces:

* ``run()`` -- the user-visible call (``ModelChecker.check``, a sweep
  under one executor, or the ``repro check`` CLI), timed with tracing
  off;
* ``verify(answer)`` -- raises :class:`Mismatch` when the answer is not
  the pinned/expected one;
* ``stepwise(spans)`` -- the same computation re-run through the public
  functions of each layer, every call wrapped in one of the benchmark's
  own spans (:class:`Spans`).  Its answer must equal ``run()``'s answer
  bit for bit, which is what makes the per-layer split faithful.

Importing this module imports the library; ``run.py`` times that import
as part of set-up.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import ModelChecker
from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine)
from repro.analysis import QueryProfile, engine_compatibility
from repro.exec import ProcessShardExecutor
from repro.logic import ast
from repro.logic.parser import parse_formula
from repro.mc import prepass
from repro.mc.transform import until_reduction
from repro.models import adhoc
from repro.models.workloads import crowd_mrm, grid_mrm
from repro.srn.reachability import build_mrm

#: Workers for the thread and process executors (the reference box has
#: two cores).
MAX_WORKERS = 2

Q3_LEFT = "call_idle | doze"
Q3_RIGHT = "call_initiated"


class Mismatch(Exception):
    """An op's answer differs from its pinned or reference value."""


class Spans:
    """The benchmark's own spans: wall time per layer, summed."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def __call__(self, layer: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[layer] = (self.seconds.get(layer, 0.0)
                                   + time.perf_counter() - start)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    verify: Callable[[Any], None]
    stepwise: Optional[Callable[[Spans], Any]] = None
    #: Facts the traced run reports next to the span times (states,
    #: blocks, executor restarts, ...), filled by ``stepwise``.
    facts: Optional[Dict[str, float]] = None


def _pin(kind: str, value: float, expected: float) -> None:
    if round(float(value), 8) != expected:
        raise Mismatch(f"{kind}: pinned value {value!r} does not round "
                       f"to {expected:.8f}")


def same_answer(left: Any, right: Any) -> bool:
    """Bit-for-bit equality of two op answers."""
    if isinstance(left, tuple):
        return (len(left) == len(right)
                and all(same_answer(a, b) for a, b in zip(left, right)))
    if isinstance(left, np.ndarray):
        return (isinstance(right, np.ndarray) and left.shape == right.shape
                and left.tobytes() == right.tobytes())
    return bool(left == right)


# ----------------------------------------------------------------------
# one P3 check, whole and split into layers
# ----------------------------------------------------------------------

def check_answer(result) -> tuple:
    return (result.probabilities, result.states)


def stepwise_check(model, engine, text: str, spans: Spans,
                   facts: Dict[str, float]) -> tuple:
    """``ModelChecker(model, engine).check(text)`` for a P3 formula, one
    public layer call at a time, in the order the checker makes them."""
    checker = ModelChecker(model, engine=engine)
    with spans("logic.parse_s"):
        formula = parse_formula(text)
    path = formula.path
    with spans("mc.sat_s"):
        phi = set(checker.satisfaction_set(path.left))
        psi = set(checker.satisfaction_set(path.right))
    # The checker's preflight gate reduces the model once for itself.
    with spans("mc.transform.reduce_s"):
        gate_model = until_reduction(model, phi, psi)
    with spans("analysis.preflight_s"):
        query = QueryProfile.from_formula(ast.Prob("<", 1.0, path))
        errors = [d for d in engine_compatibility(engine, gate_model, query)
                  if d.severity.label == "error"]
    if errors:
        raise Mismatch(f"preflight vetoed {engine.name}: {errors}")
    with spans("mc.transform.reduce_s"):
        reduced = until_reduction(model, phi, psi)
    with spans("mc.prepass.lump_s"):
        pre = prepass.prepare(reduced, psi, mode=checker.lump)
    work = reduced if pre is None else pre.quotient
    target = psi if pre is None else pre.psi_blocks
    with spans(f"algorithms.{engine.name}.engine_s"):
        vector = engine.joint_probability_vector(
            work, path.time.upper, path.reward.upper, target)
    with spans("mc.lift_s"):
        if pre is not None:
            vector = vector[pre.block_of]
        vector = np.clip(vector, 0.0, 1.0)
    with spans("mc.verdict_s"):
        states = frozenset(
            int(s) for s in range(model.num_states)
            if ast.compare(float(vector[s]), formula.comparison,
                           formula.bound))
    _prepass_facts(facts, reduced, pre)
    facts["propagated_states"] = facts.get("propagated_states", 0.0) \
        + work.num_states
    return (vector, states)


def _prepass_facts(facts: Dict[str, float], reduced, pre) -> None:
    facts["mc.transform.reduced_states"] = max(
        facts.get("mc.transform.reduced_states", 0.0), reduced.num_states)
    if pre is not None:
        facts["mc.prepass.applied"] = facts.get("mc.prepass.applied",
                                                0.0) + 1
        facts["mc.prepass.blocks"] = max(
            facts.get("mc.prepass.blocks", 0.0), pre.num_blocks)


def build_srn_model(spans: Spans) -> Dict[str, float]:
    """The case-study model rebuilt from its SRN under spans."""
    with spans("models.build_s"), spans("srn.build_s"):
        model = build_mrm(adhoc.build_adhoc_srn())
    return {"srn.states": model.num_states}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """Base: ``build()`` makes the inputs, ``ops`` lists the op kinds."""

    name = ""
    #: The op kind whose first call in a fresh process is part of
    #: set-up (``kernels.first_call_s`` is its excess over the median).
    warmup_kind = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ops: List[Op] = []
        self.engines: Dict[str, Any] = {}

    def build(self) -> None:
        raise NotImplementedError

    def op(self, kind: str) -> Op:
        return next(op for op in self.ops if op.kind == kind)

    def cross_check(self, answers: Dict[str, Any]) -> List[str]:
        """Kinds whose answers disagree with another kind's answer."""
        return []

    def layer_builds(self, spans: Spans) -> Dict[str, float]:
        """Re-run model construction under spans (traced run only)."""
        return {}

    def kernels(self) -> Dict[str, Optional[str]]:
        """The kernel backend each op kind's engine resolved to."""
        return {kind: engine.last_kernel
                for kind, engine in self.engines.items()}


class PaperQ3(Workload):
    """The paper's Section-5 property Q3 at the accuracy of Tables 2-4."""

    name = "paper-q3"
    warmup_kind = "check_sericola_s"
    ENGINES = {
        "sericola": lambda: SericolaEngine(epsilon=1e-8),   # Table 2
        "erlang": lambda: ErlangEngine(phases=256),         # Table 3
        "discretization": lambda: DiscretizationEngine(step=1.0 / 64),
    }
    #: Initial-state value of Q3 per engine, to 8 decimal places.  At
    #: the CLI's default epsilon = 1e-9 Sericola gives 0.49699673.
    PINS = {"sericola": 0.49699672, "erlang": 0.49684245,
            "discretization": 0.49705069}
    CLI_PIN = 0.49699673
    #: N(epsilon) of Table 2 at epsilon = 1e-8.
    TRUNCATION_DEPTH = 594

    def build(self) -> None:
        self.model = adhoc.adhoc_model()
        self.initial = int(np.argmax(self.model.initial_distribution))
        for name in self.ENGINES:
            self.ops.append(self._check_op(name))
        self.ops.append(Op("cli_check_s", self._cli, self._verify_cli))

    def _check_op(self, name: str) -> Op:
        kind = f"check_{name}_s"
        facts: Dict[str, float] = {}

        def run():
            engine = self.ENGINES[name]()
            self.engines[kind] = engine
            return check_answer(ModelChecker(self.model,
                                             engine=engine).check(adhoc.Q3))

        def verify(answer):
            probabilities, states = answer
            _pin(kind, probabilities[self.initial], self.PINS[name])
            if self.initial in states:
                raise Mismatch(f"{kind}: Q3 must not hold initially")
            if name == "sericola":
                depth = self.engines[kind].last_diagnostics.truncation_steps
                if depth != self.TRUNCATION_DEPTH:
                    raise Mismatch(f"{kind}: N(epsilon) = {depth}, expected "
                                   f"{self.TRUNCATION_DEPTH}")

        def stepwise(spans):
            facts.clear()
            return stepwise_check(self.model, self.ENGINES[name](),
                                  adhoc.Q3, spans, facts)

        return Op(kind, run, verify, stepwise, facts)

    def _cli(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", "--model", "adhoc",
             "--formula", "Q3"],
            capture_output=True, text=True, timeout=60)
        return (completed.returncode, completed.stdout)

    def _verify_cli(self, answer) -> None:
        code, stdout = answer
        # Exit codes 0 and 1 are verdicts; 2 and above are failures.
        if code != 1 or "holds initially: False" not in stdout:
            raise Mismatch(f"cli_check_s: exit {code}, output {stdout!r}")
        initial = self.model.state_names[self.initial]
        line = next((line for line in stdout.splitlines()
                     if line.split()[:1] == [initial]), None)
        if line is None or float(line.split()[-1]) != self.CLI_PIN:
            raise Mismatch(f"cli_check_s: initial-state line {line!r}")

    def layer_builds(self, spans):
        with spans("cli.import_s"):
            subprocess.run([sys.executable, "-c", "import repro.cli"],
                           check=True, timeout=60)
        return build_srn_model(spans)


class Q3Grid(Workload):
    """Q3 over a (t, r) grid by the shared sweep and three executors."""

    name = "q3-grid"
    warmup_kind = "sweep_shared_erlang"
    POINTS = 3
    PATHS = ("shared", "thread", "process", "durable")
    ENGINES = {
        "sericola": lambda: SericolaEngine(epsilon=1e-6),
        "erlang": lambda: ErlangEngine(phases=64),
        "discretization": lambda: DiscretizationEngine(step=1.0 / 32),
    }
    #: Initial-state value at the (24 h, 600 mAh) corner per engine.
    PINS = {"sericola": 0.49699624, "erlang": 0.49635791,
            "discretization": 0.49710467}
    #: Share of grid cells whose first attempt fails on the durable path.
    FAULT_SHARE = 0.2

    def build(self) -> None:
        self.model = adhoc.adhoc_model()
        self.initial = int(np.argmax(self.model.initial_distribution))
        fractions = np.arange(1, self.POINTS + 1) / self.POINTS
        self.times = [float(adhoc.Q3_TIME_BOUND * f) for f in fractions]
        self.rewards = [float(adhoc.Q3_REWARD_BOUND * f) for f in fractions]
        self.faults = self.fault_spec()
        for path in self.PATHS:
            for name in self.ENGINES:
                self.ops.append(self._sweep_op(path, name))

    def layer_builds(self, spans):
        return build_srn_model(spans)

    def fault_spec(self) -> str:
        """Seed-chosen crash and corrupt cells: always the same number
        of faults, so every seed pays the same recovery work."""
        cells = self.POINTS * self.POINTS
        chosen = random.Random(self.seed).sample(
            range(cells), max(2, round(self.FAULT_SHARE * cells)))
        crash, corrupt = chosen[:-1], chosen[-1:]
        return (f"crash@{','.join(map(str, crash))};"
                f"corrupt@{','.join(map(str, corrupt))}")

    def _executor(self, path: str):
        if path == "thread":
            return "thread"
        return ProcessShardExecutor(
            max_workers=MAX_WORKERS,
            faults=self.faults if path == "durable" else None,
            recorder_dir=str(self.workdir / "recorder"))

    def _checkpoint(self, path: str, name: str) -> Optional[str]:
        if path != "durable":
            return None
        checkpoint = self.workdir / f"checkpoint-{name}.jsonl"
        if checkpoint.exists():
            checkpoint.unlink()
        return str(checkpoint)

    def _sweep_op(self, path: str, name: str) -> Op:
        kind = f"sweep_{path}_{name}"
        facts: Dict[str, float] = {}

        def run():
            engine = self.ENGINES[name]()
            self.engines[kind] = engine
            checker = ModelChecker(self.model, engine=engine)
            if path == "shared":
                return checker.until_probability_sweep(
                    Q3_LEFT, Q3_RIGHT, self.times, self.rewards)
            executor = self._executor(path)
            checkpoint = self._checkpoint(path, name)
            try:
                partial = checker.until_probability_sweep_partial(
                    Q3_LEFT, Q3_RIGHT, self.times, self.rewards,
                    max_workers=MAX_WORKERS, executor=executor,
                    checkpoint=checkpoint)
            finally:
                if executor != "thread":
                    executor.close()
            if not partial.complete:
                raise Mismatch(f"{kind}: incomplete grid "
                               f"{partial.failures}")
            if path == "durable" and executor.restarts == 0:
                raise Mismatch(f"{kind}: no injected fault fired")
            return partial.grid

        def verify(grid):
            _pin(kind, grid[-1, -1, self.initial], self.PINS[name])

        def stepwise(spans):
            facts.clear()
            return self._stepwise_sweep(path, name, spans, facts)

        return Op(kind, run, verify, stepwise, facts)

    def _stepwise_sweep(self, path: str, name: str, spans: Spans,
                        facts: Dict[str, float]):
        engine = self.ENGINES[name]()
        checker = ModelChecker(self.model, engine=engine)
        with spans("mc.sat_s"):
            phi = set(checker.satisfaction_set(Q3_LEFT))
            psi = set(checker.satisfaction_set(Q3_RIGHT))
        with spans("mc.transform.reduce_s"):
            reduced = until_reduction(self.model, phi, psi)
        with spans("mc.prepass.lump_s"):
            pre = prepass.prepare(reduced, psi, mode=checker.lump)
        work = reduced if pre is None else pre.quotient
        target = psi if pre is None else pre.psi_blocks
        if path == "shared":
            with spans(f"algorithms.{name}.engine_s"):
                grid = np.asarray(engine.joint_probability_sweep(
                    work, self.times, self.rewards, target))
        else:
            executor = self._executor(path)
            checkpoint = self._checkpoint(path, name)
            try:
                with spans("exec.sweep_s"):
                    partial = engine.joint_probability_sweep_partial(
                        work, self.times, self.rewards, target,
                        max_workers=MAX_WORKERS, executor=executor,
                        checkpoint=checkpoint)
            finally:
                if executor != "thread":
                    executor.close()
            grid = partial.grid
            if executor != "thread":
                facts["exec.restarts"] = executor.restarts
                facts["exec.retries"] = executor.retries
            if checkpoint is not None:
                facts["exec.checkpoint_bytes"] = os.path.getsize(checkpoint)
        with spans("mc.lift_s"):
            if pre is not None:
                grid = grid[..., pre.block_of]
            grid = np.clip(grid, 0.0, 1.0)
        _prepass_facts(facts, reduced, pre)
        facts["propagated_states"] = work.num_states
        return grid

    def cross_check(self, answers):
        """Every executor's grid equals the thread grid bit for bit; the
        shared-prefix grid is within 1e-10 of it."""
        bad = []
        for name in self.ENGINES:
            reference = answers.get(f"sweep_thread_{name}")
            if reference is None:
                continue
            for path in ("process", "durable", "shared"):
                kind = f"sweep_{path}_{name}"
                grid = answers.get(kind)
                if grid is None:
                    continue
                if path == "shared":
                    ok = float(np.max(np.abs(grid - reference))) <= 1e-10
                else:
                    ok = same_answer(grid, reference)
                if not ok:
                    bad.append(kind)
        return bad


class Large100k(Workload):
    """Default (Sericola) checks on two 10^5-state models.

    Not listed in ``BENCHMARK.json``: its memory-bound reduction and
    lumping spread too much from run to run on the 2-core reference box
    to be gated (see ``perfbench/METRICS.md``).  Run it by hand."""

    name = "large-100k"
    warmup_kind = "check_lumped_s"
    CROWD_SIZE = (200, 500)
    GRID_SIZE = (316, 316)
    CROWD = "P>0.1 [ !crowded U[0,2][0,4] exit ]"
    GRID = "P>0.5 [ true U[0,4][0,8] goal ]"
    #: (kind, model attribute, formula, pinned state, its value to 8 dp,
    #:  |Sat|, lump blocks or None for a failed attempt, kernel)
    CHECKS = (
        ("check_lumped_s", "crowd", CROWD, 0, 0.37846817, 3000, 16, None),
        # The state next to the goal corner: the initial corner is too
        # far away to reach the goal by t = 4.
        ("check_unlumped_s", "grid", GRID, -2, 0.55870119, 3, None,
         "sparse"),
    )

    def build(self) -> None:
        self.crowd = crowd_mrm(*self.CROWD_SIZE)
        self.grid = grid_mrm(*self.GRID_SIZE)
        for spec in self.CHECKS:
            self.ops.append(self._check_op(*spec))

    def _check_op(self, kind, attr, text, state, pin, satisfied, blocks,
                  kernel) -> Op:
        facts: Dict[str, float] = {}

        def run():
            checker = ModelChecker(getattr(self, attr))
            self.engines[kind] = checker.engine
            answer = check_answer(checker.check(text))
            lump = checker.last_lump
            if blocks is None and lump.applied:
                raise Mismatch(f"{kind}: lumping unexpectedly applied")
            if blocks is not None and (not lump.applied
                                       or lump.num_blocks != blocks):
                raise Mismatch(f"{kind}: lump outcome {lump}")
            if kernel and checker.engine.last_kernel != kernel:
                raise Mismatch(f"{kind}: kernel "
                               f"{checker.engine.last_kernel}")
            return answer

        def verify(answer):
            probabilities, states = answer
            _pin(kind, probabilities[state], pin)
            if len(states) != satisfied:
                raise Mismatch(f"{kind}: {len(states)} states satisfy the "
                               f"formula, expected {satisfied}")

        def stepwise(spans):
            facts.clear()
            model = getattr(self, attr)
            return stepwise_check(model, ModelChecker(model).engine, text,
                                  spans, facts)

        return Op(kind, run, verify, stepwise, facts)

    def layer_builds(self, spans):
        with spans("models.build_s"):
            crowd_mrm(*self.CROWD_SIZE)
            grid_mrm(*self.GRID_SIZE)
        return {}


WORKLOADS = {cls.name: cls for cls in (PaperQ3, Q3Grid, Large100k)}
