"""End-to-end tests for the automatic lumping pre-pass.

The pre-pass (:mod:`repro.mc.prepass`) may change which chain the
joint-distribution engines propagate, but never the answer: lumping
must agree with the unlumped pipeline to 1e-12 everywhere, on every
engine.  The default ``"auto"`` mode applies a found lumping at every
model size, so under its state cap it is bit-identical to ``lump=True``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, clear_caches)
from repro.ctmc import ModelBuilder, io
from repro.errors import ModelError, PreflightError
from repro.logic.intervals import Interval
from repro.mc import prepass, transform, until
from repro.mc.checker import ModelChecker
from repro.models import adhoc
from repro.models.workloads import crowd_mrm
from repro.obs import OBS

MODELS = Path(__file__).resolve().parents[1] / "examples" / "models"

#: Forced-lump agreement bound (quotient arithmetic reorders sums).
FORCED_TOLERANCE = 1e-12

TIME = Interval(0.0, 1.0)
REWARD = Interval(0.0, 2.0)


def _crowd_sets(model):
    """(phi, psi) = (all states, the crowded states)."""
    phi = set(range(model.num_states))
    psi = set(model.states_with("crowded"))
    return phi, psi


#: One instance factory per joint-distribution engine.
ENGINES = {
    "sericola": lambda: SericolaEngine(epsilon=1e-10),
    "erlang": lambda: ErlangEngine(phases=64),
    "discretization": lambda: DiscretizationEngine(step=1.0 / 8),
}


def _engine():
    return ENGINES["discretization"]()


def _assert_close(lumped, unlumped, name):
    error = np.max(np.abs(lumped - unlumped))
    assert error <= FORCED_TOLERANCE, f"{name}: |diff| = {error}"


@pytest.fixture
def infos(monkeypatch):
    """Every :class:`PrepassInfo` the pipeline's pre-pass attempts
    return, in call order (the spy wraps :func:`prepass.attempt`)."""
    seen = []
    real_attempt = prepass.attempt

    def attempt(*args, **kwargs):
        pre, info = real_attempt(*args, **kwargs)
        seen.append(info)
        return pre, info

    monkeypatch.setattr(prepass, "attempt", attempt)
    return seen


# ---------------------------------------------------------------------------
# Exactness: forced lumping vs the unlumped pipeline


class TestForcedLumpAgreement:
    @pytest.fixture
    def crowd(self):
        return crowd_mrm(12, 30)  # 360 states, lumps below 360 blocks

    # Each test loops over ENGINES: one test id covers all three.

    def test_vector_agrees(self, crowd, infos):
        phi, psi = _crowd_sets(crowd)
        for name, make in ENGINES.items():
            clear_caches()
            unlumped = until.time_reward_bounded_until(
                crowd, phi, psi, TIME, REWARD, make(), lump=False)
            assert infos[-1].reason == "disabled"
            infos.clear()
            clear_caches()
            lumped = until.time_reward_bounded_until(
                crowd, phi, psi, TIME, REWARD, make(), lump=True)
            info = infos[-1]
            assert info.applied
            assert info.num_blocks < info.num_states
            _assert_close(lumped, unlumped, name)

    def test_interval_agrees(self, crowd, infos):
        phi, psi = _crowd_sets(crowd)
        for name, make in ENGINES.items():
            clear_caches()
            lo0, hi0 = until.time_reward_bounded_until_interval(
                crowd, phi, psi, TIME, REWARD, make(), lump=False)
            assert infos[-1].reason == "disabled"
            infos.clear()
            clear_caches()
            lo1, hi1 = until.time_reward_bounded_until_interval(
                crowd, phi, psi, TIME, REWARD, make(), lump=True)
            assert infos[-1].applied
            _assert_close(lo1, lo0, name)
            _assert_close(hi1, hi0, name)

    def test_sweep_agrees(self, crowd, infos):
        phi, psi = _crowd_sets(crowd)
        times = [0.5, 1.0]
        rewards = [1.0, 2.0]
        for name, make in ENGINES.items():
            clear_caches()
            grid0 = until.time_reward_bounded_until_sweep(
                crowd, phi, psi, times, rewards, make(), lump=False)
            assert infos[-1].reason == "disabled"
            infos.clear()
            clear_caches()
            grid1 = until.time_reward_bounded_until_sweep(
                crowd, phi, psi, times, rewards, make(), lump=True)
            assert infos[-1].applied
            assert grid1.shape == (2, 2, crowd.num_states)
            _assert_close(grid1, grid0, name)

    @settings(max_examples=10, deadline=None)
    @given(sites=st.integers(min_value=3, max_value=10),
           members=st.integers(min_value=2, max_value=8),
           seed=st.integers(min_value=0, max_value=1000))
    def test_random_labelled_mrms(self, sites, members, seed):
        """Random crowd geometries + random psi: lumped == unlumped."""
        model = crowd_mrm(sites, members)
        rng = np.random.default_rng(seed)
        phi = set(range(model.num_states))
        # Any union of site columns is a valid random labelling.
        chosen = rng.choice(sites, size=max(1, sites // 2), replace=False)
        psi = {int(s) for s in range(model.num_states)
               if (s // members) in chosen}
        for name, make in ENGINES.items():
            clear_caches()
            unlumped = until.time_reward_bounded_until(
                model, phi, psi, TIME, REWARD, make(), lump=False)
            clear_caches()
            lumped = until.time_reward_bounded_until(
                model, phi, psi, TIME, REWARD, make(), lump=True)
            _assert_close(lumped, unlumped, name)


# ---------------------------------------------------------------------------
# The default "auto" mode applies a found lumping at every model size


class TestAutoModeBitIdentity:
    def test_auto_equals_forced_lump(self, infos):
        crowd = crowd_mrm(12, 30)  # 360 states
        phi, psi = _crowd_sets(crowd)
        clear_caches()
        forced = until.time_reward_bounded_until(
            crowd, phi, psi, TIME, REWARD, _engine(), lump=True)
        assert infos[-1].applied
        infos.clear()
        clear_caches()
        auto = until.time_reward_bounded_until(
            crowd, phi, psi, TIME, REWARD, _engine(), lump="auto")
        info = infos[-1]
        assert info.applied and info.reason == "applied"
        assert info.num_blocks < info.num_states
        np.testing.assert_array_equal(auto, forced)

    def test_large_model_applies(self, infos):
        crowd = crowd_mrm(40, 20)  # 800 states
        phi, psi = _crowd_sets(crowd)
        clear_caches()
        auto = until.time_reward_bounded_until(
            crowd, phi, psi, TIME, REWARD, _engine(), lump="auto")
        info = infos[-1]
        assert info.applied and info.reason == "applied"
        clear_caches()
        unlumped = until.time_reward_bounded_until(
            crowd, phi, psi, TIME, REWARD, _engine(), lump=False)
        assert np.max(np.abs(auto - unlumped)) <= FORCED_TOLERANCE

    @pytest.mark.parametrize("formula", [adhoc.Q1, adhoc.Q2, adhoc.Q3])
    def test_adhoc_q_formulas_bit_identical(self, formula):
        """Q1-Q3 under the default pipeline == lump=True bitwise, and
        == lump=False in Sat and to rounding in probability."""
        def check(mode):
            clear_caches()
            return ModelChecker(adhoc.adhoc_model(),
                                lump=mode).check(formula)

        default, forced, disabled = (check(mode)
                                     for mode in ("auto", True, False))
        np.testing.assert_array_equal(default.probabilities,
                                      forced.probabilities)
        assert default.states == forced.states == disabled.states
        assert (np.max(np.abs(default.probabilities
                              - disabled.probabilities))
                <= FORCED_TOLERANCE)

    def test_adhoc_q3_lumps_and_keeps_table2_depth(self):
        """Reduced Q3 lumps 9 states to 5 blocks; Sericola on the
        quotient still stops at N(1e-8) = 594 (Table 2)."""
        clear_caches()
        engine = SericolaEngine(epsilon=1e-8)
        checker = ModelChecker(adhoc.adhoc_model(), engine=engine)
        checker.check(adhoc.Q3)
        info = checker.last_lump
        assert info.applied
        assert (info.num_states, info.num_blocks) == (9, 5)
        assert engine.last_diagnostics.truncation_steps == 594


# ---------------------------------------------------------------------------
# prepare() outcomes and invariants


class TestPrepare:
    def test_psi_blocks_are_unions_of_psi_states(self):
        crowd = crowd_mrm(20, 30)
        _, psi = _crowd_sets(crowd)
        pre = prepass.prepare(crowd, psi, mode=True)
        assert pre is not None
        in_psi_block = np.isin(pre.block_of,
                               sorted(int(b) for b in pre.psi_blocks))
        expected = np.zeros(crowd.num_states, dtype=bool)
        expected[sorted(psi)] = True
        np.testing.assert_array_equal(in_psi_block, expected)

    def test_impulse_rewards_skip(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("b", reward=1.0)
        builder.add_transition("a", "b", 1.0, impulse=2.0)
        builder.add_transition("b", "a", 1.0)
        model = builder.build()
        pre, info = prepass.attempt(model, {1}, mode=True)
        assert pre is None and info.reason == "impulse_rewards"

    def test_disabled(self):
        crowd = crowd_mrm(4, 4)
        pre, info = prepass.attempt(crowd, {0}, mode=False)
        assert pre is None and info.reason == "disabled"

    def test_too_large_cap(self, monkeypatch):
        monkeypatch.setattr(prepass, "LUMP_MAX_STATES", 8)
        crowd = crowd_mrm(4, 4)
        site0 = set(range(4))  # a whole site: respects the symmetry
        pre, info = prepass.attempt(crowd, site0, mode="auto")
        assert pre is None and info.reason == "too_large"
        # Forced mode ignores the auto cap.
        assert prepass.prepare(crowd, site0, mode=True) is not None

    def test_no_reduction(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=0.0)
        builder.add_state("b", reward=1.0)
        builder.add_transition("a", "b", 1.0)
        builder.add_transition("b", "a", 2.0)
        model = builder.build()
        pre, info = prepass.attempt(model, {1}, mode=True)
        assert pre is None and info.reason == "no_reduction"

    def test_validate_mode_rejects_garbage(self):
        with pytest.raises(ModelError):
            prepass.validate_mode("yes")
        with pytest.raises(ModelError):
            ModelChecker(crowd_mrm(3, 2), lump="always")

    def test_metrics_and_span(self):
        crowd = crowd_mrm(20, 30)
        _, psi = _crowd_sets(crowd)
        with OBS.capture(reset_metrics=True):
            pre = prepass.prepare(crowd, psi, mode=True)
            snapshot = OBS.metrics.snapshot()
            spans = [s.name for s in OBS.tracer.roots]
        assert pre is not None
        assert "lump_prepass" in spans
        assert snapshot["repro_lump_applied_total"][""] == 1.0
        assert snapshot["repro_lump_states_before"][""] == 600.0
        assert snapshot["repro_lump_states_after"][""] == pre.num_blocks


# ---------------------------------------------------------------------------
# Checker and CLI surface


class TestCheckerSurface:
    def test_last_lump_reports(self):
        checker = ModelChecker(crowd_mrm(40, 20))
        checker.check("P>=0.0 [ true U[0,1][0,2] crowded ]")
        info = checker.last_lump
        assert info.applied
        assert info.num_blocks < info.num_states

    def test_cli_no_lump(self, tmp_path, capsys):
        io.save_mrm(crowd_mrm(6, 4), tmp_path / "crowd")
        code = cli.main([
            "check", "--model", str(tmp_path / "crowd"),
            "--formula", "P>=0.0 [ true U[0,1][0,2] crowded ]",
            "--no-lump", "-v"])
        assert code == 0
        assert ("lump: not applied (disabled)"
                in capsys.readouterr().err)

    def test_cli_verbose_reports_blocks(self, tmp_path, capsys):
        io.save_mrm(crowd_mrm(6, 4), tmp_path / "crowd")
        code = cli.main([
            "check", "--model", str(tmp_path / "crowd"),
            "--formula", "P>=0.0 [ true U[0,1][0,2] crowded ]", "-v"])
        assert code == 0
        assert "lump: 24 states -> 5 blocks" in capsys.readouterr().err

    def test_last_lump_is_per_checker(self):
        """Each checker reports its own last pre-pass, not the most
        recent one of any checker in the process."""
        builder = ModelBuilder()
        builder.add_state("a", labels=("a",), reward=0.0)
        builder.add_state("b", labels=("b",), reward=1.0)
        builder.add_transition("a", "b", 1.0)
        builder.add_transition("b", "a", 2.0)
        crowd = ModelChecker(crowd_mrm(6, 4))
        pair = ModelChecker(builder.build())
        crowd.check("P>=0.0 [ true U[0,1][0,2] crowded ]")
        pair.check("P>=0.0 [ true U[0,1][0,2] b ]")
        assert crowd.last_lump.applied
        assert (crowd.last_lump.num_states,
                crowd.last_lump.num_blocks) == (24, 5)
        assert not pair.last_lump.applied
        assert pair.last_lump.reason == "no_reduction"


# ---------------------------------------------------------------------------
# One pipeline per P3 query: reduce, gate, lump and lift once


@pytest.fixture
def calls(monkeypatch):
    """Counts of Theorem-1 reductions and pre-pass attempts."""
    counts = {"reduce": 0, "prepare": 0}
    real_reduce, real_attempt = transform.until_reduction, prepass.attempt

    def reduce(*args, **kwargs):
        counts["reduce"] += 1
        return real_reduce(*args, **kwargs)

    def attempt(*args, **kwargs):
        counts["prepare"] += 1
        return real_attempt(*args, **kwargs)

    # Patch every repro module that bound the reduction by name.
    for name, module in list(sys.modules.items()):
        if (name.startswith("repro.")
                and getattr(module, "until_reduction", None)
                is real_reduce):
            monkeypatch.setattr(module, "until_reduction", reduce)
    monkeypatch.setattr(prepass, "attempt", attempt)
    return counts


class TestOnePipelinePerQuery:
    TIMES = [12.0, 24.0]
    REWARDS = [300.0, 600.0]
    LEFT, RIGHT = "call_idle | doze", "call_initiated"

    def test_check_reduces_once(self, calls):
        for engine in (SericolaEngine(epsilon=1e-8),
                       ErlangEngine(phases=64),
                       DiscretizationEngine(step=1.0 / 32)):
            checker = ModelChecker(adhoc.adhoc_model(), engine=engine)
            calls.update(reduce=0, prepare=0)
            checker.check(adhoc.Q3)
            assert calls == {"reduce": 1, "prepare": 1}

    def test_certified_reduces_and_lumps_once(self, calls):
        clear_caches()
        result = ModelChecker(adhoc.adhoc_model()).check_certified(
            adhoc.Q3, chain=("erlang",), target_width=1e-3)
        assert result.rounds_used >= 2
        assert calls == {"reduce": 1, "prepare": 1}

    def test_sweep_entry_points_reduce_once(self, calls):
        checker = ModelChecker(adhoc.adhoc_model(),
                               engine=ENGINES["erlang"]())
        checker.until_probability_sweep(self.LEFT, self.RIGHT,
                                        self.TIMES, self.REWARDS)
        assert calls == {"reduce": 1, "prepare": 1}
        checker.until_probability_sweep_partial(self.LEFT, self.RIGHT,
                                                self.TIMES, self.REWARDS)
        assert calls == {"reduce": 2, "prepare": 2}

    def test_sweeps_reduce_once_per_pair(self, calls):
        pairs = [(self.LEFT, self.RIGHT), ("true", self.RIGHT),
                 ("doze", "call_idle")]
        ModelChecker(adhoc.adhoc_model(),
                     engine=ENGINES["erlang"]()).until_probability_sweeps(
            pairs, self.TIMES, self.REWARDS)
        assert calls == {"reduce": 3, "prepare": 3}

    def test_veto_precedes_lumping(self):
        """A query the engine gate vetoes raises before any pre-pass:
        no ``lump_prepass`` span, no ``repro_lump_*`` metric, and
        ``last_lump`` keeps the previous query's outcome."""
        model = io.load_mrm(str(MODELS / "impulse"))
        checker = ModelChecker(model, engine=SericolaEngine())
        # Absorbing both impulse sources clears every impulse: allowed.
        checker.check("P>=0.0 [ up U[0,1][0,2] (degraded | down) ]")
        before = checker.last_lump
        assert before is not None
        vetoed = "P>=0.5 [ (up | degraded) U[0,1][0,2] down ]"
        with OBS.capture(reset_metrics=True):
            with pytest.raises(PreflightError) as excinfo:
                checker.check(vetoed)
            certified = checker.check_certified(vetoed,
                                                chain=("sericola",))
            spans = [s.name for root in OBS.tracer.roots
                     for s in root.walk()]
            snapshot = OBS.metrics.snapshot()
        assert [d.code for d in excinfo.value.diagnostics] == ["E001"]
        assert [f.skipped_static for f in certified.failures] == [True]
        assert "preflight" in spans and "lump_prepass" not in spans
        assert not any(name.startswith("repro_lump_")
                       for name in snapshot)
        assert checker.last_lump is before
