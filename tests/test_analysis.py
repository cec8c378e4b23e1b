"""Tests for the static-analysis pass framework (repro.analysis).

One trigger test and one clean test per diagnostic code, plus
framework-level tests (report rendering, severity ordering, exit
codes) and a property test that a well-formed model/formula/engine
combination yields zero diagnostics.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              available_engines, clear_caches,
                              get_engine)
from repro.algorithms import discretization
from repro.analysis import (AnalysisReport, Diagnostic, QueryProfile,
                            Severity, engine_compatibility, lint,
                            lint_formula, lint_model, lint_srn, supports)
from repro.ctmc import MarkovRewardModel, ModelBuilder
from repro.errors import ReproError
from repro.logic.parser import parse_formula
from repro.srn.net import StochasticRewardNet


def build_clean_model(reward_up=2.0, reward_mid=1.0):
    """Irreducible three-state model that lints clean."""
    builder = ModelBuilder()
    builder.add_state("up", labels=("up",), reward=reward_up)
    builder.add_state("mid", labels=("mid",), reward=reward_mid)
    builder.add_state("down", labels=("down",), reward=0.0)
    builder.add_transition("up", "mid", 0.2)
    builder.add_transition("mid", "up", 1.0)
    builder.add_transition("mid", "down", 0.5)
    builder.add_transition("down", "up", 2.0)
    return builder.build()


def codes(report):
    return set(report.codes())


# ----------------------------------------------------------------------
# diagnostics / report plumbing
# ----------------------------------------------------------------------

class TestReport:
    def test_clean_report(self):
        report = AnalysisReport([])
        assert report.clean and not report.has_errors
        assert report.summary() == "no diagnostics"
        assert report.exit_code() == 0
        assert report.exit_code(fail_on="warning") == 0

    def test_severity_ordering_and_exit_codes(self):
        report = AnalysisReport([
            Diagnostic("X001", Severity.INFO, "an info"),
            Diagnostic("X002", Severity.ERROR, "an error"),
            Diagnostic("X003", Severity.WARNING, "a warning"),
        ])
        assert [d.severity for d in report] == [
            Severity.ERROR, Severity.WARNING, Severity.INFO]
        assert report.exit_code() == 2
        assert report.exit_code(fail_on="warning") == 2
        only_warning = AnalysisReport(
            [Diagnostic("X003", Severity.WARNING, "a warning")])
        assert only_warning.exit_code() == 0
        assert only_warning.exit_code(fail_on="warning") == 1

    def test_render_and_json(self):
        diagnostic = Diagnostic("M999", Severity.WARNING, "message",
                                location="state 3", hint="fix it",
                                source="model")
        text = diagnostic.render()
        assert "warning[M999] message" in text
        assert "at: state 3" in text and "hint: fix it" in text
        report = AnalysisReport([diagnostic])
        payload = json.loads(report.to_json())
        assert payload["summary"] == {"errors": 0, "warnings": 1,
                                      "infos": 0}
        assert payload["diagnostics"][0]["code"] == "M999"

    def test_query_profile(self):
        profile = QueryProfile.from_formula(
            parse_formula("P>=0.5 [ a U[0,2][0,3] b ]"))
        assert profile.needs_joint
        assert profile.time_bound == 2.0 and profile.reward_bound == 3.0
        no_joint = QueryProfile.from_formula(
            parse_formula("P>=0.5 [ a U[0,2] b ]"))
        assert not no_joint.needs_joint


# ----------------------------------------------------------------------
# model passes
# ----------------------------------------------------------------------

class TestModelPasses:
    def test_clean_model_has_no_model_diagnostics(self):
        assert lint_model(build_clean_model()).clean

    def test_m001_unreachable_states(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("b", reward=1.0)
        builder.add_state("orphan", reward=1.0)
        builder.add_transition("a", "b", 1.0)
        builder.add_transition("b", "a", 1.0)
        builder.add_transition("orphan", "a", 1.0)
        report = lint_model(builder.build())
        assert "M001" in codes(report)
        finding = next(d for d in report if d.code == "M001")
        assert "orphan" in finding.location

    def test_m002_absorbing_with_reward(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("sink", reward=2.0)
        builder.add_transition("a", "sink", 1.0)
        report = lint_model(builder.build())
        assert "M002" in codes(report)

    def test_m002_clean_when_sink_reward_zero(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("sink", reward=0.0)
        builder.add_transition("a", "sink", 1.0)
        assert "M002" not in codes(lint_model(builder.build()))

    def test_m003_all_zero_rewards(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=0.0)
        builder.add_state("b", reward=0.0)
        builder.add_transition("a", "b", 1.0)
        builder.add_transition("b", "a", 1.0)
        report = lint_model(builder.build())
        assert "M003" in codes(report)
        # every cycle is zero-reward then; M004 defers to M003
        assert "M004" not in codes(report)

    def test_m003_suppressed_by_impulses(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=0.0)
        builder.add_state("b", reward=0.0)
        builder.add_transition("a", "b", 1.0, impulse=1.0)
        builder.add_transition("b", "a", 1.0, impulse=1.0)
        report = lint_model(builder.build())
        assert "M003" not in codes(report)

    def test_m004_zero_reward_cycle(self):
        builder = ModelBuilder()
        builder.add_state("paid", reward=1.0)
        builder.add_state("free1", reward=0.0)
        builder.add_state("free2", reward=0.0)
        builder.add_transition("paid", "free1", 1.0)
        builder.add_transition("free1", "free2", 1.0)
        builder.add_transition("free2", "free1", 1.0)
        assert "M004" in codes(lint_model(builder.build()))

    def test_m004_clean_without_cycle(self):
        builder = ModelBuilder()
        builder.add_state("paid", reward=1.0)
        builder.add_state("free", reward=0.0)
        builder.add_transition("paid", "free", 1.0)
        builder.add_transition("free", "paid", 1.0)
        # the cycle passes through a rewarded state, so no finding
        assert "M004" not in codes(lint_model(builder.build()))

    def test_m004_impulse_transitions_do_accumulate(self):
        builder = ModelBuilder()
        builder.add_state("paid", reward=1.0)
        builder.add_state("free1", reward=0.0)
        builder.add_state("free2", reward=0.0)
        builder.add_transition("paid", "free1", 1.0)
        builder.add_transition("free1", "free2", 1.0, impulse=1.0)
        builder.add_transition("free2", "free1", 1.0, impulse=1.0)
        assert "M004" not in codes(lint_model(builder.build()))

    def test_m005_stiff_rates(self):
        builder = ModelBuilder()
        builder.add_state("slow", reward=1.0)
        builder.add_state("fast", reward=1.0)
        builder.add_transition("slow", "fast", 0.001)
        builder.add_transition("fast", "slow", 1000.0)
        assert "M005" in codes(lint_model(builder.build()))

    def test_m005_clean_for_mild_spread(self):
        assert "M005" not in codes(lint_model(build_clean_model()))

    def test_m006_self_loop(self):
        matrix = np.array([[0.5, 1.0], [1.0, 0.0]])
        model = MarkovRewardModel(matrix, rewards=[1.0, 1.0])
        report = lint_model(model)
        assert "M006" in codes(report)
        assert "M006" not in codes(lint_model(build_clean_model()))

    def test_m007_duplicate_tra_entries(self, tmp_path):
        base = tmp_path / "dup"
        (tmp_path / "dup.tra").write_text(
            "STATES 2\nTRANSITIONS 3\n1 2 0.5\n1 2 0.5\n2 1 1.0\n")
        from repro.ctmc import io as model_io
        model = model_io.load_mrm(str(base))
        report = lint(model=model, model_path=str(base))
        assert "M007" in codes(report)
        finding = next(d for d in report if d.code == "M007")
        assert "(1, 2)" in finding.location

    def test_m007_clean_file(self, tmp_path):
        base = tmp_path / "ok"
        (tmp_path / "ok.tra").write_text(
            "STATES 2\nTRANSITIONS 2\n1 2 0.5\n2 1 1.0\n")
        from repro.ctmc import io as model_io
        model = model_io.load_mrm(str(base))
        assert "M007" not in codes(lint(model=model,
                                        model_path=str(base)))

    def test_m008_uniformization_workload(self):
        builder = ModelBuilder()
        builder.add_state("a", labels=("a",), reward=1.0)
        builder.add_state("b", labels=("b",), reward=1.0)
        builder.add_transition("a", "b", 200.0)
        builder.add_transition("b", "a", 200.0)
        model = builder.build()
        report = lint(model=model,
                      formula="P>=0.5 [ a U[0,100] b ]")
        assert "M008" in codes(report)
        # without a time bound there is no workload to predict
        assert "M008" not in codes(lint_model(model))

    def test_m009_lumpable_model(self):
        from repro.models.workloads import crowd_mrm
        model = crowd_mrm(6, 5)  # replica-symmetric: 30 -> 6 blocks
        report = lint_model(model)
        assert "M009" in codes(report)
        finding = next(d for d in report if d.code == "M009")
        assert finding.severity.name == "INFO"
        assert "6 blocks" in finding.message
        assert 'lump="auto"' in finding.hint

    def test_m009_silent_on_unlumpable_and_impulse_models(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=0.0)
        builder.add_state("b", reward=1.0)
        builder.add_transition("a", "b", 1.0)
        builder.add_transition("b", "a", 2.0)
        assert "M009" not in codes(lint_model(builder.build()))
        impulse = ModelBuilder()
        for s in ("a", "b", "c"):
            impulse.add_state(s, reward=1.0)
        impulse.add_transition("a", "b", 1.0, impulse=1.0)
        impulse.add_transition("a", "c", 1.0, impulse=1.0)
        impulse.add_transition("b", "a", 1.0)
        impulse.add_transition("c", "a", 1.0)
        assert "M009" not in codes(lint_model(impulse.build()))


# ----------------------------------------------------------------------
# formula passes
# ----------------------------------------------------------------------

class TestFormulaPasses:
    def setup_method(self):
        self.model = build_clean_model()

    def test_clean_formula(self):
        report = lint_formula(
            "P>=0.5 [ up U[0,2][0,1] down ]", model=self.model)
        assert report.clean

    def test_f001_reward_interval_not_from_zero(self):
        report = lint_formula("P>=0.5 [ up U[0,2][1,3] down ]",
                              model=self.model)
        assert "F001" in codes(report)
        assert report.has_errors

    def test_f001_time_lower_with_reward_bound(self):
        report = lint_formula("P>=0.5 [ up U[1,2][0,1] down ]",
                              model=self.model)
        assert "F001" in codes(report)
        # a pure time interval [t1, t2] without reward bound is fine
        clean = lint_formula("P>=0.5 [ up U[1,2] down ]",
                             model=self.model)
        assert "F001" not in codes(clean)

    def test_f002_trivially_true_threshold(self):
        report = lint_formula("P>=0 [ up U[0,1] down ]")
        assert "F002" in codes(report)
        assert "F002" not in codes(
            lint_formula("P>=0.5 [ up U[0,1] down ]"))

    def test_f003_trivially_false_threshold(self):
        report = lint_formula("P>1 [ up U[0,1] down ]")
        assert "F003" in codes(report)
        assert "F003" not in codes(
            lint_formula("P>0.99 [ up U[0,1] down ]"))

    def test_f004_unsatisfiable_goal(self):
        report = lint_formula("P>=0.5 [ up U[0,1] (up & down) ]",
                              model=self.model)
        assert "F004" in codes(report)

    def test_f004_suppressed_when_f005_explains_it(self):
        report = lint_formula("P>=0.5 [ up U[0,1] ghost ]",
                              model=self.model)
        assert "F005" in codes(report)
        assert "F004" not in codes(report)

    def test_f005_unknown_proposition(self):
        report = lint_formula("P>=0.5 [ ghost U[0,1] down ]",
                              model=self.model)
        assert "F005" in codes(report)
        finding = next(d for d in report if d.code == "F005")
        assert "down" in finding.hint  # lists known propositions
        assert "F005" not in codes(
            lint_formula("P>=0.5 [ up U[0,1] down ]",
                         model=self.model))

    def test_f006_safe_set_covers_state_space(self):
        report = lint_formula(
            "P>=0.5 [ (up | mid | down) U[0,1] down ]",
            model=self.model)
        assert "F006" in codes(report)
        # 'true U ...' is how F desugars; not worth a finding
        assert "F006" not in codes(
            lint_formula("P>=0.5 [ F[0,1] down ]", model=self.model))

    def test_f007_conflicting_probability_bounds(self):
        report = lint_formula(
            "P>0.9 [ up U[0,1] down ] & P<0.5 [ up U[0,1] down ]")
        assert "F007" in codes(report)

    def test_f007_clean_for_overlapping_bounds(self):
        report = lint_formula(
            "P>0.2 [ up U[0,1] down ] & P<0.5 [ up U[0,1] down ]")
        assert "F007" not in codes(report)

    def test_f008_reward_bound_never_binds(self):
        # max_reward = 2, t = 1 -> at most 2 accumulates; r = 5 is inert
        report = lint_formula("P>=0.5 [ up U[0,1][0,5] down ]",
                              model=self.model)
        assert "F008" in codes(report)
        assert "F008" not in codes(
            lint_formula("P>=0.5 [ up U[0,1][0,1] down ]",
                         model=self.model))

    def test_f009_point_time_interval(self):
        report = lint_formula("P>=0.5 [ up U[0,0] down ]")
        assert "F009" in codes(report)
        assert "F009" not in codes(
            lint_formula("P>=0.5 [ up U[0,1] down ]"))


# ----------------------------------------------------------------------
# engine-compatibility passes
# ----------------------------------------------------------------------

def impulse_model():
    builder = ModelBuilder()
    builder.add_state("up", labels=("up",), reward=2.0)
    builder.add_state("mid", labels=("mid",), reward=1.0)
    builder.add_state("down", labels=("down",), reward=0.0)
    builder.add_transition("up", "mid", 0.2, impulse=1.0)
    builder.add_transition("mid", "up", 1.0)
    builder.add_transition("down", "up", 2.0)
    builder.add_transition("mid", "down", 0.5)
    return builder.build()


JOINT_QUERY = QueryProfile(time_bound=1.0, reward_bound=2.0,
                           needs_joint=True)


class TestEnginePasses:
    def test_clean_engine_verdicts(self):
        model = build_clean_model()
        for engine in ("sericola", "erlang", "discretization"):
            assert supports(engine, model, JOINT_QUERY), engine
            assert engine_compatibility(engine, model,
                                        JOINT_QUERY) == []

    def test_e001_impulses_versus_sericola(self):
        findings = engine_compatibility("sericola", impulse_model(),
                                        JOINT_QUERY)
        assert [d.code for d in findings] == ["E001"]
        assert findings[0].severity is Severity.ERROR
        assert not supports("sericola", impulse_model(), JOINT_QUERY)

    def test_e001_demoted_without_joint_query(self):
        findings = engine_compatibility("sericola", impulse_model())
        assert [d.code for d in findings] == ["E001"]
        assert findings[0].severity is Severity.WARNING
        assert supports("sericola", impulse_model())

    def test_e001_clean_for_impulse_capable_engines(self):
        for engine in (ErlangEngine(phases=16),
                       DiscretizationEngine(step=1.0 / 64)):
            assert not any(
                d.code == "E001" for d in engine_compatibility(
                    engine, impulse_model(), JOINT_QUERY))

    def test_e002_erlang_state_explosion(self):
        engine = ErlangEngine(phases=50_000)
        findings = engine_compatibility(engine, build_clean_model(),
                                        JOINT_QUERY)
        assert any(d.code == "E002" for d in findings)
        small = ErlangEngine(phases=64)
        assert not any(d.code == "E002" for d in engine_compatibility(
            small, build_clean_model(), JOINT_QUERY))

    @pytest.mark.parametrize("epsilon,depth", [(1e-6, 69), (1e-12, 86)])
    def test_e002_predicts_the_depth_the_series_runs(self, epsilon,
                                                      depth):
        """E002 predicts the expanded series' depth at the engine's own
        epsilon: the propagation steps an uncached unit then runs."""
        from repro.models.workloads import grid_mrm
        from repro.obs import OBS
        from repro.obs.export import engine_totals
        model = grid_mrm(40, 40)
        engine = ErlangEngine(phases=64, epsilon=epsilon)
        finding, = [f for f in engine.findings(model, 1.0, 4.0)
                    if f.code == "E002"]
        assert f"depth of ~{depth} terms" in finding.message
        with OBS.capture():
            engine.sweep_unit(model, [1.0], [4.0],
                              (model.rewards == 0.0).astype(float))
            steps = engine_totals(OBS.metrics)["propagation_steps"]
        assert steps == depth

    def test_e003_discretization_grid_memory(self):
        """Without impulses ``Y_t <= rho_max t`` caps the grid: r = 1e9
        at t = 2^17 keeps 2 * 2^17 * 64 + 1 cells for each of the 3
        states (~768 MiB), at t = 64 only 8,193 (no warning)."""
        engine = DiscretizationEngine(step=1.0 / 64)
        query = QueryProfile(time_bound=2.0 ** 17, reward_bound=1e9,
                             needs_joint=True)
        findings = [d for d in engine_compatibility(
            engine, build_clean_model(), query) if d.code == "E003"]
        assert findings
        assert "16,777,217 reward cells" in findings[0].message
        capped = QueryProfile(time_bound=64.0, reward_bound=1e9,
                              needs_joint=True)
        for small in (JOINT_QUERY, capped):
            assert not any(d.code == "E003" for d in engine_compatibility(
                engine, build_clean_model(), small))

    @staticmethod
    def _two_level_model(rewards):
        builder = ModelBuilder()
        builder.add_state("a", reward=rewards[0])
        builder.add_state("b", reward=rewards[1])
        builder.add_transition("a", "b", 1.0)
        builder.add_transition("b", "a", 1.0)
        return builder.build()

    def test_e003_counts_reward_lattice_cells(self):
        """Rewards {0, 100} put every reachable cell on a lattice of
        spacing g = 100: 16 * 2 * (1e6 * 64 / 100 + 1) bytes ~ 20 MiB,
        where the full grid would be ~2 GiB.  (t = 4096 keeps the
        ``rho_max t`` cap above r.)"""
        query = QueryProfile(time_bound=4096.0, reward_bound=1e6,
                             needs_joint=True)
        drop = DiscretizationEngine(step=1.0 / 64)
        assert not any(d.code == "E003" for d in engine_compatibility(
            drop, self._two_level_model([0.0, 100.0]), query))

    def test_e003_warns_on_the_full_grid(self):
        """The same bound with g = 1 -- rewards {1, 100}, or the clamp
        rule, which folds off-lattice cells into cell 0 -- warns."""
        query = QueryProfile(time_bound=4096.0, reward_bound=1e6,
                             needs_joint=True)
        for rewards, underflow in (([1.0, 100.0], "drop"),
                                   ([0.0, 100.0], "clamp")):
            engine = DiscretizationEngine(step=1.0 / 64,
                                          underflow=underflow)
            findings = [d for d in engine_compatibility(
                engine, self._two_level_model(rewards), query)
                if d.code == "E003"]
            assert findings, (rewards, underflow)
            assert "lattice spacing g = 1" in findings[0].message

    def test_e004_step_too_coarse(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("b", reward=1.0)
        builder.add_transition("a", "b", 100.0)
        builder.add_transition("b", "a", 100.0)
        model = builder.build()
        engine = DiscretizationEngine(step=1.0 / 64)
        findings = engine_compatibility(engine, model, JOINT_QUERY)
        e004 = [d for d in findings if d.code == "E004"]
        assert e004 and e004[0].severity is Severity.ERROR
        fine = DiscretizationEngine(step=1.0 / 256)
        assert not any(d.code == "E004" for d in engine_compatibility(
            fine, model, JOINT_QUERY))

    def test_e005_non_integer_rewards(self):
        model = build_clean_model(reward_up=2.5)
        engine = DiscretizationEngine(step=1.0 / 64)
        findings = engine_compatibility(engine, model, JOINT_QUERY)
        assert any(d.code == "E005" for d in findings)
        assert not any(d.code == "E005" for d in engine_compatibility(
            engine, build_clean_model(), JOINT_QUERY))

    def test_e005_non_integer_impulses(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=1.0)
        builder.add_state("b", reward=0.0)
        builder.add_transition("a", "b", 1.0, impulse=0.5)
        builder.add_transition("b", "a", 1.0)
        engine = DiscretizationEngine(step=1.0 / 64)
        findings = engine_compatibility(engine, builder.build(),
                                        JOINT_QUERY)
        assert any(d.code == "E005" for d in findings)

    def test_e006_off_grid_time_bound(self):
        engine = DiscretizationEngine(step=1.0 / 64)
        query = QueryProfile(time_bound=0.7, reward_bound=1.0,
                             needs_joint=True)
        findings = engine_compatibility(engine, build_clean_model(),
                                        query)
        assert any(d.code == "E006" for d in findings)
        aligned = QueryProfile(time_bound=0.75, reward_bound=1.0,
                               needs_joint=True)
        assert not any(d.code == "E006" for d in engine_compatibility(
            engine, build_clean_model(), aligned))

    def test_e007_many_reward_levels(self):
        builder = ModelBuilder()
        n = 40
        for i in range(n):
            builder.add_state(f"s{i}", reward=float(i))
        for i in range(n):
            builder.add_transition(f"s{i}", f"s{(i + 1) % n}", 1.0)
        findings = engine_compatibility("sericola", builder.build(),
                                        JOINT_QUERY)
        assert any(d.code == "E007" for d in findings)
        assert not any(d.code == "E007" for d in engine_compatibility(
            "sericola", build_clean_model(), JOINT_QUERY))

    def test_e008_impulse_step_not_one_over_n(self):
        findings = engine_compatibility(
            DiscretizationEngine(step=0.3), impulse_model(),
            QueryProfile(time_bound=0.6, reward_bound=2.0,
                         needs_joint=True))
        assert [(d.code, d.severity) for d in findings] == [
            ("E008", Severity.ERROR)]
        assert "d=1/4" in findings[0].hint
        assert not any(d.code == "E008" for d in engine_compatibility(
            DiscretizationEngine(step=0.25), impulse_model(),
            JOINT_QUERY))
        assert not any(d.code == "E008" for d in engine_compatibility(
            DiscretizationEngine(step=0.3), build_clean_model(),
            JOINT_QUERY))

    @pytest.mark.parametrize("t, r, cells", [(64.0, 1e9, 8193),
                                             (64.0, 100.0, 6401)],
                             ids=["capped", "uncapped"])
    def test_e003_sizes_the_grid_as_the_run(self, monkeypatch, t, r,
                                            cells):
        """E003 counts the cells ``_setup`` allocates, with the
        ``min(r, rho_max t)`` cap of impulse-free models (rho_max = 2
        here) and without it."""
        monkeypatch.setattr(discretization, "DGRID_MEMORY_WARNING", 0)
        sized = []
        real = discretization.lattice_cells

        def spy(*args):
            sized.append(real(*args))
            return sized[-1]

        monkeypatch.setattr(discretization, "lattice_cells", spy)
        engine = DiscretizationEngine(step=1.0 / 64)
        model = build_clean_model()
        e003 = [d for d in engine_compatibility(
            engine, model, QueryProfile(time_bound=t, reward_bound=r,
                                        needs_joint=True))
            if d.code == "E003"]
        _, num_cells, _, lattice = engine._setup(model, [t], r)
        assert sized == [(cells, 1), (num_cells, lattice)]
        assert f"needs {num_cells:,} reward cells" in e003[0].message


# ----------------------------------------------------------------------
# one statement per engine: lint verdict == runtime verdict
# ----------------------------------------------------------------------

def _coarse_model():
    builder = ModelBuilder()
    builder.add_state("a", labels=("up",), reward=1.0)
    builder.add_state("b", labels=("down",), reward=1.0)
    builder.add_transition("a", "b", 100.0)
    builder.add_transition("b", "a", 100.0)
    return builder.build()


#: ``(model, t, r, engine options, expected ERROR code per engine)``;
#: an engine missing from the last map must accept the workload.
PARITY_CORPUS = [
    pytest.param(build_clean_model, 1.0, 2.0, {}, {}, id="clean"),
    pytest.param(lambda: build_clean_model(reward_up=2.5), 1.0, 2.0, {},
                 {"discretization": "E005"}, id="non-natural-rewards"),
    pytest.param(_coarse_model, 1.0, 2.0, {},
                 {"discretization": "E004"}, id="step-too-coarse"),
    pytest.param(build_clean_model, 0.7, 1.0, {},
                 {"discretization": "E006"}, id="off-grid-time"),
    pytest.param(impulse_model, 0.6, 2.0,
                 {"discretization": {"step": 0.3}},
                 {"discretization": "E008", "sericola": "E001"},
                 id="impulse-step-0.3"),
    pytest.param(impulse_model, 1.0, 2.0, {}, {"sericola": "E001"},
                 id="sericola-impulses"),
]


class TestEngineParity:
    """The lint reports an ERROR exactly when the run raises: both read
    the engine's one ``findings`` method."""

    @pytest.mark.parametrize("name", available_engines())
    @pytest.mark.parametrize("build, t, r, options, expected",
                             PARITY_CORPUS)
    def test_lint_errors_iff_run_raises(self, name, build, t, r,
                                        options, expected):
        engine = get_engine(name, **options.get(name, {}))
        model = build()
        errors = [d.code for d in engine_compatibility(
            engine, model, QueryProfile(time_bound=t, reward_bound=r,
                                        needs_joint=True))
            if d.severity is Severity.ERROR]
        assert errors == ([expected[name]] if name in expected else [])
        clear_caches()
        if errors:
            with pytest.raises(ReproError, match=rf"\[{errors[0]}\]"):
                engine.joint_probability_vector(model, t, r, [0])
        else:
            engine.joint_probability_vector(model, t, r, [0])

    @pytest.mark.parametrize("name", available_engines())
    def test_lint_accepts_a_plain_ctmc(self, name):
        """A CTMC is linted as the zero-reward MRM the checker runs."""
        from repro.models.adhoc import Q3, adhoc_model
        engine = get_engine(name, **({"step": 1.0 / 64}
                                     if name == "discretization" else {}))
        report = lint(model=adhoc_model().as_ctmc(), formula=Q3,
                      engine=engine)
        assert isinstance(report, AnalysisReport)
        assert {"M003", "F008"} <= codes(report)


# ----------------------------------------------------------------------
# SRN passes
# ----------------------------------------------------------------------

def clean_net():
    net = StochasticRewardNet()
    net.add_place("idle", tokens=1)
    net.add_place("busy")
    net.add_timed_transition("work", rate=2.0,
                             inputs=["idle"], outputs=["busy"])
    net.add_timed_transition("rest", rate=1.0,
                             inputs=["busy"], outputs=["idle"])
    net.set_reward(lambda m: 1.0 if m["busy"] else 0.0)
    return net


class TestSrnPasses:
    def test_clean_net(self):
        assert lint_srn(clean_net()).clean

    def test_s001_dead_transition_and_s002_never_marked(self):
        net = clean_net()
        net.add_place("spare")
        net.add_timed_transition("never", rate=1.0,
                                 inputs=["spare"], outputs=["idle"])
        report = lint_srn(net)
        assert "S001" in codes(report)
        assert "S002" in codes(report)
        s001 = next(d for d in report if d.code == "S001")
        assert "never" in s001.location
        s002 = next(d for d in report if d.code == "S002")
        assert "spare" in s002.location

    def test_s003_structural_unboundedness_and_s004_abort(self):
        net = StochasticRewardNet()
        net.add_place("pool", tokens=1)
        net.add_timed_transition("spawn", rate=1.0,
                                 outputs=["pool"])
        net.set_reward(lambda m: 0.0)
        report = lint_srn(net)
        assert "S003" in codes(report)
        assert "S004" in codes(report)

    def test_s003_clean_with_inhibitor(self):
        net = StochasticRewardNet()
        net.add_place("pool", tokens=0)
        net.add_timed_transition("spawn", rate=1.0, outputs=["pool"],
                                 inhibitors=[("pool", 3)])
        net.add_timed_transition("drain", rate=1.0, inputs=["pool"])
        net.set_reward(lambda m: float(m["pool"]))
        report = lint_srn(net)
        assert "S003" not in codes(report)
        assert "S004" not in codes(report)


# ----------------------------------------------------------------------
# full-pipeline properties
# ----------------------------------------------------------------------

class TestLintPipeline:
    def test_engine_families_combine(self):
        report = lint(model=impulse_model(),
                      formula="P>=0.5 [ (up | mid) U[0,1][0,1] down ]",
                      engine=("sericola", "erlang", "discretization"))
        assert "E001" in codes(report)
        assert report.has_errors

    def test_engine_instances_accepted(self):
        report = lint(model=build_clean_model(),
                      engine=DiscretizationEngine(step=1.0 / 64))
        assert report.clean

    @given(n=st.integers(min_value=2, max_value=5),
           rate=st.floats(min_value=0.1, max_value=10.0),
           t=st.sampled_from((0.5, 1.0, 2.0)),
           bound=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=25, deadline=None)
    def test_clean_inputs_yield_zero_diagnostics(self, n, rate, t,
                                                 bound):
        """A well-formed ring model with positive integer rewards and a
        sensible P3 formula produces no findings at all, for any
        engine."""
        builder = ModelBuilder()
        for i in range(n):
            builder.add_state(f"s{i}", labels=(f"s{i}",),
                              reward=float(1 + i % 2))
        for i in range(n):
            builder.add_transition(f"s{i}", f"s{(i + 1) % n}", rate)
        model = builder.build()
        max_reward = 2.0
        r = max_reward * t / 2.0
        formula = f"P>={bound:g} [ s0 U[0,{t:g}][0,{r:g}] s1 ]"
        report = lint(model=model, formula=formula,
                      engine=("sericola", "erlang", "discretization"))
        assert report.clean, report.to_text()
