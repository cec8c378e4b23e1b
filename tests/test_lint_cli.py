"""End-to-end tests for `repro lint` and the pre-flight integration.

Golden-output tests run over the checked-in example models in
``examples/models/``; the acceptance scenario (impulse-reward model +
Sericola-only query) is covered for all three surfaces: `repro lint`,
`repro check`, and the certified checker's static engine skipping.
"""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine)
from repro.ctmc import io as model_io
from repro.errors import PreflightError
from repro.mc import ModelChecker, Verdict

MODELS = Path(__file__).resolve().parents[1] / "examples" / "models"

JOINT_FORMULA = "P>=0.5 [ (up | degraded) U[0,1][0,2] down ]"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLintCli:
    def test_clean_model_text(self, capsys):
        code, out, _ = run_cli(
            ["lint", "--model", str(MODELS / "clean")], capsys)
        assert code == 0
        assert "no diagnostics" in out

    def test_clean_model_json(self, capsys):
        code, out, _ = run_cli(
            ["lint", "--model", str(MODELS / "clean"),
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["diagnostics"] == []
        assert payload["summary"] == {"errors": 0, "warnings": 0,
                                      "infos": 0}

    def test_messy_model_text_golden(self, capsys):
        code, out, _ = run_cli(
            ["lint", "--model", str(MODELS / "messy")], capsys)
        # warnings only -> exit 0 with the default --fail-on error
        assert code == 0
        for expected in ("warning[M001]", "warning[M002]",
                         "warning[M004]", "warning[M005]",
                         "warning[M007]", "info[M006]",
                         "warning[E004]"):
            assert expected in out, out
        assert "hint:" in out and "at:" in out
        assert "6 warnings" in out and "1 info" in out

    def test_messy_model_json_golden(self, capsys):
        code, out, _ = run_cli(
            ["lint", "--model", str(MODELS / "messy"),
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        found = {d["code"] for d in payload["diagnostics"]}
        assert found == {"M001", "M002", "M004", "M005", "M006",
                         "M007", "E004"}
        assert payload["summary"] == {"errors": 0, "warnings": 6,
                                      "infos": 1}
        m007 = next(d for d in payload["diagnostics"]
                    if d["code"] == "M007")
        assert m007["severity"] == "warning"
        assert "(1, 2)" in m007["location"]

    def test_fail_on_warning(self, capsys):
        code, _, _ = run_cli(
            ["lint", "--model", str(MODELS / "messy"),
             "--fail-on", "warning"], capsys)
        assert code == 1
        code, _, _ = run_cli(
            ["lint", "--model", str(MODELS / "clean"),
             "--fail-on", "warning"], capsys)
        assert code == 0

    def test_engine_none_skips_engine_passes(self, capsys):
        code, out, _ = run_cli(
            ["lint", "--model", str(MODELS / "messy"),
             "--engine", "none"], capsys)
        assert code == 0
        assert "E004" not in out

    def test_impulse_model_warns_without_formula(self, capsys):
        code, out, _ = run_cli(
            ["lint", "--model", str(MODELS / "impulse"),
             "--engine", "sericola"], capsys)
        # no formula -> the incompatibility is latent: warning, exit 0
        assert code == 0
        assert "warning[E001]" in out

    def test_formula_only_findings(self, capsys):
        code, out, _ = run_cli(
            ["lint", "--model", str(MODELS / "clean"),
             "--formula", "P>=0.5 [ up U[0,1] ghost ]",
             "--engine", "none"], capsys)
        assert code == 0
        assert "warning[F005]" in out


class TestAcceptanceScenario:
    """Impulse model + Sericola-only query, across all surfaces."""

    def test_lint_reports_e001_error_exit_2(self, capsys):
        code, out, _ = run_cli(
            ["lint", "--model", str(MODELS / "impulse"),
             "--engine", "sericola",
             "--formula", JOINT_FORMULA], capsys)
        assert code == 2
        assert "error[E001]" in out
        assert "state-based rewards only" in out
        assert "discretisation or pseudo-Erlang" in out

    def test_check_prints_diagnostic_not_traceback(self, capsys):
        code, out, err = run_cli(
            ["check", "--model", str(MODELS / "impulse"),
             "--engine", "sericola",
             "--formula", JOINT_FORMULA], capsys)
        assert code == 2
        assert "E001" in err
        assert "hint:" in err
        assert "Traceback" not in err

    def test_checker_preflight_raises(self):
        model = model_io.load_mrm(str(MODELS / "impulse"))
        checker = ModelChecker(model, engine=SericolaEngine())
        with pytest.raises(PreflightError) as excinfo:
            checker.check(JOINT_FORMULA)
        assert excinfo.value.diagnostics
        assert excinfo.value.diagnostics[0].code == "E001"
        assert "preflight=False" in str(excinfo.value)

    def test_checker_lint_method(self):
        model = model_io.load_mrm(str(MODELS / "impulse"))
        checker = ModelChecker(model, engine=SericolaEngine())
        report = checker.lint(JOINT_FORMULA)
        assert "E001" in set(report.codes())
        assert report.has_errors

    def test_certified_never_invokes_incompatible_engine(self, ledger):
        model = model_io.load_mrm(str(MODELS / "impulse"))
        sericola = SericolaEngine()
        chain = (sericola, ErlangEngine(phases=64),
                 DiscretizationEngine(step=1.0 / 64))
        checker = ModelChecker(model, engine=sericola)
        result = checker.check_certified(JOINT_FORMULA, chain=chain)
        assert result.verdict in (Verdict.TRUE, Verdict.FALSE)
        skipped = [f for f in result.failures if f.skipped_static]
        assert skipped and skipped[0].engine == "sericola"
        assert "skipped (static)" in str(skipped[0])
        assert "E001" in skipped[0].reason
        # the engine was never invoked: all its counters stayed zero
        stats = ledger("sericola")
        assert (stats["cache_hits"], stats["cache_misses"],
                stats["propagation_steps"], stats["matvec_count"],
                stats["sweep_points"]) == (0, 0, 0, 0, 0)

    def test_preflight_false_forces_the_old_failure(self):
        from repro.errors import NumericalError
        model = model_io.load_mrm(str(MODELS / "impulse"))
        checker = ModelChecker(model, engine=SericolaEngine(),
                               preflight=False)
        with pytest.raises(NumericalError) as excinfo:
            checker.check(JOINT_FORMULA)
        assert not isinstance(excinfo.value, PreflightError)
        assert "E001" in str(excinfo.value)
