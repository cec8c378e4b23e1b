"""Tests for the command-line interface."""

import io as io_module

import pytest

from repro import cli
from repro.algorithms import clear_caches
from repro.ctmc import ModelBuilder, io
from repro.mc.certified import EngineFailure
from repro.mc.checker import ModelChecker
from repro.obs import OBS


@pytest.fixture
def model_on_disk(tmp_path):
    builder = ModelBuilder()
    builder.add_state("a", labels=("green",), reward=1.0)
    builder.add_state("b", labels=("red",), reward=0.0)
    builder.add_transition("a", "b", 0.7)
    io.save_mrm(builder.build(), tmp_path / "model")
    return str(tmp_path / "model")


class TestCheckCommand:
    def test_holding_formula_exits_zero(self, model_on_disk, capsys):
        code = cli.main(["check", "--model", model_on_disk,
                         "--formula", "P>0.5 [ green U[0,3][0,1.2] red ]"])
        assert code == 0
        output = capsys.readouterr().out
        assert "holds initially: True" in output
        assert "0.56" in output  # 1 - exp(-0.7*1.2) = 0.568...

    def test_failing_formula_exits_one(self, model_on_disk, capsys):
        code = cli.main(["check", "--model", model_on_disk,
                         "--formula", "P>0.99 [ F[0,0.1] red ]"])
        assert code == 1

    def test_engine_selection(self, model_on_disk, capsys):
        code = cli.main(["check", "--model", model_on_disk,
                         "--engine", "erlang",
                         "--formula", "P>0.5 [ green U[0,3][0,1.2] red ]"])
        assert code == 0

    def test_boolean_formula(self, model_on_disk, capsys):
        code = cli.main(["check", "--model", model_on_disk,
                         "--formula", "green | red"])
        assert code == 0


class TestCertifiedCheck:
    """``repro check --certify``: exit 0/1/2 for TRUE/FALSE/UNKNOWN,
    one interval line per state, and a chain built on the command
    line's ``--kernel`` and ``--epsilon``."""

    UNTIL = "green U[0,3][0,1.2] red"   # exact: 1 - exp(-0.84) = 0.5683

    def certify(self, model, bound, *flags):
        return cli.main(["check", "--model", model, "--certify",
                         "--formula", f"P>{bound} [ {self.UNTIL} ]",
                         *flags])

    def test_true_exits_zero_with_interval_lines(self, model_on_disk,
                                                 capsys):
        assert self.certify(model_on_disk, 0.5) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "verdict: TRUE" in lines
        assert any(line.split()[:2] == ["0", "[0.56828948,"]
                   and line.endswith("TRUE") for line in lines)
        assert any(line.split()[:3] == ["1", "[1.00000000,",
                                        "1.00000000]"] for line in lines)
        assert "engine: sericola  rounds: 1" in "\n".join(lines)
        assert "degradation record:" not in lines

    def test_false_exits_one(self, model_on_disk, capsys):
        assert self.certify(model_on_disk, 0.9) == 1
        assert "verdict: FALSE" in capsys.readouterr().out

    def test_unknown_exits_two_with_degradation_record(self,
                                                       model_on_disk,
                                                       capsys):
        """k = 64's bracket straddles 0.568; one round leaves no
        budget for the 2k refinement."""
        code = self.certify(model_on_disk, 0.568, "--fallback", "erlang",
                            "--max-rounds", "1", "-v")
        assert code == 2
        output = capsys.readouterr().out
        assert "verdict: UNKNOWN" in output
        assert "engine: erlang  rounds: 1" in output
        record = output.split("degradation record:\n")[1].splitlines()
        assert record[0].startswith(
            "  - erlang: budget exhausted before evaluation")

    def test_epsilon_reaches_the_chain(self, model_on_disk, capsys):
        """Sericola's a-priori width is epsilon (+ 1e-3 of it)."""
        assert self.certify(model_on_disk, 0.5, "--epsilon", "1e-6") == 0
        assert "interval width: 1.001e-06" in capsys.readouterr().out

    def test_kernel_reaches_the_chain(self, model_on_disk, capsys,
                                      monkeypatch):
        chains = []
        certified = ModelChecker.check_certified

        def spy(self, formula, chain=None, **options):
            chains.append(chain)
            return certified(self, formula, chain=chain, **options)

        monkeypatch.setattr(ModelChecker, "check_certified", spy)
        clear_caches()
        with OBS.capture():
            assert self.certify(model_on_disk, 0.9, "--kernel", "dense",
                                "--fallback", "erlang,discretization"
                                ) == 1
            kernels = {span.attributes.get("kernel")
                       for root in OBS.tracer.roots
                       for span in root.walk()
                       if span.name == "sweep_unit"}
        [chain] = chains
        assert [engine.name for engine in chain] == ["erlang",
                                                     "discretization"]
        assert [engine.kernel for engine in chain] == ["dense", "dense"]
        assert chain[0].last_kernel == "dense"
        assert kernels == {"dense"}

    def test_flight_tail_printed_under_verbose(self):
        failure = EngineFailure("sericola", "worker died", flight_tail=(
            {"kind": "unit_start", "ts": 1.0, "cell": 3},))
        out = io_module.StringIO()
        cli._print_flight_tail(failure, file=out)
        assert out.getvalue().splitlines() == [
            "    worker flight recorder (last events):",
            "      unit_start: cell=3"]
        out = io_module.StringIO()
        cli._print_flight_tail(EngineFailure("erlang", "clean error"),
                               file=out)
        assert out.getvalue() == ""


class TestSweepBounds:
    """Bad sweep bounds get a one-line message and exit 2, like a
    non-number does, instead of a traceback or a failed cell."""

    @pytest.mark.parametrize("flag,values", [
        ("--sweep-times", "24,-1"),
        ("--sweep-times", "nan,24"),
        ("--sweep-times", "24,inf"),
        ("--sweep-rewards", "600,-5"),
        ("--sweep-rewards", "nan"),
        ("--sweep-rewards", "-inf,600"),
        ("--sweep-times", "24,soon"),
    ])
    def test_bad_bound_exits_two(self, flag, values, capsys):
        axes = {"--sweep-times": "24", "--sweep-rewards": "600"}
        axes[flag] = values
        args = ["check", "--model", "adhoc", "--formula", "Q3"]
        # "--flag=value" keeps argparse from reading "-inf" as a flag.
        args += [f"{name}={text}" for name, text in axes.items()]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(args)
        assert exit_info.value.code == 2
        message = capsys.readouterr().err.strip()
        assert message.startswith(flag)
        assert len(message.splitlines()) == 1


class TestLumpCommand:
    @pytest.fixture
    def symmetric_on_disk(self, tmp_path):
        builder = ModelBuilder()
        builder.add_state("idle")
        builder.add_state("left", labels=("busy",))
        builder.add_state("right", labels=("busy",))
        builder.add_transition("idle", "left", 1.0)
        builder.add_transition("idle", "right", 1.0)
        io.save_mrm(builder.build(), tmp_path / "sym")
        return str(tmp_path / "sym")

    def test_reports_sizes(self, symmetric_on_disk, capsys):
        assert cli.main(["lump", "--model", symmetric_on_disk]) == 0
        output = capsys.readouterr().out
        assert "original: 3 states" in output
        assert "quotient: 2 states" in output

    def test_writes_quotient(self, symmetric_on_disk, tmp_path,
                             capsys):
        out = str(tmp_path / "quotient")
        assert cli.main(["lump", "--model", symmetric_on_disk,
                         "--output", out]) == 0
        loaded = io.load_mrm(out)
        assert loaded.num_states == 2


class TestExportCommand:
    def test_dot_output(self, model_on_disk, capsys):
        assert cli.main(["export-dot", "--model", model_on_disk]) == 0
        output = capsys.readouterr().out
        assert output.startswith("digraph")
        assert "->" in output


class TestOtherCommands:
    def test_engines_listed(self, capsys):
        assert cli.main(["engines"]) == 0
        output = capsys.readouterr().out
        assert "sericola" in output
        assert "erlang" in output
        assert "discretization" in output

    def test_describe_case_study(self, capsys):
        assert cli.main(["case-study", "--describe"]) == 0
        output = capsys.readouterr().out
        assert "doze" in output
        assert "underlying MRM" in output

    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 2
        assert "usage" in capsys.readouterr().out
