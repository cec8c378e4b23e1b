"""CLI observability: ``repro check --profile`` and ``--trace-out``.

The golden test pins the span-tree *shape* (names and nesting, never
timings) of a reference query on ``examples/models/clean`` -- the same
comparison CI runs.  Regenerate the golden file after an intentional
instrumentation change with::

    PYTHONPATH=src python -m repro.cli check \
        --model examples/models/clean \
        --formula "P>=0.1 [ up U[0,1][0,2] down ]" \
        --trace-out trace.jsonl
    PYTHONPATH=src python -c "import json; \
        from repro.obs.export import build_tree, parse_jsonl, record_shape; \
        records = parse_jsonl(open('trace.jsonl').read()); \
        print(json.dumps(record_shape(build_tree(records)), indent=2))" \
        > tests/golden/profile_shape.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli
from repro.algorithms import clear_caches
from repro.obs import OBS, REGISTRY
from repro.obs.export import (build_tree, parse_jsonl, record_shape,
                               span_shape)

REPO = Path(__file__).resolve().parent.parent
CLEAN_MODEL = str(REPO / "examples" / "models" / "clean")
GOLDEN_SHAPE = REPO / "tests" / "golden" / "profile_shape.json"
FORMULA = "P>=0.1 [ up U[0,1][0,2] down ]"


@pytest.fixture(autouse=True)
def clean_observability():
    OBS.disable()
    OBS.reset()
    REGISTRY.reset()
    clear_caches()
    yield
    OBS.disable()
    OBS.reset()
    REGISTRY.reset()


class TestCheckProfileFlags:
    def test_check_verbose_profile_shows_joint_vector(self, capsys):
        # Scalar queries run through the grid core but keep their
        # entry-point span.
        cli.main(["check", "--model", CLEAN_MODEL, "--formula", FORMULA,
                  "-v", "--profile"])
        captured = capsys.readouterr()
        assert "joint_vector" in captured.out + captured.err

    def test_check_profile_appends_report(self, capsys):
        code = cli.main(["check", "--model", CLEAN_MODEL,
                         "--formula", FORMULA, "--profile"])
        output = capsys.readouterr().out
        assert code in (0, 1)  # verdict, not the profile, drives it
        assert "holds initially" in output
        assert "== span tree ==" in output
        assert "== counters & gauges ==" in output

    def test_check_profile_shape_matches_golden(self, capsys):
        # The live tracer after ``--profile`` has the pinned shape; the
        # on-disk trace is compared separately in the round-trip test.
        code = cli.main(["check", "--model", CLEAN_MODEL,
                         "--formula", FORMULA, "--profile"])
        assert code in (0, 1)
        shape = span_shape(list(OBS.tracer.roots))
        golden = json.loads(GOLDEN_SHAPE.read_text())
        assert shape == golden

    def test_check_profile_report_sections(self, capsys):
        code = cli.main(["check", "--model", CLEAN_MODEL,
                         "--formula", FORMULA, "--profile"])
        assert code in (0, 1)
        output = capsys.readouterr().out
        assert "== span tree ==" in output
        assert "check" in output
        assert "joint_vector" in output
        assert "== cache ==" in output

    def test_check_profile_adhoc_q3(self, capsys):
        code = cli.main(["check", "--model", "adhoc", "--formula", "Q3",
                         "--profile"])
        assert code in (0, 1)
        output = capsys.readouterr().out
        assert "joint_vector" in output
        assert "repro_sericola_truncation_depth" in output
        # The a-priori bound behind the verdict, and the kernel chosen.
        sweep_line, = [line for line in output.splitlines()
                       if "series_sweep [" in line]
        for fact in ("depth=603", "steps=603", "residual=9.86e-10"):
            assert fact in sweep_line
        unit_line, = [line for line in output.splitlines()
                      if "sweep_unit [" in line]
        assert "kernel=" in unit_line

    def test_trace_out_round_trips(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = cli.main(["check", "--model", CLEAN_MODEL,
                         "--formula", FORMULA,
                         "--trace-out", str(trace)])
        assert code in (0, 1)
        records = parse_jsonl(trace.read_text())
        assert records
        shape = record_shape(build_tree(records))
        golden = json.loads(GOLDEN_SHAPE.read_text())
        assert shape == golden

    def test_check_without_flags_captures_nothing(self, capsys):
        code = cli.main(["check", "--model", CLEAN_MODEL,
                         "--formula", FORMULA])
        assert code in (0, 1)
        assert list(OBS.tracer.roots) == []
        assert "== span tree ==" not in capsys.readouterr().out

    def test_check_adhoc_shortcut(self, capsys):
        code = cli.main(["check", "--model", "adhoc",
                         "--formula", "Q1"])
        assert code in (0, 1)
        assert "Sat(" in capsys.readouterr().out
