"""Command-line interface.

Examples
--------
Check a formula on a model stored in MRMC-style files::

    repro check --model path/to/model --formula "P>0.5 [ F[0,10] red ]"

Run the paper's case study (property Q3, all three engines)::

    repro case-study

Print the case-study SRN and its underlying MRM::

    repro case-study --describe
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

import numpy as np

from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, available_engines, get_engine)
from repro.ctmc import io as model_io
from repro.exec import EXECUTOR_NAMES
from repro.mc.checker import ModelChecker


def main(argv: Optional[list] = None) -> int:
    """Entry point of the ``repro`` command.

    ``SIGINT`` (Ctrl-C) is not a crash: any sweep checkpoint has
    already been flushed unit by unit (the checkpoint file is fsynced
    per finished work unit and closed by the executor's teardown on
    the way out),
    so the command prints where to resume from and exits with the
    conventional ``130``.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        checkpoint = getattr(args, "checkpoint", None)
        if checkpoint:
            print(f"progress is checkpointed in {checkpoint}; re-run "
                  f"the same command to resume from it",
                  file=sys.stderr)
        return 130


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CSRL performability model checker "
                    "(DSN 2002 reproduction)")
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser(
        "check", help="check a CSRL formula on a model from disk")
    check.add_argument("--model", required=True,
                       help="base path of the .tra/.lab/.rew files, or "
                            "'adhoc' for the paper's case-study model")
    check.add_argument("--formula", required=True,
                       help="CSRL state formula, e.g. "
                            "'P>0.5 [ a U[0,24][0,600] b ]'; with "
                            "--model adhoc, 'Q1'/'Q2'/'Q3' name the "
                            "paper's properties")
    check.add_argument("--engine", default="sericola",
                       choices=available_engines(),
                       help="engine for time+reward bounded until")
    check.add_argument("--kernel", default=None,
                       choices=("numpy", "numba", "sparse", "dense"),
                       help="propagation kernel backend (default: the "
                            "REPRO_KERNEL env var, else auto per "
                            "model: sparse for large sparse models, "
                            "else numba when importable, else numpy)")
    check.add_argument("-v", "--verbose", action="store_true",
                       help="print the resolved engine, kernel "
                            "backend and lumping pre-pass outcome")
    check.add_argument("--no-lump", action="store_true",
                       help="disable the automatic lumping pre-pass "
                            "(P3 checks then always propagate the "
                            "unminimised reduced model)")
    check.add_argument("--initial-state", type=int, default=0,
                       help="0-based initial state index")
    check.add_argument("--epsilon", type=float, default=1e-9,
                       help="numerical accuracy")
    check.add_argument("--certify", action="store_true",
                       help="certified mode: sound probability "
                            "intervals, three-valued verdict "
                            "(TRUE/FALSE/UNKNOWN) and engine fallback")
    check.add_argument("--budget", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per certified query")
    check.add_argument("--max-rounds", type=int, default=None,
                       help="refinement-round budget per certified "
                            "query (initial runs count too)")
    check.add_argument("--target-width", type=float, default=None,
                       help="keep refining until the certified "
                            "interval is at most this wide")
    check.add_argument("--fallback", default=None,
                       help="comma-separated engine fallback chain "
                            "for --certify (default: sericola,"
                            "erlang,discretization)")
    check.add_argument("--sweep-times", default=None, metavar="T,T,...",
                       help="comma-separated time bounds: sweep the "
                            "formula's until over a (t, r) grid "
                            "instead of one check (needs "
                            "--sweep-rewards)")
    check.add_argument("--sweep-rewards", default=None,
                       metavar="R,R,...",
                       help="comma-separated reward bounds for the "
                            "sweep grid")
    check.add_argument("--executor", default=None,
                       choices=EXECUTOR_NAMES,
                       help="sweep execution substrate: 'thread' "
                            "(in-process, default) or 'process' "
                            "(crash-isolated worker processes with "
                            "retries and heartbeat hang detection)")
    check.add_argument("--checkpoint", default=None, metavar="FILE",
                       help="durable sweep checkpoint (JSONL): "
                            "each finished work unit's cells are "
                            "appended and a re-run with the same file "
                            "resumes instead of recomputing")
    check.add_argument("--max-workers", type=int, default=None,
                       help="worker cap for sweep runs (default: "
                            "scale to the machine)")
    check.add_argument("--profile", action="store_true",
                       help="capture spans/metrics during the check "
                            "and print the profile report (span tree "
                            "with kernels, series depths and "
                            "residuals; cache hit ratios; timings)")
    check.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the captured span trace as JSON "
                            "lines to FILE (implies capturing)")
    check.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve the live metrics registry as "
                            "Prometheus text on "
                            "http://127.0.0.1:PORT/metrics for the "
                            "duration of the run (0 = ephemeral "
                            "port; the URL is printed to stderr)")
    check.add_argument("--progress", action="store_true",
                       help="live progress line on stderr for "
                            "process-executor sweeps: cells "
                            "done/total, rate, ETA, worker states, "
                            "open breakers, RSS")
    check.set_defaults(handler=_cmd_check)

    case = sub.add_parser(
        "case-study",
        help="run the paper's ad hoc network case study (Section 5)")
    case.add_argument("--describe", action="store_true",
                      help="print the SRN and MRM instead of checking")
    case.add_argument("--epsilon", type=float, default=1e-8)
    case.add_argument("--erlang-phases", type=int, default=256)
    case.add_argument("--step", type=float, default=1.0 / 64)
    case.add_argument("--kernel", default=None,
                      choices=("numpy", "numba", "sparse", "dense"),
                      help="propagation kernel backend for all three "
                           "engines (default: REPRO_KERNEL env var, "
                           "else auto)")
    case.set_defaults(handler=_cmd_case_study)

    lint = sub.add_parser(
        "lint",
        help="static diagnostics over a model, formula and engine "
             "choice -- no engine runs; usable as a CI gate")
    lint.add_argument("--model", required=True,
                      help="base path of the .tra/.lab/.rew files")
    lint.add_argument("--formula", default=None,
                      help="CSRL state formula to analyse against the "
                           "model (optional)")
    lint.add_argument("--engine", default="all",
                      help="engine name whose compatibility to judge, "
                           "or 'all' (default) for every registered "
                           "engine, or 'none'")
    lint.add_argument("--initial-state", type=int, default=0,
                      help="0-based initial state index")
    lint.add_argument("--format", default="text",
                      choices=("text", "json"),
                      help="output format (default: text)")
    lint.add_argument("--fail-on", default="error",
                      choices=("warning", "error"),
                      help="lowest severity that fails the run "
                           "(default: error)")
    lint.set_defaults(handler=_cmd_lint)

    engines = sub.add_parser("engines", help="list available engines")
    engines.set_defaults(handler=_cmd_engines)

    lump = sub.add_parser(
        "lump", help="bisimulation-minimise a model and report sizes")
    lump.add_argument("--model", required=True,
                      help="base path of the .tra/.lab/.rew files")
    lump.add_argument("--output",
                      help="base path to write the quotient model to")
    lump.set_defaults(handler=_cmd_lump)

    dot = sub.add_parser(
        "export-dot", help="render a model as a Graphviz digraph")
    dot.add_argument("--model", required=True,
                     help="base path of the .tra/.lab/.rew files")
    dot.set_defaults(handler=_cmd_export_dot)
    return parser


def _load_model(path: str, initial_state: int):
    """A model from disk, or the paper's case study for ``adhoc``."""
    if path == "adhoc":
        from repro.models import adhoc
        return adhoc.adhoc_model()
    return model_io.load_mrm(path, initial_state=initial_state)


def _resolve_formula(formula: str, model_path: str) -> str:
    """Expand the Q1/Q2/Q3 shortcuts of the ``adhoc`` model."""
    if model_path == "adhoc" and formula in ("Q1", "Q2", "Q3"):
        from repro.models import adhoc
        return getattr(adhoc, formula)
    return formula


def _make_engine(name: str, args):
    """The engine *name* on the ``--kernel`` backend (Sericola at
    ``--epsilon``)."""
    if name == "sericola":
        return SericolaEngine(epsilon=args.epsilon, kernel=args.kernel)
    return get_engine(name, kernel=args.kernel)


def _emit_capture(args) -> None:
    """Write/print what ``OBS.capture`` collected, per the flags."""
    from repro.obs import OBS
    from repro.obs.export import render_profile, write_jsonl
    if args.trace_out:
        count = write_jsonl(OBS.tracer.spans(), args.trace_out)
        print(f"trace: {count} spans written to {args.trace_out}",
              file=sys.stderr)
    if args.profile:
        print()
        print(render_profile(OBS.tracer, OBS.metrics),
              end="")


def _cmd_check(args) -> int:
    model = _load_model(args.model, args.initial_state)
    engine = _make_engine(args.engine, args)
    if args.verbose:
        print(f"engine: {engine.name}  kernel: {engine.kernel}",
              file=sys.stderr)
    checker = ModelChecker(model, engine=engine, epsilon=args.epsilon,
                           lump=False if args.no_lump else "auto")
    formula = _resolve_formula(args.formula, args.model)
    server = None
    if args.metrics_port is not None:
        from repro.obs.httpd import serve_metrics
        server = serve_metrics(port=args.metrics_port)
        print(f"metrics: serving {server.url}", file=sys.stderr)
    try:
        if not (args.profile or args.trace_out):
            return _run_check(checker, model, formula, args)
        from repro.obs import OBS
        with OBS.capture():
            code = _run_check(checker, model, formula, args)
        _emit_capture(args)
        return code
    finally:
        if server is not None:
            server.close()


def _run_check(checker: ModelChecker, model, formula: str, args) -> int:
    from repro.errors import PreflightError
    if args.sweep_times is not None or args.sweep_rewards is not None:
        return _sweep_check(checker, model, formula, args)
    if args.executor is not None or args.checkpoint is not None:
        print("--executor/--checkpoint apply to sweep runs; add "
              "--sweep-times and --sweep-rewards", file=sys.stderr)
        return 2
    if args.certify:
        return _certified_check(checker, model, formula, args)
    try:
        result = checker.check(formula)
    except PreflightError as exc:
        print(f"the {args.engine} engine cannot handle this query:",
              file=sys.stderr)
        for diagnostic in exc.diagnostics:
            print(diagnostic.render(), file=sys.stderr)
        print("(repro lint shows the full analysis; pass a different "
              "--engine or fix the model/formula)", file=sys.stderr)
        return 2
    if args.verbose:
        _report_verbose(checker, file=sys.stderr)
    print(result)
    if result.probabilities is not None:
        for s in range(model.num_states):
            marker = "*" if s in result.states else " "
            print(f" {marker} {model.name_of(s):30s} "
                  f"{result.probabilities[s]:.8f}")
    print(f"holds initially: {result.holds_initially}")
    return 0 if result.holds_initially else 1


def _report_verbose(checker: ModelChecker, file) -> None:
    """Post-check ``-v`` lines: resolved kernel, pre-pass outcome."""
    resolved = checker.engine.last_kernel
    if resolved is not None:
        print(f"kernel resolved: {resolved}", file=file)
    info = checker.last_lump
    if info is None:
        return
    if info.applied:
        print(f"lump: {info.num_states} states -> {info.num_blocks} "
              f"blocks", file=file)
    else:
        print(f"lump: not applied ({info.reason})", file=file)


def _parse_grid_axis(text: Optional[str], flag: str) -> list:
    if not text:
        print(f"sweep runs need both --sweep-times and "
              f"--sweep-rewards ({flag} is missing)", file=sys.stderr)
        raise SystemExit(2)
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        print(f"{flag} must be comma-separated numbers, got {text!r}",
              file=sys.stderr)
        raise SystemExit(2)
    for value in values:
        if not (np.isfinite(value) and value >= 0.0):
            print(f"{flag} must hold finite bounds >= 0, got {value}",
                  file=sys.stderr)
            raise SystemExit(2)
    return values


def _sweep_check(checker: ModelChecker, model, formula: str,
                 args) -> int:
    """``repro check --sweep-times ... --sweep-rewards ...``.

    Evaluates the formula's until operator over the whole ``(t, r)``
    bound grid -- the workload of the paper's tables -- through the
    fault-tolerant partial-sweep path, which runs the engine's
    shared-work units (a reward column, a Sericola column group), so
    ``--executor process`` shards units over crash-isolated workers
    and ``--checkpoint`` makes progress durable.  Exit code 0 when
    every cell completed, 1 when some cells are missing (their
    failures are listed; a checkpointed re-run retries only those).
    """
    from repro.logic import ast
    from repro.logic.parser import parse_formula

    parsed = parse_formula(formula)
    path = parsed.path if isinstance(parsed, ast.Prob) else parsed
    if isinstance(path, ast.Eventually):
        path = path.as_until()
    if not isinstance(path, ast.Until):
        print(f"sweep runs need an until formula, got {formula!r}",
              file=sys.stderr)
        return 2
    times = _parse_grid_axis(args.sweep_times, "--sweep-times")
    rewards = _parse_grid_axis(args.sweep_rewards, "--sweep-rewards")

    executor = args.executor
    progress_on = getattr(args, "progress", False)
    if progress_on and args.executor == "process":
        from repro.exec import ProcessShardExecutor

        def _render_progress(snapshot) -> None:
            print("\r" + snapshot.render(), end="", file=sys.stderr,
                  flush=True)

        executor = ProcessShardExecutor(max_workers=args.max_workers,
                                        progress=_render_progress)
    elif progress_on:
        print("--progress needs --executor process; ignoring",
              file=sys.stderr)
    try:
        partial = checker.until_probability_sweep_partial(
            path.left, path.right, times, rewards,
            max_workers=args.max_workers,
            executor=executor, checkpoint=args.checkpoint)
    finally:
        if executor is not args.executor:
            print(file=sys.stderr)  # close the \r progress line

    initial = int(np.argmax(model.initial_distribution))
    total = len(times) * len(rewards)
    done = total - len(partial.unevaluated)
    print(f"sweep: {len(times)} x {len(rewards)} grid of "
          f"{path} bounds, initial state {model.name_of(initial)}")
    print(f"completed {done}/{total} cells"
          + (f" [executor={args.executor}]" if args.executor else ""))
    header = "t \\ r".rjust(10) + "".join(
        f"{r:>12g}" for r in rewards)
    print(header)
    for i, t in enumerate(times):
        cells = []
        for j in range(len(rewards)):
            value = partial.grid[i, j, initial]
            cells.append("         ---" if np.isnan(value)
                         else f"{value:12.8f}")
        print(f"{t:>10g}" + "".join(cells))
    if partial.failures:
        print("failures:", file=sys.stderr)
        for failure in partial.failures:
            print(f"  - {failure}", file=sys.stderr)
            if args.verbose:
                _print_flight_tail(failure, file=sys.stderr)
    if not partial.complete and args.checkpoint:
        print(f"re-run with --checkpoint {args.checkpoint} to retry "
              f"only the missing cells", file=sys.stderr)
    return 0 if partial.complete else 1


def _certified_check(checker: ModelChecker, model, formula: str,
                     args) -> int:
    """``repro check --certify``: three-valued verdict, exit code
    0 = TRUE, 1 = FALSE, 2 = UNKNOWN."""
    from repro.mc.budget import Budget
    from repro.mc.certified import DEFAULT_CHAIN
    from repro.mc.result import Verdict

    names = DEFAULT_CHAIN if args.fallback is None else tuple(
        name.strip() for name in args.fallback.split(",") if name.strip())
    chain = tuple(_make_engine(name, args) for name in names)
    budget = None
    if args.budget is not None or args.max_rounds is not None:
        budget = Budget(seconds=args.budget, max_rounds=args.max_rounds)
    result = checker.check_certified(formula, chain=chain,
                                     budget=budget,
                                     target_width=args.target_width)
    print(f"{result.formula}")
    print(f"verdict: {result.verdict}")
    for s in range(model.num_states):
        print(f"  {model.name_of(s):30s} "
              f"[{result.lower[s]:.8f}, {result.upper[s]:.8f}]  "
              f"{result.state_verdicts[s]}")
    engine = result.engine or "none"
    print(f"engine: {engine}  rounds: {result.rounds_used}  "
          f"interval width: {result.width:.3e}")
    if result.failures:
        print("degradation record:")
        for failure in result.failures:
            print(f"  - {failure}")
            if args.verbose:
                _print_flight_tail(failure)
    return {Verdict.TRUE: 0, Verdict.FALSE: 1,
            Verdict.UNKNOWN: 2}[result.verdict]


def _print_flight_tail(failure, file=sys.stdout) -> None:
    """``-v``: the dying worker's last flight-recorder events.

    Accepts anything with a ``flight_tail`` attribute -- a
    :class:`~repro.errors.WorkerError`, a
    :class:`~repro.mc.certified.EngineFailure` -- and stays silent
    when there is no tail (thread-pool failures, clean engine errors).
    """
    tail = getattr(failure, "flight_tail", ())
    if not tail:
        cause = getattr(failure, "cause", None)
        tail = getattr(cause, "flight_tail", ())
    if not tail:
        return
    print("    worker flight recorder (last events):", file=file)
    for event in tail:
        kind = event.get("kind", "?")
        detail = " ".join(f"{key}={event[key]!r}"
                          for key in sorted(event)
                          if key not in ("kind", "ts"))
        print(f"      {kind}: {detail}", file=file)


def _cmd_case_study(args) -> int:
    from repro.models import adhoc

    if args.describe:
        net = adhoc.build_adhoc_srn()
        print(net.describe())
        model = adhoc.adhoc_model()
        print()
        print(f"underlying MRM: {model}")
        for s in range(model.num_states):
            print(f"  {model.name_of(s):35s} reward "
                  f"{model.reward(s):6.1f} mA")
        return 0

    model = adhoc.adhoc_model()
    checker = ModelChecker(model, epsilon=args.epsilon)
    initial = int(np.argmax(model.initial_distribution))
    print(f"model: {model} (initial state "
          f"{model.name_of(initial)})")
    for name, formula in (("Q1", adhoc.Q1), ("Q2", adhoc.Q2),
                          ("Q3", adhoc.Q3)):
        result = checker.check(formula)
        print(f"{name}: {formula}")
        print(f"    probability {result.probability_of(initial):.8f}  "
              f"-> {'holds' if result.holds_initially else 'does not hold'}"
              f" in the initial state")

    print()
    print("Q3 path probability with all three engines "
          "(paper reference: 0.49540399 +- model reconstruction "
          "tolerance, see EXPERIMENTS.md):")
    phi = "call_idle | doze"
    engines = [
        ("sericola", SericolaEngine(epsilon=args.epsilon,
                                    kernel=args.kernel)),
        ("erlang", ErlangEngine(phases=args.erlang_phases,
                                kernel=args.kernel)),
        ("discretization", DiscretizationEngine(step=args.step,
                                                kernel=args.kernel)),
    ]
    from repro.logic.parser import parse_formula
    q3 = parse_formula(adhoc.Q3)
    for name, engine in engines:
        local = ModelChecker(model, engine=engine, epsilon=args.epsilon)
        start = time.perf_counter()
        vector = local.probability_vector(q3.path)
        elapsed = time.perf_counter() - start
        print(f"  {name:15s} {vector[initial]:.8f}   "
              f"({elapsed:7.2f} s)")
    return 0


def _cmd_lint(args) -> int:
    """``repro lint``: exit 0 = pass, 1 = warnings (with
    ``--fail-on warning``), 2 = errors."""
    from repro import analysis

    model = model_io.load_mrm(args.model,
                              initial_state=args.initial_state)
    if args.engine == "all":
        engines = available_engines()
    elif args.engine == "none":
        engines = ()
    else:
        engines = (args.engine,)
    report = analysis.lint(model=model, formula=args.formula,
                           engine=engines, model_path=args.model)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text(header=f"{args.model}:"))
    return report.exit_code(fail_on=args.fail_on)


def _cmd_engines(args) -> int:
    for name in available_engines():
        print(name)
    return 0


def _cmd_lump(args) -> int:
    from repro.ctmc.lumping import lump

    model = model_io.load_mrm(args.model)
    result = lump(model)
    print(f"original: {model.num_states} states, "
          f"{model.num_transitions} transitions")
    print(f"quotient: {result.quotient.num_states} states, "
          f"{result.quotient.num_transitions} transitions")
    for block_index, members in enumerate(result.blocks):
        if len(members) > 1:
            names = ", ".join(model.name_of(s) for s in members)
            print(f"  block {block_index}: {names}")
    if args.output:
        model_io.save_mrm(result.quotient, args.output)
        print(f"quotient written to {args.output}.tra/.lab/.rew")
    return 0


def _cmd_export_dot(args) -> int:
    from repro.ctmc.export import model_to_dot

    model = model_io.load_mrm(args.model)
    print(model_to_dot(model))
    return 0


if __name__ == "__main__":
    sys.exit(main())
