#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the CSRL model checker.

Runs one workload (see ``perfbench/METRICS.md``) as a closed loop from one
process: each op waits for the previous one, result caches are cleared
before every timed op, and each round runs every op kind once in an
order drawn from ``--seed``.  The first round always completes; after it
the run stops before an op that would not finish within ``--seconds``.

    python3 perfbench/run.py --workload paper-q3 --seed 1 --seconds 25 --trace 0

``--trace 0`` times the user-visible calls with observability off and
reports the end-to-end metrics; ``--trace 1`` additionally re-runs every
op layer by layer under ``OBS.capture()`` and reports the per-layer
metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the details (per-op timings, set-up samples, environment).

Run from the repository root; the library is imported from ``src/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib.util import find_spec  # noqa: E402
from pathlib import Path  # noqa: E402

#: BLAS/OpenMP pools pinned to one thread: the executors' two workers
#: would otherwise oversubscribe a two-core box.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
#: Library knobs cleared so every run measures the defaults.
CLEARED_ENV = ("REPRO_KERNEL", "REPRO_FAULTS", "REPRO_EXEC_START")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up samples per run: this process plus fresh probe processes.
SETUP_SAMPLES = 5

#: Per-layer metrics reported by ``--trace 1`` (BENCHMARK.json order).
LAYER_METRICS = (
    "cli.import_s", "kernels.first_call_s", "logic.parse_s",
    "srn.build_s", "srn.states", "models.build_s", "mc.sat_s",
    "analysis.preflight_s", "mc.transform.reduce_s",
    "mc.transform.reduced_states", "mc.prepass.lump_s",
    "mc.prepass.blocks", "mc.prepass.applied",
    "algorithms.sericola.engine_s", "algorithms.erlang.engine_s",
    "algorithms.discretization.engine_s",
    "algorithms.propagation_steps", "algorithms.matvec_count",
    "algorithms.sweep_points", "algorithms.cache_hits",
    "algorithms.cache_misses",
    "algorithms.shared.matvec_count", "algorithms.thread.matvec_count",
    "algorithms.process.matvec_count", "algorithms.durable.matvec_count",
    "algorithms.shared.propagation_steps",
    "algorithms.thread.propagation_steps",
    "algorithms.process.propagation_steps",
    "algorithms.durable.propagation_steps",
    "kernels.matvec_s", "kernels.states_per_s", "numerics.fox_glynn_s",
    "numerics.truncation_depth", "exec.sweep_s", "exec.cells",
    "exec.restarts", "exec.retries", "exec.cell_s",
    "exec.checkpoint_bytes", "mc.lift_s", "mc.verdict_s", "wall_s",
    "unattributed_s", "obs.trace_overhead_pct",
)
#: Facts that are sizes, not amounts: the largest op kind's value counts.
MAX_FACTS = ("srn.states", "mc.transform.reduced_states",
             "mc.prepass.blocks", "numerics.truncation_depth")
#: Registry families behind the counter metrics.
COUNTERS = {
    "algorithms.propagation_steps": "repro_engine_propagation_steps_total",
    "algorithms.matvec_count": "repro_engine_matvec_total",
    "algorithms.sweep_points": "repro_engine_sweep_points_total",
    "algorithms.cache_hits": "repro_engine_cache_hits_total",
    "algorithms.cache_misses": "repro_engine_cache_misses_total",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-q3", "q3-grid", "large-100k"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up timings, exit")
    return parser.parse_args(argv)


def prepare_environment(workdir: Path) -> None:
    os.environ.update(THREAD_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # Temporary files (executor flight recorders) stay in the checkout.
    os.environ["TMPDIR"] = str(workdir)
    sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def timing(samples):
    """Median plus the highest percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if n else None}
    for percentile in (99.9, 99, 95, 90, 75):
        if n * (1.0 - percentile / 100.0) >= 10:
            rank = max(1, math.ceil(percentile / 100.0 * n))
            out[f"p{percentile:g}"] = ordered[rank - 1]
            break
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment(args, workload) -> dict:
    import numpy
    import scipy
    blas = None
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # older NumPy: no dict mode
        pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "numba": find_spec("numba") is not None,
        "threads": THREAD_ENV, "cleared_env": list(CLEARED_ENV),
        "kernel_backend": workload.kernels(),
    }


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.samples = {}
        self.answers = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        #: Completed rounds (a last, partial round is not counted).
        self.rounds = 0
        #: Traced runs: per op kind, one dict of layer values per op.
        self.layers = {}

    def set_up(self) -> dict:
        started = time.perf_counter()
        global workloads, clear_caches, OBS
        import workloads
        from repro.algorithms import clear_caches
        from repro.obs import OBS
        imported = time.perf_counter()
        self.workload = workloads.WORKLOADS[self.args.workload](
            self.args.seed, self.workdir)
        self.workload.build()
        built = time.perf_counter()
        self.samples = {op.kind: [] for op in self.workload.ops}
        self.timed(self.workload.op(self.workload.warmup_kind),
                   record=False)
        done = time.perf_counter()
        return {"setup_s": done - START, "import_s": imported - started,
                "build_s": built - imported, "first_call_s": done - built}

    def fail(self, kind: str, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {type(error).__name__}: {error}")

    def timed(self, op, record: bool = True):
        """One cold op: returns its wall time, or None when it failed."""
        self.attempted += 1
        clear_caches()
        gc.collect()
        try:
            start = time.perf_counter()
            answer = op.run()
            wall = time.perf_counter() - start
            op.verify(answer)
            reference = self.answers.setdefault(op.kind, answer)
            if not workloads.same_answer(answer, reference):
                raise workloads.Mismatch("answer changed between rounds")
        except Exception as error:
            self.fail(op.kind, error)
            return None
        if record:
            self.samples[op.kind].append(wall)
        return wall

    def traced(self, op, wall: float) -> None:
        """Re-run *op* layer by layer and keep its split as a sample."""
        clear_caches()
        gc.collect()
        spans = workloads.Spans()
        try:
            with OBS.capture(reset_metrics=True):
                start = time.perf_counter()
                answer = op.stepwise(spans)
                traced_wall = time.perf_counter() - start
            if not workloads.same_answer(answer, self.answers[op.kind]):
                raise workloads.Mismatch(
                    "stepwise answer differs from the whole call")
        except Exception as error:
            self.fail(op.kind, error)
            return
        layers = dict(spans.seconds)
        layer_sum = sum(spans.seconds.values())
        registry = OBS.metrics.snapshot()
        counts = {name: family_total(registry, family)
                  for name, family in COUNTERS.items()}
        counts["kernels.matvec_s"] = family_total(
            registry, "repro_matvec_block_seconds")
        counts["numerics.fox_glynn_s"] = family_total(
            registry, "repro_fox_glynn_seconds")
        counts["exec.cells"] = family_total(
            registry, "repro_sweep_cell_seconds", "count")
        counts["exec.cell_s"] = family_total(
            registry, "repro_sweep_cell_seconds")
        counts["numerics.truncation_depth"] = max(
            registry.get("repro_sericola_truncation_depth", {0: 0}).values())
        if op.kind.startswith("sweep_"):
            path = op.kind.split("_")[1]
            for name in ("matvec_count", "propagation_steps"):
                counts[f"algorithms.{path}.{name}"] = counts[
                    f"algorithms.{name}"]
        facts = dict(op.facts or {})
        states = facts.pop("propagated_states", 0)
        engine_s = sum(seconds for name, seconds in spans.seconds.items()
                       if name.endswith(".engine_s"))
        if engine_s:
            layers["state_steps"] = (
                states * counts["algorithms.propagation_steps"])
            layers["state_engine_s"] = engine_s
        layers.update(counts)
        layers.update(facts)
        layers.update({"untraced_wall": wall, "layer_sum": layer_sum,
                       "wall_s": traced_wall})
        self.layers.setdefault(op.kind, []).append(layers)

    def traced_builds(self) -> None:
        spans = workloads.Spans()
        facts = self.workload.layer_builds(spans)
        self.layers.setdefault("builds", []).append({**spans.seconds,
                                                     **facts})

    def run(self) -> None:
        """Rounds of every op kind in seed order.  The first round always
        completes; after it, the run stops before an op that would not
        finish within ``--seconds``."""
        rng = random.Random(self.args.seed)
        kinds = [op.kind for op in self.workload.ops]
        begin = time.perf_counter()
        while True:
            order = list(kinds)
            rng.shuffle(order)
            for position, kind in enumerate(order):
                if self.out_of_time(begin, kind):
                    return
                if self.args.trace and position == 0:
                    self.traced_builds()
                op = self.workload.op(kind)
                wall = self.timed(op)
                if self.args.trace and wall is not None and op.stepwise:
                    self.traced(op, wall)
            self.rounds += 1

    def cross_check(self) -> None:
        for kind in self.workload.cross_check(self.answers):
            self.fail(kind, workloads.Mismatch(
                "grid differs from the thread executor's grid"))

    def out_of_time(self, begin: float, kind: str) -> bool:
        if time.perf_counter() - START > 120.0:
            return True
        if self.rounds == 0:
            return False
        expected = statistics.median(self.samples[kind] or [0.0])
        if self.args.trace:
            expected *= 2
        return time.perf_counter() - begin + expected > self.args.seconds

    def medians(self):
        return {kind: statistics.median(values)
                for kind, values in self.samples.items() if values}


def family_total(registry: dict, family: str, field: str = "sum") -> float:
    total = 0.0
    for value in registry.get(family, {}).values():
        total += value[field] if isinstance(value, dict) else value
    return total


def layer_metrics(runner: Runner, first_calls) -> dict:
    """Each layer value is the median over an op kind's samples, summed
    over op kinds (sizes take the largest kind instead), the way
    ``query_set_s`` sums the kinds' median wall times."""
    totals = {}
    for samples in runner.layers.values():
        names = set().union(*samples)
        for name in names:
            value = statistics.median([s.get(name, 0.0) for s in samples])
            if name in MAX_FACTS:
                totals[name] = max(totals.get(name, 0.0), value)
            else:
                totals[name] = totals.get(name, 0.0) + value
    wall = totals.pop("untraced_wall", 0.0)
    traced_wall = totals.get("wall_s", 0.0)
    totals["unattributed_s"] = traced_wall - totals.pop("layer_sum", 0.0)
    totals["obs.trace_overhead_pct"] = (
        100.0 * (traced_wall - wall) / wall if wall else 0.0)
    state_engine_s = totals.pop("state_engine_s", 0.0)
    totals["kernels.states_per_s"] = (
        totals.pop("state_steps", 0.0) / state_engine_s
        if state_engine_s else 0.0)
    warm = runner.medians().get(runner.workload.warmup_kind)
    totals["kernels.first_call_s"] = (
        statistics.median(first_calls) - warm if warm is not None else 0.0)
    return {name: {"value": totals.get(name, 0.0), "unit": layer_unit(name)}
            for name in LAYER_METRICS}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_pct", "%"),
                         ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def named_timings(workload, samples) -> dict:
    """The per-op timings under the names METRICS.md gives them."""
    out = {kind: timing(values) for kind, values in samples.items()}
    if workload.name == "q3-grid":
        for path in workload.PATHS:
            parts = [statistics.median(samples[f"sweep_{path}_{name}"])
                     for name in workload.ENGINES
                     if samples[f"sweep_{path}_{name}"]]
            out[f"sweep_{path}_s"] = {"median": sum(parts),
                                      "engines": len(parts)}
    return out


def probe(args) -> dict:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, cwd=str(ROOT))
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        prepare_environment(workdir)
        runner = Runner(args, workdir)
        setup = runner.set_up()
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        setups = [setup] + [probe(args)
                            for _ in range(SETUP_SAMPLES - 1)]
        runner.run()
        runner.cross_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    medians = runner.medians()
    setup_values = [s["setup_s"] for s in setups]
    if args.trace:
        metrics = layer_metrics(runner,
                                [s["first_call_s"] for s in setups])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_values),
                        "unit": "s"},
            "query_set_s": {"value": sum(medians.values()), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    detail = {
        "rounds": runner.rounds,
        "setup": setups,
        "ops": named_timings(runner.workload, runner.samples),
        "errors": runner.errors,
        "environment": environment(args, runner.workload),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
