"""Exception hierarchy for the repro library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch one base class.  Specific subclasses distinguish
modelling errors (bad input models), logic errors (bad formulas) and
numerical failures (non-convergence, invalid tolerances).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ModelError(ReproError):
    """An input model (CTMC, MRM, SRN) is malformed or inconsistent."""


class StateSpaceError(ModelError):
    """State-space generation failed (e.g. unbounded net, limit hit)."""


class RewardError(ModelError):
    """A reward structure violates a precondition of an algorithm."""


class FormulaError(ReproError):
    """A CSRL formula is syntactically or semantically invalid."""


class ParseError(FormulaError):
    """The CSRL text parser rejected its input.

    Attributes
    ----------
    position:
        Character offset in the input at which the error was detected,
        or ``None`` when not applicable.
    """

    def __init__(self, message: str, position: "int | None" = None):
        super().__init__(message)
        self.position = position


class UnsupportedFormulaError(FormulaError):
    """The formula is well-formed but outside the decidable fragment."""


class NumericalError(ReproError):
    """A numerical procedure failed (divergence, invalid tolerance...)."""


class ConvergenceError(NumericalError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message: str, iterations: "int | None" = None,
                 residual: "float | None" = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class WorkerError(NumericalError):
    """One cell of a sweep failed for good.

    Wraps the original exception together with the cell's position in
    the grid, so a failing grid cell can be identified from the error
    alone.  The executors of :mod:`repro.exec` record one per failed
    cell in :attr:`~repro.algorithms.base.PartialSweep.failures`.

    Attributes
    ----------
    index:
        0-based position of the failing cell (the grid's row-major
        index for executor failures).
    label:
        Human-readable cell description (e.g.
        ``"cell (t=1.0, r=2.0)"``), or ``None``.
    cause:
        The exception the worker raised.
    flight_tail:
        The dying worker's last flight-recorder events (a tuple of
        plain dicts, see :class:`repro.obs.recorder.FlightRecorder`),
        attached by the process executor; empty for in-process
        failures and when no recorder ran.
    """

    def __init__(self, index: int, cause: BaseException,
                 label: "str | None" = None,
                 flight_tail: "tuple | list" = ()):
        where = f"task {index}" + (f" ({label})" if label else "")
        super().__init__(
            f"{where} failed: {type(cause).__name__}: {cause}")
        self.index = int(index)
        self.label = label
        self.cause = cause
        self.flight_tail = tuple(flight_tail)

    def __reduce__(self):
        # The default Exception reduction replays ``args`` -- a single
        # message string -- into ``__init__(index, cause, label)`` and
        # explodes.  Reconstructing from the real fields keeps the
        # error picklable, which process transport (:mod:`repro.exec`)
        # and anyone using ``multiprocessing`` relies on.
        return (WorkerError, (self.index, self.cause, self.label,
                              self.flight_tail))


class ParallelExecutionError(NumericalError):
    """An executor-run sweep finished incomplete.

    Raised once per sweep by :func:`repro.mc.until.joint_sweep` when a
    sweep run on an explicit executor or checkpoint leaves cells
    undone; :attr:`failures` carries one :class:`WorkerError` per
    failing cell (in grid order), so callers see *every* failure, not
    just the first.
    """

    def __init__(self, failures: "list[WorkerError]", total: int):
        details = "; ".join(str(f) for f in failures)
        super().__init__(
            f"{len(failures)} of {total} parallel tasks failed: "
            f"{details}")
        self.failures = list(failures)
        self.total = int(total)

    def __reduce__(self):
        return (ParallelExecutionError, (self.failures, self.total))


class WorkerCrashError(NumericalError):
    """A worker *process* died before returning its task's result.

    Raised (or recorded inside a :class:`WorkerError`) by the process
    executor (:mod:`repro.exec`) when a worker crashes, is killed, or
    stops heartbeating; distinguishes infrastructure failures from
    numerical ones so retry policies can treat them differently.

    Attributes
    ----------
    reason:
        Why the worker was given up on: ``"crash"`` (process exited),
        ``"killed"`` (terminated by signal, e.g. an OOM kill),
        ``"hang"`` (heartbeat went stale) or ``"corrupt"`` (result
        failed its checksum).
    worker_id:
        Identifier of the worker process, or ``None``.
    exitcode:
        The process exit code (negative = killed by that signal), or
        ``None`` when the process was still alive (hang).
    flight_tail:
        The victim's last flight-recorder events (a tuple of plain
        dicts), read back from its fsynced sidecar by the parent;
        empty when no recorder ran or the sidecar was unreadable.
    """

    def __init__(self, reason: str, worker_id: "int | None" = None,
                 exitcode: "int | None" = None,
                 flight_tail: "tuple | list" = ()):
        where = (f"worker {worker_id}" if worker_id is not None
                 else "worker")
        detail = f" (exit code {exitcode})" if exitcode is not None else ""
        super().__init__(f"{where} failed: {reason}{detail}")
        self.reason = reason
        self.worker_id = worker_id
        self.exitcode = exitcode
        self.flight_tail = tuple(flight_tail)

    def __reduce__(self):
        return (WorkerCrashError,
                (self.reason, self.worker_id, self.exitcode,
                 self.flight_tail))


class RemoteTaskError(NumericalError):
    """An exception raised inside a worker process, carried home.

    The original exception object may not survive pickling, so the
    process transport ships its type name, message and formatted
    traceback instead; the traceback text is attached for diagnosis.
    """

    def __init__(self, exc_type: str, message: str,
                 traceback_text: str = ""):
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type
        self.message = message
        self.traceback_text = traceback_text

    def __reduce__(self):
        return (RemoteTaskError,
                (self.exc_type, self.message, self.traceback_text))


class CheckpointError(NumericalError):
    """A sweep checkpoint file cannot be used for the requested sweep
    (wrong fingerprint, engine parameters or grid axes)."""


class BudgetExhaustedError(NumericalError):
    """A per-query budget (deadline or refinement rounds) ran out."""


class PreflightError(NumericalError):
    """The static pre-flight analysis vetoed the computation.

    Raised by :class:`~repro.mc.checker.ModelChecker` before any engine
    runs when the analysis passes (see :mod:`repro.analysis`) find an
    ``ERROR``-severity incompatibility between the model, the formula
    and the selected engine.  The offending findings ride along so
    callers can render codes and fix hints instead of a traceback.

    Attributes
    ----------
    diagnostics:
        The ``ERROR``-severity :class:`~repro.analysis.Diagnostic`
        findings that triggered the veto, in report order.
    """

    def __init__(self, message: str, diagnostics: "tuple | list" = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)
