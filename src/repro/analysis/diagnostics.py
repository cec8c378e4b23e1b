"""Structured diagnostics emitted by the static-analysis passes.

A :class:`Diagnostic` is one finding: a stable code (``M001``,
``F003``, ``E002``, ...), a :class:`Severity`, a human-readable
message, the location of the offending state/transition/AST node and a
fix hint.  :class:`AnalysisReport` is an immutable, ordered collection
of diagnostics with text and JSON renderings and the exit-code policy
of the ``repro lint`` command.

Every code is catalogued with rationale and fix in
``docs/DIAGNOSTICS.md``; codes are stable across releases so scripts
and CI gates can match on them.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple


class Severity(enum.IntEnum):
    """Severity of a diagnostic; ordered ``INFO < WARNING < ERROR``."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        """Lowercase name used in text and JSON output."""
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass.

    Attributes
    ----------
    code:
        Stable identifier: ``M...`` model passes, ``F...`` formula
        passes, ``E...`` engine-compatibility passes, ``S...`` SRN
        passes.
    severity:
        ``ERROR`` means the checker is guaranteed (or overwhelmingly
        likely) to fail or give a meaningless answer; ``WARNING`` flags
        probable mistakes or expensive configurations; ``INFO`` notes
        benign structure worth knowing about.
    message:
        Human-readable one-line description.
    location:
        The offending state(s), transition(s) or formula fragment,
        empty when the finding is model- or formula-global.
    hint:
        Actionable fix suggestion (may be empty).
    source:
        The pass family that produced the finding (``model``,
        ``formula``, ``engine``, ``srn``).
    """

    code: str
    severity: Severity
    message: str
    location: str = ""
    hint: str = ""
    source: str = ""

    def as_dict(self) -> Dict[str, str]:
        """JSON-ready representation."""
        return {
            "code": self.code,
            "severity": self.severity.label,
            "message": self.message,
            "location": self.location,
            "hint": self.hint,
            "source": self.source,
        }

    def render(self) -> str:
        """Multi-line text rendering (used by ``repro lint``)."""
        lines = [f"{self.severity.label}[{self.code}] {self.message}"]
        if self.location:
            lines.append(f"    at: {self.location}")
        if self.hint:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return f"{self.severity.label}[{self.code}] {self.message}"


def _sort_key(diagnostic: Diagnostic) -> Tuple[int, str, str]:
    return (-int(diagnostic.severity), diagnostic.code,
            diagnostic.location)


class AnalysisReport:
    """An ordered, immutable collection of diagnostics.

    Diagnostics are sorted most severe first (ties by code, then
    location) so text output, JSON output and golden tests are
    deterministic regardless of pass execution order.
    """

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()):
        self._diagnostics: Tuple[Diagnostic, ...] = tuple(
            sorted(diagnostics, key=_sort_key))

    # -- collection protocol -------------------------------------------

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._diagnostics)

    def __len__(self) -> int:
        return len(self._diagnostics)

    def __getitem__(self, index: int) -> Diagnostic:
        return self._diagnostics[index]

    @property
    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        return self._diagnostics

    # -- severity queries ----------------------------------------------

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self._diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self.by_severity(Severity.INFO)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    @property
    def has_warnings(self) -> bool:
        return bool(self.warnings)

    @property
    def clean(self) -> bool:
        """True when no diagnostics at all were emitted."""
        return not self._diagnostics

    def codes(self) -> List[str]:
        """Sorted distinct codes present in the report."""
        return sorted({d.code for d in self._diagnostics})

    # -- rendering ------------------------------------------------------

    def summary(self) -> str:
        """One-line count summary, e.g. ``1 error, 2 warnings``."""
        parts = []
        for severity in (Severity.ERROR, Severity.WARNING, Severity.INFO):
            count = len(self.by_severity(severity))
            if count:
                plural = "" if count == 1 else "s"
                parts.append(f"{count} {severity.label}{plural}")
        return ", ".join(parts) if parts else "no diagnostics"

    def to_text(self, header: str = "") -> str:
        """Full text rendering: optional header, one block per
        diagnostic, count summary last."""
        lines: List[str] = []
        if header:
            lines.append(header)
        for diagnostic in self._diagnostics:
            lines.append(diagnostic.render())
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self, indent: int = 2) -> str:
        """Machine-readable rendering (stable key order)."""
        payload = {
            "diagnostics": [d.as_dict() for d in self._diagnostics],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
            },
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    # -- exit-code policy ----------------------------------------------

    def exit_code(self, fail_on: str = "error") -> int:
        """The ``repro lint`` exit code: 2 when errors are present,
        1 when warnings are present and *fail_on* is ``"warning"``,
        0 otherwise."""
        if fail_on not in ("warning", "error"):
            raise ValueError(
                f"fail_on must be 'warning' or 'error', got {fail_on!r}")
        if self.has_errors:
            return 2
        if fail_on == "warning" and self.has_warnings:
            return 1
        return 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.summary()})"
