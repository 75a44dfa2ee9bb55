"""Report and finding types returned by the validation operations.

A report fails exactly when it contains at least one finding with severity
"error".  Findings carry a machine-readable location and an optional witness
(kept JSON-serializable by the callers that build them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantError

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    severity: str
    location: str
    message: str
    witness: object = None

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise InvariantError(f"unknown finding severity {self.severity!r}")


@dataclass(frozen=True)
class Report:
    operation: str
    findings: tuple[Finding, ...] = field(default_factory=tuple)
    exploratory: bool = False

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    @property
    def status(self) -> str:
        if not self.ok:
            return "fail"
        return "exploratory" if self.exploratory else "pass"

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]


def merge_reports(operation: str, parts: list[Report], prefix: bool = True) -> Report:
    """Concatenate findings from several reports under one operation name."""
    found: list[Finding] = []
    for part in parts:
        for f in part.findings:
            loc = f"{part.operation}: {f.location}" if prefix else f.location
            found.append(Finding(f.severity, loc, f.message, f.witness))
    return Report(operation, tuple(found),
                  exploratory=any(p.exploratory for p in parts))
