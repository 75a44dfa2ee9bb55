"""Report and finding types returned by the validation operations.

A report fails exactly when it contains at least one finding with severity
"error".  Findings carry a machine-readable location and an optional witness
(kept JSON-serializable by the callers that build them).
"""

from __future__ import annotations

from .errors import InvariantError, TriadicaError
from .record import record

SEVERITIES = ("error", "warning", "info")


@record
class Finding:
    severity: str
    location: str
    message: str
    witness: object = None

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise InvariantError(f"unknown finding severity {self.severity!r}")


@record
class Report:
    operation: str
    findings: tuple[Finding, ...] = ()
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


def relocated(prefix: str, findings) -> list[Finding]:
    """The findings with `prefix` put in front of each location."""
    return [Finding(f.severity, f"{prefix}{f.location}", f.message, f.witness)
            for f in findings]


def merge_reports(operation: str, parts: list[Report]) -> Report:
    """Concatenate findings from several reports under one operation name,
    each location prefixed with the operation of its part."""
    found = [f for part in parts for f in relocated(f"{part.operation}: ", part.findings)]
    return Report(operation, tuple(found),
                  exploratory=any(p.exploratory for p in parts))


class ValidationError(TriadicaError):
    """An input breaks an axiom the operation relies on; `finding` is the
    first error its validator reported."""

    prefix = "not valid"

    def __init__(self, finding: Finding):
        self.finding = finding
        super().__init__(f"{self.prefix}: {finding.location}: {finding.message}")

    @classmethod
    def require(cls, report: Report) -> None:
        """Raise with the first error of `report`, if it has one."""
        errors = report.errors()
        if errors:
            raise cls(errors[0])
