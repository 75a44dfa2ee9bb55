"""Report and finding types returned by the validation operations.

A report's status is read off its findings alone: it fails exactly when it
holds a finding with severity "error", and is otherwise exploratory when it
holds one with severity "warning" (a hypothesis of the result fails, so the
report asserts nothing there).  Findings carry a machine-readable location
and an optional witness, which the callers that build them make of JSON
values only: str, int, bool, None, lists and dicts with str keys.
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
    """The findings of one operation.  A warning among them makes the
    report exploratory, an error makes it fail."""

    operation: str
    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    @property
    def exploratory(self) -> bool:
        return any(f.severity == "warning" for f in self.findings)

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
    return Report(operation, tuple(found))


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
