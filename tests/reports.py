"""Readers of the package's reports that only the tests use."""

from __future__ import annotations

from oneplane.audit import AuditReport, CheckOutcome
from oneplane.oneplanar import ValidationReport


def violation_kinds(report: ValidationReport) -> set[str]:
    """The kinds of the report's violations."""
    return {v.kind for v in report.violations}


def gate(report: AuditReport, name: str) -> CheckOutcome:
    """The outcome of the audit gate called `name`; KeyError if there is
    none."""
    for c in report.checks:
        if c.name == name:
            return c
    raise KeyError(f"no audit gate named {name!r}")
