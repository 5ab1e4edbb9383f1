"""Structured pass/fail records for named verification checks."""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple

PASS = "pass"
FAIL = "fail"
QUOTIENT_PASS = "quotient-level-pass"


class Check(NamedTuple):
    """Outcome of one named identity check.

    ``witness`` carries the two mismatching sides (already formatted)
    when the check fails.
    """

    check_id: str
    description: str
    status: str
    witness: dict[str, str] | None = None

    @property
    def passed(self) -> bool:
        return self.status in (PASS, QUOTIENT_PASS)

    def to_json_obj(self) -> dict:
        obj = {
            "check_id": self.check_id,
            "description": self.description,
            "status": self.status,
        }
        if self.witness is not None:
            obj["witness"] = dict(self.witness)
        return obj


class VerificationReport(NamedTuple):
    suite: str
    checks: tuple[Check, ...] = ()

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def sorted_checks(self) -> tuple[Check, ...]:
        return tuple(sorted(self.checks, key=lambda c: c.check_id))

    def to_json_obj(self) -> list[dict]:
        return [c.to_json_obj() for c in self.sorted_checks()]

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_obj(), indent=indent)

    def summary(self) -> str:
        done = sum(c.passed for c in self.checks)
        return f"{self.suite}: {done}/{len(self.checks)} checks passed"


def merge_reports(suite: str, reports: Iterable[VerificationReport]) -> VerificationReport:
    """One report holding the checks of ``reports``, in order."""
    return VerificationReport(suite, tuple(c for r in reports for c in r.checks))


def equality_check(
    check_id: str,
    description: str,
    left,
    right,
    quotient_level: bool = False,
) -> Check:
    """Compare two values, attaching both sides as the witness on failure."""
    if left == right:
        return Check(check_id, description, QUOTIENT_PASS if quotient_level else PASS)
    return Check(
        check_id,
        description,
        FAIL,
        witness={"left": str(left), "right": str(right)},
    )


def condition_check(check_id: str, description: str, holds: bool, witness: str = "") -> Check:
    if holds:
        return Check(check_id, description, PASS)
    return Check(check_id, description, FAIL, witness={"left": witness, "right": ""} if witness else None)
