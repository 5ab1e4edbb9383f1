"""Structured pass/fail records for named verification checks.

Every suite hands its checks to ``run_checks`` as rows

    (check_id, description, holds, left=None, right="", status=PASS)

and ``run_checks`` is the one place that turns rows into ``Check``
values and a ``VerificationReport``.  A row that holds gets its
``status`` (``PASS``, or ``QUOTIENT_PASS`` for a check made only in a
quotient).  A row that fails gets ``FAIL`` and one witness rule: the two
sides ``{"left": str(left), "right": str(right)}`` when ``left`` is not
None, and no witness otherwise.  ``str`` runs only on failure, so a
passing row never formats its sides.  An equality row passes
``*equal(left, right)``.
"""

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
        """True iff there is at least one check and every check passed:
        a report over no checks proves nothing."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def sorted_checks(self) -> tuple[Check, ...]:
        return tuple(sorted(self.checks, key=lambda c: c.check_id))

    def to_json_obj(self) -> list[dict]:
        return [c.to_json_obj() for c in self.sorted_checks()]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    def summary(self) -> str:
        done = sum(c.passed for c in self.checks)
        return f"{self.suite}: {done}/{len(self.checks)} checks passed"


def _check(
    check_id: str, description: str, holds: bool, left=None, right="", status: str = PASS
) -> Check:
    if holds:
        return Check(check_id, description, status)
    witness = None if left is None else {"left": str(left), "right": str(right)}
    return Check(check_id, description, FAIL, witness)


def run_checks(suite: str, rows: Iterable[tuple]) -> VerificationReport:
    """The report of ``suite``: one check per row, in order."""
    return VerificationReport(suite, tuple(_check(*row) for row in rows))


def equal(left, right) -> tuple:
    """The ``(holds, left, right)`` part of a row comparing two values."""
    return left == right, left, right


def merge_reports(suite: str, reports: Iterable[VerificationReport]) -> VerificationReport:
    """One report holding the checks of ``reports``, in order."""
    return VerificationReport(suite, tuple(c for r in reports for c in r.checks))
