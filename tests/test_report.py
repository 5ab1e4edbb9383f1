"""The one check runner: the pass, fail and witness rules of ``run_checks``."""

from braidact import BraidWord
from braidact.report import (
    FAIL, PASS, QUOTIENT_PASS, Check, VerificationReport, equal, over_cases, run_checks,
)


class Unformattable:
    """A side that must never be formatted: only failing rows call ``str``."""

    def __str__(self) -> str:
        raise AssertionError("a passing row formatted its sides")


# (row, the check it must give), in an order that is not sorted by id.
CASES = [
    (("z.pass", "a row that holds", True),
     Check("z.pass", "a row that holds", PASS)),
    (("y.quotient", "holds in the quotient", *equal(2, 2), QUOTIENT_PASS),
     Check("y.quotient", "holds in the quotient", QUOTIENT_PASS)),
    (("x.unformatted", "passing sides are not formatted", True, Unformattable(), Unformattable()),
     Check("x.unformatted", "passing sides are not formatted", PASS)),
    (("w.two-sides", "two braids that differ", *equal(BraidWord(3, (1, -2)), BraidWord(3, (2,)))),
     Check("w.two-sides", "two braids that differ", FAIL, {"left": "1 -2", "right": "2"})),
    (("v.identity-left", "the identity braid formats as ''", *equal(BraidWord(3), BraidWord(3, (1,)))),
     Check("v.identity-left", "the identity braid formats as ''", FAIL, {"left": "", "right": "1"})),
    (("u.one-side", "a condition with one side", False, 7),
     Check("u.one-side", "a condition with one side", FAIL, {"left": "7", "right": ""})),
    (("t.no-sides", "a condition with no sides", False),
     Check("t.no-sides", "a condition with no sides", FAIL, None)),
    (("s.quotient-fails", "a failing quotient row", *equal(1, 2), QUOTIENT_PASS),
     Check("s.quotient-fails", "a failing quotient row", FAIL, {"left": "1", "right": "2"})),
    (("r.cases", "no case fails", *over_cases(3, "words enumerated", None)),
     Check("r.cases", "no case fails", PASS)),
    (("q.bad-case", "a case fails", *over_cases(3, "words enumerated", "2 failures")),
     Check("q.bad-case", "a case fails", FAIL, {"left": "2 failures", "right": ""})),
    (("p.no-cases", "a check over no cases", *over_cases(0, "braids checked", None)),
     Check("p.no-cases", "a check over no cases", FAIL, {"left": "no braids checked", "right": ""})),
]


def test_run_checks_applies_one_rule_per_row_in_order():
    report = run_checks("rows", (row for row, _ in CASES))
    assert report == VerificationReport("rows", tuple(check for _, check in CASES))


def test_a_report_with_no_checks_does_not_pass():
    for report in (VerificationReport("empty"), run_checks("empty", ())):
        assert not report.all_passed()
        assert report.summary().endswith("0/0 checks passed")
