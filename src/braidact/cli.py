"""Command-line front end.

Subcommands: ``apply`` (act on a free-group word by a braid), ``matrix``
(abelianized image of a braid), ``equal`` (exact braid equality),
``parse`` (echo a word in canonical form), and ``verify`` (run a named
check suite).  Exit codes: 0 success / equal / all checks passed,
1 verified false, 2 usage or parse error, 3 resource cap or work budget
exceeded, 141 (128 + SIGPIPE) the reader of stdout closed the pipe.
The work budgets are checked before any work starts:
``--genus`` may be at most ``MAX_GENUS`` on ``apply``, ``matrix`` and
every ``verify`` suite but ``sp4``; ``equal --strands`` may be at most
``MAX_EQUAL_STRANDS``; and the omega balls of ``verify monoid`` and
``verify all`` may hold at most ``MAX_BALL_WORDS`` words together.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import lru_cache
from typing import NoReturn

from . import monoid, sp4, symplectic
from .action import GenusContext, twist_table, verify_center_vanishes, verify_u_braid_relations
from .braids import braids_equal, format_braid, parse_braid
from .endo import DEFAULT_LENGTH_CAP
from .errors import BraidactError, ResourceLimitError, UsageError, WorkBudgetError
from .report import PASS, QUOTIENT_PASS, VerificationReport, merge_reports
from .monoid import MAX_BALL_WORDS
from .symplectic import DEFAULT_SEED, braid_matrix
from .words import format_word, parse_word

# `apply`, `matrix` and `verify` build the 2g+1 twists of the genus from
# their sparse moves, one table that both the word and the matrix folds
# read (a fresh `matrix 1 --genus 32 --json` takes 0.084 s, the median of
# 8 runs, in 15 MB), but `verify symplectic` multiplies 500 dense 2g x 2g
# matrices, cubic in --genus: on 2 vCPUs, `verify all
# --genus 32 --max-len 3` took 12.1 to 13.9 s (median 13.2 s of 5 runs)
# in 25 MB, and `verify monoid --genus 2000 --max-len 0` did not finish
# in two minutes.  (`verify sp4` ignores --genus.)
MAX_GENUS = 32

# `equal` builds one Artin generator per crossing from its two moves, and
# checks each by folding two letters from the --strands identity images,
# so its set-up still grows with the square of --strands: in process,
# about 0.03 s at 256 strands and 0.4 s at 1,024; a fresh `equal --strands 256`
# takes about 0.1 s in 15 MB (2-vCPU x86_64 virtual machine, CPython 3.11).
MAX_EQUAL_STRANDS = 256

GENUS_HELP = f"genus g >= 1, at most {MAX_GENUS} (larger exits 3)"

SUITES = ("relations", "center", "symplectic", "sp4", "monoid", "all")


def _print_report(report: VerificationReport, as_json: bool) -> int:
    if as_json:
        print(report.to_json())
    else:
        for check in report.sorted_checks():
            tag = {PASS: "PASS ", QUOTIENT_PASS: "QPASS"}.get(check.status, "FAIL ")
            print(f"{tag}  {check.check_id}  {check.description}")
            if check.witness:
                print(f"       left:  {check.witness.get('left', '')}")
                print(f"       right: {check.witness.get('right', '')}")
        print(report.summary())
    return 0 if report.all_passed() else 1


def _budgeted_genus(g: int) -> GenusContext:
    """The genus of a command that builds its twist tables, within MAX_GENUS."""
    ctx = GenusContext(g)
    if ctx.g > MAX_GENUS:
        raise WorkBudgetError(f"--genus {ctx.g} is over the budget of genus {MAX_GENUS}")
    return ctx


def _run_suite(name: str, ctx: GenusContext, max_len: int, seed: int) -> VerificationReport:
    if name == "relations":
        return verify_u_braid_relations(ctx)
    if name == "center":
        return verify_center_vanishes(ctx)
    if name == "symplectic":
        return symplectic.verify_symplectic(ctx, seed)
    if name == "sp4":
        return sp4.verify_all()
    if name == "monoid":
        return monoid.verify_monoid(ctx, max_len)
    if name == "all":
        return merge_reports("all", [_run_suite(s, ctx, max_len, seed) for s in SUITES[:-1]])
    raise BraidactError(f"unknown suite {name!r}")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one ``error:`` line on stderr
    and exits 2, like every other usage error, and lets a failed write
    (argparse ignores one) reach ``main``; its subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")

    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="braidact",
        description="Braid actions on free groups and their symplectic shadows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", help="act on a free-group word by a braid")
    p_apply.add_argument("braid", help="braid word, e.g. '1 -2' or 'DELTA6'")
    p_apply.add_argument("word", help="free-group word, e.g. 'a1 B2'")
    p_apply.add_argument("--genus", type=int, default=2, help=GENUS_HELP)
    p_apply.add_argument("--max-len", type=int, default=DEFAULT_LENGTH_CAP, help="word length cap")
    p_apply.add_argument("--json", action="store_true")

    p_matrix = sub.add_parser("matrix", help="abelianized image of a braid")
    p_matrix.add_argument("braid")
    p_matrix.add_argument("--genus", type=int, default=2, help=GENUS_HELP)
    p_matrix.add_argument("--json", action="store_true")

    p_equal = sub.add_parser("equal", help="decide equality of two braid words")
    p_equal.add_argument("braid1")
    p_equal.add_argument("braid2")
    p_equal.add_argument(
        "--strands",
        type=int,
        default=6,
        help=f"number of strands, at most {MAX_EQUAL_STRANDS} (larger exits 3)",
    )
    p_equal.add_argument("--json", action="store_true")

    p_parse = sub.add_parser("parse", help="echo a word in canonical form")
    p_parse.add_argument("kind", choices=("word", "braid", "omega"))
    p_parse.add_argument("text")
    p_parse.add_argument("--genus", type=int, default=2)
    p_parse.add_argument("--strands", type=int, default=6)
    p_parse.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument(
        "--genus", type=int, default=2, help=GENUS_HELP + "; verify sp4 ignores it"
    )
    p_verify.add_argument(
        "--max-len",
        type=int,
        default=5,
        help="enumeration bound for the monoid normal-form sweep; the omega"
        f" balls may hold at most {MAX_BALL_WORDS} words (more exits 3)",
    )
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            status = _run(_build_parser().parse_args(argv))
        except SystemExit:
            # argparse exits after --help: meet a closed pipe here, not at exit.
            sys.stdout.flush()
            raise
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout is gone.  Point stdout at devnull so the
        # flush at exit cannot fail again, and report SIGPIPE as a shell
        # does: 1 would read as a verdict.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


def _run(args: argparse.Namespace) -> int:
    try:
        if args.command == "apply":
            cap = args.max_len
            if cap < 1:
                raise UsageError(f"--max-len must be at least 1, got {cap}")
            ctx = _budgeted_genus(args.genus)
            braid = parse_braid(args.braid, ctx.strands)
            word = parse_word(args.word, ctx.rank)
            image = twist_table(ctx.g).automorphism(braid.letters, cap).apply(word, cap)
            text = format_word(image)
            print(json.dumps({"result": text}) if args.json else text)
            return 0

        if args.command == "matrix":
            ctx = _budgeted_genus(args.genus)
            braid = parse_braid(args.braid, ctx.strands)
            m = braid_matrix(ctx, braid)
            print(m.to_json() if args.json else m)
            return 0

        if args.command == "equal":
            if args.strands > MAX_EQUAL_STRANDS:
                raise WorkBudgetError(
                    f"--strands {args.strands} is over the budget of "
                    f"{MAX_EQUAL_STRANDS} strands"
                )
            b1 = parse_braid(args.braid1, args.strands)
            b2 = parse_braid(args.braid2, args.strands)
            same = braids_equal(b1, b2)
            if args.json:
                print(json.dumps({"equal": same}))
            else:
                print("equal" if same else "not equal")
            return 0 if same else 1

        if args.command == "parse":
            if args.kind == "word":
                text = format_word(parse_word(args.text, GenusContext(args.genus).rank))
            elif args.kind == "braid":
                text = format_braid(parse_braid(args.text, args.strands))
            else:
                text = monoid.format_omega(monoid.parse_omega(args.text, args.genus))
            print(json.dumps({"result": text}) if args.json else text)
            return 0

        if args.command == "verify":
            if args.max_len < 0:
                raise UsageError(f"--max-len must be at least 0, got {args.max_len}")
            ctx = GenusContext(args.genus) if args.suite == "sp4" else _budgeted_genus(args.genus)
            ball_words = monoid.ball_words(ctx.g, args.max_len) if args.suite in ("monoid", "all") else 0
            if ball_words > MAX_BALL_WORDS:
                raise WorkBudgetError(
                    f"--genus {ctx.g} --max-len {args.max_len} is over the budget of "
                    f"{MAX_BALL_WORDS} omega words"
                )
            report = _run_suite(args.suite, ctx, args.max_len, args.seed)
            # CPython frees cyclic garbage and empties its free lists only
            # in a full collection, which it starts by allocation count.
            # The prefix-shared sweeps allocate so little that, without
            # this, 54 in-process `verify all --genus 4` runs grew the
            # resident set by 2.5 MB.
            gc.collect()
            # Only now, so a run that stops with exit 2 or 3 leaves stdout empty.
            if not args.json and args.suite in ("symplectic", "all"):
                print(f"seed: {args.seed}")
            return _print_report(report, args.json)
    except (ResourceLimitError, WorkBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BraidactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
