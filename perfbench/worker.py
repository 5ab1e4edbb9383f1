"""One fresh benchmark process: set up, print READY, then run timed passes.

``run.py`` starts this script once per set-up sample and once per timed
phase, writes the workload inputs to its stdin, and times it from spawn
to the READY line; that interval is the set-up a command-line user pays
on every call.  Set-up covers importing braidact, parsing the inputs and
building the generator tables of the workload's genus.

After READY the process runs whole passes over the inputs, timing each
operation, and prints one JSON object with the raw outputs for the
parent to check.  It never calls ``set_length_cap`` or
``_kernels.set_backend``, which are process-global.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

perf_counter = time.perf_counter


class VerifyG4:
    """One in-process ``braidact verify all`` command per operation."""

    op_span = "bench.command"

    def __init__(self, payload):
        from braidact import BraidWord, GenusContext, braid_matrix
        from braidact import cli

        self.main = cli.main
        self.argv = payload["argv"]
        ctx = GenusContext(payload["genus"])
        braid_matrix(ctx, BraidWord(ctx.strands, ()))

    def ops(self):
        return 1

    def run(self, i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.main(list(self.argv))
        verdicts = {c["check_id"]: c["status"] for c in json.loads(out.getvalue())}
        return {"exit": code, "verdicts": verdicts}


class EqualB6:
    """One ``braids_equal`` query per operation."""

    op_span = "bench.query"

    def __init__(self, payload):
        from braidact import BraidWord, artin_action, braids_equal, parse_braid

        strands = payload["strands"]
        self.equal = braids_equal
        self.pairs = [(parse_braid(a, strands), parse_braid(b, strands)) for a, b in payload["pairs"]]
        artin_action(BraidWord(strands, tuple(range(1, strands))))

    def ops(self):
        return len(self.pairs)

    def run(self, i):
        b1, b2 = self.pairs[i]
        return self.equal(b1, b2)

    def oracle_letters(self) -> int:
        """Letters the oracle must act on: both sides of every query whose
        words differ (identical words are answered without the action)."""
        return sum(len(a) + len(b) for a, b in self.pairs if a.letters != b.letters)


class ShadowG8:
    """One braid per operation: its matrix, membership and determinant."""

    op_span = "bench.braid"

    def __init__(self, payload):
        from braidact import BraidWord, GenusContext, braid_matrix, is_symplectic, parse_braid

        self.ctx = ctx = GenusContext(payload["genus"])
        self.matrix = braid_matrix
        self.is_symplectic = is_symplectic
        self.braids = [parse_braid(text, ctx.strands) for text in payload["braids"]]
        self.cross = set(payload["cross_check"])
        self.kept = {}
        braid_matrix(ctx, BraidWord(ctx.strands, ()))

    def ops(self):
        return len(self.braids)

    def run(self, i):
        m = self.matrix(self.ctx, self.braids[i])
        ok = self.is_symplectic(m, self.ctx.g) and m.det() == 1
        if i in self.cross:
            self.kept[i] = m
        return [ok, hash(m.rows)]

    def cross_check(self) -> dict[int, bool]:
        """Each kept matrix against the abelianized free-group action."""
        from braidact import braid_automorphism

        return {
            i: braid_automorphism(self.ctx, self.braids[i]).abelianization_matrix() == m
            for i, m in sorted(self.kept.items())
        }


WORKLOADS = {"verify-g4": VerifyG4, "equal-b6": EqualB6, "shadow-g8": ShadowG8}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0,
                   help="keep running passes until this much time has passed")
    p.add_argument("--min-ops", type=int, default=0, help="run at least this many operations")
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = None
    import braidact

    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    payload = json.load(sys.stdin)
    cls = WORKLOADS[args.workload]
    work = cls(payload) if tracer is None else tracer.region("bench.setup", cls, payload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    after_setup = tracer.snapshot() if tracer else None
    run = work.run
    if tracer is not None:
        def run(i, _run=work.run, _region=tracer.region, _name=cls.op_span):
            return _region(_name, _run, i)

    def one_pass(n):
        answers = [None] * n
        errors = []
        for i in range(n):
            s = perf_counter()
            try:
                answers[i] = run(i)
            except Exception as exc:  # a failed operation, counted by the parent
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            latencies.append((perf_counter() - s) * 1e3)
        return answers, errors

    latencies: list[float] = []
    passes = []
    n = work.ops()
    begin = perf_counter()
    while True:
        s = perf_counter()
        if tracer is None:
            answers, errors = one_pass(n)
        else:
            answers, errors = tracer.region("bench.pass", one_pass, n)
        passes.append({"wall_s": perf_counter() - s, "answers": answers, "errors": errors})
        if len(latencies) >= args.min_ops and perf_counter() - begin >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "backend": braidact.kernel_backend(),
        "version": braidact.__version__,
        "passes": passes,
        "latency_ms": latencies,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["trace"] = {
            "after_setup": after_setup,
            "after_pass": tracer.snapshot(),
            "spans": tracer.spans,
            "by_parent": tracer.by_parent(),
        }
        if isinstance(work, EqualB6):
            result["trace"]["expected_oracle_letters"] = work.oracle_letters()
    # Outside the timed phase and after the trace snapshot.
    if isinstance(work, ShadowG8):
        result["cross_check"] = {str(i): ok for i, ok in work.cross_check().items()}
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
