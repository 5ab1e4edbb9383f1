"""The verify-g4 benchmark's recorded answers must still hold.

The benchmark checks ``verify all --genus 4 --max-len 5 --json`` against
``perfbench/verify_g4_verdicts.json`` and, in traced runs, expects
``monoid.omega_words`` to yield a closed-form number of words, counted
through ``perfbench/tracer.py``.  Its ``kernels.*`` metrics count the
word kernels by rebinding ``_kernels.substitute`` and
``_kernels.invert_reduced``, so the package must look them up at call
time: a kernel bound where the tracer cannot rebind it would read 0
calls here instead of silently zeroing those metrics.  The count is also
taken per caller, with the fold's ``WordImages.evaluate`` traced as a
parent: other callers invert words too, so only the inversions made
inside the fold show that the fold's own lookup is live.  The tracer
rebinds package names process-wide, hence the subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from tracer import Tracer
from braidact import _kernels, cli, fold, monoid
tracer = Tracer()
tracer.patch_generator(monoid, "omega_words", "monoid.words_enumerated")
for fn in ("substitute", "invert_reduced"):
    tracer.patch_function(_kernels, fn, "kernels." + fn)
tracer.patch_method(fold.WordImages, "evaluate", "fold.WordImages.evaluate")
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["verify", "all", "--genus", "4", "--max-len", "5", "--json"])
verdicts = {c["check_id"]: c["status"] for c in json.loads(out.getvalue())}
words = tracer.counters["monoid.words_enumerated"]
totals = tracer.totals()
kernels = {fn: totals.get("kernels." + fn, {}).get("calls", 0)
           for fn in ("substitute", "invert_reduced")}
by_caller = {row["parent"]: row["calls"] for row in tracer.by_parent()
             if row["name"] == "kernels.invert_reduced"}
print(json.dumps({"exit": code, "verdicts": verdicts, "words": words, "kernels": kernels,
                  "fold_inverts": by_caller.get("fold.WordImages.evaluate", 0)}))
"""


def test_verify_g4_matches_the_benchmark_answer_key():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    expected = json.loads((ROOT / "perfbench" / "verify_g4_verdicts.json").read_text())
    assert result["verdicts"] == expected
    assert result["exit"] == 1  # 13 sp4 checks fail by design
    # the normal-form sweep's ball (length <= 5) and the section's (<= 4)
    assert result["words"] == 9331 + 1555 == 10886
    # Every folded image is substituted into, but only images read inverted
    # are inverted: the omega balls read none.
    kernels = result["kernels"]
    assert 0 < kernels["invert_reduced"] < kernels["substitute"]
    assert 0 < result["fold_inverts"] <= kernels["invert_reduced"]
