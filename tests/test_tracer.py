"""The benchmark tracer must find every name it patches in the package.

``perfbench/tracer.install`` rebinds functions and methods across the
braidact modules and raises when one is missing, so a rename in the
package would break the benchmark's traced runs.  It patches modules
process-wide, hence the subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from tracer import Tracer, install
from braidact import FreeWord, GenusContext, braids, twist_automorphism
tracer = Tracer()
install(tracer)
assert braids.braids_equal(braids.BraidWord(3, (1, 2, 1)), braids.BraidWord(3, (2, 1, 2)))
print(" ".join(sorted(tracer.totals())))
built = tracer.totals().get("endo.automorphism", {}).get("calls", 0)
applied = tracer.totals().get("endo.apply", {}).get("calls", 0)
twist_automorphism(GenusContext(2), 1).apply(FreeWord(4, (3,)))
print(built, tracer.totals()["endo.automorphism"]["calls"] - built)
print(tracer.totals()["endo.apply"]["calls"] - applied)
"""


def test_benchmark_tracer_installs_on_the_package():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names, built, applied = proc.stdout.splitlines()
    traced = names.split()
    assert "braids.braids_equal" in traced
    assert "kernels.substitute" in traced
    # each evaluation, an Artin action per braid and then one twist, is
    # one call of the one traced Automorphism constructor
    assert built == "2 1"
    # an automorphism applies through the one traced Endomorphism.apply
    assert applied == "1"


SUITES_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from tracer import Tracer, install
from braidact import cli
tracer = Tracer()
install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "all", "--genus", "2", "--json"])
print(json.dumps({"code": code, "totals": tracer.totals()}))
"""

SUB_SUITES = (
    "action.verify_u_braid_relations",
    "action.verify_center_vanishes",
    "symplectic.verify_symplectic_generators",
    "symplectic.verify_sl2_braid_relation",
    "symplectic.verify_symplectic_random",
    "sp4.verify_all",
    "monoid.check_omega_alphabet",
    "monoid.free_monoid_oracle",
    "monoid.normal_form_sweep",
    "monoid.section",
)


def test_every_sub_suite_of_verify_all_is_traced():
    """A suite function bound at import time escapes the tracer's
    rebinding, and its per-layer metrics would silently read 0."""
    proc = subprocess.run(
        [sys.executable, "-c", SUITES_SCRIPT, str(ROOT)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 1  # criteria 7 to 9 fail by design
    totals = result["totals"]
    assert [name for name in SUB_SUITES if totals.get(name, {}).get("calls", 0) < 1] == []
    assert totals["report.merge_reports"]["calls"] == 4
