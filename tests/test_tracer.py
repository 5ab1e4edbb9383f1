"""The benchmark tracer must find every name it patches in the package.

``perfbench/tracer.install`` rebinds functions and methods across the
braidact modules and raises when one is missing, so a rename in the
package would break the benchmark's traced runs.  It patches modules
process-wide, hence the subprocess.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from tracer import Tracer, install
from braidact import braids
tracer = Tracer()
install(tracer)
assert braids.braids_equal(braids.BraidWord(3, (1, 2, 1)), braids.BraidWord(3, (2, 1, 2)))
print(" ".join(sorted(tracer.totals())))
"""


def test_benchmark_tracer_installs_on_the_package():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    traced = proc.stdout.split()
    assert "braids.braids_equal" in traced
    assert "kernels.substitute" in traced
