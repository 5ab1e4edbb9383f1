#!/usr/bin/env python3
"""braidact benchmark: three seeded workloads, checked against known answers.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-g4 --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one process at a time):

- ``verify-g4``: ``braidact verify all --genus 4 --max-len 5`` through
  ``cli.main``; an operation is one command, checked against the recorded
  verdict table (13 ``sp4`` checks fail by design).
- ``equal-b6``: 1,500 ``braids_equal`` queries on 6 strands, 10-30 letters
  per word, half equal by construction and half certified unequal.
- ``shadow-g8``: 500 random braids on 18 strands; an operation is
  ``braid_matrix`` at genus 8, ``is_symplectic`` and ``det() == 1``.

``--trace 0`` reports the end-to-end metrics.  Set-up is sampled in
``SETUP_SAMPLES`` fresh processes, one of which also runs the timed
phase: whole passes over the inputs until ``--seconds`` have passed.
``wall_s`` is the median time of one pass (one command on verify-g4,
all queries or braids on the others); latencies are per operation.

``--trace 1`` runs one untraced and one traced pass, each in a fresh
process, and reports the per-layer metrics of the traced one, counted
over its set-up and its pass, plus the tracing overhead.

The last line of stdout is the result object; the line before it gives
the run's provenance.  A copy with the provenance, and for traced runs
the spans, is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import layer_metrics  # noqa: E402

SETUP_SAMPLES = 7
# Enough operations that the p99 latency has at least ten samples beyond it.
MIN_OPS = {"verify-g4": 1, "equal-b6": 1000, "shadow-g8": 1000}
WORKER_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="braidact benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def spawn(workload: str, data: str, *flags: str) -> tuple[float, dict | None]:
    """Run one worker; return (spawn-to-READY seconds, its result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, *flags]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        proc.stdin.write(data)
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(flags)} exited with {proc.returncode}")
    return setup_s, (json.loads(rest) if rest.strip() else None)


def check_outputs(workload: str, key, res: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) for every operation of every pass."""
    attempted = failed = 0
    notes: list[str] = []
    if workload == "verify-g4":
        expected_exit = 1 if "fail" in key.values() else 0
    for p in res["passes"]:
        notes.extend(p["errors"])
        for i, answer in enumerate(p["answers"]):
            attempted += 1
            if answer is None:
                failed += 1
            elif workload == "verify-g4":
                got = answer["verdicts"]
                wrong = sorted(c for c, status in key.items() if got.get(c) != status)
                extra = sorted(set(got) - set(key))
                if extra:
                    notes.append(f"extra check ids (not counted): {extra}")
                if wrong or answer["exit"] != expected_exit:
                    failed += 1
                    notes.append(f"exit {answer['exit']}, missing or changed verdicts: {wrong}")
            elif workload == "equal-b6":
                if answer is not key[i]:
                    failed += 1
                    notes.append(f"query {i}: answered {answer}, expected {key[i]}")
            elif answer[0] is not True:
                failed += 1
                notes.append(f"braid {i}: not symplectic with determinant 1")
            elif answer[1] != key[i]:
                failed += 1
                notes.append(f"braid {i}: matrix differs from the reference")
    for i, ok in res.get("cross_check", {}).items():
        attempted += 1
        if not ok:
            failed += 1
            notes.append(f"braid {i}: matrix differs from the abelianized action")
    return attempted, failed, notes


def end_to_end(setups: list[float], res: dict) -> dict:
    walls = [p["wall_s"] for p in res["passes"]]
    lat = res["latency_ms"]
    ops = len(lat)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (ops / sum(walls), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p99_ms": (statistics.quantiles(lat, n=100, method="inclusive")[98] if ops > 1 else lat[0], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def closed_form_checks(workload: str, traced: dict) -> list[str]:
    """Counters of the traced pass that must equal a known value."""
    before = traced["trace"]["after_setup"]
    after = traced["trace"]["after_pass"]

    def delta(kind: str, key: str) -> float:
        if kind == "counter":
            return after["counters"].get(key, 0) - before["counters"].get(key, 0)
        return after["totals"].get(key, {}).get("calls", 0) - before["totals"].get(key, {}).get("calls", 0)

    checks = []
    if workload == "verify-g4":
        size = workloads.VERIFY_GENUS + 2
        section_len = min(4, workloads.VERIFY_MAX_LEN)
        expect = sum(size ** n for n in range(workloads.VERIFY_MAX_LEN + 1))
        expect += sum(size ** n for n in range(section_len + 1))
        checks.append(("monoid.words_enumerated", delta("counter", "monoid.words_enumerated"), expect))
    elif workload == "equal-b6":
        checks.append(("braids.artin_action.letters",
                       delta("counter", "braids.artin_action.letters"),
                       traced["trace"]["expected_oracle_letters"]))
        checks.append(("braids.braids_equal.calls", delta("calls", "braids.braids_equal"),
                       workloads.EQUAL_QUERIES))
    else:
        checks.append(("symplectic.braid_matrix.calls", delta("calls", "symplectic.braid_matrix"),
                       workloads.SHADOW_BRAIDS))
    return [f"{name} = {got}, expected {want}" for name, got, want in checks if got != want]


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "braidact" / "__init__.py").is_file():
        print(f"error: no braidact package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = args.workload
    payload, key = workloads.make_inputs(workload, args.seed)
    data = json.dumps(payload)

    if args.trace == 0:
        # Set-up samples on both sides of the timed phase, so that a slow
        # spell of a shared machine does not fall on all of them.
        before = SETUP_SAMPLES // 2
        setups = [spawn(workload, data, "--setup-only")[0] for _ in range(before)]
        setup_s, res = spawn(workload, data, "--seconds", str(args.seconds),
                             "--min-ops", str(MIN_OPS[workload]))
        setups.append(setup_s)
        setups += [spawn(workload, data, "--setup-only")[0]
                   for _ in range(SETUP_SAMPLES - 1 - before)]
        attempted, failed, notes = check_outputs(workload, key, res)
        metrics = end_to_end(setups, res)
        self_check_errors: list[str] = []
        trace_detail = None
    else:
        _, base = spawn(workload, data)
        _, res = spawn(workload, data, "--trace")
        attempted = failed = 0
        notes = []
        for r in (base, res):
            a, f, n = check_outputs(workload, key, r)
            attempted, failed = attempted + a, failed + f
            notes.extend(n)
        traced_wall = res["passes"][0]["wall_s"]
        untraced_wall = base["passes"][0]["wall_s"]
        metrics = layer_metrics(res["trace"]["after_pass"])
        metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
        metrics["trace.traced_wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        self_check_errors = closed_form_checks(workload, res)
        trace_detail = {k: res["trace"][k] for k in ("spans", "by_parent")}

    provenance = {
        "workload": workload,
        "seed": args.seed,
        "genus": workloads.GENUS[workload],
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": res["backend"],
        "braidact_version": res["version"],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "passes": len(res["passes"]),
        "operations": len(res["latency_ms"]),
    }
    correct = failed == 0 and not self_check_errors
    for line in notes[:20] + self_check_errors:
        print(line, file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"provenance": provenance, "notes": notes[:100],
              "self_check_errors": self_check_errors, **result}
    if trace_detail is not None:
        record.update(trace_detail)
    with open(out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
