#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise the saved results.

    python3 perfbench/spread.py run --workload equal-b6 --seeds 1-10 --seconds 20
    python3 perfbench/spread.py summarize perfbench/results

``run`` calls ``run.py`` once per seed, one run at a time, then summarises
the runs it made.  ``summarize`` prints, per workload and metric, the
median, the quartiles and the spread (interquartile range over median)
of every saved result, beside the metric's bound from ``BENCHMARK.json``.
Results pooled from different kernel backends or Python versions are
flagged as not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bounds() -> dict[str, float]:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def load(paths: list[Path]) -> list[dict]:
    files: list[Path] = []
    for p in paths:
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    return [json.loads(f.read_text()) for f in files]


def group(records: list[dict]) -> dict[tuple, list[dict]]:
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for r in records:
        prov = r["provenance"]
        groups[(prov["workload"], prov["trace"])].append(r)
    return groups


def comparable_key(r: dict) -> tuple[str, str]:
    prov = r["provenance"]
    return prov["kernel_backend"], prov["python"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records: list[dict]) -> int:
    limits = bounds()
    for (workload, trace), runs in sorted(group(records).items()):
        keys = {comparable_key(r) for r in runs}
        flag = "" if len(keys) == 1 else f"  NOT COMPARABLE: {sorted(keys)}"
        bad = sum(not r["correct"] for r in runs)
        print(f"{workload} trace={trace}: {len(runs)} runs, {bad} incorrect{flag}")
        metrics = runs[0]["metrics"]
        for name in metrics:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:42s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f}"
            if name in limits:
                line += f"  bound {limits[name]:.3f} ({spread / limits[name]:.2f} of it)"
            print(line)
    return 0


def run(args) -> int:
    records = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        provenance, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
        records.append({**provenance, **result})
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return summarize(records)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=None)
    r.add_argument("--trace", type=int, default=0)
    s = sub.add_parser("summarize")
    s.add_argument("paths", nargs="+", type=Path)
    args = p.parse_args(argv)
    if args.cmd == "run":
        if args.seconds is None:
            args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        return run(args)
    return summarize(load(args.paths))


if __name__ == "__main__":
    sys.exit(main())
