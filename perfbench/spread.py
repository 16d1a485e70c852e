#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload graphs --seeds 1-10

Runs are sequential, one process each, with ``run_seconds`` from
BENCHMARK.json.  For every metric it prints the median over the runs and
the interquartile distance (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound; then the same for the
wall-clock times printed on the ``# wall clock`` line, which have no bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summary(xs: list[float]) -> str:
    med = statistics.median(xs)
    spread = float("nan")
    if len(xs) >= 2 and med:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
    return f"median {med:<12.6g} spread {spread:.4f}  values {[float(f'{x:.4g}') for x in xs]}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(done.stderr[-2000:], file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("# wall clock "):
                for name, x in json.loads(line[len("# wall clock "):]).items():
                    wall.setdefault(name, []).append(x)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, xs in values.items():
        print(f"{name:16s} {summary(xs)}  bound {bounds[name]}")
    for name, xs in wall.items():
        print(f"wall {name:11s} {summary(xs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
