"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workload cyclo --seeds 1-10 [--trace 1] [--out FILE]

Runs run.py once per seed, one run at a time, with ``run_seconds`` from
BENCHMARK.json.  For each metric it prints the median of the runs and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--out`` the raw per-run results and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(runs: list[dict]) -> dict[str, dict]:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                 "min": min(values), "max": max(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3,
                         spread=(q3 - q1) / median if median else None)
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        result["seed"] = seed
        result["summary"] = proc.stderr.splitlines()
        runs.append(result)
        print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
              f"{result['attempted']} ops, {result['failed']} failed", file=sys.stderr)
    summary = summarise(runs)
    for name, s in summary.items():
        spread = s.get("spread")
        print(f"{name:40s} median {s['median']:12.6g} {s['unit']:6s} "
              f"spread {'-' if spread is None else f'{spread:.4f}'}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "trace": args.trace,
            "run_seconds": seconds, "runs": runs, "summary": summary,
        }, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
