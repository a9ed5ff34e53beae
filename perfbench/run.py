"""Cold-process benchmark of the alexpoly CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every op (one ``alexpoly`` CLI call) runs in a fresh interpreter that has
run no other op, one process at a time (closed loop, one client), and its
output is checked against hand-written references and against its own
first output in the run.  A warm loop would measure a program no CLI user
runs: module caches make a repeated ``cyclo "t^120 + 2"`` many times faster
than the first call.

A run makes one pass over the workload's ops, then repeats the shorter
ops while their last time still fits before ``--seconds`` is up.  Times
are scaled to a reference core speed (see gauge.py).  The last line of
stdout is one JSON object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer split from a traced process
paired with an untraced one for every op.  A readable summary with sample
counts and unscaled times goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from child import CALL_COUNTS, SIZE_COUNTS, SPANS
from gauge import speed_factor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

OP_CAP_S = 60.0        # an op still running after this is killed and failed
RUN_LIMIT_S = 150.0    # no op may run past this point of the whole run
SETUP_SAMPLES = 9

PER_LAYER = ([f"{name}.{kind}" for name in SPANS for kind in ("calls", "self_s")]
             + [f"{name}.calls" for name in CALL_COUNTS] + list(SIZE_COUNTS))


@dataclass
class Samples:
    """Everything measured for one op across a run; times are scaled."""
    op: workloads.Op
    op_s: list[float] = field(default_factory=list)
    raw_op_s: list[float] = field(default_factory=list)
    traced_op_s: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    stdout: str | None = None
    wall_s: float = 0.0     # last wall time of the op, or op pair when tracing


class Run:
    def __init__(self, ops: list[workloads.Op], started: float):
        self.samples = [Samples(op) for op in ops]
        self.started = started
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0

    def child(self, s: Samples, trace: bool) -> dict | None:
        """Run one op in a fresh process and check it; None when it failed."""
        self.attempted += 1
        spec = json.dumps({"src": str(SRC), "argv": list(s.op.argv), "trace": trace})
        cap = min(OP_CAP_S, RUN_LIMIT_S - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), spec],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(cap, 0.1))
        except subprocess.TimeoutExpired:
            return self.fail(s, f"killed after {cap:.1f} s")
        if proc.returncode != 0:
            return self.fail(s, f"op process exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        problem = s.op.check(rec["code"], rec["stdout"])
        if problem is None and s.stdout is not None and rec["stdout"] != s.stdout:
            problem = "stdout differs from the first run of this op"
        if problem is not None:
            return self.fail(s, problem)
        s.stdout = rec["stdout"]
        if not trace:
            self.peak_rss_kb = max(self.peak_rss_kb, rec["maxrss_kb"])
        return rec

    def fail(self, s: Samples, why: str) -> None:
        self.failures.append(f"{s.op.name}: {why}")
        return None

    def measure(self, s: Samples, trace: bool) -> None:
        start = time.perf_counter()
        rec = self.child(s, trace=False)
        if rec is not None:
            s.op_s.append(rec["op_s"] * speed_factor(rec["calibration_s"]))
            s.raw_op_s.append(rec["op_s"])
        if trace:
            rec = self.child(s, trace=True)
            if rec is not None:
                factor = speed_factor(rec["calibration_s"])
                s.traced_op_s.append(rec["op_s"] * factor)
                s.traces.append({k: v * factor if k.endswith("_s") else v
                                 for k, v in rec["trace"].items()})
        s.wall_s = time.perf_counter() - start

    def passes(self, seconds: float, trace: bool) -> int:
        """One pass over every op, then passes over the ops that took at
        most a quarter of the run, each op run only while its last time
        still fits.  Longer ops are measured once, so a run's sample mix
        does not hinge on whether one of them fits again."""
        deadline = time.perf_counter() + seconds
        for s in self.samples:
            self.measure(s, trace)
        repeat = [s for s in self.samples if s.wall_s <= seconds / 4]
        count = 1
        while any(time.perf_counter() + s.wall_s <= deadline for s in repeat):
            for s in repeat:
                if time.perf_counter() + s.wall_s <= deadline:
                    self.measure(s, trace)
            count += 1
        return count


SETUP_PROBE = """\
import sys, time
sys.path.insert(0, {src!r})
import alexpoly.cli
start = time.perf_counter()
sys.path.insert(0, {bench!r})
from gauge import calibrate
print(calibrate(), time.perf_counter() - start)
"""


def setup_times() -> tuple[list[float], list[float]]:
    """Scaled and unscaled wall times from a fresh interpreter to
    alexpoly.cli imported; the gauge run after the import is not counted."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH))
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True)
        wall = time.perf_counter() - start
        calibration, extra = map(float, proc.stdout.split())
        if i:   # the first import also writes the bytecode caches
            raw.append(wall - extra)
            scaled.append((wall - extra) * speed_factor(calibration))
    return scaled, raw


def throughput(per_op: list[list[float]]) -> float:
    """Ops per second of summed op time, each op at its median time."""
    return len(per_op) / sum(statistics.median(v) for v in per_op)


def end_to_end(run: Run, setup: list[float]) -> dict[str, tuple[float, str]]:
    """The user-visible metrics; op_ms.p50 is the median of the inputs'
    medians, since over all samples the median falls between two inputs'
    clusters of samples and jumps between them from run to run."""
    per_op = [s.op_s for s in run.samples if s.op_s]
    medians = [statistics.median(v) for v in per_op]
    return {
        "ops_per_s": (throughput(per_op), "1/s"),
        "op_ms.p50": (1000 * statistics.median(medians), "ms"),
        "op_ms.geomean": (1000 * math.exp(statistics.fmean(map(math.log, medians))), "ms"),
        "op_ms.slowest": (1000 * max(medians), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (run.peak_rss_kb / 1024, "MB"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-layer totals of one pass: each op at its median traced sample."""
    traced = [s for s in run.samples if s.traces]
    out = {}
    for name in PER_LAYER:
        total = sum(statistics.median(t[name] for t in s.traces) for s in traced)
        out[name] = (total, "s" if name.endswith("_s") else "count")
    plain = throughput([s.op_s for s in traced if s.op_s])
    with_trace = throughput([s.traced_op_s for s in traced])
    out["trace.untraced_ops_per_s"] = (plain, "1/s")
    out["trace.traced_ops_per_s"] = (with_trace, "1/s")
    out["trace.overhead_pct"] = (100 * (plain / with_trace - 1), "%")
    return out


TRACE_COUNTS = ("braid.zvk.relators", "fox.rows", "ring.gcd.calls",
                "linkpoly.hat_delta.calls", "curve.boundary_delta.calls",
                "ring.cyclotomic_polynomial.calls")


def _trace_line(traces: list[dict]) -> str:
    """One op's three largest self times and its nonzero headline counts."""
    median = {k: statistics.median(t[k] for t in traces) for k in traces[0]}
    top = sorted((k for k in median if k.endswith(".self_s")), key=median.get,
                 reverse=True)[:3]
    return ", ".join([f"{k} {median[k]:.4f} s" for k in top]
                     + [f"{k} {median[k]:g}" for k in TRACE_COUNTS if median[k]])


def summary(run: Run, passes: int, metrics: dict, raw_setup: list[float] | None) -> str:
    lines = [f"{passes} passes, {run.attempted} op processes, "
             f"{len(run.failures)} failed (fail_ratio "
             f"{len(run.failures) / max(run.attempted, 1):.4f})",
             "   scaled ms   unscaled ms  samples  op"]
    for s in run.samples:
        if s.op_s:
            lines.append(f"  {1000 * statistics.median(s.op_s):10.2f}  "
                         f"{1000 * statistics.median(s.raw_op_s):12.2f}  "
                         f"{len(s.op_s):7d}  {s.op.name}")
    if raw_setup:
        lines.append(f"  setup_s over {len(raw_setup)} samples, unscaled median "
                     f"{statistics.median(raw_setup):.4f} s")
    for s in run.samples:
        if s.traces:
            lines.append(f"  traced {s.op.name}: {_trace_line(s.traces)}")
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"  FAILED {f}" for f in run.failures]
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    if not (SRC / "alexpoly" / "cli.py").is_file() or not (ROOT / "data").is_dir():
        print(f"error: no alexpoly sources under {SRC} or no data/ beside them",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as work:
        ops = workloads.build(args.workload, args.seed, ROOT, Path(work))
        setup, raw_setup = (None, None) if args.trace else setup_times()
        run = Run(ops, started)
        passes = run.passes(args.seconds, trace=bool(args.trace))
    metrics = {}
    if args.trace and any(s.traces for s in run.samples):
        metrics = per_layer(run)
    elif not args.trace and any(s.op_s for s in run.samples):
        metrics = end_to_end(run, setup)
    print(summary(run, passes, metrics, raw_setup), file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
