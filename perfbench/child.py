"""One benchmark op: a fresh interpreter that imports the CLI and runs it once.

Usage (internal to run.py):  python3 child.py '{"src": ..., "argv": [...], "trace": false}'

The op's own stdout and stderr are captured in memory.  When the op has
returned, the child writes one JSON line to its real stdout holding the
exit code, the captured output, the op time (measured from after the import
to the return of ``alexpoly.cli.main``, less the gauge's own time), the
mean time of the speed gauge run before, every GAUGE_EVERY_S during and
after the op (see gauge.py), the peak RSS of the process and, when
tracing, the per-function span totals.

Tracing wraps each function in ``SPANS`` at every ``alexpoly.*`` module
attribute bound to it, so calls made through the package's own imports
(and the recursion of ``ring.gcd`` through its module global) are seen.
No file of the package is changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback

from gauge import calibrate

# metric prefix -> (module, attribute); every call opens a span
SPANS = {
    "cli.main": ("alexpoly.cli", "main"),
    "group.load_json_file": ("alexpoly.group", "load_json_file"),
    "braid.factorization_from_json": ("alexpoly.braid", "factorization_from_json"),
    "braid.validate_factorization": ("alexpoly.braid", "validate_factorization"),
    "braid.zvk_presentation": ("alexpoly.braid", "zvk_presentation"),
    "braid.closure_presentation": ("alexpoly.braid", "closure_presentation"),
    "fox.alexander_polynomial": ("alexpoly.fox", "alexander_polynomial"),
    "fox.fox_matrix": ("alexpoly.fox", "fox_matrix"),
    "minors.minor_gcd": ("alexpoly.minors", "minor_gcd"),
    "ring.gcd": ("alexpoly.ring.gcd", "gcd"),
    "ring.cyclotomic_factorization": ("alexpoly.ring.cyclotomic", "cyclotomic_factorization"),
    "linkpoly.hat_delta": ("alexpoly.linkpoly", "hat_delta"),
    "linkpoly.multivariable_delta": ("alexpoly.linkpoly", "multivariable_delta"),
    "curve.curve_from_json": ("alexpoly.curve", "curve_from_json"),
    "curve.boundary_delta": ("alexpoly.curve", "boundary_delta"),
    "verify.derive_transverse": ("alexpoly.verify", "derive_transverse"),
    "verify.check_infinity": ("alexpoly.verify", "check_infinity"),
    "verify.check_local": ("alexpoly.verify", "check_local"),
    "verify.check_l1_bounds": ("alexpoly.verify", "check_l1_bounds"),
    "verify.check_cf_ledger": ("alexpoly.verify", "check_cf_ledger"),
    "verify.check_cyclotomic": ("alexpoly.verify", "check_cyclotomic"),
}

# counted but not timed: its time stays with the caller that tried the
# candidate; recursive calls inside the function itself are not counted
CALL_COUNTS = {
    "ring.cyclotomic_polynomial": ("alexpoly.ring.cyclotomic", "cyclotomic_polynomial"),
}

GAUGE_EVERY_S = 0.25   # the speed gauge also runs this often during the op
GAUGE = "gauge"

# exact sizes read off return values
SIZE_COUNTS = ("braid.zvk.relators", "braid.zvk.letters",
               "fox.rows", "fox.cols", "fox.entry_terms")


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the op ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls = {name: 0 for name in CALL_COUNTS}
        self.results: list[tuple[str, object]] = []

    def install(self) -> None:
        for name, (module, attr) in SPANS.items():
            _rebind(module, attr, self._span(name, _lookup(module, attr)))
        for name, (module, attr) in CALL_COUNTS.items():
            _rebind(module, attr, self._counter(name, _lookup(module, attr)))

    def _span(self, name, fn):
        spans, stack, results = self.spans, self.stack, self.results
        keep = name in ("braid.zvk_presentation", "fox.fox_matrix")

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if keep:
                results.append((name, result))
            return result
        return traced

    def _counter(self, name, fn):
        depth = 0

        def counted(*args, **kwargs):
            nonlocal depth
            if depth == 0:
                self.calls[name] += 1
            depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth -= 1
        return counted

    def summary(self) -> dict[str, float]:
        """Per-function call counts and self times, plus the size counts."""
        nested = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                nested[parent] += end - start
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, start, end, _), inner in zip(self.spans, nested):
            if name == GAUGE:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - inner
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
        for name in SIZE_COUNTS:
            out[name] = 0
        for name, result in self.results:
            if name == "braid.zvk_presentation":
                relators = result[0].relators
                out["braid.zvk.relators"] += len(relators)
                out["braid.zvk.letters"] += sum(abs(e) for r in relators
                                                for _, e in r.syllables)
            else:
                out["fox.rows"] += len(result)
                out["fox.cols"] += len(result[0]) if result else 0
                out["fox.entry_terms"] += sum(len(e.terms) for row in result
                                              for e in row)
        return out


def _lookup(module: str, attr: str):
    return getattr(sys.modules[module], attr)


def _rebind(module: str, attr: str, wrapper) -> None:
    """Point every alexpoly.* attribute bound to the original at wrapper."""
    original = _lookup(module, attr)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "alexpoly"
                               or mod_name.startswith("alexpoly.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import alexpoly.cli  # noqa: F401  (the import is not part of the op time)

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    cli_main = sys.modules["alexpoly.cli"].main
    out, err = io.StringIO(), io.StringIO()
    gauges = [calibrate()]
    paused = 0.0

    def sample(signum, frame):
        nonlocal paused
        begin = time.perf_counter()
        gauges.append(calibrate())
        end = time.perf_counter()
        paused += end - begin
        if tracer is not None:   # a nested span keeps the gauge out of self times
            tracer.spans.append([GAUGE, begin, end,
                                 tracer.stack[-1] if tracer.stack else -1])

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(spec["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is exit 1 with a traceback
            traceback.print_exc()
            code = 1
    op_s = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    op_s -= paused
    gauges.append(calibrate())
    calibration_s = statistics.fmean(gauges)
    record = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "op_s": op_s,
        "calibration_s": calibration_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
