"""A gauge of the core's current speed, used to report times at a reference speed.

On a shared host the same op can take 1.7 times longer from one second to
the next, as other tenants load the physical core.  Every measured process
therefore also times a fixed piece of polynomial arithmetic (Fractions,
dicts and tuples, like the package's own work) right before the op, every
quarter second during it (from a timer signal; the gauge's own time is
taken out of the op's) and right after it.  Each op time is reported
scaled by ``REFERENCE_S / mean gauge time``: the time the op would take on
a core that runs the gauge in ``REFERENCE_S``.  The gauge is the
benchmark's own code, so a change to the package moves the scaled times as
it moves the raw ones.
"""

from __future__ import annotations

import time

from reference import poly, power

# the gauge's median time on the machine the benchmark was defined on
# (2 vCPUs at 2.0 GHz, Python 3.11.7); scaled times read like raw times there
REFERENCE_S = 0.006

_BASE = poly((1, {0: 1}), (-1, {1: 1}), (2, {}))
_POWER = 10


def calibrate() -> float:
    """Seconds the gauge takes now."""
    start = time.perf_counter()
    power(_BASE, _POWER)
    return time.perf_counter() - start


def speed_factor(calibration_s: float) -> float:
    """Multiply a time measured next to this calibration to scale it."""
    return REFERENCE_S / calibration_s
