"""Fixed reference kernel that every timing is normalised against.

The kernel is pure Python float work of the same kind kappamath does (a
function call per step, a square root, list appends, a reduction).  It
imports nothing from kappamath, so no change to the library can change it.
Its run time follows the machine's current speed, and dividing a task's
wall time by it cancels the drift in CPU speed that a shared host shows
between and within runs.
"""

from __future__ import annotations

import math
import time

# Nominal reference time in ms.  A normalised time is the time the task
# would take on a machine that runs the reference kernel in exactly R_NOM_MS.
R_NOM_MS = 3.0

_STEPS = 15000


def _step(x: float, h: float, c: float) -> float:
    return x - h * x / math.sqrt(1.0 + c * x * x)


def reference_kernel() -> float:
    xs = []
    x = 1.0
    for _ in range(_STEPS):
        x = _step(x, 1e-3, 0.81)
        xs.append(x)
    acc = 0.0
    for v in xs:
        acc += v * v
    return acc


def time_reference() -> float:
    """Wall time of one reference-kernel run, in seconds."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def normalised(seconds: float, ref_before: float, ref_after: float) -> float:
    """A time scaled to the nominal machine: seconds * R_NOM / mean(refs)."""
    return seconds * (R_NOM_MS / 1e3) / (0.5 * (ref_before + ref_after))
