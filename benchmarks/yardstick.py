"""A fixed reference kernel that measures the machine's current speed.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU
Xeon VM the same task ran up to 1.7x slower while neighbours were busy,
and the speed changed within a second.  Each task is therefore bracketed
by timings of a yardstick, and its latency t is reported scaled to a
nominal machine speed, t * nominal / (mean of the two yardstick times).
Timings taken next to the task track it far better than a run-wide figure.
In-process workloads use this kernel; the ``cli`` workload times a child
interpreter instead (see cliload.py).  Neither uses nwaybs code, so a
change to the package moves the scaled figures as it moves the raw ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.003  # between the 2.3 ms and 4 ms measured on a 2 GHz Xeon VM, fast and slow


def kernel() -> float:
    """Interpreter work mixed with small numpy calls, like the package's loops."""
    acc = 0.0
    a = np.arange(16.0)
    b = np.ones((4, 4), dtype=complex)
    for i in range(300):
        acc += float(np.abs(a * 0.5 + i).sum()) * 1e-9
        c = b @ b
        acc += c[0, 0].real * 1e-12
        acc += math.sin(i) * (i % 7)
        d = {"k": i, "j": [i, i + 1]}
        acc += d["j"][1] * 1e-12
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
