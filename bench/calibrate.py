"""A fixed calibration kernel, timed between measured calls.

The host this benchmark was built on is shared: the same pure-Python loop
runs up to 1.5x slower from one second to the next, and batches a minute
apart can differ by 40%.  Each run therefore times this kernel between its
calls and also reports its times in reference-speed seconds: the raw time
multiplied by the reference kernel time over the median kernel time
measured in the same run.

The kernel has two parts, timed separately: a scalar float loop (the kind
of work the map step, the CLI and the equilibria/normal-form calls do) and
numpy ufuncs over an array of the Newton-seed size (the ensemble and Newton
layers).  A workload is normalised by the part that resembles its own work.
The kernel does not call sirmap, so a change to sirmap moves the measured
calls and not the kernel.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: Median time of each part, in seconds, that defines reference speed
#: (measured on the 2-vCPU Intel Xeon host the benchmark was built on,
#: Python 3.11, numpy 2.4).
REFERENCE_S = {"python": 0.0021, "numpy": 0.0018}

#: Which kernel part each workload, and interpreter set-up, is scaled by.
PART = {"setup": "python", "sweep": "python", "boundaries": "python", "probe": "python", "births": "numpy"}

REPEATS = 5
_STEPS = 40_000
_A = np.linspace(0.0, 1.0, 160_000)
_B = np.empty_like(_A)


def kernel() -> dict:
    """Run each part ``REPEATS`` times; return their times in seconds."""
    times = {"python": [], "numpy": []}
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        x = 0.3
        for _ in range(_STEPS):
            x = 3.9 * x * (1.0 - x)
        t1 = time.perf_counter()
        for _ in range(10):
            np.multiply(_A, 1.0001, out=_B)
            np.add(_B, _A, out=_B)
        t2 = time.perf_counter()
        times["python"].append(t1 - t0)
        times["numpy"].append(t2 - t1)
    return times


def speed_factor(samples: list, what: str) -> float:
    """Multiplier from measured to reference-speed seconds for ``what``."""
    part = PART[what]
    return REFERENCE_S[part] / statistics.median(t for s in samples for t in s[part])
