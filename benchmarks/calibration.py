"""Machine-speed calibration for the end-to-end timings.

On a few vCPUs of a shared host the same code runs at different speeds for
tens of seconds at a time: a loop of 40000-point FFTs in one process
alternates between about 1.0 and 1.75 ms per call, in stretches lasting from
a few seconds to over half a minute.  Process CPU time slows with it and the
guest sees almost no steal time, so the core itself is slower.  A run of 13 s
can fall wholly in a slow or a fast stretch, and raw wall times of identical
runs spread by 15-40%.

`kernel()` is fixed work that does not touch beamsim: a mix of the kinds of
code beamsim spends its time in (FFTs, normal draws, a first-order `lfilter`
recursion and an interpreted loop), about 0.25 s long so that it averages
over the sub-second jitter.  The harness times it next to every operation and
scales the operation's wall time by ``REFERENCE_S / kernel time``: the wall
time at the speed at which the kernel takes ``REFERENCE_S``.  A change to
beamsim moves the scaled time as much as the raw one; a change of machine
speed moves both the operation and the kernel, and mostly cancels.  It
cancels better for FFT- and sampling-heavy operations than for qslb-demo,
whose permutation loop follows the kernel only weakly.  The raw wall times
are reported beside the scaled ones.  The kernel's arrays total under
2 MB; it adds 1-3 MB to a workload's peak resident memory.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.signal import lfilter

# About the kernel's time on a 2-vCPU Xeon (2.0 GHz, 2 MB L2) in its fast
# state, so scaled timings are close to wall times in that state.
REFERENCE_S = 0.25

_RNG = np.random.default_rng(20151015)
_COMPLEX = _RNG.standard_normal(40000) + 1j * _RNG.standard_normal(40000)   # 640 KB
_REAL = _RNG.standard_normal(40000)


def kernel() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(120):
        np.fft.fft(_COMPLEX)
    rng = np.random.default_rng(1)
    for _ in range(75):
        rng.standard_normal(40000)
    for _ in range(120):
        lfilter([1.0], [1.0, -0.99], _REAL)
    total = 0
    for i in range(750_000):
        total += i * i
    return time.perf_counter() - start


def scale(seconds: float, kernel_seconds: float) -> float:
    """`seconds` measured while the kernel took `kernel_seconds`, at reference speed."""
    return seconds * REFERENCE_S / kernel_seconds
