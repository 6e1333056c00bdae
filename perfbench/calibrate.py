"""Calibration kernels: fixed code whose run time tracks the host's speed.

The benchmark runs on a few cores of a shared host.  There, the speed of the
same code swings by up to 2x from one second to the next, and the slow and
fast spells last from milliseconds to minutes, so neither the fastest nor the
median pass of a run is steady across runs.  The worker therefore brackets
every timed op with samples of a kernel that is the same at every commit and
reports each op's time at reference speed:

    t_ref = t * REFERENCE_S / (mean of the two bracketing kernel samples)

A change to the program moves ``t`` and not the kernel, so it shows in full;
a spell of host slowness moves both.  Interpreted code and vectorised numpy
code slow down differently, so each workload names the kernel that resembles
its code (``workloads.CALIBRATION``).  On a 2-core shared x86-64 host, per-op
times at reference speed spread by 3-10% across passes where the raw times
spread by 25-35%.

Only the standard library and numpy are used; the kernels never touch motzeta.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np


def _python_kernel():
    """Interpreter-bound: dict updates, Fraction sums and integer arithmetic."""
    d = {}
    acc = Fraction(0)
    for i in range(1, 600):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i * i
        acc += Fraction(i % 97 + 1, i % 89 + 1)
    s = 0
    for i in range(6000):
        s = (s * 31 + i) % 1000003
    return acc, s


_IDX = np.arange(1 << 15, dtype=np.int64)


def _numpy_kernel():
    """Vectorised int64 digit arithmetic and np.unique, as in jet tables."""
    for _ in range(4):
        keys = ((_IDX // 7) % 5) * ((_IDX // 35) % 5) % 5 + (_IDX % 13) * 5
        np.unique(keys, return_counts=True)


# kernel -> (code, its median time in seconds on the host the benchmark was
# written on: 2 shared x86-64 cores, Python 3.11, numpy 2.4)
KERNELS = {
    "python": (_python_kernel, 0.0025),
    "numpy": (_numpy_kernel, 0.0038),
}


def sample(kernel):
    """Run ``kernel`` once; return its (wall, cpu) seconds."""
    code = KERNELS[kernel][0]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    code()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def speed(kernel, before, after):
    """(wall, cpu) factors that turn times measured between the samples
    ``before`` and ``after`` into times at reference speed."""
    ref = KERNELS[kernel][1]
    return 2 * ref / (before[0] + after[0]), 2 * ref / (before[1] + after[1])
