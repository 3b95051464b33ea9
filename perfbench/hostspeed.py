"""Host-speed calibration: a fixed kernel timed next to every request.

The benchmark runs on shared hosts where a neighbour can slow the whole
CPU by up to 2x for tens of seconds at a time; the process's CPU time then
grows with its wall time, so the slowdown is not a scheduling effect that
CPU time would hide.  A kernel of fixed work that does not use
``freepoisson`` slows down with it.  Each in-process request's wall time is
therefore reported scaled by ``REFERENCE_S / kernel time``, the mean of the
kernel timings just before and just after the request: its wall time at the
host speed at which the kernel takes ``REFERENCE_S``.  Child processes (the
set-up probes and the ``plane2d_cli`` commands) are scaled by one factor
per run instead, from the median of the kernel timings taken around them:
per command, the kernel's own noise made their times noisier, but unscaled
they moved by 1.75x when the host went from contended to quiet.

The kernel mixes the three kinds of work the program does: small FFTs that
stay in cache, elementwise passes over an array larger than the caches,
and interpreted Python.  Its buffers are allocated once, so its speed does
not depend on the allocator state the program leaves behind.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft as sfft

# A fixed reference: the kernel's 10th percentile on a 2-vCPU Xeon host
# under light contention (about a third of it in each kind of work).  On a
# quiet host it has run in 0.82x this time.
REFERENCE_S = 0.020


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random((64, 64))
        self._large = rng.random(1_500_000)
        self._scratch = np.empty_like(self._large)
        self.kernel_seconds()  # first call sets up scipy.fft's plan cache

    def kernel_seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(120):
            sfft.irfftn(sfft.rfftn(self._small), self._small.shape)
        np.multiply(self._large, self._large, out=self._scratch)
        np.add(self._scratch, 1.0, out=self._scratch)
        np.sqrt(self._scratch, out=self._scratch)
        total = float(self._scratch.sum())
        s = 0
        for i in range(100_000):
            s += i * i
        if not (total > 0 and s > 0):
            raise RuntimeError("calibration kernel computed nonsense")
        return time.perf_counter() - start


def scaled(wall_s: float, kernel_s: float) -> float:
    """Wall time at the reference host speed, given the kernel's time."""
    return wall_s * REFERENCE_S / kernel_s
