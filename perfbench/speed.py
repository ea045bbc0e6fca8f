"""Speed probe: a fixed kernel timed between the operations of a run, so
that the timings can be put at one reference speed of the machine.

On a shared virtual machine the speed of the CPU drifts by a fifth and
more over tens of seconds, and the drift is common to all code, the
program's and this probe's alike. A run's timings are scaled by
``REFERENCE_S / median(probe times taken alongside them)``, which cancels
that drift and leaves the program's own cost. See README.md.
"""

import statistics
import time

import numpy as np

# Median time of one probe on the reference machine (2-vCPU Linux VM,
# Python 3.11, numpy 2.4, OpenBLAS on one thread). Scaled timings read as
# seconds on that machine at its median speed.
REFERENCE_S = 1.0e-3
EVERY_S = 0.1  # at most one probe point per this many seconds between operations
SAMPLES = 3  # probe runs per probe point
WARM_UP = 20

_rng = np.random.default_rng(20240)
_M = _rng.normal(size=(32, 32))
_M = (_M + _M.T) / 64.0
_A = _rng.normal(size=(256, 32))  # 64 KB: below glibc's mmap threshold


def _kernel():
    # interpreter-bound small-vector loop plus a BLAS-bound product, the two
    # kinds of work the workloads do
    v = np.ones(32)
    for _ in range(150):
        v = _M @ v
        v /= np.linalg.norm(v)
    for _ in range(4):
        np.maximum(_A @ _M, 0.0).T @ _A


class SpeedProbe:
    def __init__(self):
        self.times = []
        self._last = -float("inf")
        for _ in range(WARM_UP):
            _kernel()

    def measure(self):
        """Take one probe point now."""
        for _ in range(SAMPLES):
            start = time.perf_counter()
            _kernel()
            self.times.append(time.perf_counter() - start)
        self._last = time.perf_counter()

    def between_operations(self):
        """Take a probe point unless one was taken less than EVERY_S ago."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.measure()

    def take_scale(self):
        """Scale factor for timings made since the last call; resets."""
        median = statistics.median(self.times)
        self.times = []
        return REFERENCE_S / median, median
