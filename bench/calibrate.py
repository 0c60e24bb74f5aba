"""Interleaved reference kernel: turns CPU seconds into calibrated seconds.

The sandbox's speed drifts in multi-second regimes (the same pure-Python
loop takes 35-62 ms depending on when it runs), so raw microseconds per
task do not repeat within a tenth. A fixed kernel that imports nothing
from ``repro`` is run between slices of the timed loop; a measurement is
rescaled by ``CAL_REF_S / mean_kernel_cpu`` and so reads "seconds on a
machine where the kernel takes ``CAL_REF_S``".
"""

import gc
import time

#: Iterations of the reference kernel (about 4 ms of CPU here).
CAL_ITERS = 20_000

#: The kernel time of the reference machine, in seconds.
CAL_REF_S = 4.0e-3


def kernel(iters=CAL_ITERS):
    """The fixed dict/tuple workload; returns a checksum so the loop
    cannot be optimised away."""
    table = {}
    acc = 0
    for i in range(iters):
        key = (i & 255, i % 7)
        acc += table.get(key, 0) + len(key)
        table[key] = acc & 0xFFFF
    return acc


def kernel_cpu_seconds():
    """CPU seconds one kernel run takes right now.

    The collector is off while the kernel runs: a full collection that
    the measured program's garbage has made due would otherwise land in
    the kernel now and then (tens of milliseconds against the kernel's
    four) and be mistaken for a slow machine. It runs, and is paid for,
    when the measured program allocates next.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        kernel()
        return time.process_time() - start
    finally:
        if was_enabled:
            gc.enable()


class Calibrator:
    """Collects kernel samples taken around one measured region."""

    def __init__(self):
        self.samples = []
        self.cpu = 0.0  # CPU seconds of everything passed to run()

    def sample(self):
        self.samples.append(kernel_cpu_seconds())

    def run(self, function, *args):
        """Sample the kernel, then call ``function(*args)`` and add its
        CPU seconds to :attr:`cpu`; returns the function's result."""
        self.sample()
        start = time.process_time()
        result = function(*args)
        self.cpu += time.process_time() - start
        return result

    def factor(self):
        """Multiplier turning measured seconds into calibrated seconds."""
        if not self.samples:
            raise ValueError("no kernel samples taken")
        return CAL_REF_S * len(self.samples) / sum(self.samples)


def calibrated_cpu_seconds(function):
    """Calibrated CPU seconds of one ``function()`` call, with the kernel
    run before and after it."""
    calibrator = Calibrator()
    calibrator.run(function)
    calibrator.sample()
    return calibrator.cpu * calibrator.factor()
