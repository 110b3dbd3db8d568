"""Host speed, measured with a fixed kernel next to every timed request.

On a shared virtual machine the same code runs at two speeds about 30-40%
apart, switching every few seconds to minutes. Raw wall-clock medians of
30-second runs then spread by up to 30% of their median between runs of the
same code, more than any bound a regression check can use. So each timed
request (each step of a request that takes seconds) is bracketed by timings
of a fixed kernel that does not call the program, and request times are
reported as host-neutral seconds:

    neutral_s = raw_s * REF_S / mean(kernel_s just before, kernel_s just after)

that is, the time the request would take on a host where the kernel takes
``REF_S``. A change to the program moves raw and host-neutral times by the
same share; a change of host speed moves the kernel with them and cancels.

The kernel mixes the two kinds of work the program does: a pure Python loop
(interpreter speed) and small real FFTs over the rows of a long record (numpy
speed, as in per-block work). Quartile spread of the median request time over
ten processes on a 2-vCPU shared VM, raw and host-neutral: batch-small-n
(12 s each) 0.13 and 0.04, grid-long-n (15 s each) 0.13 and 0.06; neither part
of the kernel alone did clearly better than the mix. While the host speed holds
still, the kernel's own noise shows instead (five 25-second grid-long-n runs:
0.06 raw, 0.11 host-neutral), but that is well within the bound, and the raw
spread is not. Process start and imports (``setup_s``, and every request of
cli-300s) do not follow the kernel, so their times stay raw.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median kernel time on the 2-vCPU x86-64 VM the benchmark was built on.
REF_S = 0.006
REPS = 3
_LOOP = 20_000
_SAMPLES = 1 << 19
_ROW = 64


class Kernel:
    """The fixed kernel; ``measure`` returns the median of ``REPS`` timings."""

    def __init__(self) -> None:
        self.x = np.random.default_rng(0).standard_normal(_SAMPLES)
        self._run()  # warm up the FFT and the allocator

    def _run(self) -> float:
        total = 0.0
        for i in range(_LOOP):
            total += i * 0.5
        return total + float(np.abs(np.fft.rfft(self.x.reshape(-1, _ROW), axis=1)).sum())

    def measure(self) -> float:
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def neutral(raw_s: float, before_s: float, after_s: float) -> float:
    """Host-neutral seconds of an interval bracketed by two kernel timings."""
    return raw_s * REF_S / (0.5 * (before_s + after_s))
