"""Host-speed reference for the end-to-end times.

On a shared virtual machine every process can run up to 40% slower for
seconds at a time, and a fixed pure-Python loop shows the same swing in
CPU time as in wall time.  Runs minutes apart then differ by more than a
change worth detecting.  So the loop times a fixed reference kernel (pure
Python GF(2) elimination and products, like the program's own inner
loops) between jobs, at least every SLICE_S, and divides each slice of
wall time, and each job latency in it, by the host's speed around it.
The result is time at the reference speed: the speed at which the
kernel takes KERNEL_REFERENCE_S, about its median time between jobs on
a 2-core 2.1 GHz VM with Python 3.11, so scaled times read close to wall
times there.  The raw wall-clock figures are reported beside them.
"""

from __future__ import annotations

import random
import statistics
import time

import gf2ref as R

KERNEL_REFERENCE_S = 2.0e-3
SLICE_S = 0.15

_rng = random.Random(0)
_MATRICES = [[_rng.getrandbits(40) for _ in range(40)] for _ in range(8)]


def kernel_seconds(repeats: int = 3) -> float:
    """Median of several timings of the fixed reference kernel."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for m in _MATRICES:
            R.rank(m)
            R.matmul(m, m)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class ScaledClock:
    """Wall time cut into slices of at least SLICE_S, scaled by host speed.

    The kernel runs between slices, so it is never part of a job or of the
    wall time.  A single kernel timing is itself noisy, so a slice's speed
    factor is the median of the kernel timings within WINDOW slices of it,
    over KERNEL_REFERENCE_S.
    """

    WINDOW = 3

    def __init__(self):
        self.kernel = [kernel_seconds()]  # kernel[i] ends slice i - 1
        self.slices: list[tuple[float, list[float]]] = []  # (wall, job latencies)
        self.started = self.slice_start = time.perf_counter()
        self.pending: list[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def add(self, latency: float) -> None:
        self.pending.append(latency)

    def close_slice(self, force: bool = False) -> None:
        wall = time.perf_counter() - self.slice_start
        if wall < SLICE_S and not force:
            return
        self.slices.append((wall, self.pending))
        self.pending = []
        self.kernel.append(kernel_seconds())
        self.slice_start = time.perf_counter()

    def factors(self) -> list[float]:
        w = self.WINDOW
        return [
            statistics.median(self.kernel[max(0, i - w + 1) : i + w + 1]) / KERNEL_REFERENCE_S
            for i in range(len(self.slices))
        ]

    def totals(self, slices: int, scaled: bool = True) -> tuple[float, list[float]]:
        """Wall time and job latencies of the first `slices` slices."""
        factors = self.factors() if scaled else [1.0] * len(self.slices)
        wall, latencies = 0.0, []
        for (raw, jobs), factor in zip(self.slices[:slices], factors):
            wall += raw / factor
            latencies += [x / factor for x in jobs]
        return wall, latencies
