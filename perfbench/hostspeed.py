"""A fixed reference kernel that measures how fast the host runs.

On a shared host the interpreter's speed drifts by up to half, in spells
that outlast a run, and every timing drifts with it.  For a workload
that computes on one thread, the benchmark pins itself to one CPU,
samples this kernel between the operations, and quotes the operations'
time at nominal host speed: scaled by NOMINAL_S over the run's mean
kernel time.  The kernel calls nothing of ``mtwcheck``, so the
program's own speed cannot move it.

The kernel is the kind of work the program's trajectory code does: RK4
steps of a small ODE written as NumPy operations on short vectors,
driven from a Python loop.  It does not track the checker, whose pool
computes on every CPU: run by as many threads as the pool, it moved the
median of check-conformal2d by 15 % between two sets of runs, and it
widened the spread of check-inline3d, which spends most of its time in
np.add.at, from 0.06 to 0.15 (perfbench/README.md).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# One sample takes about NOMINAL_S at the host speed the figures are
# quoted at (a 2-vCPU x86-64 virtual machine, Python 3.11).
NOMINAL_S = 0.1
STEPS = 3000
SAMPLES_PER_GAP = 5

_A = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.1, 0.0],
               [0.0, 0.0, 0.0, 1.0], [0.1, 0.0, -2.0, 0.0]])


def _rhs(y: np.ndarray) -> np.ndarray:
    return _A @ y + 0.01 * np.sin(y)


def kernel() -> float:
    y, h = np.array([1.0, 0.0, 0.5, 0.1]), 1e-3
    for _ in range(STEPS):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * h * k1)
        k3 = _rhs(y + 0.5 * h * k2)
        k4 = _rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(y.sum())


class Gauge:
    """Kernel samples taken between operations; ``scale()`` converts a
    time measured in their span to nominal host speed."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, n: int = SAMPLES_PER_GAP) -> None:
        for _ in range(n):
            t0 = perf_counter()
            kernel()
            self.samples.append(perf_counter() - t0)

    def scale(self) -> float:
        return NOMINAL_S / statistics.fmean(self.samples)
