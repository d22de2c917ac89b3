"""Reference kernels that gauge how fast the host runs right now.

The benchmark host shares its cores with other work, and its speed for the
same code drifts by tens of percent over seconds to minutes. The kernel
matched to the kind of work a workload does runs before its first op and
after every op, and each op's time is reported at the kernel's nominal speed:

    reported = measured * nominal / (mean of the two kernel times around the op)

The kernels use numpy alone, never slspec, so a change to the program cannot
move them. "lapack" runs with the process's default BLAS threads, like the
program; a change that altered the process-wide BLAS thread count would move
it too.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel times on the host the benchmark was tuned on (2 cores,
# OpenBLAS 0.3.31 with 2 threads). They only fix the scale of the reported
# seconds; any constant would do.
NOMINAL_S = {"loop": 0.135, "lapack": 0.54}


class HostSpeed:
    """Times the reference kernel named by ``kind``: "loop" or "lapack"."""

    def __init__(self, kind: str):
        self.kind = kind
        rng = np.random.default_rng(0)
        self._matrix = rng.random((300, 300)) + 300.0 * np.eye(300)
        self._rhs = rng.random((300, 50))
        self._x = np.linspace(0.0, 1.0, 64)

    @property
    def nominal(self) -> float:
        return NOMINAL_S[self.kind]

    def sample(self) -> float:
        """Seconds the kernel takes now."""
        start = time.perf_counter()
        getattr(self, f"_{self.kind}")()
        return time.perf_counter() - start

    def _loop(self) -> None:
        # Many small-array numpy calls from a Python loop, like a per-cell
        # propagation pass.
        x = self._x
        y = np.zeros_like(x)
        for _ in range(12000):
            y = np.cos(1.3 * x) * x + np.sin(x) / 1.7 * y
            high = x > 0.5
            if np.any(high):
                y[high] = np.sqrt(y[high] * y[high] + 1.0)

    def _lapack(self) -> None:
        # Dense LU solves, like the inverse pipeline's row systems.
        for _ in range(320):
            np.linalg.solve(self._matrix, self._rhs)
