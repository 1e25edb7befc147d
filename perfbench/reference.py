"""Reference speed probe for the end-to-end timings.

On a shared host the CPU can run in a fast or a slow state for minutes
at a time.  On a 2-vCPU VM (Python 3.11, NumPy 2.4) the same pass took
up to 2x longer in the slow state.  The probe is a fixed mix of
interpreter work and small-array NumPy calls, like the program's hot
paths, timed in short slices between passes.  Its best slice says how
fast the CPU ran; the end-to-end timings are scaled to the speed at
which the best slice takes :data:`NOMINAL_S`.

The probe does not use the program, so no change to the program moves
it.
"""

from __future__ import annotations

import time

import numpy as np

#: best slice time in the VM's fast state; the scale is 1 at this speed
NOMINAL_S = 4.1e-3


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._blocks = rng.standard_normal((16, 8, 8))
        self._v = rng.standard_normal(2000)
        self._idx = rng.integers(0, 2000, 20000)
        self._starts = np.arange(0, 20000, 10)
        self.best = float("inf")

    def _slice(self) -> None:
        for _ in range(100):
            d = {j: j * 2 for j in range(30)}
            np.add.reduceat(self._v[self._idx], self._starts)
            np.linalg.solve(self._blocks, self._blocks[:, :, :1])
            float(self._v @ self._v) + sum(d.values())

    def sample(self, slices: int) -> None:
        for _ in range(slices):
            t0 = time.perf_counter()
            self._slice()
            self.best = min(self.best, time.perf_counter() - t0)

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at nominal speed."""
        return NOMINAL_S / self.best
