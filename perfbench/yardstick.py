"""LAPACK yardstick for the batched LU kernels.

A capture pass records the batches the program hands to
``repro.core`` ``lu_factor`` and ``lu_solve``.  Each captured call is
then re-timed against ``np.linalg.inv`` (factor) and batched
``np.linalg.solve`` (solve) on the same active blocks, stacked by
size, in the same process.  The ratio core/LAPACK is a
machine-relative form of the kernel timings.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

#: repetitions per timing; the median is kept
REPS = 5


class Capture:
    """Records the first ``limit`` factor calls and one solve per
    captured factorization."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.factors: list[tuple] = []  # (input copy, kwargs, result)
        self.solves: list[tuple] = []  # (factor index, factors, rhs copy)
        self._by_result: dict[int, int] = {}

    @contextmanager
    def patched(self, module):
        """Capture the ``lu_factor``/``lu_solve`` calls made through
        ``module``'s globals while the block runs."""
        factor, solve = module.lu_factor, module.lu_solve

        def lu_factor(batch, **kwargs):
            keep = len(self.factors) < self.limit
            src = batch.copy() if keep else None
            out = factor(batch, **kwargs)
            if keep:
                self._by_result[id(out)] = len(self.factors)
                self.factors.append((src, kwargs, out))
            return out

        def lu_solve(fac, rhs, *args):
            i = self._by_result.pop(id(fac), None)
            if i is not None:
                self.solves.append((i, fac, rhs.copy(), args))
            return solve(fac, rhs, *args)

        module.lu_factor, module.lu_solve = lu_factor, lu_solve
        try:
            yield self
        finally:
            module.lu_factor, module.lu_solve = factor, solve


def _stacks(batch) -> list[tuple[int, np.ndarray]]:
    """Active blocks grouped by size: ``[(m, indices)]``."""
    return [
        (int(m), np.flatnonzero(batch.sizes == m))
        for m in np.unique(batch.sizes)
    ]


def _median_time(fn, prepare=lambda: ()) -> float:
    times = []
    for _ in range(REPS):
        args = prepare()
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def ratios(capture: Capture, lu_factor, lu_solve) -> dict[str, float]:
    """``core.factor_lapack_ratio`` and ``core.solve_lapack_ratio``."""
    core_f = lapack_f = core_s = lapack_s = 0.0
    for src, kwargs, _ in capture.factors:
        groups = [
            np.ascontiguousarray(src.data[idx, :m, :m])
            for m, idx in _stacks(src)
        ]
        core_f += _median_time(
            lambda b: lu_factor(b, **kwargs), lambda: (src.copy(),)
        )
        lapack_f += _median_time(
            lambda: [np.linalg.inv(g) for g in groups]
        )
    for i, fac, rhs, args in capture.solves:
        src = capture.factors[i][0]
        groups = [
            (
                np.ascontiguousarray(src.data[idx, :m, :m]),
                np.ascontiguousarray(rhs.data[idx, :m, None]),
            )
            for m, idx in _stacks(src)
        ]
        core_s += _median_time(lambda: lu_solve(fac, rhs, *args))
        lapack_s += _median_time(
            lambda: [np.linalg.solve(a, b) for a, b in groups]
        )
    return {
        "core.factor_lapack_ratio": core_f / lapack_f if lapack_f else 0.0,
        "core.solve_lapack_ratio": core_s / lapack_s if lapack_s else 0.0,
    }
