"""Pass loop and failure tally shared by every workload."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np


#: reference-probe slices after each timed pass
PROBE_SLICES = 5


@dataclass
class PassResult:
    """One pass over a workload's whole input."""

    units: list[float]  # wall seconds of each unit: a matrix or a wave
    latencies: list[list[float]]  # per unit, one per answer, seconds
    answers: list  # checked after the pass; kept for the last pass only
    stats: dict = field(default_factory=dict)  # small per-pass numbers

    @property
    def seconds(self) -> float:
        return sum(self.units)


class Tally:
    """Answers attempted and failed over every pass that ran."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, workload, result: PassResult) -> None:
        self.attempted += len(result.answers)
        self.failed += workload.failures(result)


def best_of(results: list[PassResult]) -> tuple[float, list[float]]:
    """Each unit at its fastest pass: the pass time and the answer
    latencies of that composite pass.

    A shared host can also switch between a fast and a slow CPU state
    every few seconds, so a run's median rides on how long it stayed
    slow.  The best time of each unit across passes is the best-of-N
    estimate ``timeit`` recommends.
    """
    units = np.array([r.units for r in results])
    best = units.argmin(axis=0)
    latencies = [
        x for u, p in enumerate(best) for x in results[p].latencies[u]
    ]
    return float(units.min(axis=0).sum()), latencies


def passes(workload, inputs, seconds, tally: Tally, spans=None,
           probe=None):
    """Whole passes within ``seconds`` (at least one): another pass
    starts only while one of the mean length still fits.

    Each pass is checked as soon as it ends; only the last one keeps
    its answers, for the post-run audit.  A reference ``probe`` samples
    the CPU speed after every pass.
    """
    results: list[PassResult] = []
    start = time.perf_counter()
    while True:
        if results:
            results[-1].answers = []
        gc.collect()
        result = workload.run_pass(inputs, spans)
        tally.add(workload, result)
        results.append(result)
        if probe is not None:
            probe.sample(PROBE_SLICES)
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results
