"""Time-to-solution workloads: block-Jacobi(LU) + IDR(4) over suite
matrices, as ``repro solve`` runs them by default (bound 32, method
``lu``, factor apply, direct kernel path)."""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np

import repro.precond.block_jacobi as bj
from repro.precond import BlockJacobiPreconditioner
from repro.solvers import idrs
from repro.sparse.csr import CsrMatrix
from repro.sparse.suite import SUITE

from .measure import PassResult
from .spans import PASS, Profile, Spans
from .yardstick import Capture, ratios

TOL = 1e-6
MAXITER = 10000
#: a solve passes when its true relative residual is within this
#: multiple of ``TOL`` (IDR(s) stops on its recurrence residual)
RESIDUAL_SLACK = 10.0
#: repetitions of each setup in the condition-estimate measurement
ESTIMATE_REPS = 5


@dataclass(frozen=True)
class Problem:
    name: str
    A: CsrMatrix
    b: np.ndarray


@dataclass
class Answer:
    problem: Problem
    x: np.ndarray
    converged: bool
    iterations: int
    seconds: float


def _no_span(name: str):
    return contextlib.nullcontext()


def _preconditioner(**kw) -> BlockJacobiPreconditioner:
    return BlockJacobiPreconditioner(
        method="lu", max_block_size=32, apply_mode="factor", **kw
    )


@dataclass(frozen=True)
class SuiteWorkload:
    name: str
    matrices: tuple[str, ...]

    def build(self, seed: int) -> list[Problem]:
        """Fresh matrices plus right-hand sides drawn from ``seed``."""
        entries = {e.name: e for e in SUITE}
        rng = np.random.default_rng(seed)
        problems = []
        for name in self.matrices:
            A = entries[name].build()
            problems.append(Problem(name, A, rng.standard_normal(A.n_rows)))
        return problems

    def run_pass(self, problems, spans: Spans | None = None) -> PassResult:
        if spans is None:
            answers = [self._solve(p) for p in problems]
        else:
            with spans.span(PASS), spans.patched(self._targets()):
                answers = [self._solve(p, spans) for p in problems]
        times = [a.seconds for a in answers]
        iterations = sum(a.iterations for a in answers)
        return PassResult(
            times, [[t] for t in times], answers,
            {"iterations": iterations},
        )

    @staticmethod
    def _solve(p: Problem, spans: Spans | None = None) -> Answer:
        span = spans.span if spans is not None else _no_span
        t0 = time.perf_counter()
        M = _preconditioner()
        with span("precond.setup"):
            M.setup(p.A)
        with span("solvers.idrs"):
            r = idrs(p.A, p.b, s=4, M=M, tol=TOL, maxiter=MAXITER)
        seconds = time.perf_counter() - t0
        return Answer(p, r.x, bool(r.converged), int(r.iterations), seconds)

    @staticmethod
    def _targets():
        return [
            (CsrMatrix, "matvec", "sparse.matvec"),
            (bj, "supervariable_blocking", "blocking.supervariable"),
            (bj, "extract_blocks", "blocking.extract"),
            (bj, "lu_factor", "core.lu_factor"),
            (bj, "lu_solve", "core.lu_solve"),
            (BlockJacobiPreconditioner, "apply", "precond.apply"),
        ]

    def failures(self, result: PassResult) -> int:
        """Solves that did not converge or whose true residual is off."""
        return sum(not answer_ok(a) for a in result.answers)

    def audit(self, problems, result: PassResult, seed: int) -> int:
        return 0  # every answer was checked in full by ``failures``

    def layer_metrics(self, profile: Profile, results, problems) -> dict:
        apply_us = profile.mean_us("precond.apply")
        solve_us = profile.mean_us("core.lu_solve", parent="precond.apply")
        return {
            "sparse.matvec_us": profile.mean_us("sparse.matvec"),
            "sparse.matvec_calls": profile.count("sparse.matvec"),
            "blocking.supervariable_ms": profile.total_ms(
                "blocking.supervariable"
            ),
            "blocking.extract_ms": profile.total_ms("blocking.extract"),
            "core.lu_factor_ms": profile.total_ms("core.lu_factor"),
            "core.lu_solve_us": solve_us,
            **_yardstick(problems),
            "precond.setup_ms": profile.total_ms("precond.setup"),
            "precond.estimate_ms": _estimate_ms(problems),
            "precond.apply_us": apply_us,
            "precond.apply_calls": profile.count("precond.apply"),
            "precond.apply_overhead_us": apply_us - solve_us,
            "solvers.iterations": float(
                np.median([r.stats["iterations"] for r in results])
            ),
            "solvers.self_ms": profile.total_ms(
                "solvers.idrs", self_time=True
            ),
        }


def answer_ok(a: Answer) -> bool:
    if not a.converged or not np.all(np.isfinite(a.x)):
        return False
    b = a.problem.b
    residual = np.linalg.norm(b - a.problem.A.matvec(a.x))
    return bool(residual <= RESIDUAL_SLACK * TOL * np.linalg.norm(b))


def _estimate_ms(problems) -> float:
    """Setup with the condition estimate minus setup without it, as
    medians of alternating repetitions, summed over the matrices."""
    total = 0.0
    for p in problems:
        times = {True: [], False: []}
        for _ in range(ESTIMATE_REPS):
            for flag in (True, False):
                M = _preconditioner(estimate_condition=flag)
                t0 = time.perf_counter()
                M.setup(p.A)
                times[flag].append(time.perf_counter() - t0)
        total += np.median(times[True]) - np.median(times[False])
    return total * 1e3


def _yardstick(problems) -> dict:
    capture = Capture(limit=len(problems))
    with capture.patched(bj):
        for p in problems:
            _preconditioner().setup(p.A).apply(p.b)
    return ratios(capture, bj.lu_factor, bj.lu_solve)


WORKLOADS = {
    w.name: w
    for w in (
        SuiteWorkload(
            "suite_apply_bound",
            ("fem_b2_s0", "fem_b2_s1", "fem_b3_s0", "fem_b4_s1"),
        ),
        SuiteWorkload(
            "suite_setup_bound",
            (
                "fem_b5_s1", "fem_b6_s1", "fem_b8_s1", "fem_b12_s0",
                "fem_b16_s0", "wave_n4096_b5", "wave_n8192_b6",
                "circuit_s4",
            ),
        ),
    )
}
