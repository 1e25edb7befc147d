"""Ablation: "lazy" (DOT) vs "eager" (AXPY) triangular solves (Fig. 2),
plus the "blocked" GETRS the block-Jacobi apply uses.

The paper selects the eager variant because the AXPY parallelises over
the warp while the DOT needs a reduction, and because the eager variant
reads the factor column-wise (coalesced).  The NumPy reference shows
the same structural difference as vectorisation width; both must agree
numerically.  The blocked variant replaces the ``2 tile`` per-column
steps with batched GEMVs against inverted diagonal bands (built once
per factorization, outside the timed loop) and must agree too.
"""

from __future__ import annotations

import pytest

from conftest import write_result
from repro.bench import format_table
from repro.core import lu_factor, lu_solve, random_batch, random_rhs
from repro.core.validation import max_relative_error


def test_variants_agree(benchmark):
    benchmark.pedantic(lambda: None, rounds=1)
    batch = random_batch(512, (2, 32), kind="uniform", seed=11)
    fac = lu_factor(batch)
    rhs = random_rhs(batch)
    xe = lu_solve(fac, rhs, variant="eager")
    for variant in ("lazy", "blocked"):
        x = lu_solve(fac, rhs, variant=variant)
        assert max_relative_error(x, xe) < 1e-12, variant


def test_variant_table(benchmark):
    benchmark.pedantic(lambda: None, rounds=1)
    import time

    batch = random_batch(4000, 32, kind="diag_dominant", seed=12)
    fac = lu_factor(batch)
    rhs = random_rhs(batch)
    rows = []
    lu_solve(fac, rhs, variant="blocked")  # builds the cached plan
    for variant in ("eager", "lazy", "blocked"):
        t0 = time.perf_counter()
        for _ in range(3):
            lu_solve(fac, rhs, variant=variant)
        dt = (time.perf_counter() - t0) / 3
        rows.append([variant, f"{dt * 1e3:.2f}"])
    text = format_table(
        ["variant", "CPU ms / 4000 solves (m=32)"],
        rows,
        title="Ablation - eager vs lazy vs blocked triangular solve "
        "(NumPy reference)",
    )
    write_result("ablation_trsv_variants.txt", text)


@pytest.mark.parametrize("variant", ["eager", "lazy", "blocked"])
def test_trsv_variant_benchmark(benchmark, variant):
    batch = random_batch(2000, 32, kind="diag_dominant", seed=13)
    fac = lu_factor(batch)
    rhs = random_rhs(batch)
    lu_solve(fac, rhs, variant=variant)  # the blocked plan is not timed
    benchmark(lambda: lu_solve(fac, rhs, variant=variant))
