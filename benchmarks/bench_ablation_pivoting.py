"""Ablation: implicit vs explicit vs no pivoting (Section III-A).

The implicit scheme exists because explicit row swaps keep 30 of 32
lanes idle; no pivoting would be fastest but is numerically unsafe.
This harness verifies the three-way trade-off:

* implicit == explicit bitwise (identical factors, pivots and info);
* no-pivoting explodes the growth factor on graded matrices;
* the GPU benefit of implicit pivoting is counted by the SIMT
  simulator: its warp LU issues no row-exchange shuffles.  The NumPy
  core behind ``pivoting="implicit"`` swaps rows (one gather/scatter
  per step over the interleaved batch, cheaper on a CPU than the
  masked full-height update of the marking scheme), so its CPU time
  says nothing about the GPU trade-off.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import write_result
from repro.bench import format_table
from repro.core import BatchedMatrices, lu_factor, random_batch
from repro.core.validation import growth_factors


def _graded_batch(nb=256, m=24, seed=7):
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(nb):
        M = rng.uniform(-1, 1, (m, m))
        M[0, 0] = 10.0 ** -rng.uniform(6, 12)
        blocks.append(M)
    return BatchedMatrices.identity_padded(blocks)


def test_pivoting_stability_table(benchmark):
    benchmark.pedantic(lambda: None, rounds=1)
    batch = _graded_batch()
    rows = []
    for piv in ("implicit", "explicit", "none"):
        fac = lu_factor(batch, pivoting=piv)
        g = growth_factors(batch, fac.factors)
        rows.append(
            [piv, f"{np.median(g):.2e}", f"{g.max():.2e}",
             int(np.count_nonzero(fac.info))]
        )
    text = format_table(
        ["pivoting", "median growth", "max growth", "singular flags"],
        rows,
        title="Ablation - element growth of the LU variants on graded "
        "24x24 blocks (256 problems)",
    )
    write_result("ablation_pivoting.txt", text)
    g_imp = growth_factors(batch, lu_factor(batch, "implicit").factors)
    g_non = growth_factors(batch, lu_factor(batch, "none").factors)
    assert g_imp.max() < 1e3 < g_non.max()


def test_pivoting_equivalence(benchmark):
    benchmark.pedantic(lambda: None, rounds=1)
    batch = random_batch(128, (2, 32), kind="uniform", seed=8)
    fi = lu_factor(batch, pivoting="implicit")
    fe = lu_factor(batch, pivoting="explicit")
    np.testing.assert_array_equal(fi.soa, fe.soa)
    np.testing.assert_array_equal(fi.perm, fe.perm)
    np.testing.assert_array_equal(fi.info, fe.info)


def test_pivoting_swap_traffic_counts(benchmark):
    benchmark.pedantic(lambda: None, rounds=1)
    """SIMT evidence: implicit pivoting needs no row-exchange shuffles.

    The warp LU's shuffle count is exactly the pivot-selection
    reductions plus the pivot-row broadcasts; an explicit-swap kernel
    would add 2 register moves per swapped row register.  We check the
    implicit kernel's shuffle budget matches that closed form.
    """
    from repro.gpu import kernel_profile

    m = 32
    prof = kernel_profile("lu_factor", m, 8)
    # per step: 10 reduction shuffles + 1 pivot broadcast + (tile-1-k)
    # GER broadcasts; the off-load gather adds none.
    expected = sum(10 + 1 + (32 - 1 - k) for k in range(m))
    assert prof.stats.shuffles == expected


@pytest.mark.parametrize("pivoting", ["implicit", "explicit", "none"])
def test_pivoting_cpu_time(benchmark, pivoting):
    batch = random_batch(2000, 24, kind="diag_dominant", seed=9, tile=32)
    benchmark(lambda: lu_factor(batch, pivoting=pivoting))
