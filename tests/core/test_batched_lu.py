"""Unit tests for the variable-size batched LU (repro.core.batched_lu)."""

import numpy as np
import pytest

from repro.core import (
    BatchedMatrices,
    lu_factor,
    lu_reconstruct,
    lu_solve,
    random_batch,
    random_rhs,
)
from repro.core.validation import (
    factorization_errors,
    growth_factors,
)


@pytest.fixture(params=["implicit", "explicit"])
def pivoting(request):
    return request.param


def _assert_same_factorization(a, b):
    np.testing.assert_array_equal(a.soa, b.soa)
    np.testing.assert_array_equal(a.perm, b.perm)
    np.testing.assert_array_equal(a.info, b.info)


class TestFactorizationCorrectness:
    def test_reconstruction_uniform(self, pivoting):
        b = random_batch(64, 16, kind="uniform", seed=1)
        fac = lu_factor(b, pivoting=pivoting)
        assert fac.ok
        err = factorization_errors(b, lu_reconstruct(fac))
        assert err.max() < 1e-13

    def test_reconstruction_variable_sizes(self, pivoting):
        b = random_batch(100, (1, 32), kind="uniform", seed=2)
        fac = lu_factor(b, pivoting=pivoting)
        assert fac.ok
        err = factorization_errors(b, lu_reconstruct(fac))
        assert err.max() < 1e-13

    def test_matches_scipy_lu(self, pivoting):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        b = random_batch(8, 8, kind="uniform", seed=3)
        fac = lu_factor(b, pivoting=pivoting)
        for i in range(b.nb):
            lu_ref, piv_ref = scipy_linalg.lu_factor(b.block(i))
            np.testing.assert_allclose(
                fac.factors.block(i), lu_ref, atol=1e-12
            )

    def test_size_one_blocks(self, pivoting):
        b = BatchedMatrices.identity_padded(
            [np.array([[3.0]]), np.array([[-2.0]])], tile=4
        )
        fac = lu_factor(b, pivoting=pivoting)
        assert fac.ok
        assert fac.factors.data[0, 0, 0] == 3.0
        assert fac.factors.data[1, 0, 0] == -2.0

    def test_permutation_rows_are_valid(self, pivoting):
        b = random_batch(40, (2, 32), kind="uniform", seed=4)
        fac = lu_factor(b, pivoting=pivoting)
        tile = fac.tile
        sorted_perm = np.sort(fac.perm, axis=1)
        np.testing.assert_array_equal(
            sorted_perm, np.tile(np.arange(tile), (fac.nb, 1))
        )

    def test_padding_rows_pivot_in_place(self, pivoting):
        # Padding rows must map to themselves: the permutation restricted
        # to rows >= size must be the identity.
        b = random_batch(30, (2, 20), kind="uniform", seed=5, tile=32)
        fac = lu_factor(b, pivoting=pivoting)
        for i in range(b.nb):
            m = int(b.sizes[i])
            np.testing.assert_array_equal(fac.perm[i, m:], np.arange(m, 32))

    def test_pivot_is_column_max(self):
        # After pivoting, |L| <= 1 (multipliers bounded by 1): the
        # defining property of partial pivoting.
        b = random_batch(64, 16, kind="uniform", seed=6)
        fac = lu_factor(b)
        L = np.tril(fac.factors.data, k=-1)
        assert np.abs(L).max() <= 1.0 + 1e-15

    def test_float32_supported(self, pivoting):
        b = random_batch(16, 16, kind="uniform", seed=7, dtype=np.float32)
        fac = lu_factor(b, pivoting=pivoting)
        assert fac.factors.dtype == np.float32
        err = factorization_errors(b, lu_reconstruct(fac))
        assert err.max() < 1e-5


class TestImplicitVsExplicit:
    """The paper's claim: implicit pivoting computes the same factorization
    as explicit pivoting, it only reorganises the data movement."""

    def test_same_factors_and_perm(self):
        b = random_batch(128, (1, 32), kind="uniform", seed=8)
        _assert_same_factorization(
            lu_factor(b, pivoting="implicit"), lu_factor(b, pivoting="explicit")
        )

    @pytest.mark.parametrize(
        "nb, tile, zero_cols",
        [(64, 8, True), (48, 32, True), (40, 16, False), (5, 1, False),
         (0, 8, False)],
        ids=["ties-8", "ties-32", "ties-16-no-zero-col", "tile-1", "nb-0"],
    )
    def test_bitwise_equal_to_explicit_on_ties(self, nb, tile, zero_cols):
        # Rounded integers in [-2, 2] give many exact-magnitude ties and
        # exact zeros; a zeroed column makes whole pivot columns vanish
        # (info > 0).  Ties must break to the lowest original row in
        # both cores, and every entry must match bit for bit.
        rng = np.random.default_rng(tile * 100 + nb)
        data = np.round(rng.uniform(-2.5, 2.5, (nb, tile, tile)))
        if zero_cols:
            data[np.arange(nb) % 4 == 0, :, tile // 2] = 0.0
        b = BatchedMatrices(data, np.full(nb, tile))
        fi = lu_factor(b, pivoting="implicit")
        fe = lu_factor(b, pivoting="explicit")
        _assert_same_factorization(fi, fe)
        if zero_cols and nb:
            assert (fi.info[::4] > 0).all()

    def test_same_on_diag_dominant(self):
        b = random_batch(64, 24, kind="diag_dominant", seed=9, tile=32)
        fi = lu_factor(b, pivoting="implicit")
        fe = lu_factor(b, pivoting="explicit")
        np.testing.assert_array_equal(fi.perm, fe.perm)


class TestNoPivotAblation:
    def test_nopivot_identity_perm(self):
        b = random_batch(16, 8, kind="diag_dominant", seed=10)
        fac = lu_factor(b, pivoting="none")
        np.testing.assert_array_equal(
            fac.perm, np.tile(np.arange(8), (16, 1))
        )

    def test_nopivot_growth_explodes_on_graded_matrices(self):
        # Matrices with tiny leading pivots: unpivoted LU shows large
        # element growth, pivoted LU stays tame (Section II-B).
        rng = np.random.default_rng(11)
        blocks = []
        for _ in range(32):
            M = rng.uniform(-1, 1, (16, 16))
            M[0, 0] = 1e-12
            blocks.append(M)
        b = BatchedMatrices.identity_padded(blocks)
        g_no = growth_factors(b, lu_factor(b, pivoting="none").factors)
        g_pp = growth_factors(b, lu_factor(b, pivoting="implicit").factors)
        assert g_no.max() > 1e6
        assert g_pp.max() < 100

    def test_unknown_strategy_rejected(self):
        b = random_batch(2, 4, seed=0)
        with pytest.raises(ValueError, match="pivoting"):
            lu_factor(b, pivoting="full")


class TestSingularHandling:
    def test_info_flags_singular_blocks(self):
        b = random_batch(12, 8, kind="singular", seed=12)
        fac = lu_factor(b)
        assert (fac.info > 0).all()
        assert not fac.ok

    def test_info_zero_for_regular_blocks(self):
        b = random_batch(12, 8, kind="diag_dominant", seed=13)
        fac = lu_factor(b)
        assert fac.ok
        assert (fac.info == 0).all()

    def test_mixed_batch_flags_only_singular(self):
        good = random_batch(4, 8, kind="diag_dominant", seed=14)
        bad = random_batch(4, 8, kind="singular", seed=15)
        data = np.concatenate([good.data, bad.data])
        sizes = np.concatenate([good.sizes, bad.sizes])
        fac = lu_factor(BatchedMatrices(data, sizes))
        assert (fac.info[:4] == 0).all()
        assert (fac.info[4:] > 0).all()

    def test_factorization_values_finite_despite_singularity(self):
        # LAPACK-style: skip the scaling of a zero-pivot column; the
        # factors stay finite (U is singular but not inf/nan).
        b = random_batch(6, 8, kind="singular", seed=16)
        fac = lu_factor(b)
        assert np.isfinite(fac.factors.data).all()


class TestOverwrite:
    def test_overwrite_destroys_input(self):
        b = random_batch(4, 8, kind="uniform", seed=17)
        orig = b.data.copy()
        lu_factor(b, overwrite=True)
        assert not np.array_equal(b.data, orig)

    def test_no_overwrite_preserves_input(self):
        b = random_batch(4, 8, kind="uniform", seed=18)
        orig = b.data.copy()
        lu_factor(b, overwrite=False)
        np.testing.assert_array_equal(b.data, orig)

    @pytest.mark.parametrize("on_singular", [None, "shift"])
    def test_no_overwrite_leaves_batch_untouched(self, pivoting, on_singular):
        b = random_batch(12, (1, 16), kind="singular", seed=21)
        orig, sizes = b.data.copy(), b.sizes.copy()
        fac = lu_factor(b, pivoting=pivoting, on_singular=on_singular)
        assert not np.shares_memory(fac.soa, b.data)
        assert b.data.tobytes() == orig.tobytes()
        np.testing.assert_array_equal(b.sizes, sizes)

    @pytest.mark.parametrize("pivoting", ["implicit", "explicit", "none"])
    def test_overwrite_keeps_factors_in_the_input_buffer(self, pivoting):
        b = random_batch(5, (2, 8), kind="diag_dominant", seed=20)
        ref = lu_factor(b, pivoting=pivoting, on_singular="shift")
        fac = lu_factor(
            b, pivoting=pivoting, overwrite=True, on_singular="shift"
        )
        assert np.shares_memory(fac.soa, b.data)
        np.testing.assert_array_equal(fac.soa, ref.soa)
        np.testing.assert_array_equal(fac.perm, ref.perm)


class TestEndToEndSolve:
    def test_solve_matches_numpy(self):
        b = random_batch(64, (2, 32), kind="uniform", seed=19)
        rhs = random_rhs(b)
        x = lu_solve(lu_factor(b), rhs)
        for i in range(0, b.nb, 7):
            ref = np.linalg.solve(b.block(i), rhs.vector(i))
            np.testing.assert_allclose(x.vector(i), ref, rtol=1e-9, atol=1e-9)

    def test_backward_error_small_illconditioned(self):
        # Even at condition 1e10 partial pivoting keeps the normwise
        # backward error ||Ax - b|| / (||A|| ||x||) at machine-precision
        # levels (the residual relative to ||b|| scales with cond(A) and
        # may be ~1e-6, which is expected and fine).
        b = random_batch(32, 16, kind="illcond", seed=20)
        rhs = random_rhs(b)
        x = lu_solve(lu_factor(b), rhs)
        r = np.einsum("brc,bc->br", b.data, x.data) - rhs.data
        bwd = np.linalg.norm(r, axis=1) / (
            np.linalg.norm(b.data, axis=(1, 2)) * np.linalg.norm(x.data, axis=1)
        )
        assert bwd.max() < 1e-13
