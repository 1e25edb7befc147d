"""Unit tests for the batched triangular solves (repro.core.batched_trsv)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    BatchedMatrices,
    BatchedVectors,
    lower_unit_solve,
    lu_factor,
    lu_solve,
    random_batch,
    random_rhs,
    upper_solve,
)
from repro.core.batched_trsv import lu_solve_many
from repro.core.validation import max_relative_error, solve_residuals
from tests.core.test_golden_fixtures import (
    CLEAN_POLICIES,
    FIXTURE,
    POLICIES,
    TILES,
)
from tests.strategies import batch_shapes, make_batch, make_rhs, seeds

#: every ``lu_solve`` variant; ``"blocked"`` exists only there
LU_VARIANTS = ("eager", "lazy", "blocked")


def _lower_batch(nb=16, tile=16, seed=0):
    """Batch whose strict lower triangle is random, unit diagonal implied."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1, 1, (nb, tile, tile))
    data = np.tril(data, k=-1)
    idx = np.arange(tile)
    data[:, idx, idx] = rng.uniform(1.0, 2.0, (nb, tile))  # used as U diag
    return BatchedMatrices.from_arrays(data)


class TestLowerUnitSolve:
    @pytest.mark.parametrize("variant", ["eager", "lazy"])
    def test_matches_dense_solve(self, variant):
        b = _lower_batch(seed=1)
        rhs = random_rhs(b)
        y = lower_unit_solve(b, rhs, variant=variant)
        for i in range(b.nb):
            L = np.tril(b.data[i], k=-1) + np.eye(b.tile)
            ref = np.linalg.solve(L, rhs.data[i])
            np.testing.assert_allclose(y.data[i], ref, rtol=1e-10, atol=1e-12)

    def test_eager_equals_lazy(self):
        b = _lower_batch(seed=2)
        rhs = random_rhs(b)
        ye = lower_unit_solve(b, rhs, variant="eager")
        yl = lower_unit_solve(b, rhs, variant="lazy")
        assert max_relative_error(ye, yl) < 1e-13

    def test_unknown_variant_rejected(self):
        b = _lower_batch()
        with pytest.raises(ValueError):
            lower_unit_solve(b, random_rhs(b), variant="magic")

    @pytest.mark.parametrize("solve", [lower_unit_solve, upper_solve])
    def test_blocked_variant_rejected(self, solve):
        # the blocked plan lives on an LUFactors; a bare triangle has none
        b = _lower_batch()
        with pytest.raises(ValueError, match="lu_solve"):
            solve(b, random_rhs(b), variant="blocked")

    def test_overwrite_flag(self):
        b = _lower_batch(seed=3)
        rhs = random_rhs(b)
        out = lower_unit_solve(b, rhs, overwrite=True)
        assert out.data is rhs.data


class TestUpperSolve:
    @pytest.mark.parametrize("variant", ["eager", "lazy"])
    def test_matches_dense_solve(self, variant):
        rng = np.random.default_rng(4)
        data = np.triu(rng.uniform(-1, 1, (8, 12, 12)))
        idx = np.arange(12)
        data[:, idx, idx] = rng.uniform(1.0, 2.0, (8, 12))
        b = BatchedMatrices.from_arrays(data)
        rhs = random_rhs(b)
        x = upper_solve(b, rhs, variant=variant)
        for i in range(b.nb):
            ref = np.linalg.solve(np.triu(b.data[i]), rhs.data[i])
            np.testing.assert_allclose(x.data[i], ref, rtol=1e-10, atol=1e-12)

    def test_batch_mismatch_rejected(self):
        b = _lower_batch(nb=4)
        rhs = BatchedVectors.zeros(5, b.tile)
        with pytest.raises(ValueError, match="mismatch"):
            upper_solve(b, rhs)


class TestGetrs:
    @pytest.mark.parametrize("variant", LU_VARIANTS)
    def test_full_pipeline_variable_sizes(self, variant):
        b = random_batch(60, (1, 32), kind="uniform", seed=5)
        rhs = random_rhs(b)
        x = lu_solve(lu_factor(b), rhs, variant=variant)
        assert solve_residuals(b, x, rhs).max() < 1e-10

    def test_padding_entries_stay_zero(self):
        b = random_batch(20, (2, 10), kind="diag_dominant", seed=6, tile=16)
        rhs = random_rhs(b)
        fac = lu_factor(b)
        for variant in LU_VARIANTS:
            x = lu_solve(fac, rhs, variant)
            mask = x.row_mask()
            assert (x.data[~mask] == 0).all(), variant

    def test_refuses_singular_factorization(self):
        b = random_batch(4, 8, kind="singular", seed=7)
        fac = lu_factor(b)
        for variant in LU_VARIANTS:
            with pytest.raises(ValueError, match="singular"):
                lu_solve(fac, random_rhs(b), variant)
        assert fac._blocked_plan is None

    def test_permutation_is_fused_not_applied_twice(self):
        # Build a matrix requiring a known swap and check the solution,
        # which would be wrong if P were applied to b and to the factors.
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = BatchedMatrices.identity_padded([A], tile=2)
        rhs = BatchedVectors.from_vectors([np.array([3.0, 7.0])], tile=2)
        x = lu_solve(lu_factor(b), rhs)
        np.testing.assert_allclose(x.data[0], [7.0, 3.0])

    def test_float32(self):
        b = random_batch(16, 16, kind="diag_dominant", seed=8, dtype=np.float32)
        rhs = random_rhs(b)
        fac = lu_factor(b)
        for variant in LU_VARIANTS:
            x = lu_solve(fac, rhs, variant)
            assert x.dtype == np.float32, variant
            assert solve_residuals(b, x, rhs).max() < 1e-4, variant

    def test_blocked_plan_built_once_and_reused(self):
        b = random_batch(12, (3, 32), kind="uniform", seed=9)
        fac = lu_factor(b)
        assert fac._blocked_plan is None
        lu_solve(fac, random_rhs(b, seed=1), "blocked")
        plan = fac._blocked_plan
        assert plan is not None
        x2 = lu_solve(fac, random_rhs(b, seed=2), "blocked")
        assert fac._blocked_plan is plan
        # tile 32 -> two 16-row bands per triangle
        assert [len(steps) for steps in plan[1:]] == [2, 2]
        # private cache: not part of the dataclass's repr or equality
        cache = {f.name: f for f in dataclasses.fields(fac)}["_blocked_plan"]
        assert not (cache.init or cache.repr or cache.compare)
        fresh = lu_factor(b)
        np.testing.assert_array_equal(
            lu_solve(fresh, random_rhs(b, seed=2), "blocked").data, x2.data
        )

    def test_many_rhs_match_single_rhs_solves(self):
        b = random_batch(20, (1, 32), kind="uniform", seed=11)
        fac = lu_factor(b)
        B = np.random.default_rng(3).uniform(-1, 1, (b.nb, b.tile, 3))
        B *= np.arange(b.tile)[None, :, None] < b.sizes[:, None, None]
        X = lu_solve_many(fac, B)
        assert X.shape == B.shape
        for j in range(B.shape[2]):
            rhs = BatchedVectors(np.ascontiguousarray(B[:, :, j]), b.sizes)
            x = lu_solve(fac, rhs, "blocked").data
            np.testing.assert_allclose(X[:, :, j], x, rtol=1e-12, atol=1e-14)

    def test_many_rhs_against_identity_is_the_inverse(self):
        b = random_batch(16, (1, 16), kind="diag_dominant", seed=12)
        eye = np.broadcast_to(np.eye(b.tile), (b.nb, b.tile, b.tile))
        inv = lu_solve_many(lu_factor(b), eye)
        for i in range(b.nb):
            m = int(b.sizes[i])
            np.testing.assert_allclose(
                inv[i, :m, :m], np.linalg.inv(b.block(i)), rtol=1e-12,
                atol=1e-14,
            )

    def test_many_rhs_refuses_bad_shape_and_singular(self):
        b = random_batch(4, 8, kind="uniform", seed=13)
        fac = lu_factor(b)
        with pytest.raises(ValueError, match="do not match"):
            lu_solve_many(fac, np.zeros((4, 8)))
        with pytest.raises(ValueError, match="do not match"):
            lu_solve_many(fac, np.zeros((3, 8, 2)))
        bad = lu_factor(random_batch(4, 8, kind="singular", seed=14))
        with pytest.raises(ValueError, match="singular"):
            lu_solve_many(bad, np.zeros((4, 8, 2)))


# -- eager/lazy equivalence properties (hypothesis) -------------------------


def _triangular_pair(shape, seed):
    """Unit-lower/upper factor batch + rhs from a random LU."""
    batch = make_batch(*shape, seed=seed, dominant=True)
    fac = lu_factor(batch)
    assert fac.ok
    return fac.factors, make_rhs(batch, seed + 1)


@settings(max_examples=30, deadline=None)
@given(shape=batch_shapes, seed=seeds)
def test_lower_eager_lazy_agree_property(shape, seed):
    """AXPY and DOT formulations of L y = b agree to rounding on any
    random unit-lower batch (size-1 blocks included)."""
    factors, rhs = _triangular_pair(shape, seed)
    ye = lower_unit_solve(factors, rhs, variant="eager")
    yl = lower_unit_solve(factors, rhs, variant="lazy")
    scale = max(1.0, np.abs(ye.data).max())
    assert np.abs(ye.data - yl.data).max() < 1e-13 * scale


@settings(max_examples=30, deadline=None)
@given(shape=batch_shapes, seed=seeds)
def test_upper_eager_lazy_agree_property(shape, seed):
    factors, rhs = _triangular_pair(shape, seed)
    xe = upper_solve(factors, rhs, variant="eager")
    xl = upper_solve(factors, rhs, variant="lazy")
    scale = max(1.0, np.abs(xe.data).max())
    assert np.abs(xe.data - xl.data).max() < 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(shape=batch_shapes, seed=seeds, zero_at=seeds)
def test_zero_diagonal_infnan_patterns_match_property(shape, seed, zero_at):
    """With a zero on U's diagonal both variants blow up the *same way*:
    matching inf/nan patterns per block (LAPACK getrs semantics)."""
    factors, rhs = _triangular_pair(shape, seed)
    data = factors.data.copy()
    for i in range(factors.nb):
        m = int(factors.sizes[i])
        data[i, zero_at % m, zero_at % m] = 0.0
    broken = BatchedMatrices(data, factors.sizes.copy())
    xe = upper_solve(broken, rhs, variant="eager")
    xl = upper_solve(broken, rhs, variant="lazy")
    assert np.array_equal(np.isnan(xe.data), np.isnan(xl.data))
    assert np.array_equal(np.isinf(xe.data), np.isinf(xl.data))
    finite = np.isfinite(xe.data) & np.isfinite(xl.data)
    scale = max(1.0, np.abs(xe.data[finite]).max(initial=0.0))
    gap = np.abs(xe.data[finite] - xl.data[finite]).max(initial=0.0)
    assert gap < 1e-12 * scale


@pytest.mark.parametrize("variant", LU_VARIANTS)
def test_empty_batch_and_size_one_blocks(variant):
    """nb = 0 and all-size-1 batches pass through every variant."""
    empty = BatchedMatrices(np.zeros((0, 4, 4)), np.zeros(0, dtype=np.int64))
    erhs = BatchedVectors(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
    if variant != "blocked":
        for solve in (lower_unit_solve, upper_solve):
            out = solve(empty, erhs, variant=variant)
            assert out.data.shape == (0, 4)
    out = lu_solve(lu_factor(empty), erhs, variant=variant)
    assert out.data.shape == (0, 4)

    ones = random_batch(5, 1, kind="diag_dominant", seed=0)
    rhs = random_rhs(ones)
    x = lu_solve(lu_factor(ones), rhs, variant=variant)
    for i in range(5):
        np.testing.assert_allclose(
            x.vector(i), rhs.vector(i) / ones.block(i)[0, 0], rtol=1e-15
        )


# -- blocked vs the frozen eager solutions ----------------------------------

#: per-block normwise bound of blocked against the frozen eager solves
BLOCKED_GOLDEN_RTOL = 1e-12


@pytest.mark.parametrize("pivoting", ["implicit", "explicit"])
@pytest.mark.parametrize("tile", TILES)
def test_blocked_matches_golden_eager_solutions(tile, pivoting):
    """On every healthy (or repaired) factorization of the golden
    batches, the blocked solve agrees with the frozen ``x_eager``."""
    with np.load(FIXTURE) as golden:
        golden = {k: golden[k] for k in golden.files}
    checked = 0
    for name in ("mixed", "clean"):
        pre = f"{tile}/{name}"
        A, sizes = golden[f"{pre}/A"], golden[f"{pre}/sizes"]
        rhs = BatchedVectors(golden[f"{pre}/b"], sizes)
        policies = POLICIES if name == "mixed" else CLEAN_POLICIES
        for policy in policies:
            key = f"{pre}/lu-{pivoting}/{policy}/x_eager"
            if key not in golden:
                continue
            with np.errstate(all="ignore"):
                fac = lu_factor(
                    BatchedMatrices(A.copy(), sizes),
                    pivoting=pivoting,
                    on_singular=policy,
                )
            want = golden[key]
            got = lu_solve(fac, rhs, "blocked").data
            assert np.isfinite(got).all(), key
            err = np.abs(got - want).max(axis=1)
            scale = np.abs(want).max(axis=1)
            assert (err <= BLOCKED_GOLDEN_RTOL * scale).all(), (
                f"{key}: normwise relative difference {(err / scale).max()}"
            )
            checked += 1
    assert checked >= 2  # the clean batch under None and "raise"
