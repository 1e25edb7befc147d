"""Unit tests for the batched containers (repro.core.batch)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import gh_factor, gh_solve, lu_factor, lu_solve
from repro.core.batch import (
    DEFAULT_BINS,
    MAX_TILE,
    BatchedMatrices,
    BatchedVectors,
    aos_to_soa,
    round_up_tile,
    soa_to_aos,
)

from tests.strategies import batch_shapes, make_batch, make_rhs, seeds

LAYOUT_SEED = 11


class TestRoundUpTile:
    def test_powers_of_two(self):
        assert round_up_tile(1) == 1
        assert round_up_tile(2) == 2
        assert round_up_tile(3) == 4
        assert round_up_tile(5) == 8
        assert round_up_tile(9) == 16
        assert round_up_tile(17) == 32
        assert round_up_tile(32) == 32

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            round_up_tile(0)

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            round_up_tile(MAX_TILE + 1)


class TestBatchedMatricesConstruction:
    def test_zeros_shape_and_sizes(self):
        b = BatchedMatrices.zeros(7, 16)
        assert b.nb == 7
        assert b.tile == 16
        assert len(b) == 7
        assert (b.sizes == 16).all()
        assert b.uniform

    def test_identity_padding_outside_active_block(self):
        m = np.arange(9, dtype=float).reshape(3, 3) + 1
        b = BatchedMatrices.identity_padded([m], tile=8)
        np.testing.assert_array_equal(b.block(0), m)
        pad = b.data[0, 3:, 3:]
        np.testing.assert_array_equal(pad, np.eye(5))
        assert (b.data[0, :3, 3:] == 0).all()
        assert (b.data[0, 3:, :3] == 0).all()

    def test_identity_padded_variable_sizes(self):
        mats = [np.eye(2), np.eye(5), np.eye(3)]
        b = BatchedMatrices.identity_padded(mats)
        assert b.tile == 8  # rounded up from 5
        np.testing.assert_array_equal(b.sizes, [2, 5, 3])
        assert not b.uniform

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="not square"):
            BatchedMatrices.identity_padded([np.zeros((2, 3))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BatchedMatrices.identity_padded([])

    def test_rejects_bad_dtype(self):
        with pytest.raises(TypeError):
            BatchedMatrices(np.zeros((2, 4, 4), dtype=np.int32), np.full(2, 4))

    def test_rejects_size_out_of_range(self):
        with pytest.raises(ValueError):
            BatchedMatrices(np.zeros((2, 4, 4)), np.array([4, 5]))

    def test_rejects_oversized_block_for_tile(self):
        with pytest.raises(ValueError, match="exceeds tile"):
            BatchedMatrices.identity_padded([np.eye(6)], tile=4)

    def test_noncontiguous_input_made_contiguous(self):
        raw = np.zeros((4, 4, 8))[:, :, ::2]
        b = BatchedMatrices(raw, np.full(4, 4))
        assert b.data.flags.c_contiguous

    def test_from_arrays_defaults_full_tile(self):
        b = BatchedMatrices.from_arrays(np.zeros((3, 8, 8)))
        assert (b.sizes == 8).all()


class TestBatchedMatricesViews:
    def test_block_is_view(self):
        b = BatchedMatrices.zeros(2, 4)
        b.block(1)[0, 0] = 5.0
        assert b.data[1, 0, 0] == 5.0

    def test_blocks_iterates_all(self):
        b = BatchedMatrices.identity_padded([np.eye(2) * i for i in range(1, 4)])
        got = [blk[0, 0] for blk in b.blocks()]
        assert got == [1.0, 2.0, 3.0]

    def test_row_mask(self):
        b = BatchedMatrices.identity_padded([np.eye(2), np.eye(4)], tile=4)
        mask = b.row_mask()
        np.testing.assert_array_equal(mask[0], [True, True, False, False])
        np.testing.assert_array_equal(mask[1], [True] * 4)

    def test_active_mask_counts(self):
        b = BatchedMatrices.identity_padded([np.eye(3)], tile=8)
        assert b.active_mask()[0].sum() == 9

    def test_copy_is_independent(self):
        b = BatchedMatrices.zeros(2, 4)
        c = b.copy()
        c.data[0, 0, 0] = 1.0
        assert b.data[0, 0, 0] == 0.0

    def test_astype_roundtrip(self):
        b = BatchedMatrices.zeros(2, 4, dtype=np.float64)
        c = b.astype(np.float32)
        assert c.dtype == np.float32
        assert b.dtype == np.float64


class TestFlopCounts:
    def test_lu_flops_leading_term(self):
        b = BatchedMatrices.zeros(10, 32)
        # 10 blocks of size 32: 10 * 2/3 * 32^3
        assert b.flops_lu() == int(10 * 2 * 32**3 / 3)

    def test_trsv_flops(self):
        b = BatchedMatrices.zeros(5, 16)
        assert b.flops_trsv_pair() == 5 * 2 * 16**2

    def test_padded_lu_flops_charge_full_tile(self):
        b = BatchedMatrices.identity_padded([np.eye(3), np.eye(7)], tile=8)
        assert b.flops_lu_padded() == int(2 * 2 * 8**3 / 3)
        assert b.flops_lu_padded(tile=16) == int(2 * 2 * 16**3 / 3)
        assert b.flops_lu_padded() >= b.flops_lu()

    def test_padded_lu_flops_reject_bad_tile(self):
        with pytest.raises(ValueError):
            BatchedMatrices.zeros(1, 4).flops_lu_padded(tile=0)


class TestSplitBySize:
    def _mixed(self):
        return BatchedMatrices.identity_padded(
            [np.eye(m) for m in (3, 17, 4, 9, 32, 3)], tile=32
        )

    def test_warp_ladder_assignment(self):
        groups = self._mixed().split_by_size(DEFAULT_BINS)
        # only occupied bins appear (no size lands in (4, 8]), ascending
        assert list(groups) == [4, 16, 32]
        np.testing.assert_array_equal(groups[4], [0, 2, 5])
        np.testing.assert_array_equal(groups[16], [3])
        np.testing.assert_array_equal(groups[32], [1, 4])

    def test_indices_partition_the_batch(self):
        b = self._mixed()
        all_idx = np.concatenate(list(b.split_by_size().values()))
        np.testing.assert_array_equal(np.sort(all_idx), np.arange(b.nb))

    def test_exact_grouping_with_none(self):
        groups = self._mixed().split_by_size(None)
        assert list(groups) == [3, 4, 9, 17, 32]
        np.testing.assert_array_equal(groups[3], [0, 5])

    def test_empty_batch(self):
        b = BatchedMatrices.from_arrays(np.zeros((0, 4, 4)))
        assert b.split_by_size() == {}
        assert b.padding_waste() == {}

    def test_rejects_bad_bins(self):
        b = self._mixed()
        with pytest.raises(ValueError, match="not be empty"):
            b.split_by_size(())
        with pytest.raises(ValueError, match="positive"):
            b.split_by_size((0, 8))
        with pytest.raises(ValueError, match="distinct"):
            b.split_by_size((8, 8))
        with pytest.raises(ValueError, match="exceeds the"):
            b.split_by_size((4, 16))


class TestPaddingWaste:
    def test_per_bin_accounting(self):
        b = BatchedMatrices.identity_padded(
            [np.eye(3), np.eye(4), np.eye(30)], tile=32
        )
        waste = b.padding_waste(DEFAULT_BINS)
        assert set(waste) == {4, 32}
        four = waste[4]
        assert four["nb"] == 2
        assert four["padded_flops"] == int(2 * 2 * 4**3 / 3)
        assert four["useful_flops"] == int(2 * (3**3 + 4**3) / 3)
        assert four["waste_flops"] == (
            four["padded_flops"] - four["useful_flops"]
        )
        assert 0.0 <= four["waste_fraction"] < 1.0

    def test_full_blocks_waste_nothing(self):
        b = BatchedMatrices.identity_padded([np.eye(4), np.eye(4)])
        (only,) = b.padding_waste().values()
        assert only["waste_flops"] == 0
        assert only["waste_fraction"] == 0.0

    def test_exact_bins_waste_nothing(self):
        b = BatchedMatrices.identity_padded(
            [np.eye(m) for m in (3, 17, 9)], tile=32
        )
        for entry in b.padding_waste(None).values():
            assert entry["waste_flops"] == 0


class TestBatchedVectors:
    def test_from_vectors_padding(self):
        v = BatchedVectors.from_vectors([np.ones(3), np.ones(5)])
        assert v.tile == 8
        assert (v.data[0, 3:] == 0).all()
        np.testing.assert_array_equal(v.sizes, [3, 5])

    def test_vector_view(self):
        v = BatchedVectors.from_vectors([np.arange(4.0)])
        v.vector(0)[0] = 9.0
        assert v.data[0, 0] == 9.0
        assert len(list(v.vectors())) == 1

    def test_zeros_with_sizes(self):
        v = BatchedVectors.zeros(3, 8, sizes=[2, 3, 4])
        np.testing.assert_array_equal(v.sizes, [2, 3, 4])
        assert len(v) == 3

    def test_row_mask(self):
        v = BatchedVectors.zeros(1, 4, sizes=[2])
        np.testing.assert_array_equal(v.row_mask()[0], [True, True, False, False])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BatchedVectors(np.zeros((2, 3, 4)), np.full(2, 3))
        with pytest.raises(ValueError):
            BatchedVectors(np.zeros((2, 4)), np.array([4, 5]))

    def test_copy_independent(self):
        v = BatchedVectors.zeros(2, 4)
        w = v.copy()
        w.data[0, 0] = 3.0
        assert v.data[0, 0] == 0.0


class TestLayoutTransforms:
    @given(shape=batch_shapes, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_matrix_round_trip_is_bit_exact(self, shape, seed):
        nb, max_size = shape
        batch = make_batch(nb, max_size, seed, dominant=False)
        soa = aos_to_soa(batch.data)
        assert soa.shape == (batch.tile, batch.tile, nb)
        assert soa.flags["C_CONTIGUOUS"]
        back = soa_to_aos(soa)
        assert back.shape == batch.data.shape
        assert back.tobytes() == batch.data.tobytes()

    @given(shape=batch_shapes, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_vector_round_trip_is_bit_exact(self, shape, seed):
        nb, max_size = shape
        batch = make_batch(nb, max_size, seed, dominant=False)
        rhs = make_rhs(batch, seed + 1)
        soa = aos_to_soa(rhs.data)
        assert soa.shape == (batch.tile, nb)
        assert soa_to_aos(soa).tobytes() == rhs.data.tobytes()

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_special_values_survive(self, seed):
        # NaN payloads, signed zeros and infinities are storage bits
        # like any other; the transform must not canonicalise them.
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((3, 4, 4))
        data[0, 0, 0] = np.nan
        data[1, 2, 3] = -0.0
        data[2, 1, 1] = np.inf
        assert soa_to_aos(aos_to_soa(data)).tobytes() == data.tobytes()

    @given(shape=batch_shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_padding_preserved(self, shape, seed):
        nb, max_size = shape
        batch = make_batch(nb, max_size, seed, dominant=True)
        back = BatchedMatrices(
            soa_to_aos(aos_to_soa(batch.data)), batch.sizes.copy()
        )
        # the identity-padding invariant survives the round trip
        for i in range(nb):
            m = int(batch.sizes[i])
            pad = back.data[i, m:, m:]
            np.testing.assert_array_equal(
                pad, np.eye(batch.tile - m)
            )
            assert not back.data[i, :m, m:].any()
            assert not back.data[i, m:, :m].any()

    def test_empty_batch(self):
        data = np.zeros((0, 8, 8))
        soa = aos_to_soa(data)
        assert soa.shape == (8, 8, 0)
        assert soa_to_aos(soa).shape == (0, 8, 8)
        vec = np.zeros((0, 8))
        assert aos_to_soa(vec).shape == (8, 0)

    def test_single_matrix(self):
        rng = np.random.default_rng(LAYOUT_SEED)
        data = rng.standard_normal((1, 4, 4))
        soa = aos_to_soa(data)
        np.testing.assert_array_equal(soa[:, :, 0], data[0])
        assert soa_to_aos(soa).tobytes() == data.tobytes()

    def test_transform_never_aliases_the_input(self):
        # regression: for degenerate shapes (nb == 1, tile == 1) the
        # transposed view is already C-contiguous, so a bare
        # ascontiguousarray would return a view and the in-place SoA
        # kernels would destroy the caller's batch
        for shape in ((1, 4, 4), (4, 1, 1), (1, 1, 1), (1, 4)):
            data = np.random.default_rng(LAYOUT_SEED).standard_normal(shape)
            soa = aos_to_soa(data)
            assert not np.shares_memory(soa, data)
            assert not np.shares_memory(soa_to_aos(soa), soa)

    def test_solve_does_not_mutate_rhs(self):
        # nb == tile == 1: the SoA copy of the right-hand side would
        # alias it without the always-copy rule
        batch = make_batch(1, 1, LAYOUT_SEED, dominant=True)
        rhs = make_rhs(batch, LAYOUT_SEED + 1)
        before = rhs.data.copy()
        lu_solve(lu_factor(batch), rhs)
        gh_solve(gh_factor(batch), rhs)
        np.testing.assert_array_equal(rhs.data, before)

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            aos_to_soa(np.zeros(5))
        with pytest.raises(ValueError, match="expected"):
            soa_to_aos(np.zeros((2, 2, 2, 2)))
