"""Golden fixtures: frozen outputs of the batched LU, TRSV and
Gauss-Huard kernels, compared bit for bit.

``golden_kernels.npz`` holds seeded input batches at tiles 4/8/16/32
and everything the kernels returned for them:

* implicit and explicit LU - factors, ``perm``, ``info``, the
  ``DegradationRecord`` fields, and eager/lazy ``lu_solve`` solutions;
* Gauss-Huard and Gauss-Huard-T - factors, ``colperm``, ``info``,
  the record fields and ``gh_solve`` solutions;
* every ``on_singular`` policy (``None``, ``"raise"``, ``"identity"``,
  ``"scalar"``, ``"shift"``).

Factors are stored as a SHA-256 digest of their dtype, shape and
bytes, which keeps the file small and still pins them bit for bit.

Each tile has a ``mixed`` batch - healthy blocks beside a zero-row
block, a zero-column block, a block whose first row and column are all
``+-1`` (pivot ties in both LU and GH), and blocks with a NaN, +Inf and
-Inf pivot candidate - and a ``clean`` diagonally dominant batch,
factorized with no policy and with ``"raise"`` (which records an
all-clear).

A kernel rewrite that is meant to be bitwise must reproduce every array
byte for byte, NaN payloads included.  One output is held to rounding
instead: the untransposed Gauss-Huard solve, whose per-row DOT
(``einsum`` over the interleaved rows) accumulates in a different order
than the AoS sweep that produced the fixture; it must agree to a
per-block normwise relative difference of ``GH_SOLVE_RTOL``.
Regenerate the file only for a
change that is meant to alter kernel bits::

    PYTHONPATH=src python tests/core/test_golden_fixtures.py
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    BatchedMatrices,
    BatchedVectors,
    SingularBlockError,
    gh_factor,
    gh_solve,
    lu_factor,
    lu_solve,
)

FIXTURE = Path(__file__).with_name("golden_kernels.npz")
TILES = (4, 8, 16, 32)
METHODS = ("lu-implicit", "lu-explicit", "gh", "ght")
POLICIES = (None, "raise", "identity", "scalar", "shift")
#: the substitution policies are no-ops on the clean batches
CLEAN_POLICIES = (None, "raise")
SEED = 20260417
#: per-block normwise bound on the untransposed GH solutions
GH_SOLVE_RTOL = 1e-12


# -- inputs ------------------------------------------------------------------


def _mixed_batch(tile: int, rng: np.random.Generator) -> BatchedMatrices:
    """Healthy, singular, pivot-tie and non-finite blocks side by side."""
    half = max(1, tile // 2)
    blocks = []
    # 0-1: healthy, one full-size and one shorter block
    for m in (tile, int(rng.integers(half, tile + 1))):
        blocks.append(rng.uniform(-1.0, 1.0, (m, m)))
    # 2: an exactly zero row
    M = rng.uniform(-1.0, 1.0, (tile, tile))
    M[tile // 2] = 0.0
    blocks.append(M)
    # 3: an exactly zero column
    M = rng.uniform(-1.0, 1.0, (tile, tile))
    M[:, min(1, tile - 1)] = 0.0
    blocks.append(M)
    # 4: pivot ties - first row and column are +-1
    M = rng.uniform(-1.0, 1.0, (tile, tile))
    M[:, 0] = rng.choice((-1.0, 1.0), tile)
    M[0, :] = rng.choice((-1.0, 1.0), tile)
    blocks.append(M)
    # 5-7: NaN, +Inf and -Inf pivot candidates
    for r, c, v in ((0, 0, np.nan), (tile // 2, tile // 2, np.inf),
                    (tile - 1, 0, -np.inf)):
        M = rng.uniform(-1.0, 1.0, (tile, tile))
        M[np.arange(tile), np.arange(tile)] += tile
        M[r, c] = v
        blocks.append(M)
    return BatchedMatrices.identity_padded(blocks, tile=tile)


def _clean_batch(tile: int, rng: np.random.Generator) -> BatchedMatrices:
    sizes = rng.integers(1, tile + 1, 6)
    sizes[0] = tile
    blocks = []
    for m in sizes:
        M = rng.uniform(-1.0, 1.0, (m, m))
        M[np.arange(m), np.arange(m)] += m + 1.0
        blocks.append(M)
    return BatchedMatrices.identity_padded(blocks, tile=tile)


def _rhs(batch: BatchedMatrices, rng: np.random.Generator) -> BatchedVectors:
    data = rng.uniform(-1.0, 1.0, (batch.nb, batch.tile))
    data[~batch.row_mask()] = 0.0
    return BatchedVectors(data, batch.sizes.copy())


def build_inputs() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(SEED)
    out = {}
    for tile in TILES:
        for name, make in (("mixed", _mixed_batch), ("clean", _clean_batch)):
            batch = make(tile, rng)
            rhs = _rhs(batch, rng)
            out[f"{tile}/{name}/A"] = batch.data
            out[f"{tile}/{name}/sizes"] = batch.sizes
            out[f"{tile}/{name}/b"] = rhs.data
    return out


# -- outputs -----------------------------------------------------------------


def _digest(a: np.ndarray) -> np.ndarray:
    """SHA-256 of an array's dtype, shape and bytes, as 32 uint8."""
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return np.frombuffer(h.digest(), dtype=np.uint8)


def _factor(method: str, batch: BatchedMatrices, policy):
    if method.startswith("lu-"):
        return lu_factor(
            batch, pivoting=method[3:], on_singular=policy
        )
    return gh_factor(batch, transposed=(method == "ght"), on_singular=policy)


def kernel_outputs(
    inputs: dict[str, np.ndarray], tile: int, method: str
) -> dict[str, np.ndarray]:
    """Every frozen output of one (tile, method) pair, keyed like the
    fixture file."""
    out = {}
    with np.errstate(all="ignore"):
        for name in ("mixed", "clean"):
            _freeze_batch(out, inputs, f"{tile}/{name}", method)
    return out


def _freeze_batch(out: dict, inputs: dict, pre: str, method: str) -> None:
    A, sizes = inputs[f"{pre}/A"], inputs[f"{pre}/sizes"]
    rhs = BatchedVectors(inputs[f"{pre}/b"], sizes)
    policies = POLICIES if pre.endswith("mixed") else CLEAN_POLICIES
    for policy in policies:
        key = f"{pre}/{method}/{policy}"
        try:
            fac = _factor(method, BatchedMatrices(A.copy(), sizes), policy)
        except SingularBlockError as err:
            out[f"{key}/raised_info"] = err.info
            continue
        out[f"{key}/factors_sha256"] = _digest(fac.factors.data)
        perm = fac.perm if method.startswith("lu-") else fac.colperm
        out[f"{key}/perm"] = perm
        out[f"{key}/info"] = fac.info
        if fac.degradation is not None:
            rec = fac.degradation
            out[f"{key}/original_info"] = rec.original_info
            out[f"{key}/action"] = rec.action
            out[f"{key}/shift"] = rec.shift
        if not fac.ok:
            continue
        if method.startswith("lu-"):
            out[f"{key}/x_eager"] = lu_solve(fac, rhs, "eager").data
            out[f"{key}/x_lazy"] = lu_solve(fac, rhs, "lazy").data
        else:
            out[f"{key}/x"] = gh_solve(fac, rhs).data


# -- the test ----------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE) as f:
        return {k: f[k] for k in f.files}


def _assert_bitwise(key: str, got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype, f"{key}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{key}: shape {got.shape} != {want.shape}"
    if got.tobytes() != want.tobytes():
        with np.errstate(invalid="ignore"):
            diff = np.nanmax(np.abs(got.astype(float) - want.astype(float)))
        raise AssertionError(f"{key}: not bitwise equal (max |diff| {diff})")


def _assert_rounding(key: str, got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape, f"{key}: shape {got.shape} != {want.shape}"
    assert np.isfinite(got).all(), key
    err = np.abs(got - want).max(axis=1)
    scale = np.abs(want).max(axis=1)
    assert (err <= GH_SOLVE_RTOL * scale).all(), (
        f"{key}: normwise relative difference {(err / scale).max()}"
    )


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("tile", TILES)
def test_kernel_outputs_are_bitwise_frozen(golden, tile, method):
    got = kernel_outputs(golden, tile, method)
    want = {
        k: v for k, v in golden.items()
        if k.startswith(f"{tile}/") and f"/{method}/" in k
    }
    assert sorted(got) == sorted(want)
    for key in sorted(want):
        if method == "gh" and key.endswith("/x"):
            _assert_rounding(key, got[key], want[key])
        else:
            _assert_bitwise(key, got[key], want[key])


def test_fixture_exercises_every_failure_mode(golden):
    # the mixed batches must actually contain the faults they claim:
    # zero-row, zero-column, NaN and +-Inf blocks are flagged (the tie
    # block stays healthy), and every tile ran every policy
    for tile in TILES:
        info = golden[f"{tile}/mixed/lu-implicit/None/info"]
        assert info[[2, 3, 5, 6, 7]].all(), info
        assert not info[[0, 1, 4]].any(), info
        assert f"{tile}/mixed/gh/raise/raised_info" in golden
        for policy in ("identity", "scalar", "shift"):
            assert golden[f"{tile}/mixed/lu-explicit/{policy}/action"].any()


if __name__ == "__main__":
    inputs = build_inputs()
    frozen = dict(inputs)
    for tile in TILES:
        for method in METHODS:
            frozen.update(kernel_outputs(inputs, tile, method))
    np.savez_compressed(FIXTURE, **frozen)
    print(f"wrote {len(frozen)} arrays to {FIXTURE}")
