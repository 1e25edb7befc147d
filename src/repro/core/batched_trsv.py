"""Variable-size batched triangular solves (TRSV) and GETRS.

Reference realisation of Section III-B.  After the batched LU
factorization, applying the block-Jacobi preconditioner amounts to, per
block:

1. permute the right-hand side with the pivoting permutation
   (``b := P b``) - fused with the load of ``b`` into registers;
2. solve the unit lower triangular system ``L y = b``;
3. solve the upper triangular system ``U x = y``.

The paper discusses two algorithmic variants for each solve
(Figure 2): the "lazy" variant computes each solution component with a
DOT product (a warp reduction), while the "eager" variant updates the
trailing right-hand side with an AXPY as soon as a component is known.
The eager variant parallelises trivially across the warp and reads the
factor column-wise (coalesced in column-major storage), so it is the
one the CUDA kernel uses; both are implemented here and compared in the
ablation benchmark.  The eager sweeps run on the interleaved
``(tile, tile, nb)`` layout (see :mod:`repro.core.batch`), where every
AXPY touches contiguous length-``nb`` vectors; the lazy sweeps read
AoS tiles.

A third variant, ``"blocked"``, exists only for the full GETRS
(:func:`lu_solve`) and is the one the block-Jacobi apply uses: it
trades the ``2 tile`` AXPY steps for ``2 ceil(tile / r)`` batched GEMVs
with ``r = min(BLOCKED_R, tile)``.  On its first use a plan is built
and cached on the :class:`~repro.core.batched_lu.LUFactors`: each r-row
band of L becomes one matrix ``W = D^{-1} [-L_{band,<s} | I]`` (run
top-down) and each band of U one ``W = D^{-1} [I | -U_{band,>=e}]``
(run bottom-up), so a band costs ``x[:, band] = W @ x[:, span]``.
``W`` is formed by substituting the band's r x r diagonal triangle
``D`` against the bracketed matrix, without pivoting (the factors
are already pivoted).  This is the inverted-diagonal-block triangular
solve of GPU sparse solvers (Chen, Liu and Yang) on the batched small
GEMV of Jhurani and Mullowney.  It agrees with the eager sweeps to
rounding, not bitwise: the dot products it accumulates run over whole
bands.  :func:`lu_solve_many` runs the same plan against ``k``
right-hand sides per block, one batched GEMM per band.

All solves run uniform ``tile``-step loops; the identity padding of the
factors makes the padded steps numerically inert (multiplying zeros /
dividing by ones).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .batch import BatchedMatrices, BatchedVectors, aos_to_soa, soa_to_aos
from .batched_lu import LUFactors
from .blas import batched_dot_rows
from .pivoting import permute_vectors

__all__ = [
    "lower_unit_solve",
    "upper_solve",
    "lu_solve",
    "lu_solve_many",
]

Variant = Literal["eager", "lazy", "blocked"]

#: band height ``r`` of the blocked variant (capped at the tile)
BLOCKED_R = 16


def _check_pair(mats, rhs: BatchedVectors) -> None:
    """``mats``: a batch or factorization (anything with nb/tile)."""
    if mats.nb != rhs.nb or mats.tile != rhs.tile:
        raise ValueError(
            f"batch mismatch: matrices {mats.nb}x{mats.tile} vs "
            f"vectors {rhs.nb}x{rhs.tile}"
        )


def _require_ok(fac: LUFactors) -> None:
    if not fac.ok:
        bad = int(np.count_nonzero(fac.info))
        raise ValueError(
            f"lu_solve called on a factorization with {bad} singular "
            "block(s); inspect LUFactors.info"
        )


def _eager_lower(S: np.ndarray, b: np.ndarray) -> None:
    """Unit-lower AXPY sweep on interleaved ``S`` ``(tile, tile, nb)``
    and ``b`` ``(tile, nb)``, in place.  One column of L per step; the
    trailing vector is updated as soon as ``y_k`` is final, which is
    immediately because L has a unit diagonal."""
    for k in range(S.shape[0] - 1):
        b[k + 1 :, :] -= S[k + 1 :, k, :] * b[k, :]


def _eager_upper(S: np.ndarray, b: np.ndarray) -> None:
    """Upper AXPY sweep on interleaved storage, in place."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(S.shape[0] - 1, -1, -1):
            b[k, :] /= S[k, k, :]
            if k:
                b[:k, :] -= S[:k, k, :] * b[k, :]


def _lazy_lower(A: np.ndarray, b: np.ndarray) -> None:
    """Unit-lower DOT sweep on AoS ``A`` and ``b``, in place: one row
    of L per step; each component needs a DOT reduction."""
    for k in range(1, A.shape[1]):
        b[:, k] -= batched_dot_rows(A[:, k, :], b, k)


def _lazy_upper(A: np.ndarray, b: np.ndarray) -> None:
    """Upper DOT sweep on AoS storage, in place."""
    tile = A.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(tile - 1, -1, -1):
            if k + 1 < tile:
                b[:, k] -= np.einsum(
                    "bj,bj->b", A[:, k, k + 1 :], b[:, k + 1 :]
                )
            b[:, k] /= A[:, k, k]


_SWEEPS = {
    "eager": (_eager_lower, _eager_upper),
    "lazy": (_lazy_lower, _lazy_upper),
}


def _variant_sweeps(variant: Variant):
    """``(lower, upper)`` sweeps of a TRSV variant."""
    try:
        return _SWEEPS[variant]
    except KeyError:
        if variant == "blocked":
            raise ValueError(
                "the blocked variant needs an LUFactors plan; it is "
                "only available through lu_solve"
            ) from None
        raise ValueError(f"unknown variant {variant!r}") from None


def _substitute_lower(D: np.ndarray, X: np.ndarray) -> None:
    """``X := D^{-1} X`` for the unit lower triangles of AoS ``D``
    ``(nb, r, r)`` (strict lower part read), in place: forward
    substitution, one row of ``X`` per step, no pivoting."""
    for k in range(1, D.shape[1]):
        X[:, k] -= np.matmul(D[:, k, None, :k], X[:, :k])[:, 0]


def _substitute_upper(D: np.ndarray, X: np.ndarray) -> None:
    """``X := D^{-1} X`` for the upper triangles of AoS ``D``
    ``(nb, r, r)`` (diagonal included), in place: back substitution."""
    r = D.shape[1]
    for k in range(r - 1, -1, -1):
        if k + 1 < r:
            X[:, k] -= np.matmul(D[:, k, None, k + 1 :], X[:, k + 1 :])[:, 0]
        X[:, k] /= D[:, k, k, None]


def _band_plan(fac: LUFactors):
    """``(gather, lower, upper)`` plan of the blocked variant, built
    once per factorization and cached on it.

    ``gather`` is ``perm`` as flat indices into a C-ordered
    ``(nb, tile)`` right-hand side, so ``P b`` is one ``np.take``.
    ``lower`` and ``upper`` hold band steps ``(s, e, W)``.  A lower
    step sets ``x[:, s:e] = W @ x[:, :e]`` with
    ``W = D^{-1} [-L[s:e, :s] | I]``; an upper step sets
    ``x[:, s:e] = W @ x[:, s:]`` with ``W = D^{-1} [I | -U[s:e, e:]]``
    and the upper steps run bottom-up.  Each ``W`` comes from
    substituting its band's diagonal triangle ``D`` against the
    bracketed matrix.
    """
    plan = fac._blocked_plan
    if plan is not None:
        return plan
    A = soa_to_aos(fac.soa)
    nb, tile = A.shape[0], A.shape[1]
    r = min(BLOCKED_R, tile)
    lower, upper = [], []
    for s in range(0, tile, r):
        e = min(s + r, tile)
        D = A[:, s:e, s:e]
        band = np.arange(e - s)
        W = np.zeros((nb, e - s, e), dtype=A.dtype)
        np.negative(A[:, s:e, :s], out=W[:, :, :s])
        W[:, band, s + band] = 1.0
        _substitute_lower(D, W)
        lower.append((s, e, W))
        W = np.zeros((nb, e - s, tile - s), dtype=A.dtype)
        W[:, band, band] = 1.0
        np.negative(A[:, s:e, e:], out=W[:, :, e - s :])
        _substitute_upper(D, W)
        upper.append((s, e, W))
    gather = fac.perm + tile * np.arange(nb)[:, None]
    plan = (gather, tuple(lower), tuple(reversed(upper)))
    fac._blocked_plan = plan
    return plan


def _blocked_solve(fac: LUFactors, b: np.ndarray) -> np.ndarray:
    """``U^{-1} L^{-1} P b`` for AoS ``b``, blocked: ``b`` is
    ``(nb, tile)``, or ``(nb, tile, k)`` for ``k`` right-hand sides per
    block, which turns every band GEMV into a GEMM."""
    gather, lower, upper = _band_plan(fac)
    k = b.shape[2] if b.ndim == 3 else 1
    x = np.take(b.reshape(gather.size, k), gather, axis=0)
    for s, e, W in lower:
        x[:, s:e] = np.matmul(W, x[:, :e])
    for s, e, W in upper:
        x[:, s:e] = np.matmul(W, x[:, s:])
    return x.reshape(b.shape)


def _triangular_solve(
    part: int,
    factors: BatchedMatrices,
    rhs: BatchedVectors,
    variant: Variant,
    overwrite: bool,
) -> BatchedVectors:
    """One triangular solve on AoS factors (``part`` 0 = L, 1 = U)."""
    _check_pair(factors, rhs)
    sweep = _variant_sweeps(variant)[part]
    if variant == "eager":
        b = aos_to_soa(rhs.data)
        sweep(aos_to_soa(factors.data), b)
        b = soa_to_aos(b)
        if overwrite:
            rhs.data[...] = b
            b = rhs.data
    else:
        b = rhs.data if overwrite else rhs.data.copy()
        sweep(factors.data, b)
    return BatchedVectors(b, rhs.sizes.copy())


def lower_unit_solve(
    factors: BatchedMatrices,
    rhs: BatchedVectors,
    variant: Variant = "eager",
    overwrite: bool = False,
) -> BatchedVectors:
    """Solve ``L y = b`` with unit lower triangular ``L`` for every block.

    ``L`` is taken from the strict lower triangle of ``factors`` (the
    LAPACK ``getrf`` layout); the diagonal is implicitly one.

    Parameters
    ----------
    factors:
        Batch whose strict lower triangle holds the multipliers.
    rhs:
        Right-hand sides; overwritten with ``y`` if ``overwrite``.
    variant:
        ``"eager"`` (AXPY-based, Figure 2 bottom - the kernel's choice)
        or ``"lazy"`` (DOT-based, Figure 2 top); ``"blocked"`` is
        refused with ``ValueError`` (it lives in :func:`lu_solve`).
    """
    return _triangular_solve(0, factors, rhs, variant, overwrite)


def upper_solve(
    factors: BatchedMatrices,
    rhs: BatchedVectors,
    variant: Variant = "eager",
    overwrite: bool = False,
) -> BatchedVectors:
    """Solve ``U x = y`` with upper triangular ``U`` for every block.

    ``U`` is the upper triangle (diagonal included) of ``factors``.
    A zero diagonal entry (flagged by ``info`` at factorization time)
    yields ``inf``/``nan`` in that problem's solution, matching LAPACK
    ``getrs`` behaviour when called despite a nonzero ``info``.
    """
    return _triangular_solve(1, factors, rhs, variant, overwrite)


def lu_solve(
    fac: LUFactors,
    rhs: BatchedVectors,
    variant: Variant = "eager",
) -> BatchedVectors:
    """Batched GETRS: apply ``P``, then the two triangular solves.

    Solves ``A_i x_i = b_i`` for every problem in the batch given the
    factorization ``P A = L U`` from :func:`repro.core.batched_lu.lu_factor`.

    The permutation is fused with the load of ``b`` (Section III-B): a
    single gather produces the register image of ``P b``.  The eager
    sweeps read the interleaved factors directly; the lazy ones read
    the AoS :attr:`~repro.core.batched_lu.LUFactors.factors`.
    ``variant="blocked"`` runs ``2 ceil(tile / r)`` batched GEMVs
    against inverted-band matrices built on first use and cached on
    ``fac`` (see the module docstring); it agrees with ``"eager"`` to
    rounding.

    Raises
    ------
    ValueError
        If any block was flagged singular at factorization time
        (``fac.info != 0``); solving such a system is meaningless.
    """
    _require_ok(fac)
    _check_pair(fac, rhs)
    if variant == "blocked":
        return BatchedVectors(_blocked_solve(fac, rhs.data), rhs.sizes.copy())
    lower, upper = _variant_sweeps(variant)
    b = permute_vectors(rhs.data, fac.perm)
    if variant == "eager":
        b = aos_to_soa(b)
        lower(fac.soa, b)
        upper(fac.soa, b)
        b = soa_to_aos(b)
    else:
        A = fac.factors.data
        lower(A, b)
        upper(A, b)
    return BatchedVectors(b, rhs.sizes.copy())


def lu_solve_many(fac: LUFactors, B: np.ndarray) -> np.ndarray:
    """Blocked GETRS against ``k`` right-hand sides per block.

    ``B`` is an AoS ``(nb, tile, k)`` array (column ``j`` of ``B[i]`` is
    the ``j``-th right-hand side of block ``i``); the result has the same
    shape.  It runs the ``"blocked"`` plan of :func:`lu_solve` with each
    band step a batched GEMM, so solving against the identity yields
    every block's inverse in ``2 ceil(tile / r)`` steps.

    Raises
    ------
    ValueError
        As :func:`lu_solve`, or if ``B`` does not match the batch.
    """
    _require_ok(fac)
    if B.ndim != 3 or B.shape[:2] != (fac.nb, fac.tile):
        raise ValueError(
            f"right-hand sides {B.shape} do not match the batch "
            f"({fac.nb}, {fac.tile}, k)"
        )
    return _blocked_solve(fac, B)

