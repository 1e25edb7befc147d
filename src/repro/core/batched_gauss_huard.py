"""Variable-size batched Gauss-Huard factorization and solve.

The paper benchmarks its small-size LU against the batched Gauss-Huard
(GH) kernels of the companion ICCS'17 paper [7] ("Variable-size batched
Gauss-Huard for block-Jacobi preconditioning").  GH is Huard's variant
of Gauss-Jordan elimination restricted so that its cost matches the LU
factorization (``2/3 m^3`` flops) while eliminating *above* the
diagonal as it proceeds:

at stage ``k`` (0-based):

1. *lazy row update* - row ``k`` is brought up to date using the rows
   above it: ``A[k, k:] -= A[k, :k] @ A[:k, k:]`` (a small GEMV);
2. *column pivoting* - the entry of largest magnitude in
   ``A[k, k:]`` is chosen; columns are exchanged, which permutes the
   *solution* rather than the right-hand side;
3. *scaling* - ``A[k, k+1:] /= A[k, k]``;
4. *upward elimination* - ``A[:k, k+1:] -= A[:k, k] * A[k, k+1:]``.

The overwritten matrix stores everything the preconditioner application
needs: the strict lower triangle holds the lazy-update multipliers, the
diagonal the pivots, and the strict upper triangle the upward
elimination multipliers.  Application interleaves a forward substitution
with the upward eliminations at a cost of ``2 m^2`` flops - the same as
the two triangular solves of GETRS.

GH with column pivoting has the same practical stability as LU with
partial pivoting (Dekker, Hoffmann & Potma, Computing 58, 1997), which
is why the paper treats iteration-count differences between the two
preconditioners as pure rounding noise (Figure 8).

``Gauss-Huard-T`` stores the factors *transposed* so that the
preconditioner application reads them with unit stride (coalesced on
the GPU) at the price of strided writes during the factorization.  Both
layouts are bit-identical in exact arithmetic and in this NumPy
realisation; they differ only in the memory-access pattern, which the
performance model charges for.

Factorization and solve sweep the interleaved ``(tile, tile, nb)``
layout (see :mod:`repro.core.batch`), so every stage touches
contiguous length-``nb`` vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import (
    BatchedMatrices,
    BatchedVectors,
    aos_to_soa,
    soa_to_aos,
    store_soa,
)
from .degradation import (
    DegradationRecord,
    OnSingular,
    substitute_singular_blocks,
)
from .pivoting import identity_perms

__all__ = ["GHFactors", "gh_factor", "gh_solve"]


@dataclass
class GHFactors:
    """Result of a batched Gauss-Huard factorization.

    Attributes
    ----------
    soa:
        Interleaved ``(tile, tile, nb)`` storage of the GH matrix
        (``soa[r, c, b]`` is element ``(r, c)`` of block ``b``): lower =
        lazy multipliers, diagonal = pivots, upper = upward-elimination
        multipliers.  When ``transposed`` is True it physically holds
        the transpose of that matrix (the GH-T layout).
    colperm:
        Gather permutation over columns: position ``k`` of the factored
        matrix corresponds to original column ``colperm[b, k]``, so the
        computed intermediate ``z`` satisfies ``x[colperm[k]] = z[k]``.
    info:
        0 on success, ``k+1`` if the pivot of stage ``k`` was zero or
        non-finite.
    sizes:
        Active size of every block.
    transposed:
        True for the Gauss-Huard-T storage layout.
    degradation:
        Singular-block substitution record when ``gh_factor`` was
        called with an ``on_singular`` policy; None otherwise.
    """

    soa: np.ndarray
    colperm: np.ndarray
    info: np.ndarray
    sizes: np.ndarray
    transposed: bool = False
    degradation: DegradationRecord | None = None

    @property
    def factors(self) -> BatchedMatrices:
        """The factors as an AoS ``(nb, tile, tile)`` batch (GH or GH-T
        layout), built from :attr:`soa` on every access and never
        cached."""
        return BatchedMatrices(soa_to_aos(self.soa), self.sizes.copy())

    @property
    def nb(self) -> int:
        return self.soa.shape[2]

    @property
    def tile(self) -> int:
        return self.soa.shape[0]

    @property
    def ok(self) -> bool:
        return bool((self.info == 0).all())


def gh_factor(
    batch: BatchedMatrices,
    transposed: bool = False,
    overwrite: bool = False,
    on_singular: OnSingular | None = None,
) -> GHFactors:
    """Gauss-Huard factorization (with column pivoting) of every block.

    Parameters
    ----------
    batch:
        Identity-padded batch of small matrices.
    transposed:
        Store the factors in the GH-T (transpose-friendly) layout.
    overwrite:
        Destroy the input batch storage: the finished factors are moved
        into it and hold no memory beyond the caller's buffer.
    on_singular:
        None keeps the flag-and-continue behaviour; a policy name
        delegates singular blocks to the shared substitution engine
        (see :func:`repro.core.batched_lu.lu_factor`).
    """
    sizes = batch.sizes.copy()
    S = aos_to_soa(batch.data)
    colperm, info = _gh_core(S)
    record = None
    if on_singular is not None:

        def refactor(cand: np.ndarray, idx: np.ndarray) -> np.ndarray:
            sub = aos_to_soa(cand)
            sub_colperm, sub_info = _gh_core(sub)
            S[:, :, idx] = sub
            colperm[idx] = sub_colperm
            return sub_info

        record = substitute_singular_blocks(
            on_singular,
            info,
            refactor,
            batch.data,
            sizes,
            S.shape[0],
            S.dtype,
            kernel="batched Gauss-Huard",
        )
    if transposed:
        # GH-T: pay strided writes once here so the solve can stream the
        # factors with unit stride.
        S = S.transpose(1, 0, 2)
    S = store_soa(batch.data, S) if overwrite else np.ascontiguousarray(S)
    return GHFactors(
        soa=S,
        colperm=colperm,
        info=info,
        sizes=sizes,
        transposed=transposed,
        degradation=record,
    )


def _gh_core(S: np.ndarray):
    """In-place Gauss-Huard loop over one interleaved ``(tile, tile,
    nb)`` batch; returns ``(colperm, info)``."""
    tile, _, nb = S.shape
    barange = np.arange(nb)
    colperm = identity_perms(nb, tile)
    info = np.zeros(nb, dtype=np.int64)
    for k in range(tile):
        # 1. lazy row update (DOT/GEMV with the rows above).
        if k:
            S[k, k:, :] -= np.einsum(
                "jb,jcb->cb", S[k, :k, :], S[:k, k:, :]
            )
        # 2. column pivot among positions k..tile-1 of row k.  Ties
        #    break to the lowest column index, so padding columns (which
        #    hold exact zeros in active rows) are never preferred.
        row = np.abs(S[k, :, :])
        row[:k, :] = -1.0
        # argmax treats NaN as maximal: map NaN candidates to +inf so
        # the lowest contaminated column wins and is flagged as
        # singular below instead of being selected silently.
        np.copyto(row, np.inf, where=np.isnan(row))
        jpiv = row.argmax(axis=0)
        # exchange columns k <-> jpiv and the permutation record
        swap = jpiv != k
        if swap.any():
            ck = S[:, k, :].copy()
            cj = S[:, jpiv, barange].copy()
            S[:, k, :] = np.where(swap[None, :], cj, ck)
            S[:, jpiv, barange] = np.where(swap[None, :], ck, cj)
            pk = colperm[barange, k].copy()
            pj = colperm[barange, jpiv].copy()
            colperm[barange, k] = np.where(swap, pj, pk)
            colperm[barange, jpiv] = np.where(swap, pk, pj)
        pivot = S[k, k, :]
        singular = (pivot == 0) | ~np.isfinite(pivot)
        np.copyto(info, k + 1, where=(info == 0) & singular)
        inv_pivot = np.ones_like(pivot)
        np.divide(1.0, pivot, out=inv_pivot, where=~singular)
        # 3. scale the remainder of row k.
        if k + 1 < tile:
            S[k, k + 1 :, :] *= inv_pivot[None, :]
            # 4. eager upward elimination of the rows above.
            if k:
                S[:k, k + 1 :, :] -= (
                    S[:k, k, None, :] * S[None, k, k + 1 :, :]
                )
    return colperm, info


def gh_solve(fac: GHFactors, rhs: BatchedVectors) -> BatchedVectors:
    """Apply the Gauss-Huard factorization to right-hand sides.

    Replays the factorization's stages on ``b``: lazily update ``b_k``
    with the stored multipliers, divide by the pivot, then eagerly
    eliminate upward - an interleaved forward/backward pass of
    ``2 m^2`` flops.  Finally the column permutation is scattered onto
    the solution (``x[colperm[k]] = z[k]``).
    """
    if not fac.ok:
        bad = int(np.count_nonzero(fac.info))
        raise ValueError(
            f"gh_solve called on a factorization with {bad} singular "
            "block(s); inspect GHFactors.info"
        )
    if fac.nb != rhs.nb or fac.tile != rhs.tile:
        raise ValueError("factor/right-hand-side batch mismatch")
    S = fac.soa
    b = aos_to_soa(rhs.data)  # (tile, nb)
    tile, nb = b.shape
    barange = np.arange(nb)

    if not fac.transposed:
        row = lambda k: S[k]  # noqa: E731 - local accessors keep the
        col = lambda k: S[:, k, :]  # noqa: E731   loop body layout-agnostic
    else:
        row = lambda k: S[:, k, :]  # noqa: E731
        col = lambda k: S[k]  # noqa: E731

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(tile):
            rk = row(k)
            if k:
                b[k, :] -= np.einsum("jb,jb->b", rk[:k], b[:k])
            b[k, :] /= rk[k]
            if k:
                b[:k, :] -= col(k)[:k] * b[k, :]
    x = np.empty_like(b)
    x[fac.colperm.T, barange[None, :]] = b
    return BatchedVectors(soa_to_aos(x), rhs.sizes.copy())
