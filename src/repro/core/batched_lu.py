"""Variable-size batched LU factorization (GETRF) for small matrices.

This module is the NumPy reference realisation of the paper's central
contribution (Section III-A): the LU factorization of a large batch of
independent small matrices, with *implicit* partial pivoting.

Three algorithmic variants are provided:

``lu_factor(..., pivoting="implicit")``
    The paper's default.  Its CUDA kernel marks pivot rows instead of
    swapping them (Figure 1, bottom): every unpivoted row does the same
    SCAL/GER work, and one combined permutation is applied at the
    off-load, which removes all inter-thread row traffic.  The SIMT
    kernel (:mod:`repro.gpu.kernels.lu`) keeps that scheme.  On the CPU
    the marks would force a masked full-height update per step, so this
    NumPy core swaps rows (one gather/scatter over the batch) and
    updates only the trailing submatrix.  Every row sees the same IEEE
    operations in the same order under both schemes, and tests pin the
    two bitwise.  It sweeps the interleaved ``(tile, tile, nb)`` layout
    (see :mod:`repro.core.batch`), so each step touches contiguous
    length-``nb`` vectors.

``lu_factor(..., pivoting="explicit")``
    Figure 1 (top): the textbook right-looking LU with explicit row
    exchanges, kept as a bitwise-comparable reference and for the
    pivoting ablation study.

``lu_factor(..., pivoting="none")``
    No pivoting at all; breaks down on general matrices (Section II-B)
    and exists to demonstrate exactly that in tests/benchmarks.

All variants run a *uniform* ``tile``-step loop: variable sizes are
handled by the identity-padding convention of
:class:`repro.core.batch.BatchedMatrices`, mirroring how the CUDA kernel
pads every problem to the warp width.  The padding steps factor an
identity block and are numerically inert, but they do execute flops -
the performance model charges for them, which reproduces the paper's
"eager LU is slower below size 32" observation.

Every variant returns its factors in interleaved storage
(:attr:`LUFactors.soa`); the explicit and no-pivot variants, kept as
the bitwise oracle and for the pivoting ablation, run on AoS tiles and
hand over a transposed copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .batch import BatchedMatrices, aos_to_soa, soa_to_aos, store_soa
from .blas import (
    batched_apply_row_perm,
    batched_ger_update,
    batched_scal_rows,
    batched_swap_rows,
)
from .degradation import (
    DegradationRecord,
    OnSingular,
    substitute_singular_blocks,
)
from .pivoting import identity_perms, invert_perms

__all__ = ["LUFactors", "lu_factor", "lu_reconstruct"]

Pivoting = Literal["implicit", "explicit", "none"]


@dataclass
class LUFactors:
    """Result of a batched LU factorization.

    Attributes
    ----------
    soa:
        Interleaved ``(tile, tile, nb)`` factor storage: ``soa[r, c, b]``
        is element ``(r, c)`` of block ``b``'s factors - the unit lower
        triangular ``L`` (strict lower part; unit diagonal implied) and
        the upper triangular ``U`` (upper part including the diagonal),
        in LAPACK ``getrf`` layout.  Rows are already in pivoted order,
        i.e. the combined row swap has been applied.
    perm:
        Gather permutations of shape ``(nb, tile)``:
        ``(P A)[k, :] = A[perm[k], :]`` and ``P A = L U``.
    info:
        LAPACK-style status per problem: ``0`` on success, ``k+1`` if the
        pivot of step ``k`` was zero or non-finite (singular block).
    sizes:
        Active size of every block.
    pivoting:
        Which pivoting strategy produced this factorization.
    degradation:
        Singular-block substitution record when ``lu_factor`` was
        called with an ``on_singular`` policy; None otherwise.

    The first ``lu_solve(..., "blocked")`` caches its inverted-band
    plan on the factorization (see :mod:`repro.core.batched_trsv`);
    writing to :attr:`soa` afterwards leaves that plan stale.
    """

    soa: np.ndarray
    perm: np.ndarray
    info: np.ndarray
    sizes: np.ndarray
    pivoting: Pivoting = "implicit"
    degradation: DegradationRecord | None = None
    _blocked_plan: object = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def factors(self) -> BatchedMatrices:
        """The factors as an AoS ``(nb, tile, tile)`` batch.

        Built from :attr:`soa` on every access and never cached, so the
        factor memory is not doubled; writes to it do not reach the
        factorization.
        """
        return BatchedMatrices(soa_to_aos(self.soa), self.sizes.copy())

    @property
    def nb(self) -> int:
        return self.soa.shape[2]

    @property
    def tile(self) -> int:
        return self.soa.shape[0]

    @property
    def ok(self) -> bool:
        """True if every block factorized without a zero pivot."""
        return bool((self.info == 0).all())

    def unit_lower(self) -> np.ndarray:
        """Dense ``(nb, tile, tile)`` copy of L with its unit diagonal."""
        L = np.tril(self.factors.data, k=-1)
        idx = np.arange(self.tile)
        L[:, idx, idx] = 1.0
        return L

    def upper(self) -> np.ndarray:
        """Dense ``(nb, tile, tile)`` copy of U."""
        return np.triu(self.factors.data)


_CORES = {}  # pivoting name -> batched core, filled after the defs below


def lu_factor(
    batch: BatchedMatrices,
    pivoting: Pivoting = "implicit",
    overwrite: bool = False,
    on_singular: OnSingular | None = None,
) -> LUFactors:
    """Factorize every block of ``batch`` as ``P A_i = L_i U_i``.

    Parameters
    ----------
    batch:
        The matrices to factorize (identity-padded, see
        :class:`~repro.core.batch.BatchedMatrices`).
    pivoting:
        ``"implicit"`` (default, the paper's scheme), ``"explicit"``
        (textbook row swaps) or ``"none"``.
    overwrite:
        If True, the batch's storage is destroyed: once the
        factorization (and any substitution) is done, the factors are
        moved into it and hold no memory beyond the caller's buffer.
    on_singular:
        None (default) keeps the LAPACK behaviour: singular blocks are
        flagged in ``info`` and the caller decides.  A policy name from
        :data:`~repro.core.degradation.SINGULAR_POLICIES` delegates to
        the shared substitution engine: ``"raise"`` aborts with
        :class:`~repro.core.degradation.SingularBlockError`, the other
        policies replace the failed blocks' factors so the returned
        factorization is usable (``info`` cleared, original status in
        ``degradation``).

    Returns
    -------
    LUFactors
        Factors in pivoted order, the combined permutation, and the
        per-problem ``info`` status.

    Notes
    -----
    Zero pivots are handled LAPACK-style: the scaling of the multiplier
    column is skipped, ``info`` records the first offending step, and
    the factorization continues (the resulting ``U`` is singular).
    """
    if pivoting not in ("implicit", "explicit", "none"):
        raise ValueError(f"unknown pivoting strategy: {pivoting!r}")
    sizes = batch.sizes.copy()
    core = _CORES[pivoting]
    out, perm, info = core(batch.data)
    record = None
    if on_singular is not None:

        def refactor(cand: np.ndarray, idx: np.ndarray) -> np.ndarray:
            sub_out, sub_perm, sub_info = core(cand)
            out[:, :, idx] = sub_out
            perm[idx] = sub_perm
            return sub_info

        record = substitute_singular_blocks(
            on_singular,
            info,
            refactor,
            batch.data,
            sizes,
            out.shape[0],
            out.dtype,
            kernel=f"batched LU ({pivoting} pivoting)",
        )
    if overwrite:
        out = store_soa(batch.data, out)
    return LUFactors(
        soa=out,
        perm=perm,
        info=info,
        sizes=sizes,
        pivoting=pivoting,
        degradation=record,
    )


def _factor_implicit(A: np.ndarray):
    """Right-looking LU with row swaps on the interleaved layout.

    The sweep runs on an interleaved copy ``S`` of the AoS input ``A``
    (which is left untouched).  Step ``k`` picks the pivot among rows
    ``k..`` of column ``k``, swaps it into row ``k`` of every block with
    one gather/scatter, scales the ``nb``-vectors below it, and applies
    the rank-1 update to the trailing ``S[k+1:, k+1:]`` only: no masks
    and no work on finished rows.  Every row sees the same IEEE
    operations in the same order as under Figure 1's marking scheme,
    which the SIMT kernel keeps, so the two agree bitwise, as does the
    AoS ``"explicit"`` oracle.
    """
    S = aos_to_soa(A)
    tile, _, nb = S.shape
    barange = np.arange(nb)
    pos = identity_perms(nb, tile).T.copy()  # pos[r, b]: original row at r
    singular = np.empty((tile, nb), dtype=bool)  # per step: pivot 0/NaN/Inf
    for k in range(tile):
        # -- pivot search over rows k..: NaN maps to +inf, so a
        # contaminated row wins deterministically and is flagged below;
        # exact ties break to the lowest ORIGINAL row, as in the
        # marking scheme (whose rows never move).
        col = np.abs(S[k:, k, :])
        np.copyto(col, np.inf, where=np.isnan(col))
        tied = col == col.max(axis=0)
        ipiv = k + np.where(tied, pos[k:], tile).argmin(axis=0)
        # -- swap rows k and ipiv of every block (whole rows: LAPACK
        # layout keeps the multipliers with their row).
        rows = S[ipiv, :, barange]
        S[ipiv, :, barange] = S[k].T
        S[k] = rows.T
        pk = pos[k].copy()
        pos[k] = pos[ipiv, barange]
        pos[ipiv, barange] = pk
        # -- SCAL + GER.  A singular pivot scales by 1.0 (exact), which
        # leaves its column as LAPACK does, without a mask.
        pivot = S[k, k]
        np.logical_or(pivot == 0, ~np.isfinite(pivot), out=singular[k])
        S[k + 1 :, k] *= 1.0 / np.where(singular[k], 1.0, pivot)
        S[k + 1 :, k + 1 :] -= S[k + 1 :, k, None] * S[k, None, k + 1 :]
    info = np.where(singular.any(axis=0), singular.argmax(axis=0) + 1, 0)
    return S, pos.T.copy(), info


def _factor_explicit(A: np.ndarray):
    """Textbook right-looking LU with explicit row swaps (Figure 1, top).

    Runs on an AoS copy of ``A`` and returns interleaved factors.
    """
    A = A.copy()
    nb, tile, _ = A.shape
    barange = np.arange(nb)
    perm = identity_perms(nb, tile)
    info = np.zeros(nb, dtype=np.int64)
    rows = np.arange(tile)
    for k in range(tile):
        # Pivot search restricted to rows k..tile-1 (rows above are done).
        col = np.abs(A[:, :, k])
        col[:, :k] = -1.0
        # NaN candidates poison col.max (making `tied` all-False, so
        # argmin silently picks row 0); map them to +inf so the lowest
        # contaminated original row wins and is flagged as singular.
        np.copyto(col, np.inf, where=np.isnan(col))
        # Exact-magnitude ties break to the lowest ORIGINAL row index
        # (which perm tracks), not the lowest current position: earlier
        # swaps reorder tied rows, and the implicit scheme - whose rows
        # never move - resolves ties in original order.  Without this
        # the two variants pick different (equally valid) pivots on
        # tied columns and the bitwise-equivalence invariant breaks.
        tied = col == col.max(axis=1)[:, None]
        ipiv = np.where(tied, perm, tile).argmin(axis=1)
        pivot_val = A[barange, ipiv, k]
        singular = (pivot_val == 0) | ~np.isfinite(pivot_val)
        np.copyto(info, k + 1, where=(info == 0) & singular)
        # Explicit row exchange of rows k and ipiv (lines 8-9).  On the
        # GPU this step keeps 30 of 32 lanes idle - the cost the implicit
        # scheme removes.
        batched_swap_rows(A, k, ipiv)
        pk = perm[barange, k].copy()
        perm[barange, k] = perm[barange, ipiv]
        perm[barange, ipiv] = pk
        # SCAL + GER on the trailing rows k+1..
        below = rows[None, :] > k
        inv_pivot = np.ones_like(pivot_val)
        np.divide(1.0, pivot_val, out=inv_pivot, where=~singular)
        batched_scal_rows(A, k, inv_pivot, below & ~singular[:, None])
        batched_ger_update(A, k, A[:, k, :].copy(), below)
    return aos_to_soa(A), perm, info


def _factor_nopivot(A: np.ndarray):
    """LU without pivoting; numerically unstable, for the ablation only."""
    A = A.copy()
    nb, tile, _ = A.shape
    perm = identity_perms(nb, tile)
    info = np.zeros(nb, dtype=np.int64)
    rows = np.arange(tile)
    for k in range(tile):
        pivot_val = A[:, k, k].copy()
        singular = (pivot_val == 0) | ~np.isfinite(pivot_val)
        np.copyto(info, k + 1, where=(info == 0) & singular)
        below = rows[None, :] > k
        inv_pivot = np.ones_like(pivot_val)
        np.divide(1.0, pivot_val, out=inv_pivot, where=~singular)
        batched_scal_rows(A, k, inv_pivot, below & ~singular[:, None])
        batched_ger_update(A, k, A[:, k, :].copy(), below)
    return aos_to_soa(A), perm, info


_CORES.update(
    implicit=_factor_implicit,
    explicit=_factor_explicit,
    none=_factor_nopivot,
)


def lu_reconstruct(fac: LUFactors) -> np.ndarray:
    """Recombine ``P^T (L U)``: returns the batch of original matrices.

    Used by tests and examples to verify ``A = P^T L U`` (equivalently
    ``P A = L U``) to within rounding.
    """
    LU = fac.unit_lower() @ fac.upper()
    inv = invert_perms(fac.perm)
    return batched_apply_row_perm(LU, inv)
