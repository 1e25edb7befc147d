"""Core batched dense kernels: the paper's primary contribution.

Public surface:

* :class:`~repro.core.batch.BatchedMatrices` /
  :class:`~repro.core.batch.BatchedVectors` - variable-size batch
  containers with the warp-tile padding convention.
* :func:`~repro.core.batched_lu.lu_factor` /
  :func:`~repro.core.batched_trsv.lu_solve` - the small-size LU with
  implicit pivoting and its triangular solves (GETRF/GETRS).
* :func:`~repro.core.batched_gauss_huard.gh_factor` /
  :func:`~repro.core.batched_gauss_huard.gh_solve` - the Gauss-Huard
  and Gauss-Huard-T baselines.
* :func:`~repro.core.batched_gauss_jordan.gj_invert` /
  :func:`~repro.core.batched_gauss_jordan.gj_apply` - inversion-based
  alternative.
* :func:`~repro.core.explicit_inverse.invert_factors` /
  :func:`~repro.core.explicit_inverse.inverse_apply` - the explicit
  inverse apply mode: any factorization converted into contiguous
  ``(nb, tile, tile)`` inverses applied by one batched GEMV.
* :func:`~repro.core.batched_cholesky.cholesky_factor` /
  :func:`~repro.core.batched_cholesky.cholesky_solve` - the SPD variant
  (the paper's stated future work).
* :func:`~repro.core.batch.aos_to_soa` /
  :func:`~repro.core.batch.soa_to_aos` - the transforms to and from
  the interleaved ``(tile, tile, nb)`` layout the LU/TRSV/Gauss-Huard
  sweeps run on (contiguous per-step access across the batch).
"""

from .batch import (
    DEFAULT_BINS,
    MAX_TILE,
    BatchedMatrices,
    BatchedVectors,
    aos_to_soa,
    round_up_tile,
    soa_to_aos,
)
from .batched_cholesky import CholeskyFactors, cholesky_factor, cholesky_solve
from .degradation import (
    SINGULAR_POLICIES,
    DegradationRecord,
    SingularBlockError,
    substitute_singular_blocks,
)
from .batched_gauss_huard import GHFactors, gh_factor, gh_solve
from .batched_gauss_jordan import GJInverse, gj_apply, gj_invert
from .batched_lu import LUFactors, lu_factor, lu_reconstruct
from .explicit_inverse import (
    GJEInverseState,
    batched_gauss_jordan,
    inverse_apply,
    invert_factors,
)
from .batched_trsv import lower_unit_solve, lu_solve, upper_solve
from .random_batches import random_batch, random_rhs
from .validation import (
    factorization_errors,
    growth_factors,
    max_relative_error,
    solve_residuals,
)

__all__ = [
    "DEFAULT_BINS",
    "MAX_TILE",
    "BatchedMatrices",
    "BatchedVectors",
    "round_up_tile",
    "SINGULAR_POLICIES",
    "DegradationRecord",
    "SingularBlockError",
    "substitute_singular_blocks",
    "LUFactors",
    "lu_factor",
    "lu_reconstruct",
    "lower_unit_solve",
    "upper_solve",
    "lu_solve",
    "GHFactors",
    "gh_factor",
    "gh_solve",
    "GJInverse",
    "gj_invert",
    "gj_apply",
    "GJEInverseState",
    "batched_gauss_jordan",
    "invert_factors",
    "inverse_apply",
    "CholeskyFactors",
    "cholesky_factor",
    "cholesky_solve",
    "aos_to_soa",
    "soa_to_aos",
    "random_batch",
    "random_rhs",
    "factorization_errors",
    "growth_factors",
    "max_relative_error",
    "solve_residuals",
]
