"""Cross-request batch coalescing: merge, execute once, scatter back.

The paper's economics - amortize per-matrix overhead by batching many
small factorizations into one launch - applied one level up: many
concurrent *requests*, each carrying a handful of small diagonal
blocks, are merged into one :class:`~repro.core.batch.BatchedMatrices`
and factorized by a single :class:`~repro.runtime.BatchRuntime` call.
The runtime's planner then bins the merged batch at the warp-tile
ladder exactly as it would a single large batch, so blocks from
different requests share warp-tile bins - the cross-request analogue
of the batched-GEMM launch amortization (Jhurani & Mullowney).

Soundness rests on two properties of the batched kernels:

* **per-block independence** - each block's factorization and solve
  read only that block's slot, so merging changes *scheduling*, never
  numerics: every requester's ``info`` and factors are bit-identical
  to a solo run of its own batch;
* **inert identity padding** - a request batch packed at a smaller
  tile extends to the merged tile by identity padding, whose trailing
  elimination steps are no-ops (the same argument that makes the
  variable-size batches work at all, module docstring of
  :mod:`repro.core.batch`).

The scatter maps are plain index ranges: request *r*'s blocks occupy a
contiguous segment of the merged batch, in admission order, so results
route back by slicing - no per-block bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.batch import BatchedMatrices, BatchedVectors
from ..runtime.executor import RuntimeFactorization

__all__ = [
    "TenantFactorization",
    "merge_batches",
    "merge_rhs",
]


def merge_batches(
    batches: list[BatchedMatrices],
) -> tuple[BatchedMatrices, list[np.ndarray]]:
    """Concatenate request batches into one identity-padded batch.

    The merged tile is the largest request tile; smaller requests'
    slots are extended with the identity pattern (numerically inert,
    see the module docstring).  Returns the merged batch and one
    index array per request (its blocks' positions in the merged
    batch, contiguous and in input order).

    All batches must share a dtype (the coalescer groups by dtype
    before calling this).
    """
    if not batches:
        raise ValueError("cannot merge an empty list of batches")
    dtypes = {b.dtype.str for b in batches}
    if len(dtypes) > 1:
        raise ValueError(f"cannot merge mixed dtypes {sorted(dtypes)}")
    tile = max(b.tile for b in batches)
    total = sum(b.nb for b in batches)
    data = np.zeros((total, tile, tile), dtype=batches[0].dtype)
    idx = np.arange(tile)
    data[:, idx, idx] = 1.0
    sizes = np.empty(total, dtype=np.int64)
    segments: list[np.ndarray] = []
    pos = 0
    for b in batches:
        t = b.tile
        # off-tile bands are already the identity pattern: the seeded
        # diagonal survives only at rows >= t, and the off-diagonal
        # bands were zero-initialised
        data[pos : pos + b.nb, :t, :t] = b.data
        sizes[pos : pos + b.nb] = b.sizes
        segments.append(np.arange(pos, pos + b.nb, dtype=np.int64))
        pos += b.nb
    return BatchedMatrices(data, sizes), segments


def merge_rhs(
    merged: BatchedMatrices,
    entries: list[tuple[np.ndarray, BatchedVectors]],
) -> BatchedVectors:
    """Assemble the merged right-hand sides for a coalesced solve.

    ``entries`` pairs each solving request's segment indices with its
    right-hand sides; blocks of requests that did not ask for a solve
    (setup jobs) get zero right-hand sides - their solutions are zeros
    and are never scattered back, and block independence keeps them
    from influencing anyone else's answer.
    """
    dtype = entries[0][1].dtype if entries else merged.dtype
    data = np.zeros((merged.nb, merged.tile), dtype=dtype)
    for indices, rhs in entries:
        data[indices, : rhs.tile] = rhs.data
    return BatchedVectors(data, merged.sizes.copy())


@dataclass
class TenantFactorization:
    """One tenant's view into a shared (coalesced) factorization.

    Wraps the merged :class:`~repro.runtime.RuntimeFactorization` with
    the tenant's segment indices and original geometry, so the tenant
    reads exactly its own status and solves exactly its own blocks -
    the scatter-back contract of the coalescer, preserved across cache
    reuse.  Solves assemble a zeros-elsewhere merged right-hand side
    (block independence makes the foreign rows inert) and slice the
    tenant's rows back out at its own tile.
    """

    tenant: str
    shared: RuntimeFactorization
    indices: np.ndarray
    tile: int
    sizes: np.ndarray
    fingerprint: str | None = None
    _info: np.ndarray = field(default=None, repr=False)

    @property
    def nb(self) -> int:
        return int(self.indices.size)

    @property
    def info(self) -> np.ndarray:
        """Per-block status, the tenant's block order (a copy - the
        shared state must not be writable through a tenant view)."""
        if self._info is None:
            self._info = self.shared.info[self.indices].copy()
        return self._info

    @property
    def ok(self) -> bool:
        return bool((self.info == 0).all())

    @property
    def coalesced_blocks(self) -> int:
        """Total blocks of the shared factorization this view rides."""
        return self.shared.nb

    @property
    def nbytes(self) -> int:
        """The tenant's proportional share of the shared handle's
        resident bytes - cached per tenant, the shares sum to the
        shared total instead of multiply-charging it."""
        if self.shared.nb == 0:  # pragma: no cover - empty batches
            return 0
        return int(self.shared.nbytes * self.nb / self.shared.nb)

    def solve(self, rhs: BatchedVectors) -> BatchedVectors:
        """Solve the tenant's blocks against ``rhs`` (tenant order)."""
        if rhs.nb != self.nb or rhs.tile != self.tile:
            raise ValueError(
                f"rhs geometry ({rhs.nb}, {rhs.tile}) does not match the "
                f"tenant's batch ({self.nb}, {self.tile})"
            )
        merged = merge_rhs(self.shared.plan.source, [(self.indices, rhs)])
        out = self.shared.solve(merged)
        sliced = np.ascontiguousarray(
            out.data[self.indices, : self.tile]
        )
        return BatchedVectors(sliced, self.sizes.copy())
