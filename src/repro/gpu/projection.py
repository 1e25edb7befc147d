"""High-level GFLOPS projection API used by the figure benchmarks.

``project_kernel("lu_factor", m=32, nb=40000)`` returns the projected
:class:`~repro.gpu.perf.KernelTiming` of one batched kernel launch -
the quantity plotted in the paper's Figures 4-7.  The register-resident
kernels (small-size LU, GH, GH-T) are timed from their measured SIMT
profiles; the cuBLAS baselines from their semi-empirical model.

For variable-size batches, :func:`project_variable_batch` accumulates
per-size sub-profiles weighted by the size histogram (one launch
total), which is how the real variable-size kernels behave: every warp
processes its own problem, so costs are additive over the batch.
"""

from __future__ import annotations

from collections import Counter
import numpy as np

from .cublas_model import cublas_getrf_timing, cublas_getrs_timing
from .device import DeviceSpec
from .perf import KernelTiming, time_batched_kernel
from .profiles import kernel_profile
from .simt import KernelStats

__all__ = ["KERNEL_KINDS", "project_kernel", "project_variable_batch"]

#: Kernel identifiers accepted by :func:`project_kernel`, mirroring the
#: four implementations compared in Section IV.
KERNEL_KINDS = (
    "lu_factor",
    "lu_solve",
    "gh_factor",
    "gh_solve",
    "ght_factor",
    "ght_solve",
    "cublas_factor",
    "cublas_solve",
)


def project_kernel(
    kind: str,
    m: int,
    nb: int,
    device: DeviceSpec | None = None,
    dtype=np.float64,
) -> KernelTiming:
    """Project one uniform-size batched kernel launch.

    Parameters
    ----------
    kind:
        One of :data:`KERNEL_KINDS`.
    m:
        Problem size, ``1 <= m <= 32``.
    nb:
        Batch size.
    device:
        Target architecture; defaults to the paper's Tesla P100.
    dtype:
        ``numpy.float32`` (the paper's "single precision") or
        ``numpy.float64`` ("double precision").
    """
    device = device or DeviceSpec.p100()
    if kind == "cublas_factor":
        return cublas_getrf_timing(m, nb, device, dtype)
    if kind == "cublas_solve":
        return cublas_getrs_timing(m, nb, device, dtype)
    if kind == "inverse_apply":
        # The explicit-inverse GEMV apply has no warp realisation to
        # replay (the runtime executes it as one einsum per bin), so it
        # is priced straight from its closed form - same register
        # budget as the LU apply (rhs element + column staging).
        from .closed_forms import inverse_apply_counts
        from .profiles import _value_regs

        es = np.dtype(dtype).itemsize
        return time_batched_kernel(
            inverse_apply_counts(m, es),
            nb,
            useful_flops_per_problem=2.0 * m * m,
            regs_per_thread=_value_regs(4, es),
            device=device,
            dtype=dtype,
        )
    if kind == "interleaved_factor":
        # Batch-interleaved (SoA) LU: one thread per matrix, fully
        # coalesced but memory-streaming - priced straight from the
        # closed form, like inverse_apply (no warp realisation).  One
        # thread stages a column of its own block plus loop state.
        from .closed_forms import interleaved_lu_factor_counts
        from .profiles import _value_regs

        es = np.dtype(dtype).itemsize
        return time_batched_kernel(
            interleaved_lu_factor_counts(m, es),
            nb,
            useful_flops_per_problem=2.0 * m**3 / 3.0,
            regs_per_thread=_value_regs(m + 4, es),
            device=device,
            dtype=dtype,
        )
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    es = np.dtype(dtype).itemsize
    prof = kernel_profile(kind, m, es)
    return time_batched_kernel(
        prof.stats,
        nb,
        useful_flops_per_problem=prof.useful_flops,
        regs_per_thread=prof.regs_per_thread,
        device=device,
        dtype=dtype,
    )


def project_variable_batch(
    kind: str,
    sizes: np.ndarray,
    device: DeviceSpec | None = None,
    dtype=np.float64,
) -> KernelTiming:
    """Project one *variable-size* batched launch (sizes per problem).

    cuBLAS kinds are rejected: the vendor batched API supports only a
    uniform size, which is exactly why the paper excludes it from the
    block-Jacobi comparison (Section IV-D).
    """
    if kind.startswith("cublas"):
        raise ValueError(
            "cuBLAS batched kernels do not support variable problem "
            "sizes (Section IV-D); use a register-resident kind"
        )
    device = device or DeviceSpec.p100()
    es = np.dtype(dtype).itemsize
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0:
        raise ValueError("empty batch")
    agg = KernelStats()
    useful = 0.0
    regs = 0
    for m, count in sorted(Counter(sizes.tolist()).items()):
        prof = kernel_profile(kind, int(m), es)
        for f in agg.__dataclass_fields__:
            setattr(
                agg, f, getattr(agg, f) + count * getattr(prof.stats, f)
            )
        useful += count * prof.useful_flops
        regs = max(regs, prof.regs_per_thread)
    # `time_batched_kernel` multiplies per-problem counts by nb; here the
    # aggregate already covers the whole batch, so nb=1 with the summed
    # stats and a latency term based on the true problem count.
    timing = time_batched_kernel(
        agg,
        1,
        useful_flops_per_problem=useful,
        regs_per_thread=regs,
        device=device,
        dtype=dtype,
    )
    # recompute the latency bound with the actual warp count: waves of
    # `sizes.size` warps, each as long as the *largest* problem.
    import math

    conc = device.concurrent_warps(regs)
    waves = math.ceil(sizes.size / conc)
    worst = kernel_profile(kind, int(sizes.max()), es)
    from .perf import _issue_cycles

    serial = _issue_cycles(worst.stats, es, device) + device.mem_latency_cycles
    latency_s = waves * serial / (device.clock_ghz * 1e9)
    bounds = {
        "compute": timing.compute_s,
        "memory": timing.memory_s,
        "latency": latency_s,
    }
    bound = max(bounds, key=bounds.get)
    seconds = bounds[bound] + timing.overhead_s
    return KernelTiming(
        seconds=seconds,
        gflops=useful / seconds / 1e9,
        bound=bound,
        compute_s=timing.compute_s,
        memory_s=timing.memory_s,
        latency_s=latency_s,
        overhead_s=timing.overhead_s,
        useful_flops=useful,
    )
