"""Pluggable execution backends for the batch runtime.

Every backend satisfies one protocol - ``factorize(plan, method,
on_singular)`` returning an opaque factorization state, and
``solve(state, plan, rhs)`` returning the solutions in the source block
order - so the executor, the preconditioner, and the bench harness can
swap them freely, and the differential oracles in :mod:`repro.verify`
can cross-check them against each other:

``"numpy"``
    The historical monolithic path: one vectorised kernel call on the
    source batch at the source tile.  The reference for equivalence.
``"binned"``
    The planner's per-bin padded execution (the runtime default): one
    kernel call per occupied size bin at the bin's (tight) tile,
    results merged back into source order.  Numerically *identical* to
    ``"numpy"`` - the identity-padded elimination performs the same
    operations on the active entries at any tile that fits the block.
``"scipy"``
    Per-block LAPACK (``getrf``/``getrs`` via SciPy): the external
    anchor.  No padding at all, so its reports show zero waste.  LU
    only; gated on SciPy being importable.

The LU, TRSV and Gauss-Huard kernels behind the NumPy backends sweep
the interleaved ``(tile, tile, nb)`` layout (see
:mod:`repro.core.batch`).

Backends additionally advertise an ``invert`` capability
(``supports_invert``): building explicit block inverses from an
existing factorization state so the preconditioner apply becomes one
batched GEMM/GEMV per bin (``apply_mode="inverse"``).  The NumPy-based
backends support it; the per-block ``scipy`` anchor does not (its
LAPACK handles stay opaque), and the executor falls back to the
factorization apply path with a recorded event.

Degradation (``on_singular``) is honoured by every backend with the
same semantics as the kernels themselves: ``"raise"`` aborts with a
:class:`~repro.core.degradation.SingularBlockError` carrying the
merged, source-ordered ``info``; the substitution policies patch the
failed blocks and record a merged
:class:`~repro.core.degradation.DegradationRecord`.
"""

from __future__ import annotations

import importlib.util
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.batch import BatchedVectors
from ..core.batched_cholesky import cholesky_factor, cholesky_solve
from ..core.batched_gauss_huard import gh_factor, gh_solve
from ..core.batched_gauss_jordan import gj_apply, gj_invert
from ..core.batched_lu import lu_factor
from ..core.batched_trsv import lu_solve
from ..core.degradation import (
    DegradationRecord,
    OnSingular,
    SingularBlockError,
    substitute_singular_blocks,
)
from ..core.explicit_inverse import (
    GJEInverseState,
    inverse_apply,
    invert_factors,
)
from ..telemetry.tracer import get_tracer
from .planner import ExecutionPlan
from .stats import BinStats

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendFactorization",
    "BackendInverse",
    "BackendUnavailable",
    "available_backends",
    "get_backend",
    "register_backend",
]

#: supported factorization methods, mirroring the preconditioner knob
METHODS = ("lu", "gh", "ght", "gje", "cholesky")


class BackendUnavailable(RuntimeError):
    """The requested backend cannot run in this environment."""


def _kernel_pair(method: str) -> tuple[Callable, Callable]:
    """(factor, solve) kernel pair for a method name.

    The LU pair looks ``lu_factor``/``lu_solve`` up as module globals
    at call time, so a wrapper installed on this module sees every
    kernel call.
    """
    if method == "lu":
        return (
            lambda b, pol, ow: lu_factor(
                b, pivoting="implicit", overwrite=ow, on_singular=pol
            ),
            lu_solve,
        )
    if method in ("gh", "ght"):
        return (
            lambda b, pol, ow, t=(method == "ght"): gh_factor(
                b, transposed=t, overwrite=ow, on_singular=pol
            ),
            gh_solve,
        )
    if method == "gje":
        return (
            lambda b, pol, ow: gj_invert(b, overwrite=ow, on_singular=pol),
            gj_apply,
        )
    if method == "cholesky":
        return (
            lambda b, pol, ow: cholesky_factor(
                b, overwrite=ow, on_singular=pol
            ),
            cholesky_solve,
        )
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass
class BackendInverse:
    """Explicit-inverse apply states produced by ``Backend.invert``.

    ``states`` mirrors the backend's factorization state layout: one
    :class:`~repro.core.explicit_inverse.GJEInverseState` for the
    monolithic ``numpy`` backend, a per-bin list for the binned
    backends.  A ``None`` entry in the list means that bin stays on the
    factorization apply path (the autotuner disables losing bins this
    way); ``apply_inverse`` falls back to the factor solve for them.
    """

    states: GJEInverseState | list[GJEInverseState | None]

    def units(self) -> list[GJEInverseState | None]:
        """The states as a flat list, whatever the layout."""
        s = self.states
        return list(s) if isinstance(s, list) else [s]


@dataclass
class BackendFactorization:
    """What a backend hands back: opaque state + source-ordered status.

    ``state`` is backend-specific (a kernel result, a list of per-bin
    kernel results, or per-block LAPACK factors) and only meaningful to
    the backend that produced it.  ``info`` and ``degradation`` follow
    the kernels' conventions, in *source* block order.
    """

    state: object
    info: np.ndarray
    degradation: DegradationRecord | None = None

    @property
    def ok(self) -> bool:
        return bool((self.info == 0).all())


class Backend:
    """Protocol base: subclass, set ``name``, register."""

    name: str = "?"
    #: whether this backend can build explicit inverses for the
    #: ``apply_mode="inverse"`` path (``invert``/``apply_inverse``)
    supports_invert: bool = False
    #: factorization methods this backend can execute (the
    #: method-restricted scipy backend narrows this and raises
    #: ValueError on anything else)
    supported_methods: tuple = METHODS

    def factorize(
        self,
        plan: ExecutionPlan,
        method: str = "lu",
        on_singular: OnSingular | None = None,
    ) -> BackendFactorization:
        raise NotImplementedError

    def solve(
        self,
        state: object,
        plan: ExecutionPlan,
        rhs: BatchedVectors,
    ) -> BatchedVectors:
        raise NotImplementedError

    def bin_stats(self, plan: ExecutionPlan) -> list[BinStats]:
        """Padding accounting of how *this* backend executes the plan."""
        raise NotImplementedError

    def invert(
        self, state: object, plan: ExecutionPlan
    ) -> BackendInverse:
        """Build explicit inverses from a factorization state.

        Only meaningful when ``supports_invert`` is True; the executor
        checks the flag and falls back to the factorization apply path
        otherwise.
        """
        raise NotImplementedError

    def apply_inverse(
        self,
        inv: BackendInverse,
        state: object,
        plan: ExecutionPlan,
        rhs: BatchedVectors,
    ) -> BatchedVectors:
        """Apply explicit inverses (``state`` backs the factor-path
        fallback for units whose inverse was disabled)."""
        raise NotImplementedError


# -- registry ----------------------------------------------------------------

BACKENDS: dict[str, type[Backend]] = {}


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Class decorator: add a backend to the registry by its ``name``."""
    if not getattr(cls, "name", None) or cls.name == "?":
        raise ValueError(f"backend class {cls.__name__} needs a name")
    BACKENDS[cls.name] = cls
    return cls


def get_backend(name: str, **options) -> Backend:
    """Instantiate a registered backend (raises on unknown/unavailable)."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {sorted(BACKENDS)}"
        ) from None
    if name == "scipy" and importlib.util.find_spec("scipy") is None:
        raise BackendUnavailable(
            "the 'scipy' backend needs SciPy, which is not installed"
        )
    return cls(**options)


def available_backends() -> list[str]:
    """Registered backends that can actually run here, sorted."""
    names = []
    for name in BACKENDS:
        if name == "scipy" and importlib.util.find_spec("scipy") is None:
            continue
        names.append(name)
    return sorted(names)


# -- shared helpers ----------------------------------------------------------


def _merge_records(
    plan: ExecutionPlan,
    recs: list[DegradationRecord | None],
    policy: str,
) -> DegradationRecord | None:
    """Scatter per-bin degradation records into one source-ordered one."""
    if all(r is None for r in recs):
        return None
    nb = plan.nb
    original_info = np.zeros(nb, dtype=np.int64)
    action = np.zeros(nb, dtype=np.int8)
    shift = np.zeros(nb, dtype=np.float64)
    for b, rec in zip(plan.bins, recs):
        if rec is None:  # pragma: no cover - kernels always record
            continue
        original_info[b.indices] = rec.original_info
        action[b.indices] = rec.action
        shift[b.indices] = rec.shift
    return DegradationRecord(policy, original_info, action, shift)


def _binned_stats(plan: ExecutionPlan) -> list[BinStats]:
    return [
        BinStats(
            nominal_tile=b.nominal_tile,
            tile=b.tile,
            nb=b.nb,
            useful_flops=b.useful_flops_lu(),
            padded_flops=b.padded_flops_lu(),
        )
        for b in plan.bins
    ]


# -- backends ----------------------------------------------------------------


@register_backend
class NumpyBackend(Backend):
    """Monolithic vectorised execution at the source tile (legacy path)."""

    name = "numpy"
    supports_invert = True

    def factorize(self, plan, method="lu", on_singular=None):
        factor, _ = _kernel_pair(method)
        fac = factor(plan.source, on_singular, False)
        return BackendFactorization(
            state=(method, fac),
            info=fac.info.copy(),
            degradation=fac.degradation,
        )

    def solve(self, state, plan, rhs):
        method, fac = state
        _, solve = _kernel_pair(method)
        return solve(fac, rhs)

    def invert(self, state, plan):
        _, fac = state
        return BackendInverse(states=invert_factors(fac))

    def apply_inverse(self, inv, state, plan, rhs):
        if inv.states is None:
            return self.solve(state, plan, rhs)
        return inverse_apply(inv.states, rhs)

    def bin_stats(self, plan):
        src = plan.source
        if src.nb == 0:
            return []
        return [
            BinStats(
                nominal_tile=src.tile,
                tile=src.tile,
                nb=src.nb,
                useful_flops=src.flops_lu(),
                padded_flops=src.flops_lu_padded(),
            )
        ]


@register_backend
class BinnedBackend(Backend):
    """Per-bin padded execution of the plan (the runtime default)."""

    name = "binned"
    supports_invert = True

    def factorize(self, plan, method="lu", on_singular=None):
        """Factorize every bin in place of its batch.

        The ``"raise"`` policy is evaluated on the *merged* status so
        the error reports every singular block of the whole batch
        (bin-local raising would only name the first offending bin).
        """
        factor, _ = _kernel_pair(method)
        per_bin_policy = (
            None if on_singular in (None, "raise") else on_singular
        )
        tr = get_tracer()
        facs = []
        for b in plan.bins:
            span = nullcontext()
            if tr.enabled:
                span = tr.span(
                    f"factorize.bin[tile={b.tile}]",
                    cat="runtime",
                    tile=b.tile,
                    nb=b.nb,
                    method=method,
                )
            with span:
                facs.append(factor(b.batch, per_bin_policy, True))
        info = plan.scatter_per_block([f.info for f in facs])
        if on_singular == "raise" and np.any(info):
            failed = np.nonzero(info)[0]
            raise SingularBlockError(
                f"{failed.size} block(s) failed the batched {method} "
                f"factorization (first failing steps: "
                f"info={info[failed][:8]}...); pass "
                "on_singular='identity'|'scalar'|'shift' to degrade "
                "gracefully instead of aborting",
                info,
            )
        record = None
        if on_singular not in (None, "raise"):
            record = _merge_records(
                plan, [f.degradation for f in facs], on_singular
            )
        if on_singular is not None and record is None:
            # clean batch (or "raise"): the kernels record an all-clear
            record = DegradationRecord(
                on_singular,
                info.copy(),
                np.zeros(plan.nb, dtype=np.int8),
                np.zeros(plan.nb, dtype=np.float64),
            )
        return BackendFactorization(
            state=(method, facs), info=info, degradation=record
        )

    def solve(self, state, plan, rhs):
        method, facs = state
        _, solve = _kernel_pair(method)
        per_bin = plan.split_rhs(rhs)
        return plan.merge_solutions(
            [solve(f, r) for f, r in zip(facs, per_bin)]
        )

    def invert(self, state, plan):
        _, facs = state
        return BackendInverse(states=[invert_factors(f) for f in facs])

    def apply_inverse(self, inv, state, plan, rhs):
        """Per-bin GEMV apply; bins with a disabled inverse (None
        entry) run the factorization solve instead."""
        method, facs = state
        _, solve = _kernel_pair(method)
        per_bin = plan.split_rhs(rhs)
        return plan.merge_solutions(
            [
                inverse_apply(s, r) if s is not None else solve(f, r)
                for s, f, r in zip(inv.states, facs, per_bin)
            ]
        )

    def bin_stats(self, plan):
        return _binned_stats(plan)


@register_backend
class ScipyBackend(Backend):
    """Per-block LAPACK (SciPy ``getrf``/``getrs``): the external anchor.

    Supports ``method="lu"`` only; the degradation policies are honoured
    through the shared substitution engine (per-block refactorization of
    the engine's candidates).
    """

    name = "scipy"
    supported_methods = ("lu",)

    def factorize(self, plan, method="lu", on_singular=None):
        if method != "lu":
            raise ValueError(
                "the 'scipy' backend factorizes with LAPACK getrf and "
                f"supports method='lu' only, got {method!r}"
            )
        import scipy.linalg

        src = plan.source
        nb = src.nb
        states: list[tuple[np.ndarray, np.ndarray] | None] = [None] * nb
        info = np.zeros(nb, dtype=np.int64)

        def factor_block(i: int, block: np.ndarray) -> None:
            import warnings as _warnings

            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")  # LinAlgWarning on singular
                lu, piv = scipy.linalg.lu_factor(block, check_finite=False)
            states[i] = (lu, piv)
            # same status as the NumPy kernels: the first zero *or
            # non-finite* pivot fails the block
            d = np.diag(lu)
            bad = np.flatnonzero((d == 0.0) | ~np.isfinite(d))
            info[i] = int(bad[0]) + 1 if bad.size else 0

        for i in range(nb):
            factor_block(i, np.array(src.block(i), dtype=np.float64))

        record = None
        if on_singular is not None:

            def refactor(cand: np.ndarray, idx: np.ndarray) -> np.ndarray:
                sub_info = np.zeros(idx.size, dtype=np.int64)
                for j, i in enumerate(idx):
                    m = int(src.sizes[i])
                    factor_block(int(i), np.array(cand[j, :m, :m]))
                    sub_info[j] = info[i]
                return sub_info

            record = substitute_singular_blocks(
                on_singular,
                info,
                refactor,
                src.data,
                src.sizes,
                src.tile,
                np.float64,
                kernel="LAPACK getrf (scipy backend)",
            )
        return BackendFactorization(
            state=states, info=info, degradation=record
        )

    def solve(self, state, plan, rhs):
        import scipy.linalg

        src = plan.source
        out = np.zeros(
            (src.nb, src.tile), dtype=np.result_type(rhs.dtype, np.float64)
        )
        for i in range(src.nb):
            m = int(src.sizes[i])
            out[i, :m] = scipy.linalg.lu_solve(
                state[i], rhs.data[i, :m], check_finite=False
            )
        return BatchedVectors(out, src.sizes.copy())

    def bin_stats(self, plan):
        # LAPACK runs the exact active size: zero padding waste, but we
        # keep the plan's bin structure so waste comparisons line up.
        return [
            BinStats(
                nominal_tile=b.nominal_tile,
                tile=b.tile,
                nb=b.nb,
                useful_flops=b.useful_flops_lu(),
                padded_flops=b.useful_flops_lu(),
            )
            for b in plan.bins
        ]
