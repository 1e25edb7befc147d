"""Serving workloads: closed-loop waves of tenant requests through
``CoalescingEngine`` with per-tenant cache shards."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import repro.runtime.backends as backends
from repro.runtime import BatchRuntime
from repro.serving import CoalescingEngine, TenantCacheShards
from repro.serving.loadgen import LoadProfile, generate_load

from .measure import PassResult
from .spans import PASS, Profile, Spans
from .yardstick import Capture, ratios

#: ok responses re-run solo through a fresh runtime after the timed run
AUDIT_SAMPLE = 32
#: waves of the stream replayed to capture the yardstick's kernel calls
YARDSTICK_WAVES = 2


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    tenants: int
    repeat_fraction: float
    waves: int = 30
    requests_per_wave: int = 64

    def build(self, seed: int) -> list[list]:
        """The request stream, a pure function of ``seed``."""
        return generate_load(
            LoadProfile(
                tenants=self.tenants,
                waves=self.waves,
                requests_per_wave=self.requests_per_wave,
                repeat_fraction=self.repeat_fraction,
                seed=seed,
            )
        )

    def run_pass(self, waves, spans: Spans | None = None) -> PassResult:
        """Serve the whole stream through a fresh engine and caches.

        Each wave is a closed loop of callers: the next wave starts
        once every ticket of this one has resolved.  A request's
        latency runs from its wave's start to the moment its response
        exists - when ``submit`` returns for a cache hit, when
        ``flush`` returns otherwise.
        """
        engine = CoalescingEngine(shards=TenantCacheShards())
        if spans is None:
            return _serve(engine, waves)
        with spans.span(PASS), spans.patched(_targets(engine)):
            return _serve(engine, waves)

    def failures(self, result: PassResult) -> int:
        """Unresolved tickets and responses that are not ``ok``."""
        return sum(
            resp is None or resp.status != "ok" for _, resp in result.answers
        )

    def audit(self, waves, result: PassResult, seed: int) -> int:
        """Bitwise mismatches of a seeded sample of ok responses
        against solo runs through a fresh runtime."""
        return leak_audit(result.answers, AUDIT_SAMPLE, seed)

    def layer_metrics(self, profile: Profile, results, waves) -> dict:
        submits = profile.count("serving.submit")
        hits = profile.count("serving.submit", hit=True)
        return {
            "core.lu_factor_ms": profile.total_ms("core.lu_factor"),
            "core.lu_solve_us": profile.mean_us("core.lu_solve"),
            **_yardstick(waves),
            "runtime.factorize_ms": profile.total_ms("runtime.factorize"),
            "runtime.launches": profile.count("runtime.factorize"),
            "runtime.blocks_per_launch": profile.attr_sum(
                "runtime.factorize", "nb"
            ) / max(profile.count("runtime.factorize"), 1.0),
            "runtime.padding_waste": profile.attr_sum(
                "runtime.factorize", "waste"
            ) / max(profile.attr_sum("runtime.factorize", "padded"), 1.0),
            "runtime.solve_us": profile.mean_us("runtime.solve"),
            "serving.flush_ms": profile.total_ms("serving.flush"),
            "serving.framework_ms": profile.total_ms(
                "serving.flush", self_time=True
            ),
            "serving.coalescing_ratio": float(
                np.median([r.stats["coalescing_ratio"] for r in results])
            ),
            "serving.hit_submit_us": profile.mean_us(
                "serving.submit", hit=True
            ),
            "serving.miss_submit_us": profile.mean_us(
                "serving.submit", hit=False
            ),
            "serving.cache_hit_ratio": hits / submits if submits else 0.0,
        }


def _serve(engine: CoalescingEngine, waves) -> PassResult:
    units: list[float] = []
    latencies: list[list[float]] = []
    pairs: list = []
    for wave in waves:
        start = time.perf_counter()
        tickets = []
        for req in wave:
            ticket = engine.submit(req)
            at = time.perf_counter() - start if ticket.done else None
            tickets.append((req, ticket, at))
        engine.flush()
        flushed = time.perf_counter() - start
        units.append(flushed)
        latencies.append([])
        for req, ticket, at in tickets:
            resp = ticket.response if ticket.done else None
            pairs.append((req, resp))
            if resp is not None and resp.status == "ok":
                latencies[-1].append(flushed if at is None else at)
    return PassResult(
        units, latencies, pairs,
        {"coalescing_ratio": engine.coalescing_ratio},
    )


def leak_audit(pairs, sample: int, seed: int) -> int:
    """Re-run a seeded sample of ok responses solo through a fresh
    runtime; any bit difference in ``info`` or the solution counts as
    one mismatch."""
    done = [(q, r) for q, r in pairs if r is not None and r.status == "ok"]
    rng = np.random.default_rng(seed)
    if len(done) > sample:
        done = [done[i] for i in sorted(rng.choice(len(done), sample, False))]
    solo = BatchRuntime(cache=False)
    mismatches = 0
    for req, resp in done:
        policy = req.on_singular
        handle = solo.factorize(
            req.batch,
            method=req.method,
            on_singular=None if policy in (None, "raise") else policy,
            use_cache=False,
            apply_mode=req.apply_mode,
        )
        same = np.array_equal(handle.info, resp.info)
        if same and req.kind == "solve":
            same = resp.solution is not None and np.array_equal(
                handle.solve(req.rhs).data, resp.solution.data
            )
        mismatches += not same
    return mismatches


def _targets(engine: CoalescingEngine):
    def launch(handle):
        report = handle.report
        return {
            "nb": handle.nb,
            "padded": report.padded_flops,
            "waste": report.padding_waste,
        }

    return [
        (engine, "submit", "serving.submit",
         lambda t: {"hit": bool(t.done and t.response.cache_hit)}),
        (engine, "flush", "serving.flush"),
        (engine.runtime, "factorize", "runtime.factorize", launch),
        (engine.runtime, "solve", "runtime.solve"),
        (backends, "lu_factor", "core.lu_factor"),
        (backends, "lu_solve", "core.lu_solve"),
    ]


def _yardstick(waves) -> dict:
    capture = Capture(limit=16)
    with capture.patched(backends):
        _serve(
            CoalescingEngine(shards=TenantCacheShards()),
            waves[:YARDSTICK_WAVES],
        )
    return ratios(capture, backends.lu_factor, backends.lu_solve)


WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload("serve_cold", tenants=2000, repeat_fraction=0.0),
        ServeWorkload("serve_warm", tenants=256, repeat_fraction=0.5),
    )
}
