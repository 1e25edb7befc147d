"""Tests for the coalescing engine: admission, batching, scatter-back,
backpressure, and fault containment - all under scripted clocks."""

import numpy as np
import pytest

from repro.chaos import ChaosBackend, RaiseInjector
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SLOEngine, default_serving_slos
from repro.runtime import BatchRuntime
from repro.runtime.backends import get_backend
from repro.serving import (
    REJECT_REASONS,
    CoalescingEngine,
    Rejection,
    Request,
    ScriptedClock,
    TenantCacheShards,
)
from repro.telemetry import tracing
from tests.strategies import make_batch, make_rhs


def solve_request(tenant, nb=3, max_size=12, seed=0, **kw):
    batch = make_batch(nb, max_size, seed=seed, dominant=True)
    return Request(
        tenant=tenant,
        batch=batch,
        kind="solve",
        rhs=make_rhs(batch, seed=seed + 1000),
        **kw,
    )


def fail_after(monkeypatch, obj, name, calls_ok=0):
    """Make ``obj.<name>`` raise ``RuntimeError("<name> down")`` once
    ``calls_ok`` calls have gone through; returns the call log."""
    real = getattr(obj, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(name)
        if len(calls) > calls_ok:
            raise RuntimeError(f"{name} down")
        return real(*args, **kwargs)

    monkeypatch.setattr(obj, name, wrapped)
    return calls


def assert_resolved_once(eng, tickets, responses):
    """This flush answered every ticket, each exactly once."""
    assert all(t.done for t in tickets)
    assert sorted(r.request_id for r in responses) == sorted(
        t.request_id for t in tickets
    )
    assert eng.stats["completed"] + eng.stats["failed"] == len(tickets)


class TestAdmission:
    def test_rejection_validates_reason(self):
        with pytest.raises(ValueError, match="unknown rejection"):
            Rejection("bogus")
        r = Rejection("queue_full", {"depth": 3})
        assert r.to_dict() == {
            "reason": "queue_full", "detail": {"depth": 3},
            "retry_after": None, "trace_id": None,
        }
        assert set(REJECT_REASONS) >= {"queue_full", "circuit_open"}

    def test_invalid_requests_shed_with_problem(self):
        eng = CoalescingEngine()
        batch = make_batch(2, 8, seed=0, dominant=True)
        cases = [
            Request(tenant="t", batch=batch, kind="solve"),  # no rhs
            Request(tenant="t", batch=batch, kind="warp"),  # bad kind
            Request(  # geometry mismatch
                tenant="t",
                batch=batch,
                kind="solve",
                rhs=make_rhs(make_batch(3, 8, seed=1, dominant=True), 2),
            ),
            Request(  # setup with rhs
                tenant="t",
                batch=batch,
                kind="setup",
                rhs=make_rhs(batch, seed=2),
            ),
        ]
        for req in cases:
            t = eng.submit(req)
            assert t.done
            assert t.response.status == "rejected"
            assert t.response.rejection.reason == "invalid_request"
            assert t.response.rejection.detail["problem"]
        assert eng.stats["rejected"]["invalid_request"] == len(cases)
        assert eng.stats["submitted"] == 0  # shed before admission

    def test_batch_too_large_is_structured(self):
        eng = CoalescingEngine(max_batch_blocks=4)
        t = eng.submit(solve_request("t", nb=5))
        assert t.response.rejection.reason == "batch_too_large"
        assert t.response.rejection.detail["max_batch_blocks"] == 4

    def test_queue_full_backpressure(self):
        eng = CoalescingEngine(max_pending=2)
        t1 = eng.submit(solve_request("a", seed=1))
        t2 = eng.submit(solve_request("b", seed=2))
        t3 = eng.submit(solve_request("c", seed=3))
        assert not t1.done and not t2.done
        assert t3.response.rejection.reason == "queue_full"
        # a flush drains the queue and admission resumes
        eng.flush()
        t4 = eng.submit(solve_request("d", seed=4))
        assert not t4.done

    def test_circuit_open_sheds_new_work(self):
        clock = ScriptedClock()
        rt = BatchRuntime(
            backend="binned",
            fallback=("numpy",),
            breaker_threshold=1,
            breaker_cooldown=100.0,
            clock=clock,
        )
        rt.breakers.breaker("binned").record_failure()  # trip it open
        eng = CoalescingEngine(runtime=rt, clock=clock)
        t = eng.submit(solve_request("t"))
        assert t.response.rejection.reason == "circuit_open"
        # cooldown elapses -> half-open probes are allowed again
        clock.advance(101.0)
        t2 = eng.submit(solve_request("t"))
        assert not t2.done

    def test_close_strands_pending_as_not_running(self):
        eng = CoalescingEngine()
        t1 = eng.submit(solve_request("a", seed=1))
        assert eng.close() == 1
        assert t1.response.rejection.reason == "not_running"
        t2 = eng.submit(solve_request("b", seed=2))
        assert t2.response.rejection.reason == "not_running"


class TestCoalescing:
    def test_flush_preserves_admission_order(self):
        clock = ScriptedClock()
        eng = CoalescingEngine(clock=clock)
        reqs = [solve_request(f"t{i}", seed=i) for i in range(5)]
        tickets = []
        for i, req in enumerate(reqs):
            tickets.append(eng.submit(req))
            clock.advance(1.0)
        responses = eng.flush()
        assert [r.tenant for r in responses] == [
            f"t{i}" for i in range(5)
        ]
        # queue age under the scripted clock: first in waits longest
        assert [r.queue_seconds for r in responses] == [
            5.0, 4.0, 3.0, 2.0, 1.0,
        ]
        assert all(t.response is r for t, r in zip(tickets, responses))
        assert responses[0].coalesced_requests == 5
        assert eng.stats["executions"] == 1
        assert eng.coalescing_ratio == 5.0

    def test_chunking_respects_max_batch_blocks(self):
        eng = CoalescingEngine(max_batch_blocks=5)
        for i in range(4):
            eng.submit(solve_request(f"t{i}", nb=2, seed=i))
        responses = eng.flush()
        # 8 blocks at a 5-block bound -> two chunks of 2 requests
        assert eng.stats["executions"] == 2
        assert all(r.coalesced_blocks <= 5 for r in responses)
        assert all(r.status == "ok" for r in responses)

    def test_incompatible_jobs_never_merge(self):
        eng = CoalescingEngine()
        eng.submit(solve_request("a", seed=1, method="lu"))
        eng.submit(solve_request("b", seed=2, method="gje"))
        responses = eng.flush()
        assert eng.stats["executions"] == 2
        assert all(r.coalesced_requests == 1 for r in responses)
        assert all(r.status == "ok" for r in responses)

    def test_results_bit_identical_to_solo(self):
        eng = CoalescingEngine()
        reqs = [
            solve_request(f"t{i}", nb=2 + i, max_size=4 * (i + 1), seed=i)
            for i in range(4)
        ]
        for req in reqs:
            eng.submit(req)
        responses = eng.flush()
        for req, resp in zip(reqs, responses):
            solo = BatchRuntime(cache=False).factorize(
                req.batch, use_cache=False
            )
            np.testing.assert_array_equal(solo.info, resp.info)
            np.testing.assert_array_equal(
                solo.solve(req.rhs).data, resp.solution.data
            )

    def test_setup_jobs_return_usable_handles(self):
        eng = CoalescingEngine()
        batch = make_batch(3, 8, seed=5, dominant=True)
        t = eng.submit(Request(tenant="t", batch=batch, kind="setup"))
        resp = eng.flush()[0]
        assert resp.status == "ok"
        assert resp.solution is None
        rhs = make_rhs(batch, seed=6)
        out = eng.apply("t", resp.handle, rhs)
        assert out.status == "ok"
        solo = BatchRuntime(cache=False).factorize(
            batch, use_cache=False
        )
        np.testing.assert_array_equal(
            out.solution.data, solo.solve(rhs).data
        )

    def test_empty_flush_is_noop(self):
        eng = CoalescingEngine()
        assert eng.flush() == []
        assert eng.stats["flushes"] == 0


class TestSingularIsolation:
    def _singular_request(self, tenant, seed=0):
        batch = make_batch(3, 8, seed=seed, dominant=True)
        m = int(batch.sizes[1])
        batch.data[1, :m, :m] = 0.0
        return Request(tenant=tenant, batch=batch, kind="setup")

    def test_singular_tenant_fails_alone(self):
        eng = CoalescingEngine()
        good = solve_request("good", seed=1)
        eng.submit(self._singular_request("bad", seed=2))
        eng.submit(good)
        bad_resp, good_resp = eng.flush()
        assert bad_resp.status == "failed"
        assert bad_resp.error == "singular_blocks"
        assert bad_resp.info is not None and bad_resp.info[1] > 0
        assert good_resp.status == "ok"
        solo = BatchRuntime(cache=False).factorize(
            good.batch, use_cache=False
        )
        np.testing.assert_array_equal(solo.info, good_resp.info)
        np.testing.assert_array_equal(
            solo.solve(good.rhs).data, good_resp.solution.data
        )
        # the first launch plus one healthy-subset rerun
        assert eng.stats["executions"] == 2

    def test_rerun_launch_links_only_healthy_requests(self):
        eng = CoalescingEngine()
        with tracing() as tr:
            eng.submit(self._singular_request("bad", seed=2))
            eng.submit(solve_request("good", seed=1))
            eng.flush()
        spans = tr.spans()
        envelopes = {
            s.attrs["tenant"]: s.span_id
            for s in spans
            if s.name == "serving.request"
        }
        first, rerun = sorted(
            (s for s in spans if s.name == "serving.launch"),
            key=lambda s: s.span_id,
        )
        assert "rerun" not in first.attrs
        assert set(first.links) == set(envelopes.values())
        assert rerun.attrs["rerun"] is True
        assert rerun.attrs["requests"] == 1
        assert rerun.links == [envelopes["good"]]
        assert rerun.parent_id == first.span_id
        # the rerun gets its own coalesce/scatter children; delivery
        # links back to the launch that produced the answer
        children = {s.name for s in spans if s.parent_id == rerun.span_id}
        assert {"serving.coalesce", "serving.scatter"} <= children
        (deliver,) = [s for s in spans if s.name == "serving.deliver"]
        assert deliver.links == [rerun.span_id]

    def test_rerun_factorize_failure_fails_healthy_subset(
        self, monkeypatch
    ):
        rt = BatchRuntime(cache=False)
        calls = fail_after(monkeypatch, rt, "factorize", calls_ok=1)
        eng = CoalescingEngine(runtime=rt)
        tickets = [
            eng.submit(self._singular_request("bad", seed=2)),
            eng.submit(solve_request("good-0", seed=1)),
            eng.submit(solve_request("good-1", seed=3)),
        ]
        responses = eng.flush()
        assert calls == ["factorize", "factorize"]
        bad, *good = tickets
        assert bad.response.error == "singular_blocks"
        assert bad.response.info[1] > 0
        for t in good:
            assert t.response.status == "failed"
            assert t.response.error == repr(RuntimeError("factorize down"))
            assert t.response.coalesced_requests == 2
        assert eng.stats["executions"] == 1
        assert_resolved_once(eng, tickets, responses)

    def test_substitution_policy_degrades_in_place(self):
        eng = CoalescingEngine()
        req = self._singular_request("t", seed=3)
        req.on_singular = "identity"
        eng.submit(req)
        resp = eng.flush()[0]
        assert resp.status == "ok"
        assert (resp.info == 0).all()  # substitution resolves the report
        deg = resp.handle.shared.degradation
        assert deg is not None
        assert deg.original_info[resp.handle.indices].sum() > 0


class TestLaunchFailures:
    def test_factorize_failure_fails_whole_chunk(self, monkeypatch):
        rt = BatchRuntime(cache=False)
        fail_after(monkeypatch, rt, "factorize")
        eng = CoalescingEngine(runtime=rt)
        tickets = [
            eng.submit(solve_request(f"t{i}", seed=i)) for i in range(3)
        ]
        responses = eng.flush()
        for resp in responses:
            assert resp.status == "failed"
            assert resp.error == repr(RuntimeError("factorize down"))
            assert resp.coalesced_requests == 3
        assert eng.stats["executions"] == 0
        assert eng.stats["failed"] == 3
        assert_resolved_once(eng, tickets, responses)

    def test_merged_solve_failure_spares_setup_jobs(self, monkeypatch):
        rt = BatchRuntime(cache=False)
        fail_after(monkeypatch, rt, "solve")
        eng = CoalescingEngine(runtime=rt)
        batch = make_batch(3, 8, seed=5, dominant=True)
        setup = eng.submit(Request(tenant="s", batch=batch, kind="setup"))
        solves = [
            eng.submit(solve_request(f"v{i}", seed=6 + i)) for i in range(2)
        ]
        responses = eng.flush()
        assert setup.response.status == "ok"
        assert setup.response.handle is not None
        for t in solves:
            assert t.response.status == "failed"
            assert t.response.error == repr(RuntimeError("solve down"))
            assert t.response.solution is None
        assert eng.stats["executions"] == 1
        assert eng.stats["completed"] == 1
        assert_resolved_once(eng, [setup, *solves], responses)


class TestFailureSLOs:
    """A failed response counts against the latency objective (and
    the deadline objective when it carries a deadline)."""

    def _engine(self, runtime, **kw):
        clock = ScriptedClock()
        slo = SLOEngine(default_serving_slos(), clock=clock)
        eng = CoalescingEngine(runtime=runtime, clock=clock, slo=slo, **kw)
        return eng, slo, clock

    def test_factorize_storm_burns_the_error_budget(self, monkeypatch):
        rt = BatchRuntime(cache=False)
        fail_after(monkeypatch, rt, "factorize")
        eng, slo, clock = self._engine(rt)
        for i in range(12):
            eng.submit(
                solve_request(f"t{i}", seed=i, deadline=clock() + 60.0)
            )
        responses = eng.flush()
        assert [r.status for r in responses] == ["failed"] * 12
        snap = slo.snapshot()["slos"]
        for name in ("admitted_latency", "deadline_hit"):
            assert (snap[name]["total"], snap[name]["bad"]) == (12, 12)
        assert snap["shed_rate"]["bad"] == 0
        assert set(slo.firing()) == {"admitted_latency", "deadline_hit"}

    def test_failed_cache_hit_misses_latency(self, monkeypatch):
        eng, slo, clock = self._engine(
            BatchRuntime(cache=False), shards=TenantCacheShards()
        )
        req = solve_request("t", seed=1, deadline=clock() + 60.0)
        eng.submit(req)
        first = eng.flush()[0]
        assert first.status == "ok"
        fail_after(monkeypatch, first.handle.shared, "solve")
        again = eng.submit(req)
        assert again.response.cache_hit
        assert again.response.status == "failed"
        snap = slo.snapshot()["slos"]
        for name in ("admitted_latency", "deadline_hit"):
            assert (snap[name]["total"], snap[name]["bad"]) == (2, 1)


class TestTenantCaching:
    def test_repeat_submission_hits_shard(self):
        shards = TenantCacheShards()
        eng = CoalescingEngine(shards=shards)
        req = solve_request("t", seed=1)
        eng.submit(req)
        first = eng.flush()[0]
        again = eng.submit(req)
        assert again.done and again.response.cache_hit
        np.testing.assert_array_equal(
            again.response.solution.data, first.solution.data
        )
        assert eng.stats["cache_hits"] == 1

    def test_cache_is_tenant_scoped(self):
        shards = TenantCacheShards()
        eng = CoalescingEngine(shards=shards)
        req = solve_request("alice", seed=1)
        eng.submit(req)
        eng.flush()
        # same content, different tenant: no cross-tenant hit
        other = Request(
            tenant="bob", batch=req.batch, kind="solve", rhs=req.rhs
        )
        t = eng.submit(other)
        assert not t.done

    def test_tainted_executions_never_cached(self):
        chaos = ChaosBackend(
            get_backend("binned"),
            [RaiseInjector("factorize", rate=1.0)],
            seed=0,
        )
        rt = BatchRuntime(backend=chaos, fallback=("numpy",), cache=False)
        shards = TenantCacheShards()
        eng = CoalescingEngine(runtime=rt, shards=shards)
        eng.submit(solve_request("t", seed=1))
        resp = eng.flush()[0]
        assert resp.status == "ok"  # served despite the fault
        assert chaos.events  # the fault fired
        assert shards.stats()["entries"] == 0  # but nothing was cached


class TestApply:
    def test_foreign_handle_rejected(self):
        eng = CoalescingEngine()
        req = solve_request("owner", seed=1)
        eng.submit(req)
        resp = eng.flush()[0]
        out = eng.apply("thief", resp.handle, req.rhs)
        assert out.status == "rejected"
        assert out.rejection.reason == "foreign_handle"
        assert out.rejection.detail["owner"] == "owner"

    def test_apply_after_close_rejected(self):
        eng = CoalescingEngine()
        req = solve_request("t", seed=1)
        eng.submit(req)
        resp = eng.flush()[0]
        eng.close()
        out = eng.apply("t", resp.handle, req.rhs)
        assert out.rejection.reason == "not_running"

    def test_apply_rejections_record_no_flight_or_slo_events(self):
        clock = ScriptedClock()
        slo = SLOEngine(default_serving_slos(), clock=clock)
        rec = FlightRecorder(capacity=64, clock=clock)
        eng = CoalescingEngine(clock=clock, slo=slo, flight=rec)
        req = solve_request("owner", seed=1)
        eng.submit(req)
        resp = eng.flush()[0]
        before = (rec.counts(), slo.snapshot()["slos"])
        assert eng.apply("thief", resp.handle, req.rhs).status == "rejected"
        eng.close()
        assert eng.apply("owner", resp.handle, req.rhs).status == "rejected"
        assert (rec.counts(), slo.snapshot()["slos"]) == before
        assert eng.stats["rejected"] == {
            "foreign_handle": 1, "not_running": 1,
        }

    def test_apply_geometry_failure_is_structured(self):
        eng = CoalescingEngine()
        req = solve_request("t", nb=3, seed=1)
        eng.submit(req)
        resp = eng.flush()[0]
        wrong = make_rhs(make_batch(5, 8, seed=9, dominant=True), 1)
        out = eng.apply("t", resp.handle, wrong)
        assert out.status == "failed"
        assert "geometry" in out.error


class TestValidation:
    def test_constructor_bounds(self):
        with pytest.raises(ValueError, match="max_pending"):
            CoalescingEngine(max_pending=0)
        with pytest.raises(ValueError, match="max_batch_blocks"):
            CoalescingEngine(max_batch_blocks=0)

    def test_response_to_dict_serializes(self):
        eng = CoalescingEngine()
        eng.submit(solve_request("t", seed=1))
        d = eng.flush()[0].to_dict()
        assert d["status"] == "ok"
        assert isinstance(d["info"], list)
        assert d["coalesced_requests"] == 1
