"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the printed metric names are those in ``BENCHMARK.json``,
that corrupted answers are counted as failures, and that one seed
always yields the same serving stream.  The workloads are shrunk so
the whole file runs in well under a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import run  # noqa: E402
from perfbench.measure import Tally, passes  # noqa: E402

WORKLOADS = run.load_workloads()


def _small(name: str):
    """The named workload cut down to one matrix or three waves."""
    w = WORKLOADS[name]
    if hasattr(w, "matrices"):
        return dataclasses.replace(w, matrices=("fem_b16_s0",))
    return dataclasses.replace(w, waves=3)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in WORKLOADS:
        for trace in (0, 1):
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.measure(_small(name), 0, 0.0, bool(trace))
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared[trace], (name, trace)
            assert result["correct"] and result["failed"] == 0, name


def test_corrupted_suite_solution_is_a_failure():
    workload = _small("suite_apply_bound")
    problems = workload.build(0)
    tally = Tally()
    (result,) = passes(workload, problems, 0.0, tally)
    assert tally.failed == 0
    result.answers[0].x[0] += 1.0
    tally.add(workload, result)
    assert tally.failed == 1


def test_corrupted_serving_response_is_a_failure():
    workload = _small("serve_cold")
    waves = workload.build(0)
    (result,) = passes(workload, waves, 0.0, Tally())
    assert workload.failures(result) == 0
    assert workload.audit(waves, result, 0) == 0
    # a one-ulp change in every solution: whichever responses the
    # seeded audit samples, the bitwise comparison must flag them
    for _, resp in result.answers:
        if resp.solution is not None:
            x = resp.solution.data
            x[0, 0] = np.nextafter(x[0, 0], np.inf)
    assert workload.audit(waves, result, 0) > 0
    result.answers[1] = (result.answers[1][0], None)  # never resolved
    assert workload.failures(result) == 1


def test_one_seed_one_stream():
    workload = _small("serve_warm")
    a, b = workload.build(7), workload.build(7)
    flat_a = [r for wave in a for r in wave]
    flat_b = [r for wave in b for r in wave]
    assert len(flat_a) == len(flat_b) > 0
    for x, y in zip(flat_a, flat_b):
        assert (x.tenant, x.kind, x.deadline, x.priority) == (
            y.tenant, y.kind, y.deadline, y.priority
        )
        assert np.array_equal(x.batch.data, y.batch.data)
        assert np.array_equal(x.batch.sizes, y.batch.sizes)
        assert (x.rhs is None) == (y.rhs is None)
        if x.rhs is not None:
            assert np.array_equal(x.rhs.data, y.rhs.data)
    other = workload.build(8)
    assert any(
        not np.array_equal(x.batch.data, y.batch.data)
        for x, y in zip(flat_a, (r for wave in other for r in wave))
        if x.batch.data.shape == y.batch.data.shape
    )


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-test(s) passed")
