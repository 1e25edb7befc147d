"""Repository benchmark: time-to-solution and serving workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark builds its inputs from
``--seed`` (import and input building are the set-up, timed several
times), runs one untimed warm-up pass, then repeats whole passes until
``--seconds`` have elapsed, checking every answer.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs untraced passes and
then traced ones, and prints the per-layer metrics taken from the
traced passes.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.measure import (  # noqa: E402
    PROBE_SLICES,
    Tally,
    best_of,
    passes,
)
from perfbench.reference import Probe  # noqa: E402
from perfbench.spans import Profile, Spans  # noqa: E402

#: set-up repetitions; ``setup_s`` reports the median
SETUP_REPS = 3

#: end-to-end metrics (every workload): name -> unit
E2E = {
    "tts_s": "s",
    "serve_rps": "1/s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (every workload; 0 where the layer is not used)
PER_LAYER = {
    "sparse.matvec_us": "us",
    "sparse.matvec_calls": "count",
    "blocking.supervariable_ms": "ms",
    "blocking.extract_ms": "ms",
    "core.lu_factor_ms": "ms",
    "core.lu_solve_us": "us",
    "core.factor_lapack_ratio": "ratio",
    "core.solve_lapack_ratio": "ratio",
    "precond.setup_ms": "ms",
    "precond.estimate_ms": "ms",
    "precond.apply_us": "us",
    "precond.apply_calls": "count",
    "precond.apply_overhead_us": "us",
    "solvers.iterations": "count",
    "solvers.self_ms": "ms",
    "runtime.factorize_ms": "ms",
    "runtime.launches": "count",
    "runtime.blocks_per_launch": "count",
    "runtime.padding_waste": "ratio",
    "runtime.solve_us": "us",
    "serving.flush_ms": "ms",
    "serving.framework_ms": "ms",
    "serving.coalescing_ratio": "ratio",
    "serving.hit_submit_us": "us",
    "serving.miss_submit_us": "us",
    "serving.cache_hit_ratio": "ratio",
    "bench.trace_overhead_pct": "%",
}


def load_workloads() -> dict:
    """Import the program from this checkout's ``src`` (nowhere else)
    and return the workloads by name."""
    try:
        import repro
        from repro.telemetry import get_tracer

        from perfbench import serve, suite
    except ImportError as err:
        sys.exit(f"perfbench: cannot import the program: {err}")
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        sys.exit(f"perfbench: repro imported from {repro.__file__}")
    if get_tracer().enabled:
        sys.exit("perfbench: the program tracer must stay disabled")
    return {**suite.WORKLOADS, **serve.WORKLOADS}


def _percentile_ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def measure(workload, seed: int, seconds: float, trace: bool,
            import_s: float = 0.0) -> dict:
    """Set up, warm up, run and check one workload; the result object."""
    builds = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = workload.build(seed)
        builds.append(time.perf_counter() - t0)

    tally = Tally()
    passes(workload, inputs, 0.0, tally)  # warm-up, not timed
    probe = Probe()
    probe.sample(4 * PROBE_SLICES)
    if not trace:
        results = passes(workload, inputs, seconds, tally, probe=probe)
    else:
        plain = passes(workload, inputs, seconds / 2, tally, probe=probe)
        spans = Spans()
        results = passes(workload, inputs, seconds / 2, tally, spans)
    tally.failed += workload.audit(inputs, results[-1], seed)

    pass_s = [r.seconds for r in results]
    tts_s, latencies = best_of(results)
    if trace:
        metrics = workload.layer_metrics(Profile(spans), results, inputs)
        metrics["bench.trace_overhead_pct"] = 100.0 * (
            np.median(pass_s) / np.median([r.seconds for r in plain]) - 1.0
        )
        spans.write(
            ROOT / "perfbench" / "out" / f"{workload.name}-{seed}.json"
        )
        units = PER_LAYER
    else:
        scale = probe.scale  # seconds at the probe's nominal CPU speed
        metrics = {
            "tts_s": tts_s * scale,
            "serve_rps": len(latencies) / (tts_s * scale),
            "serve_p50_ms": _percentile_ms(latencies, 50) * scale,
            "serve_p99_ms": _percentile_ms(latencies, 99) * scale,
            "ok_frac": 1.0 - tally.failed / tally.attempted,
            "setup_s": (import_s + float(np.median(builds))) * scale,
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ),
        }
        units = E2E
    unknown = set(metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics not declared: {sorted(unknown)}")
    q1, q2, q3 = np.percentile(pass_s, [25, 50, 75])
    print(f"{workload.name} seed={seed} trace={int(trace)}: "
          f"{len(results)} timed pass(es) after 1 warm-up; pass time "
          f"median {q2:.4f} s, IQR {q3 - q1:.4f} s, best-of units "
          f"{tts_s:.4f} s; CPU speed scale {probe.scale:.4f}; set-up "
          f"{import_s:.3f} s import + "
          f"{np.median(builds):.3f} s inputs; latency samples "
          f"n={len(latencies)}; "
          f"fail_frac {tally.failed / tally.attempted:g} "
          f"({tally.failed}/{tally.attempted})")
    values = {key: float(metrics.get(key, 0.0)) for key in units}
    for key, unit in units.items():
        print(f"  {key:28s} {values[key]:14.6g} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": values[key], "unit": unit}
            for key, unit in units.items()
        },
    }


def _pin_to_one_cpu() -> None:
    """Run the load thread on the last CPU it may use, away from the
    first one, which by default also serves interrupts and every
    other process on a small host."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _pin_to_one_cpu()
    workloads = load_workloads()
    import_s = time.perf_counter() - _T0
    if args.workload not in workloads:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads)}")
    result = measure(workloads[args.workload], args.seed, args.seconds,
                     bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
