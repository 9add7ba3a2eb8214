"""One benchmark job in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py <workload> <seed> <seconds> <mode>

Modes:
  probe  start up (import idforest, build the inputs) and stop; reports the
         monotonic time at which the first timed op would have started
  run    the untraced timed job, its output checks and the checker self-test
  trace  one pass of the job with every public idforest function traced

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _percentile_ms(latency_s: list[float], pct: int) -> float:
    if len(latency_s) == 1:
        return latency_s[0] * 1000
    return statistics.quantiles(latency_s, n=100)[pct - 1] * 1000


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    t0 = time.monotonic()
    import idforest
    if workload == "census":
        import idforest.cli
    import_s = time.monotonic() - t0
    import workloads as wl

    ops = None if workload == "census" else wl.make_ops(workload, seed)
    ready = time.monotonic()
    if mode == "probe":
        print(json.dumps({"ready": ready, "import_s": import_s}))
        return 0

    tracer = None
    if mode == "trace":
        import tracer as tr
        tracer = tr.Tracer()
        modules = [getattr(idforest, name) for name in
                   ("graph", "graphio", "canon", "identify", "vc", "solver",
                    "minors", "obstructions", "oracle")]
        tracer.install(idforest, modules + ([idforest.cli] if workload == "census" else []))

    if workload == "census":
        wall, code, files = wl.run_census()
        rss = _peak_rss_mb()
        if tracer:
            tracer.uninstall()
        expected = wl.expected_census()
        pass_s, latency_s = [wall], [wall]
        attempted, failed = 1, int(not wl.check_census(code, files, expected))
        selftest = wl.selftest_census(code, files, expected)
    else:
        result = wl.run_ops(workload, ops, seconds, max_passes=1 if tracer else None)
        rss = _peak_rss_mb()
        if tracer:
            tracer.uninstall()
        pass_s, latency_s = result.pass_s, result.latency_s
        attempted = len(result.outputs)
        failed = wl.count_failed(workload, seed, ops, result)
        selftest = (wl.selftest_solve(ops, result, seed) if workload == "solve"
                    else wl.selftest_detect(ops, result))

    report = {
        "ready": ready, "import_s": import_s,
        "wall_s": statistics.median(pass_s), "passes": len(pass_s),
        "op_p50_ms": _percentile_ms(latency_s, 50),
        "op_p95_ms": _percentile_ms(latency_s, 95),
        "ops": len(latency_s), "peak_rss_mb": rss,
        "attempted": attempted, "failed": failed, "selftest": selftest,
    }
    if tracer:
        layers = tr.per_layer(tracer)
        layers.update(_outcomes(result if workload == "detect" else None))
        layers["trace.peak_rss_mb"] = rss
        report["layers"] = layers
        tracer.dump(os.path.join(wl.HERE, "out", f"trace-{workload}"))
    print(json.dumps(report))
    return 0


def _outcomes(result) -> dict[str, float]:
    """Which dichotomy path answered each detect op, and for fallback
    answers the id_set order over idf (reported, no bound asserted).  All
    zero for the other workloads."""
    import idforest
    counts = {"triangles": 0, "cycle": 0, "marguerite": 0, "fallback": 0}
    ratios = []
    pairs = zip(result.graphs, result.outputs) if result else ()
    for g, outcome in pairs:
        if isinstance(outcome, Exception):
            continue
        counts[outcome.family or "fallback"] += 1
        if not outcome.is_witness:
            value = idforest.idf_exact(g).value
            if value:
                ratios.append(outcome.id_set.order / value)
    out = {f"minors.outcome.{name}": count for name, count in counts.items()}
    out["minors.fallback_order_ratio.p50"] = statistics.median(ratios) if ratios else 0.0
    out["minors.fallback_order_ratio.max"] = max(ratios, default=0.0)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
