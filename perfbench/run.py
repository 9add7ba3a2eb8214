"""Outside-in benchmark for idforest.

    python3 perfbench/run.py --workload solve|detect|census|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (it imports idforest from src/).
Each job runs in a fresh interpreter (perfbench/worker.py): set-up time is
the median of several cold starts, then one untraced job is timed and its
outputs checked.  With --trace 1 a traced job runs next to a second
untraced one and the per-layer metrics are reported instead.

Earlier lines of standard output are a readable table with units and
sample counts; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every output check and the checker self-test passed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("solve", "detect", "census")
PROBES = 9            # cold starts per run for setup_s, after one warm-up
DEADLINE_S = 170.0    # every run must end within 180 s


class BenchError(Exception):
    pass


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def _worker(args: list[str]) -> subprocess.Popen:
    # Bytecode is cached under perfbench/out whatever the caller's setting,
    # so every start after the warm-up imports compiled modules, as an
    # installed package would, and src/ stays untouched.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = os.path.join(HERE, "out", "pycache")
    return subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _collect(procs: list[subprocess.Popen], deadline: float) -> list[dict]:
    """Wait for every worker; on a timeout or a crash stop them all."""
    reports = []
    try:
        for p in procs:
            out, err = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
            if p.returncode != 0:
                raise BenchError(f"worker {p.args[2:]} exited {p.returncode}:\n{err}")
            reports.append(json.loads(out.strip().splitlines()[-1]))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {exc.cmd[2:]} ran past the deadline") from exc
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    return reports


def _probe(workload: str, seed: int, deadline: float) -> tuple[float, float]:
    """One cold start: (set-up seconds, import seconds)."""
    started = time.monotonic()
    report, = _collect([_worker([workload, str(seed), "0", "probe"])], deadline)
    return report["ready"] - started, report["import_s"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    _probe(workload, seed, deadline)  # warm-up: compiles and caches the bytecode
    probes = [_probe(workload, seed, deadline) for _ in range(PROBES)]
    args = [workload, str(seed), str(seconds)]
    if trace:
        run, traced = _collect([_worker(args + ["run"]), _worker(args + ["trace"])],
                               deadline)
    else:
        (run,), traced = _collect([_worker(args + ["run"])], deadline), None
    return {"probes": probes, "run": run, "traced": traced}


def metrics_of(result: dict, trace: bool) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count)."""
    run, probes = result["run"], result["probes"]
    if trace:
        layers = result["traced"]["layers"]
        out = {name: (value, 1) for name, value in layers.items()}
        out["import_s"] = (statistics.median(p[1] for p in probes), len(probes))
        out["trace.overhead"] = (result["traced"]["wall_s"] / run["wall_s"], 1)
        return out
    return {
        "wall_s": (run["wall_s"], run["passes"]),
        "op_p50_ms": (run["op_p50_ms"], run["ops"]),
        "op_p95_ms": (run["op_p95_ms"], run["ops"]),
        "failed_frac": (run["failed"] / run["attempted"], run["attempted"]),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
        "setup_s": (statistics.median(p[0] for p in probes), len(probes)),
    }


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def metadata() -> dict:
    lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "idforest", "*.py")):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _git_commit(), "src_lines": lines}


def main(argv: list[str] | None = None) -> int:
    design = _load(os.path.join(HERE, "design.json"))
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=design["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "idforest", "__init__.py")):
        raise BenchError(f"no idforest sources under {os.path.join(ROOT, 'src')}")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(chosen)
    print("meta " + json.dumps(metadata(), sort_keys=True))
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in chosen:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), deadline)
        reports = [result["run"]] + ([result["traced"]] if args.trace else [])
        attempted += sum(r["attempted"] for r in reports)
        failed += sum(r["failed"] for r in reports)
        selftest = all(r["selftest"] for r in reports)
        correct = correct and selftest and not any(r["failed"] for r in reports)
        print(f"{workload}: seed {args.seed}, checker self-test "
              f"{'passed' if selftest else 'FAILED'}")
        values = metrics_of(result, bool(args.trace))
        for name, (value, samples) in values.items():
            unit = units.get(name, "ratio")
            print(f"  {workload:7} {name:34} {value:14.6f} {unit:6} n={samples}")
        prefix = f"{workload}." if args.workload == "all" else ""
        missing = [name for name in units if name not in values]
        if missing:
            raise BenchError(f"{workload} did not report {missing}")
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name][0], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
