"""Layer bench for `vc_exact`: time and branch nodes on seeded G(n, p) graphs.

Compares two checkouts of the repository, the one holding this script
("change") and an older one ("parent"), in alternating pairs of fresh
interpreters (PAIRS of them), and writes the result as JSON:

    python3 bench/vc.py PARENT_DIR [--out BENCH_vc.json]

PARENT_DIR is any checkout with the package under `src/`.  For each point
(n, p) and seed 0..4 a run times `vc_exact` on a freshly built graph (the
minimum of a few repeats) and counts branch nodes, i.e. calls of
`idforest.vc._vc_component`, in a separate untimed pass that wraps it.  The
point's time is the median over seeds; the file reports each side's median
and quartiles over all runs and how many pairs the change won.  Standard
library only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
CHANGE_DIR = os.path.dirname(HERE)
POINTS = ((40, 0.15), (64, 0.1), (64, 0.2))
SEEDS = range(5)
REPEATS = 3
PAIRS = 5


def _edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [e for e in itertools.combinations(range(n), 2) if rng.random() < p]


def _src_lines(checkout: str) -> int:
    pkg = os.path.join(checkout, "src", "idforest")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                total += sum(1 for _ in f)
    return total


def _count_nodes(vc, g) -> int:
    inner = vc._vc_component
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    vc._vc_component = counted
    try:
        vc.vc_exact(g)
    finally:
        vc._vc_component = inner
    return calls


def measure() -> dict:
    """One run over every point, in this interpreter's `idforest`."""
    from idforest import Graph, vc
    points = []
    for n, p in POINTS:
        ms, nodes = [], []
        for seed in SEEDS:
            edges = _edges(n, p, seed)
            best = float("inf")
            for _ in range(REPEATS):
                g = Graph(n, edges)
                t0 = perf_counter()
                vc.vc_exact(g)
                best = min(best, perf_counter() - t0)
            ms.append(best * 1e3)
            nodes.append(_count_nodes(vc, Graph(n, edges)))
        points.append({"n": n, "p": p, "ms": ms, "nodes": nodes})
    return {"points": points}


def _run(checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker"],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2),
            "runs": [round(v, 2) for v in values]}


def compare(parent: str) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    sides = {"parent": parent, "change": CHANGE_DIR}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(sides[side]))
            print(f"pair {i + 1}/{PAIRS}: {side} done", file=sys.stderr)
    points = []
    for k, (n, p) in enumerate(POINTS):
        row: dict = {"n": n, "p": p, "seeds": list(SEEDS)}
        per_run = {side: [statistics.median(r["points"][k]["ms"]) for r in runs[side]]
                   for side in sides}
        row["nodes"] = {side: runs[side][0]["points"][k]["nodes"] for side in sides}
        row["vc_exact_ms"] = {side: _summary(per_run[side]) for side in sides}
        wins = sum(c < q for q, c in zip(per_run["parent"], per_run["change"]))
        row["change_faster_pairs"] = f"{wins}/{PAIRS}"
        points.append(row)
    return {
        "bench": "vc_exact on G(n, p): median over seeds of the best of "
                 f"{REPEATS} calls, branch nodes = _vc_component calls",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pairs": PAIRS,
        "src_lines": {side: _src_lines(d) for side, d in sides.items()},
        "points": points,
    }


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", help="checkout to compare against")
    ap.add_argument("--out", default=os.path.join(CHANGE_DIR, "BENCH_vc.json"),
                    help="output file (default BENCH_vc.json at the repository root)")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        json.dump(measure(), sys.stdout)
        return
    if args.parent is None:
        ap.error("a parent checkout is required")
    result = compare(os.path.abspath(args.parent))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    for row in result["points"]:
        t = row["vc_exact_ms"]
        print(f"n={row['n']} p={row['p']}: {t['parent']['median']} -> "
              f"{t['change']['median']} ms, nodes {row['nodes']['parent']} -> "
              f"{row['nodes']['change']}, change faster in {row['change_faster_pairs']}")


if __name__ == "__main__":
    main()
