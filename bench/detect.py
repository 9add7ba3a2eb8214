"""Layer bench for the marguerite search: time, and hubs tried and cut, per
(k, n) cell on seeded sparse graphs.

Compares two checkouts of the repository, the one holding this script
("change") and an older one ("parent"), in alternating pairs of fresh
interpreters (PAIRS of them), and writes the result as JSON:

    python3 bench/detect.py PARENT_DIR [--out BENCH_detect.json]

PARENT_DIR is any checkout with the package under `src/`.  Each cell holds
GRAPHS random labelled trees on n vertices plus 2..5 extra edges, as in
the perfbench detect workload.  A run times the checkout's marguerite
search on each graph (the best of a few repeats): `minors.marguerite_model`
where it exists, else `brute_minor(gen_marguerite(k), g)`.  The cell's time
is the sum over its graphs.  A separate untimed pass counts hubs by
wrapping `_connected_subsets`: a hub is tried when the hub-level
enumeration yields it, and searched when the search goes on to place a
petal next to it.  Both searches try the same hubs, since they stop at the
same model; hubs cut are the hubs the parent searched and the change did
not.  The file reports each side's median and quartiles over all runs and
how many pairs the change won.  Standard library only.
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
CELLS = tuple((k, n) for k in (2, 3) for n in range(9, 13))
GRAPHS = 8
REPEATS = 3
PAIRS = 5


def _edges(k: int, n: int, i: int) -> list[tuple[int, int]]:
    """Graph i of cell (k, n): a random labelled tree plus 2 + i % 4 edges."""
    rng = random.Random(f"marguerite/{k}/{n}/{i}")
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[v], perm[rng.randrange(v)]))) for v in range(1, n)}
    non_edges = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    return sorted(edges | set(rng.sample(non_edges, 2 + i % 4)))


def _src_lines(checkout: str) -> int:
    pkg = os.path.join(checkout, "src", "idforest")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                total += sum(1 for _ in f)
    return total


def _search():
    from idforest import minors, oracle
    if hasattr(minors, "marguerite_model"):
        return minors.marguerite_model
    return lambda g, k: oracle.brute_minor(minors.gen_marguerite(k), g)


def _count_hubs(search, g, k: int) -> tuple[int, int]:
    """(hubs tried, hubs searched) by one search of g."""
    from idforest import minors, oracle
    inner = oracle._connected_subsets
    full = (1 << g.n) - 1
    tried = searched = 0
    hub = 0

    def counted(adj, allowed, max_size):
        nonlocal tried, searched, hub
        if allowed == full:
            for hub in inner(adj, allowed, max_size):
                tried += 1
                yield hub
            return
        if allowed == full & ~hub:  # the first petal set of this hub
            searched += 1
        yield from inner(adj, allowed, max_size)

    patched = [mod for mod in (oracle, minors) if hasattr(mod, "_connected_subsets")]
    for mod in patched:
        mod._connected_subsets = counted
    try:
        search(g, k)
    finally:
        for mod in patched:
            mod._connected_subsets = inner
    return tried, searched


def measure() -> dict:
    """One run over every cell, in this interpreter's `idforest`."""
    from idforest import Graph
    search = _search()
    cells = []
    for k, n in CELLS:
        ms, found, tried, searched = 0.0, 0, 0, 0
        for i in range(GRAPHS):
            edges = _edges(k, n, i)
            best = float("inf")
            for _ in range(REPEATS):
                g = Graph(n, edges)
                t0 = perf_counter()
                model = search(g, k)
                best = min(best, perf_counter() - t0)
            ms += best * 1e3
            found += model is not None
            t, s = _count_hubs(search, Graph(n, edges), k)
            tried += t
            searched += s
        cells.append({"k": k, "n": n, "ms": ms, "found": found,
                      "hubs_tried": tried, "hubs_searched": searched})
    return {"cells": cells}


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
    cells = []
    for c, (k, n) in enumerate(CELLS):
        first = {side: runs[side][0]["cells"][c] for side in sides}
        row: dict = {"k": k, "n": n, "graphs": GRAPHS,
                     "models_found": {side: first[side]["found"] for side in sides}}
        for key in ("hubs_tried", "hubs_searched"):
            row[key] = {side: first[side][key] for side in sides}
        row["hubs_cut"] = first["parent"]["hubs_searched"] - first["change"]["hubs_searched"]
        per_run = {side: [r["cells"][c]["ms"] for r in runs[side]] for side in sides}
        row["search_ms"] = {side: _summary(per_run[side]) for side in sides}
        wins = sum(ch < pa for pa, ch in zip(per_run["parent"], per_run["change"]))
        row["change_faster_pairs"] = f"{wins}/{PAIRS}"
        cells.append(row)
    return {
        "bench": f"marguerite search on {GRAPHS} trees plus 2..5 edges per (k, n) cell: "
                 f"sum over the cell of the best of {REPEATS} calls; hubs counted "
                 "through _connected_subsets",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pairs": PAIRS,
        "src_lines": {side: _src_lines(d) for side, d in sides.items()},
        "cells": cells,
    }


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", help="checkout to compare against")
    ap.add_argument("--out", default=os.path.join(CHANGE_DIR, "BENCH_detect.json"),
                    help="output file (default BENCH_detect.json at the repository root)")
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
    for row in result["cells"]:
        t = row["search_ms"]
        print(f"k={row['k']} n={row['n']}: {t['parent']['median']} -> "
              f"{t['change']['median']} ms, hubs tried {row['hubs_tried']['change']}, "
              f"searched {row['hubs_searched']['parent']} -> "
              f"{row['hubs_searched']['change']}, change faster in {row['change_faster_pairs']}")


if __name__ == "__main__":
    main()
