"""Layer bench for canonical enumeration: time and work per level, and the
canonical searches of the k = 2 census.

Compares two checkouts of the repository, the one holding this script
("change") and an older one ("parent"), in alternating pairs of fresh
interpreters (PAIRS of them), and writes the result as JSON:

    python3 bench/enum.py PARENT_DIR [--out BENCH_enum.json]

PARENT_DIR is any checkout with the package under `src/`.  A run grows
levels 0..4 untimed, then times each level n in LEVELS: one serial
augmentation of every graph of level n - 1 through
`obstructions._augment_worker`.  It counts the neighbour sets tried (calls
of `obstructions.with_new_vertex`), the canonical searches (calls of
`canon._search`) and the classes kept (the level's length).  Then it times
`idforest obstructions --k 2` (the perfbench census) in the same interpreter
and counts its canonical searches.  The counters wrap the functions in the
timed pass itself: one extra Python call per counted call, about 0.4 us
against about 140 us a canonical search at level 8.  The file reports each
side's median and quartiles over all runs and how many pairs the change
won.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
CHANGE_DIR = os.path.dirname(HERE)
LEVELS = range(5, 9)
PAIRS = 5


def _src_lines(checkout: str) -> int:
    pkg = os.path.join(checkout, "src", "idforest")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                total += sum(1 for _ in f)
    return total


def _counting(module, name: str, counts: dict) -> None:
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return inner(*args, **kwargs)

    setattr(module, name, counted)


def measure() -> dict:
    """One run over every level and the census, in this interpreter's
    `idforest`."""
    from idforest import Graph, canon, cli, graph6_str, obstructions
    counts = {"with_new_vertex": 0, "_search": 0}
    _counting(obstructions, "with_new_vertex", counts)
    _counting(canon, "_search", counts)

    def grow(level: list[str]) -> list[str]:
        return [line for parent in level for line in obstructions._augment_worker(parent)]

    level = [graph6_str(Graph(0))]
    for _ in range(LEVELS[0] - 1):
        level = grow(level)
    levels = []
    for n in LEVELS:
        counts.update(dict.fromkeys(counts, 0))
        t0 = perf_counter()
        level = grow(level)
        levels.append({"n": n, "s": perf_counter() - t0, "sets": counts["with_new_vertex"],
                       "searches": counts["_search"], "classes": len(level)})
    counts.update(dict.fromkeys(counts, 0))
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        cli.main(["obstructions", "--k", "2", "--out", out])
        census_s = perf_counter() - t0
    return {"levels": levels, "census": {"s": census_s, "searches": counts["_search"]}}


def _run(checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker"],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3),
            "runs": [round(v, 3) for v in values]}


def _row(runs: dict[str, list[dict]], pick, counters: tuple[str, ...]) -> dict:
    row: dict = {c: {side: pick(rs[0])[c] for side, rs in runs.items()} for c in counters}
    per_run = {side: [pick(r)["s"] for r in rs] for side, rs in runs.items()}
    row["s"] = {side: _summary(v) for side, v in per_run.items()}
    wins = sum(c < p for p, c in zip(per_run["parent"], per_run["change"]))
    row["change_faster_pairs"] = f"{wins}/{PAIRS}"
    return row


def compare(parent: str) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    sides = {"parent": parent, "change": CHANGE_DIR}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(sides[side]))
            print(f"pair {i + 1}/{PAIRS}: {side} done", file=sys.stderr)
    levels = []
    for k, n in enumerate(LEVELS):
        row = {"n": n}
        row.update(_row(runs, lambda r: r["levels"][k], ("classes", "sets", "searches")))
        levels.append(row)
    return {
        "bench": "serial canonical augmentation of level n - 1 into level n, one timed "
                 "pass a run; sets = with_new_vertex calls, searches = canon._search "
                 "calls; census = idforest obstructions --k 2 in the same interpreter",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pairs": PAIRS,
        "src_lines": {side: _src_lines(d) for side, d in sides.items()},
        "levels": levels,
        "census": _row(runs, lambda r: r["census"], ("searches",)),
    }


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", help="checkout to compare against")
    ap.add_argument("--out", default=os.path.join(CHANGE_DIR, "BENCH_enum.json"),
                    help="output file (default BENCH_enum.json at the repository root)")
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
    for row in result["levels"] + [dict(result["census"], n="census")]:
        t = row["s"]
        print(f"n={row['n']}: {t['parent']['median']} -> {t['change']['median']} s, "
              f"searches {row['searches']['parent']} -> {row['searches']['change']}, "
              f"change faster in {row['change_faster_pairs']}")


if __name__ == "__main__":
    main()
