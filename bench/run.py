"""Layer benches: one layer of two checkouts of the repository, timed in
alternating pairs of fresh interpreters.

    python3 bench/run.py LABEL PARENT_DIR [--out BENCH_<LABEL>.json]

The "change" side is the checkout holding this script and the "parent"
side is PARENT_DIR, any checkout with the package under `src/`.  Each side
runs this script's worker for LABEL PAIRS times, with `PYTHONPATH` at its
own `src/`, the parent first on even pairs.  LABEL picks the layer:

- `vc`: `vc_exact` on seeded G(n, p) graphs.  For each point (n, p) and
  seed 0..4 a run times `vc_exact` on a freshly built graph (the best of a
  few repeats) and counts branch nodes, i.e. calls of
  `idforest.vc._vc_component`, in a separate untimed pass that wraps it.
  The point's time is the median over seeds.
- `detect`: the marguerite search `minors.marguerite_model`, per (k, n)
  cell of GRAPHS random labelled trees on n vertices plus 2..5 extra
  edges, as in the perfbench detect workload.  The cell's time is the sum
  over its graphs of the best of a few repeats.  A separate untimed pass
  counts hubs by wrapping `_connected_subsets`: a hub is tried when the
  hub-level enumeration yields it, and searched when the search goes on to
  place a petal next to it.  Both sides try the same hubs, since they stop
  at the same model; hubs cut are the hubs the parent searched and the
  change did not.  The `dichotomy` rows time `dichotomy` per k in
  DICHOTOMY_K, on graphs 0..GRAPHS-1 of each cell (k, n) with n = 9..12
  at k = 2 and n = 9..16 at k = 3, 4, summed over the graphs as above.
  A separate untimed pass counts the `cycle_packing` and `longest_cycle`
  calls it makes by wrapping them.
- `enum`: canonical enumeration.  A run grows levels 0..4 untimed, then
  times each level n in LEVELS: one serial augmentation of every graph of
  level n - 1, read from and written back to graph6, through
  `obstructions._augmented_children` with a classifier that keeps every
  child and takes any arguments, so both sides accept it whatever their
  classifier signature.  It counts the neighbour sets tried (calls of that
  classifier, which enumeration calls once for every set it tries), the
  canonical searches (calls of `canon._search`) and the classes kept (the
  level's length).  Then it times `idforest obstructions --k 2` (the
  perfbench census) in the same interpreter and counts its canonical
  searches and its `obstructions._classify` calls.  A counted function is
  wrapped in every module that binds it, so calls through a name imported
  from `canon` are counted too.  These counters wrap the functions in the timed
  pass itself: one extra Python call per counted call, about 0.4 us against
  about 140 us a canonical search at level 8.
- `kernel`: `idf_kernel(G, k)` at scale, on G with 2n distinct random
  edges (seed 0) for each n in KERNEL_SIZES, and on DIAMONDS diamonds in a
  row.  k is the half-integral LP value of G's bridgeless core, rounded
  up, computed untimed: the cover kernel then keeps every half-valued
  vertex instead of deciding the instance negative.  Each graph goes to a fresh interpreter, which times one
  `idf_kernel` call and reports its own peak RSS and the kernel's size,
  budget, forced vertices and verdict.
- `solve`: `idf_exact` per n in SOLVE_SIZES (24..64), on seeded G(n, m)
  graphs of average degree 3..8, two a degree, as in the perfbench solve
  workload.  The size's time is the sum over its graphs of the best of a
  few repeats.  A separate pass keeps every certificate of the size under
  `tracemalloc`, with the graphs built before tracing starts, and reports
  the traced bytes still held per certificate, next to the mean size of
  the input graphs' packed matrices (`Graph._matrix`).

Counters come from each side's first run.  For each row the file reports
each side's median and quartiles of the time over all runs, and in how many
pairs the change was faster (ties count for neither side), next to the
Python version, the CPU count and each side's `src/` line count.  Standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from time import perf_counter
from typing import Callable, NamedTuple

CHANGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 5
REPEATS = 3


def _best_of(build, call) -> tuple[float, object]:
    """The least time in seconds of REPEATS calls, each on a freshly built
    (untimed) input, and the last call's result."""
    best = float("inf")
    for _ in range(REPEATS):
        arg = build()
        t0 = perf_counter()
        result = call(arg)
        best = min(best, perf_counter() - t0)
    return best, result


@contextlib.contextmanager
def _counting(name: str, counts: dict, *modules):
    """Count the calls of the function `name` in counts[name] while the block
    runs.  It is patched in each of modules that binds it: a module that
    imported it by name calls its own reference, not the defining module's."""
    bound = [module for module in modules if hasattr(module, name)]
    inner = getattr(bound[0], name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return inner(*args, **kwargs)

    for module in bound:
        setattr(module, name, counted)
    try:
        yield
    finally:
        for module in bound:
            setattr(module, name, inner)


# ---------------------------------------------------------------------------
# vc: vc_exact on G(n, p)

POINTS = ((40, 0.15), (64, 0.1), (64, 0.2))
SEEDS = range(5)


def _gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [e for e in itertools.combinations(range(n), 2) if rng.random() < p]


def measure_vc() -> dict:
    from idforest import Graph, vc
    points = []
    for n, p in POINTS:
        ms, nodes = [], []
        for seed in SEEDS:
            edges = _gnp_edges(n, p, seed)
            ms.append(_best_of(lambda: Graph(n, edges), vc.vc_exact)[0] * 1e3)
            counts = {"_vc_component": 0}
            with _counting("_vc_component", counts, vc):
                vc.vc_exact(Graph(n, edges))
            nodes.append(counts["_vc_component"])
        points.append({"n": n, "p": p, "seeds": list(SEEDS), "nodes": nodes,
                       "vc_exact_ms": statistics.median(ms)})
    return {"points": points}


# ---------------------------------------------------------------------------
# detect: the marguerite search and the dichotomy on sparse graphs

CELLS = tuple((k, n) for k in (2, 3) for n in range(9, 13))
GRAPHS = 8
DICHOTOMY_K = {2: range(9, 13), 3: range(9, 17), 4: range(9, 17)}


def _sparse_edges(k: int, n: int, i: int) -> list[tuple[int, int]]:
    """Graph i of cell (k, n): a random labelled tree plus 2 + i % 4 edges."""
    rng = random.Random(f"marguerite/{k}/{n}/{i}")
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[v], perm[rng.randrange(v)]))) for v in range(1, n)}
    non_edges = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    return sorted(edges | set(rng.sample(non_edges, 2 + i % 4)))


def _count_hubs(g, k: int) -> tuple[int, int]:
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

    # minors imports the generator by name, so both modules are patched
    for mod in (oracle, minors):
        mod._connected_subsets = counted
    try:
        minors.marguerite_model(g, k)
    finally:
        for mod in (oracle, minors):
            mod._connected_subsets = inner
    return tried, searched


def measure_detect() -> dict:
    from idforest import Graph, dichotomy, marguerite_model, minors
    cells = []
    for k, n in CELLS:
        ms, found, tried, searched = 0.0, 0, 0, 0
        for i in range(GRAPHS):
            edges = _sparse_edges(k, n, i)
            secs, model = _best_of(lambda: Graph(n, edges), lambda g: marguerite_model(g, k))
            ms += secs * 1e3
            found += model is not None
            t, s = _count_hubs(Graph(n, edges), k)
            tried += t
            searched += s
        cells.append({"k": k, "n": n, "graphs": GRAPHS, "models_found": found,
                      "hubs_tried": tried, "hubs_searched": searched, "search_ms": ms})
    rows = []
    for k, sizes in DICHOTOMY_K.items():
        ms, witnesses = 0.0, 0
        counts = {"cycle_packing": 0, "longest_cycle": 0}
        graphs = [(n, _sparse_edges(k, n, i)) for n in sizes for i in range(GRAPHS)]
        for n, edges in graphs:
            secs, outcome = _best_of(lambda: Graph(n, edges), lambda g: dichotomy(g, k))
            ms += secs * 1e3
            witnesses += outcome.is_witness
            with _counting("cycle_packing", counts, minors), \
                    _counting("longest_cycle", counts, minors):
                dichotomy(Graph(n, edges), k)
        rows.append({"k": k, "graphs": len(graphs), "witnesses": witnesses,
                     "cycle_packing_calls": counts["cycle_packing"],
                     "longest_cycle_calls": counts["longest_cycle"], "dichotomy_ms": ms})
    return {"cells": cells, "dichotomy": rows}


# ---------------------------------------------------------------------------
# enum: canonical enumeration and the k = 2 census

LEVELS = range(5, 9)


def measure_enum() -> dict:
    from idforest import Graph, canon, cli, graph6_str, graph6_to_graph, obstructions

    counts = {"sets": 0, "_search": 0, "_classify": 0}

    def keep_all(*args) -> bool:
        counts["sets"] += 1
        return True

    def grow(level: list[str]) -> list[str]:
        return [graph6_str(child) for parent in level for child, _ in
                obstructions._augmented_children(graph6_to_graph(parent), keep_all)]

    level = [graph6_str(Graph(0))]
    for _ in range(LEVELS[0] - 1):
        level = grow(level)
    levels = []
    with _counting("_search", counts, canon, obstructions), \
            _counting("_classify", counts, obstructions):
        for n in LEVELS:
            counts.update(dict.fromkeys(counts, 0))
            t0 = perf_counter()
            level = grow(level)
            s = perf_counter() - t0
            levels.append({"n": n, "classes": len(level), "sets": counts["sets"],
                           "searches": counts["_search"], "s": s})
        counts.update(dict.fromkeys(counts, 0))
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            cli.main(["obstructions", "--k", "2", "--out", out])
            census_s = perf_counter() - t0
    return {"levels": levels, "census": {"searches": counts["_search"],
                                         "classify": counts["_classify"], "s": census_s}}


# ---------------------------------------------------------------------------
# kernel: idf_kernel at scale

KERNEL_SIZES = (1_000, 10_000)
DIAMONDS = 1_000

# one kernel in a fresh interpreter: the graph (n, edges, k) on stdin, the
# time of the idf_kernel call and the process's peak RSS on stdout
_KERNEL_CHILD = """
import json, resource, sys
from time import perf_counter
from idforest import Graph, idf_kernel
n, edges, k = json.load(sys.stdin)
g = Graph(n, edges)
t0 = perf_counter()
ki = idf_kernel(g, k)
s = perf_counter() - t0
json.dump({"kernel_n": ki.graph.n, "budget": ki.budget, "forced": len(ki.forced),
           "decided_no": ki.decided_no,
           "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
           "s": s}, sys.stdout)
"""


def _kernel_graphs() -> list[tuple[str, int, list[tuple[int, int]]]]:
    """(name, n, edges): for each n in KERNEL_SIZES, 2n distinct random
    edges (seed 0); then DIAMONDS diamonds in a row, hubs 3i and tips 3i+1,
    3i+2 joined to hubs 3i and 3i+3."""
    graphs = []
    for n in KERNEL_SIZES:
        rng = random.Random(0)
        edges: set[tuple[int, int]] = set()
        while len(edges) < 2 * n:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        graphs.append(("sparse", n, sorted(edges)))
    chain = [(3 * i + h, 3 * i + t) for i in range(DIAMONDS) for t in (1, 2) for h in (0, 3)]
    graphs.append(("diamonds", 3 * DIAMONDS + 1, sorted(chain)))
    return graphs


def measure_kernel() -> dict:
    import idforest
    from idforest import Graph, lp_half_integral, remove_bridges
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(idforest.__file__)))
    rows = []
    for name, n, edges in _kernel_graphs():
        _, half, v1 = lp_half_integral(remove_bridges(Graph(n, edges)))
        k = len(v1) + (len(half) + 1) // 2
        out = subprocess.run([sys.executable, "-c", _KERNEL_CHILD], env=env, check=True,
                             input=json.dumps([n, edges, k]), capture_output=True,
                             text=True).stdout
        rows.append({"graph": name, "n": n, "m": len(edges), "k": k, **json.loads(out)})
    return {"graphs": rows}


# ---------------------------------------------------------------------------
# solve: idf_exact on G(n, m)

SOLVE_SIZES = range(24, 65, 8)
SOLVE_DEGREES = (3, 4, 5, 6, 7, 8)
SOLVE_SEEDS = range(2)


def _gnm_edges(n: int, degree: int, seed: int) -> list[tuple[int, int]]:
    """round(degree * n / 2) distinct random edges on n vertices."""
    rng = random.Random(f"solve/{n}/{degree}/{seed}")
    return sorted(rng.sample(list(itertools.combinations(range(n), 2)), round(degree * n / 2)))


def _kept_bytes(graphs: list, call) -> float:
    """Traced bytes still held per result after calling `call` on each
    graph and keeping the results; the graphs are built before tracing."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [call(g) for g in graphs]
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()


def measure_solve() -> dict:
    from idforest import Graph, idf_exact
    rows = []
    for n in SOLVE_SIZES:
        cells = [_gnm_edges(n, d, seed) for d in SOLVE_DEGREES for seed in SOLVE_SEEDS]
        ms = idf = 0
        for edges in cells:
            secs, cert = _best_of(lambda: Graph(n, edges), idf_exact)
            ms += secs * 1e3
            idf += cert.value
        graphs = [Graph(n, edges) for edges in cells]
        kept = _kept_bytes(graphs, idf_exact)
        rows.append({"n": n, "graphs": len(cells), "idf_sum": idf,
                     "graph_bytes": round(sum(len(g._matrix) for g in graphs) / len(graphs), 1),
                     "kept_bytes_per_certificate": round(kept, 1), "solve_ms": ms})
    return {"sizes": rows}


# ---------------------------------------------------------------------------
# the runner

class Layer(NamedTuple):
    measure: Callable[[], dict]  # one run: {section: row entry or list of them}
    time_keys: tuple[str, ...]  # the timed field of an entry is the first of these it has
    ids: tuple[str, ...]  # the fields that name a row; the others are counters
    about: str


LAYERS = {
    "vc": Layer(measure_vc, ("vc_exact_ms",), ("n", "p", "seeds"),
                f"vc_exact on G(n, p): median over seeds of the best of {REPEATS} "
                "calls, branch nodes = _vc_component calls"),
    "detect": Layer(measure_detect, ("search_ms", "dichotomy_ms"), ("k", "n", "graphs"),
                    f"marguerite search on {GRAPHS} trees plus 2..5 edges per (k, n) "
                    f"cell: sum over the cell of the best of {REPEATS} calls; hubs "
                    "counted through _connected_subsets; dichotomy per k on the "
                    f"same kind of graphs, {GRAPHS} an n, timed the same way, with "
                    "its cycle_packing and longest_cycle calls"),
    "enum": Layer(measure_enum, ("s",), ("n",),
                  "serial canonical augmentation of level n - 1 into level n, one "
                  "timed pass a run; sets = calls of the keep-all classifier, "
                  "searches = _search calls; census = idforest obstructions --k 2 in "
                  "the same interpreter, with its _search and _classify calls"),
    "kernel": Layer(measure_kernel, ("s",), ("graph", "n", "m", "k"),
                    "idf_kernel(G, k), k the LP value of G's bridgeless core rounded "
                    "up, one call in a fresh interpreter a run, on G with 2n random "
                    "edges and on a chain of diamonds; peak RSS is that interpreter's, "
                    "from each side's first run"),
    "solve": Layer(measure_solve, ("solve_ms",), ("n", "graphs"),
                   f"idf_exact on G(n, m) with average degree {SOLVE_DEGREES[0]}.."
                   f"{SOLVE_DEGREES[-1]}, {len(SOLVE_SEEDS)} graphs a degree: sum over "
                   f"the graphs of the best of {REPEATS} calls; kept bytes = traced "
                   "bytes still held per certificate when every certificate of the "
                   "size is kept, the input graphs excluded, from each side's first run; "
                   "graph bytes = mean packed matrix size of the input graphs"),
}


def _src_lines(checkout: str) -> int:
    pkg = os.path.join(checkout, "src", "idforest")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                total += sum(1 for _ in f)
    return total


def _run(label: str, checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), label, "--worker"],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3),
            "runs": [round(v, 3) for v in values]}


def _row(layer: Layer, runs: dict[str, list[dict]], pick) -> dict:
    """One row from the entry `pick` selects in every run of both sides."""
    entries = {side: [pick(r) for r in rs] for side, rs in runs.items()}
    first = {side: es[0] for side, es in entries.items()}
    time_key = next(key for key in layer.time_keys if key in first["change"])
    row = {key: first["change"][key] for key in layer.ids if key in first["change"]}
    for key in first["change"]:
        if key not in layer.ids and key != time_key:
            row[key] = {side: entry[key] for side, entry in first.items()}
    times = {side: [e[time_key] for e in es] for side, es in entries.items()}
    row[time_key] = {side: _summary(t) for side, t in times.items()}
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    row["change_faster_pairs"] = f"{wins}/{PAIRS}"
    return row


def compare(label: str, parent: str) -> dict:
    layer = LAYERS[label]
    sides = {"parent": parent, "change": CHANGE_DIR}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(label, sides[side]))
            print(f"pair {i + 1}/{PAIRS}: {side} done", file=sys.stderr)
    result = {
        "bench": layer.about,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pairs": PAIRS,
        "src_lines": {side: _src_lines(d) for side, d in sides.items()},
    }
    for section, value in runs["change"][0].items():
        many = isinstance(value, list)
        picks = ([lambda r, i=i: r[section][i] for i in range(len(value))] if many
                 else [lambda r: r[section]])
        rows = [_row(layer, runs, pick) for pick in picks]
        for row in rows:
            if "hubs_searched" in row:
                row["hubs_cut"] = row["hubs_searched"]["parent"] - row["hubs_searched"]["change"]
            print(f"{section}: {_line(row)}")
        result[section] = rows if many else rows[0]
    return result


def _line(row: dict) -> str:
    """Names as key=value, counters and times as parent -> change (times by
    their medians)."""
    parts = []
    for key, field in row.items():
        if isinstance(field, dict):
            before, after = field["parent"], field["change"]
            if isinstance(before, dict):
                before, after = before["median"], after["median"]
            parts.append(f"{key} {before} -> {after}")
        else:
            parts.append(f"{key}={field}")
    return ", ".join(parts)


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label", choices=LAYERS, help="the layer to bench")
    ap.add_argument("parent", nargs="?", help="checkout to compare against")
    ap.add_argument("--out", help="output file (default BENCH_<LABEL>.json at the "
                                  "repository root)")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        json.dump(LAYERS[args.label].measure(), sys.stdout)
        return
    if args.parent is None:
        ap.error("a parent checkout is required")
    result = compare(args.label, os.path.abspath(args.parent))
    out = args.out or os.path.join(CHANGE_DIR, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
