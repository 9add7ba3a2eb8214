"""The three benchmark workloads: seeded inputs, the timed job, and the
output checks.

Every job is a closed loop with one client in one process: the next call
starts only after the previous one returned.  Only public idforest calls
are timed; building Graph objects and checking outputs happen outside the
timed region.  Calls go through ``idforest.<name>`` attribute lookups at
call time, so the traced run sees them through its rebound wrappers.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import random
import shutil
from contextlib import redirect_stdout
from time import perf_counter

import idforest

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

# solve: idf_exact on G(n, m) graphs, i.e. G(n, p) conditioned on its edge
# count, so the mix of sizes and densities is identical for every seed.
# Cheaper sizes get more copies, so that op_p95_ms falls inside the
# 48-vertex cells, of which every pass has over a hundred: were it set by a
# few dozen 56- and 64-vertex graphs, whose branching costs vary twofold
# within a cell, it would depend on the seed.  The 48- to 64-vertex graphs
# still take about two thirds of the wall time.
SOLVE_COPIES = {24: 36, 32: 36, 40: 24, 48: 12, 56: 3, 64: 1}
SOLVE_DEGREES = tuple(d / 2 for d in range(6, 17))  # average degree 3.0 .. 8.0

# detect: dichotomy on a random labelled tree plus 2..5 extra edges.
# k = 2 on 9..11 vertices exercises the marguerite search and the
# feedback-vertex-set fallback; k = 3, 4 on 9..16 vertices mostly stops at
# the longest-cycle detector.  Each entry is (k, vertex counts, copies per
# (n, extra edges) cell).  11-vertex graphs get fewer copies and 12-vertex
# graphs none, because their brute-force minor searches have the heaviest
# tail (single calls up to half a second), which would otherwise make
# wall_s and op_p95_ms depend on the seed.
DETECT_EXTRA_EDGES = (2, 3, 4, 5)
DETECT_CELLS = ((2, (9, 10), 250), (2, (11,), 150),
                (3, range(9, 17), 20), (4, range(9, 17), 20))

CENSUS_K = 2
CENSUS_FILES = ("obs-idf-k2.g6", "obs-idf-k2.json", "obs-vc-k2.g6", "obs-vc-k2.json")
CENSUS_CHECKS = 7


def solve_ops(seed: int) -> list[tuple]:
    """The solve op list: (n, edges, None) per op, from the seed."""
    rng = random.Random(f"solve/{seed}")
    ops = []
    for n, copies in SOLVE_COPIES.items():
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for d in SOLVE_DEGREES:
            for _ in range(copies):
                ops.append((n, sorted(rng.sample(pairs, round(d * n / 2))), None))
    rng.shuffle(ops)
    return ops


def _random_tree(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Uniform random labelled tree, decoded from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = set()
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.add((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [x for x in range(n) if degree[x] == 1]
    edges.add((u, w))
    return edges


def detect_ops(seed: int) -> list[tuple]:
    """The detect op list: (n, edges, k) per op, from the seed."""
    rng = random.Random(f"detect/{seed}")
    ops = []
    for k, sizes, copies in DETECT_CELLS:
        for n in sizes:
            for extra in DETECT_EXTRA_EDGES:
                for _ in range(copies):
                    edges = _random_tree(rng, n)
                    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if (u, v) not in edges]
                    edges.update(rng.sample(non_edges, extra))
                    ops.append((n, sorted(edges), k))
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int) -> list[tuple]:
    if workload == "solve":
        return solve_ops(seed)
    if workload == "detect":
        return detect_ops(seed)
    raise ValueError(f"no op list for workload {workload!r}")


# ---------------------------------------------------------------------------
# timed jobs

@dataclasses.dataclass
class JobResult:
    pass_s: list[float]          # wall time of each pass over the op list
    latency_s: list[float]       # every op of every pass
    graphs: list                 # inputs of every op, in call order
    outputs: list                # output of every op, or the exception it raised


def _solve_call(g, k):
    return idforest.idf_exact(g)


def _detect_call(g, k):
    return idforest.dichotomy(g, k)


def run_ops(workload: str, ops: list[tuple], seconds: float, *,
            max_passes: int | None = None) -> JobResult:
    """Closed loop over the op list.  A pass is the fixed job; another pass
    starts only while the previous pass would still end within `seconds`.
    Graph objects are rebuilt before each pass (untimed), so no cached
    adjacency carries over from an earlier pass."""
    call = _solve_call if workload == "solve" else _detect_call
    result = JobResult([], [], [], [])
    begin = perf_counter()
    while True:
        graphs = [idforest.Graph(n, edges) for n, edges, _ in ops]
        t_pass = perf_counter()
        for g, (_, _, k) in zip(graphs, ops):
            t0 = perf_counter()
            try:
                out = call(g, k)
            except Exception as exc:  # a raising op is a failed op, not a crash
                out = exc
            result.latency_s.append(perf_counter() - t0)
            result.outputs.append(out)
        now = perf_counter()
        result.pass_s.append(now - t_pass)
        result.graphs.extend(graphs)
        if max_passes is not None and len(result.pass_s) >= max_passes:
            break
        if now - begin + result.pass_s[-1] > seconds:
            break
    return result


def run_census() -> tuple[float, int, dict[str, bytes]]:
    """`idforest obstructions --k 2 --out <dir>` without the interpreter
    start, into a scratch directory inside perfbench/out that is removed
    afterwards; returns (wall seconds, exit code, written catalog files)."""
    outdir = os.path.join(HERE, "out", f"census-{os.getpid()}")
    shutil.rmtree(outdir, ignore_errors=True)
    argv = ["obstructions", "--k", str(CENSUS_K), "--out", outdir]
    t0 = perf_counter()
    with redirect_stdout(io.StringIO()):
        code = idforest.cli.main(argv)
    wall = perf_counter() - t0
    files = {}
    for name in CENSUS_FILES:
        path = os.path.join(outdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
    shutil.rmtree(outdir, ignore_errors=True)
    return wall, code, files


# ---------------------------------------------------------------------------
# output checks: each returns True for a correct output and never raises

def _matching_lower_bound(g) -> int:
    """Size of a greedy maximal matching: a lower bound on any vertex cover."""
    used: set[int] = set()
    size = 0
    for u, v in sorted(g.edges):
        if u not in used and v not in used:
            used |= {u, v}
            size += 1
    return size


def check_solve(g, cert, expected: int | None) -> bool:
    """The certificate replays to a forest, its order is the claimed value,
    the value is at least a matching bound of the bridgeless core, and it
    equals the committed value when there is one."""
    try:
        if isinstance(cert, Exception):
            return False
        forest, _ = idforest.identify_partition(g, cert.partition)
        return (idforest.is_forest(forest)
                and cert.partition.order == cert.value
                and cert.value >= _matching_lower_bound(idforest.remove_bridges(g))
                and (expected is None or cert.value == expected))
    except Exception:
        return False


_PATTERNS = {
    "cycle": lambda k: idforest.gen_cycle(max(k, 3)),
    "triangles": lambda k: idforest.gen_triangles(k),
    "marguerite": lambda k: idforest.gen_marguerite(k),
}


def check_detect(g, k: int, outcome) -> bool:
    """A witness must be a valid minor model of its family at k; an
    identification set must turn g into a forest."""
    try:
        if isinstance(outcome, Exception):
            return False
        if outcome.is_witness:
            return (outcome.parameter == k
                    and outcome.model.validates_in(g)
                    and idforest.is_isomorphic(outcome.model.pattern,
                                               _PATTERNS[outcome.family](k)))
        return idforest.is_id_forest_partition(g, outcome.id_set)
    except Exception:
        return False


def expected_census() -> dict[str, bytes]:
    out = {}
    for name in CENSUS_FILES:
        with open(os.path.join(EXPECTED_DIR, "census", name), "rb") as fh:
            out[name] = fh.read()
    return out


def check_census(code: int, files: dict[str, bytes], expected: dict[str, bytes]) -> bool:
    """Exit code 0, all seven cross-checks recorded as passed, and the four
    catalog files byte-identical to the committed copies."""
    try:
        checks = json.loads(files["obs-idf-k2.json"])["checks"]
        return (code == 0
                and len(checks) == CENSUS_CHECKS
                and all(c["passed"] for c in checks.values())
                and files == expected)
    except Exception:
        return False


def expected_solve_values(seed: int) -> list[int] | None:
    path = os.path.join(EXPECTED_DIR, f"solve-seed{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def count_failed(workload: str, seed: int, ops: list[tuple], result: JobResult) -> int:
    if workload == "solve":
        expected = expected_solve_values(seed) or [None] * len(ops)
        cycle = len(ops)
        return sum(not check_solve(g, out, expected[i % cycle])
                   for i, (g, out) in enumerate(zip(result.graphs, result.outputs)))
    cycle = len(ops)
    return sum(not check_detect(g, ops[i % cycle][2], out)
               for i, (g, out) in enumerate(zip(result.graphs, result.outputs)))


# ---------------------------------------------------------------------------
# checker self-test: one deliberately corrupted answer per checker

def selftest_solve(ops: list[tuple], result: JobResult, seed: int) -> bool:
    """Drop one block from a certificate; the solve checker must reject it."""
    expected = expected_solve_values(seed) or [None] * len(ops)
    for i, (g, cert) in enumerate(zip(result.graphs, result.outputs)):
        if not isinstance(cert, Exception) and cert.partition.blocks:
            bad = dataclasses.replace(cert, partition=idforest.VertexPartition(
                cert.partition.blocks[1:]))
            return not check_solve(g, bad, expected[i % len(ops)])
    return False


def selftest_detect(ops: list[tuple], result: JobResult) -> bool:
    """Give one witness a wrong branch set (a copy of another, so two branch
    sets overlap); the detect checker must reject it."""
    for i, (g, outcome) in enumerate(zip(result.graphs, result.outputs)):
        if not isinstance(outcome, Exception) and outcome.is_witness:
            sets = dict(outcome.model.branch_sets)
            sets[0] = sets[1]
            model = idforest.MinorModel(outcome.model.pattern, sets)
            bad = dataclasses.replace(outcome, model=model)
            return not check_detect(g, ops[i % len(ops)][2], bad)
    return False


def selftest_census(code: int, files: dict[str, bytes], expected: dict[str, bytes]) -> bool:
    """Alter one catalog line; the census checker must reject it."""
    name = "obs-vc-k2.g6"
    if name not in files:
        return False
    lines = files[name].split(b"\n")
    lines[0] = lines[0][:-1] + bytes([lines[0][-1] ^ 1])
    return not check_census(code, {**files, name: b"\n".join(lines)}, expected)
