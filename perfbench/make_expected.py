"""Regenerate the committed expected outputs under perfbench/expected/.

    python3 perfbench/make_expected.py

Writes the idf values of the solve workload for the shipped seeds (default
and held-out, from design.json) and the four catalog files of
`idforest obstructions --k 2`.  When networkx and scipy are installed, each
solve value is also recomputed independently (bridges from networkx, a
minimum vertex cover of the bridgeless core as an integer program) and the
script stops on any disagreement.  Rerun it only when a change of
behaviour is intended, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import idforest  # noqa: E402
import idforest.cli  # noqa: E402
import workloads as wl  # noqa: E402


def independent_idf(n: int, edges: list[tuple[int, int]]) -> int | None:
    """Vertex cover number of the graph minus its bridges, by networkx and
    scipy's MILP solver; None when either is missing."""
    try:
        import networkx as nx
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError:
        return None
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    bridges = {frozenset(e) for e in nx.bridges(g)}
    core = [e for e in g.edges if frozenset(e) not in bridges]
    if not core:
        return 0
    a = np.zeros((len(core), n))
    for row, (u, v) in enumerate(core):
        a[row, u] = a[row, v] = 1
    res = milp(np.ones(n), constraints=LinearConstraint(a, lb=1), integrality=np.ones(n),
               bounds=Bounds(0, 1))
    return round(res.fun)


def main() -> int:
    with open(os.path.join(HERE, "design.json")) as fh:
        seeds = json.load(fh)["seeds"]
    for seed in (seeds["default"], seeds["held_out"]):
        values = []
        for n, edges, _ in wl.solve_ops(seed):
            value = idforest.idf_exact(idforest.Graph(n, edges)).value
            other = independent_idf(n, edges)
            if other is not None and other != value:
                print(f"seed {seed}: idf_exact gives {value}, the MILP {other}", file=sys.stderr)
                return 1
            values.append(value)
        with open(os.path.join(wl.EXPECTED_DIR, f"solve-seed{seed}.json"), "w") as fh:
            json.dump(values, fh)
            fh.write("\n")
    _, code, files = wl.run_census()
    if code != 0 or sorted(files) != sorted(wl.CENSUS_FILES):
        print(f"census exited {code} with files {sorted(files)}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(wl.EXPECTED_DIR, "census"), exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(wl.EXPECTED_DIR, "census", name), "wb") as fh:
            fh.write(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
