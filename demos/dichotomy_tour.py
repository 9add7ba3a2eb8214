"""Witness or certificate, never a shrug.

For a parameter k, the detector either exhibits one of three families as a
minor (k disjoint cycles, a single cycle of length k, or a k-petal
marguerite - triangles sharing one hub) or, when all three searches come up
empty, returns an identification set of minimum order that provably turns
the graph into a forest.  Both outcomes are checkable objects, and this
script checks them.
"""

from __future__ import annotations

import random

from idforest import (Graph, cycle_graph, dichotomy, gen_marguerite,
                      gen_triangles, is_id_forest_partition, path_graph)


def tour(name: str, g: Graph, k: int) -> None:
    outcome = dichotomy(g, k)
    if outcome.is_witness:
        sets = [sorted(outcome.model.branch_sets[v])
                for v in range(outcome.model.pattern.n)]
        ok = outcome.model.validates_in(g)
        print(f"{name:<28} k={k}: {outcome.family} witness "
              f"{'(validates)' if ok else '(INVALID!)'}")
        print(f"    branch sets: {sets}")
    else:
        blocks = [sorted(b) for b in outcome.id_set]
        ok = is_id_forest_partition(g, outcome.id_set)
        print(f"{name:<28} k={k}: identification set of order "
              f"{outcome.id_set.order} {'(validates)' if ok else '(INVALID!)'}")
        print(f"    blocks: {blocks or '(empty - already a forest)'}")


def main() -> None:
    print("== the three witness families ==")
    tour("four triangles", gen_triangles(4), 3)
    tour("an eight-cycle", cycle_graph(8), 5)
    tour("a bowtie", gen_marguerite(2), 2)

    # Every graph with a cycle has C3 as a minor, so for k >= 3 the cycle
    # detector only comes up empty on forests.  The interesting fallbacks
    # live at k = 2: one cycle at most, and no bowtie anywhere.
    print()
    print("== graphs and parameters where no witness exists ==")
    tour("a long path", path_graph(10), 3)
    tour("a four-cycle", cycle_graph(4), 2)
    tour("a five-cycle", cycle_graph(5), 2)
    tour("K4", Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]), 2)
    tour("triangle + pendant path", Graph(6, [(0, 1), (0, 2), (1, 2),
                                              (2, 3), (3, 4), (4, 5)]), 2)

    print()
    print("== a seeded random sweep, recheckable end to end ==")
    rng = random.Random(7)
    witnesses = certificates = 0
    for i in range(200):
        n = rng.randint(3, 10)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.35])
        outcome = dichotomy(g, 1 + i % 3)
        if outcome.is_witness:
            witnesses += 1
            assert outcome.model.validates_in(g)
        else:
            certificates += 1
            assert is_id_forest_partition(g, outcome.id_set)
    print(f"200 graphs: {witnesses} witnesses, {certificates} identification"
          f" sets, every outcome validated")


if __name__ == "__main__":
    main()
