"""Shrinking an instance before solving it.

The decision question "can the graph be identified into a forest by
touching at most k vertices" reduces, in polynomial time, to an equivalent
question on a graph with at most 2k+1 vertices.  This script walks the
three stages on a worked example and then sweeps the bounds.

  1. drop bridges              (they never matter),
  2. crown-style cover kernel  (forced vertices out, half-valued part stays),
  3. apex repair               (if the survivor has a bridge, one extra
                                vertex makes it bridgeless at budget + 1).
"""

from __future__ import annotations

from idforest import (complete_graph, cycle_graph, disjoint_union,
                      enumerate_graphs, graph6_str, idf_decision, idf_kernel,
                      lp_half_integral, nt_kernel, path_graph,
                      remove_bridges, with_new_vertex)


def walkthrough() -> None:
    # a five-cycle with two pendant edges, asked about budget 3
    g = with_new_vertex(with_new_vertex(cycle_graph(5), [0]), [2])
    k = 3
    print(f"instance: {graph6_str(g)} (n={g.n}), budget k={k}")

    core = remove_bridges(g)
    print(f"stage 1: bridges out        -> m drops {g.m} -> {core.m}")

    v0, vhalf, v1 = lp_half_integral(core)
    print(f"stage 2: relaxation split   -> zeros={sorted(v0)}, "
          f"halves={sorted(vhalf)}, ones={sorted(v1)}")
    ki = nt_kernel(core, k)
    print(f"         cover kernel       -> n={ki.graph.n} <= 2*budget={2 * ki.budget}")

    out = idf_kernel(g, k)
    print(f"stage 3: final instance     -> {graph6_str(out.graph)} "
          f"(n={out.graph.n} <= 2k+1={2 * k + 1}), budget {out.budget}")
    print(f"answers agree: {idf_decision(g, k)} == {idf_decision(out.graph, out.budget)}")
    print()


def settled_instances() -> None:
    print("some instances are settled by the reduction itself:")
    for name, g, k in [("C5", cycle_graph(5), 2),
                       ("three matchings", disjoint_union(*[complete_graph(2)] * 3), 2),
                       ("a path", path_graph(9), 0)]:
        out = idf_kernel(g, k)
        verdict = "no (cover stage overdrawn)" if out.decided_no else "open"
        print(f"  {name:<16} k={k}: kernel n={out.graph.n}, budget={out.budget}, {verdict}")
    print()


def bound_sweep() -> None:
    print("bound sweep over every graph on up to 5 vertices, budgets 1..4:")
    for k in range(1, 5):
        worst_n = worst_b = 0
        count = 0
        for n in range(6):
            for g in enumerate_graphs(n):
                ki = idf_kernel(g, k)
                worst_n = max(worst_n, ki.graph.n)
                worst_b = max(worst_b, ki.budget)
                count += 1
        print(f"  k={k}: {count} graphs, largest kernel {worst_n} (bound {2 * k + 1}),"
              f" largest budget {worst_b} (bound {k + 1})")
    print()
    print("budget 0 is the documented exception: a cyclic graph is a")
    print("no-instance, and no 1-vertex graph can say 'no', so the pipeline")
    print("emits the 3-vertex bridgeless no-instance instead:")
    ki = idf_kernel(complete_graph(3), 0)
    print(f"  K3 at k=0 -> {graph6_str(ki.graph)} with budget {ki.budget}")


def main() -> None:
    walkthrough()
    settled_instances()
    bound_sweep()


if __name__ == "__main__":
    main()
