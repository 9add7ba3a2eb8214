"""Acceptance battery: one test per headline requirement, each run at its
stated scale with exact tolerances.  `pytest -v` prints one pass/fail line
per criterion; informational metrics are printed (visible with -s).

The small-graph catalog is every isomorphism class on up to six vertices,
with its size confirmed against the cycle-index count, so the exhaustive
claims below are exhaustive in a checkable way.
"""

from __future__ import annotations

import random
import time

from conftest import random_graph, unlabeled_graph_count

import pytest

from idforest import (BRUTE_IDF_MAX, Graph, brute_ecf, brute_idf, brute_minor,
                      brute_vc, bridges, apex_bridgeless, canonical_form, contract_edge,
                      delete_edge, delete_vertex, dichotomy, complete_graph,
                      cycle_graph, disjoint_union, gen_antichain_h, gen_cycle,
                      gen_marguerite, gen_triangles, graph6_str, idf_decision,
                      idf_exact, idf_kernel, is_forest, is_id_forest_partition,
                      is_isomorphic, nt_kernel, obs_idf, obs_vc,
                      remove_bridges, verify_section4)


def bowtie() -> Graph:
    return gen_marguerite(2)


def random_suite(count: int = 300, seed: int = 97) -> list[tuple[Graph, int]]:
    rng = random.Random(seed)
    suite = []
    for i in range(count):
        g = random_graph(rng, rng.randint(3, 10), rng.choice([0.15, 0.3, 0.5, 0.7]))
        suite.append((g, 1 + i % 3))
    return suite


def family_suite() -> list[Graph]:
    graphs = []
    for parameter in range(1, 5):
        graphs += [gen_cycle(2 * parameter + 1), gen_triangles(parameter),
                   gen_marguerite(parameter), gen_antichain_h(parameter)]
    return graphs


def test_criterion_01_exact_solver_matches_both_oracles_on_the_full_catalog(catalog6):
    start = time.monotonic()
    assert len(catalog6) == sum(unlabeled_graph_count(n) for n in range(7)) == 209
    for g in catalog6:
        value = idf_exact(g).value
        assert value == brute_idf(g) == brute_vc(remove_bridges(g))
    elapsed = time.monotonic() - start
    print(f"\ncatalog sweep: 209 graphs in {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_02_kernel_size_and_budget_bounds_with_decision_equivalence(catalog6):
    # The 2k+1 size bound has one documented exception (see idf_kernel and
    # the README): at k = 0 every graph on at most one vertex is a forest and
    # budgets are never negative, so a non-forest there becomes the canonical
    # no-instance, the triangle with budget 1.  That case is pinned exactly,
    # and the number of pairs it covers is pinned to the catalog's non-forests.
    triangle = complete_graph(3)
    failures: dict[str, list[str]] = {}
    overflows = 0
    for g in catalog6:
        answer = brute_idf(g)
        for k in range(6):
            ki = idf_kernel(g, k)
            excepted = k == 0 and not is_forest(g)
            broken = []
            if ki.graph.n > 2 * k + 1:
                overflows += 1
                if not excepted:
                    broken.append("size")
            if excepted and not (ki.graph == triangle and ki.budget == 1):
                broken.append("canonical no-instance")
            if ki.budget > k + 1:
                broken.append("budget")
            if (brute_idf(ki.graph) <= ki.budget) != (answer <= k):
                broken.append("decision")
            for clause in broken:
                failures.setdefault(clause, []).append(
                    f"{graph6_str(g)} at k={k} -> kernel "
                    f"{graph6_str(ki.graph)} with budget {ki.budget}")
    non_forests = sum(not is_forest(g) for g in catalog6)
    if not overflows == non_forests == 166:
        failures["exception count"] = [
            f"{overflows} pairs exceed 2k+1, the catalog has {non_forests} "
            f"non-forests, expected 166 of each"]
    assert not failures, "; ".join(
        f"{clause} broken in {len(cases)} case(s), first {cases[0]}"
        for clause, cases in failures.items())


def test_criterion_03_cover_kernel_size_bound_and_decision_equivalence(catalog6):
    for g in catalog6:
        answer = brute_vc(g)
        for k in range(6):
            ki = nt_kernel(g, k)
            if ki.decided_no:
                assert answer > k
                continue
            assert ki.graph.n <= 2 * ki.budget
            assert (brute_vc(ki.graph) <= ki.budget) == (answer <= k)


def test_criterion_04_apex_gadget_is_bridgeless_and_raises_cover_by_one(catalog6):
    checked = 0
    for g in catalog6:
        if g.m == 0:
            continue
        apexed, _ = apex_bridgeless(g)
        assert not bridges(apexed)
        assert brute_vc(apexed) == brute_vc(g) + 1
        checked += 1
    assert checked == 202  # every catalog graph with at least one edge


def test_criterion_05_obstruction_catalogs_with_all_verification_checks():
    start = time.monotonic()

    def forms(report):
        return {canonical_form(g) for g in report.obstructions}

    k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert forms(obs_vc(0)) == {canonical_form(complete_graph(2))}
    assert forms(obs_vc(1)) == {canonical_form(complete_graph(3)),
                                canonical_form(k2)}
    assert forms(obs_idf(0)) == {canonical_form(complete_graph(3))}
    assert forms(obs_idf(1)) == {canonical_form(complete_graph(3))}

    vc2 = obs_vc(2)
    idf2 = obs_idf(2)
    assert forms(vc2) == {
        canonical_form(complete_graph(4)),
        canonical_form(cycle_graph(5)),
        canonical_form(disjoint_union(complete_graph(3), complete_graph(2))),
        canonical_form(disjoint_union(*[complete_graph(2)] * 3)),
    }
    assert forms(idf2) == {
        canonical_form(complete_graph(4)),
        canonical_form(cycle_graph(5)),
        canonical_form(bowtie()),
        canonical_form(gen_triangles(2)),
    }
    checks = verify_section4(vc2, idf2)
    failing = {name: c.detail for name, c in checks.items() if not c.passed}
    assert not failing
    elapsed = time.monotonic() - start
    print(f"\nbudget-2 obstruction pipeline: {elapsed:.0f}s")
    assert elapsed < 1800


def test_criterion_06_family_values_match_the_oracle():
    for k in (1, 2, 3):
        assert brute_idf(gen_cycle(2 * k + 1)) == k + 1
    for m in (1, 2):
        assert brute_idf(gen_triangles(m)) == 2 * m
    for m in (1, 2, 3):
        assert brute_idf(gen_marguerite(m)) == m + 1


def test_criterion_07_every_dichotomy_outcome_validates():
    expected_pattern = {
        "cycle": lambda k: gen_cycle(max(k, 3)),
        "triangles": gen_triangles,
        "marguerite": gen_marguerite,
    }
    cases = random_suite() + [(g, k) for g in family_suite()
                              for k in range(1, 5)]
    invalid = 0
    witnesses = 0
    for g, k in cases:
        outcome = dichotomy(g, k)
        if outcome.is_witness:
            witnesses += 1
            if not (outcome.model.validates_in(g) and is_isomorphic(
                    outcome.model.pattern, expected_pattern[outcome.family](k))):
                invalid += 1
        elif not is_id_forest_partition(g, outcome.id_set):
            invalid += 1
        else:
            # the fallback has minimum order; brute_idf checks that without
            # the vc theorem wherever it reaches
            assert outcome.id_set.order == idf_exact(g).value
            if g.n <= BRUTE_IDF_MAX:
                assert outcome.id_set.order == brute_idf(g)
    print(f"\ndichotomy: {len(cases)} cases, {witnesses} witnesses, "
          f"{len(cases) - witnesses} identification sets")
    assert invalid == 0


def test_criterion_08_contraction_number_bounds_identification_number(catalog6):
    worst = 0.0
    for g in catalog6:
        idf = brute_idf(g)
        ecf = brute_ecf(g).value
        assert idf <= 2 * ecf
        if idf:
            worst = max(worst, ecf / idf ** 3)
    print(f"\nmax observed ecf/idf^3: {worst:.3f} (informational)")


def test_criterion_09_the_value_is_never_one(catalog6):
    for g in catalog6:
        assert idf_exact(g).value != 1
    for g, _ in random_suite():
        assert idf_exact(g).value != 1
    for g in family_suite():
        assert idf_exact(g).value != 1


def test_criterion_10_value_is_monotone_under_minor_operations():
    rng = random.Random(211)
    pairs = 0
    while pairs < 500:
        g = random_graph(rng, rng.randint(4, 9), rng.choice([0.2, 0.35, 0.5, 0.7]))
        ops = [lambda h: delete_vertex(h, rng.randrange(h.n))]
        if g.m:
            edge = sorted(g.edges)[rng.randrange(g.m)]
            ops += [lambda h: delete_edge(h, edge),
                    lambda h: contract_edge(h, edge)]
        minor = rng.choice(ops)(g)
        assert brute_idf(minor) <= brute_idf(g)
        pairs += 1
