"""Exhaustive graph enumeration and the minor-minimal obstruction scans,
with their verification checks and catalog files."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from collections.abc import Callable, Iterator
from dataclasses import replace
from functools import partial
from itertools import combinations, combinations_with_replacement

import pytest
from conftest import complete_bipartite_graph, unlabeled_graph_count

import idforest.obstructions as obstructions
from idforest import (Graph, SizeLimitError, bridges, canonical_form,
                      canonical_graph, canonical_labeling, complete_graph,
                      connected_components, contract_edge, cycle_graph,
                      delete_edge, delete_vertex, disjoint_union, enumerate_graphs,
                      family_obstruction_report, gen_marguerite, gen_triangles,
                      graph6_str, graph6_to_graph, idf_decision, idf_exact,
                      obs_idf, obs_vc, path_graph, vc_decision, vc_exact,
                      verify_section4, with_new_vertex, write_catalog)

DATA = pathlib.Path(__file__).parent / "data"

CHECK_NAMES = {
    "a_bridgeless",
    "b_bridgeless_vc_members",
    "c_components_2_connected",
    "d_vc_value_exact",
    "e_idf_value_window",
    "f_spanning_vc_obstruction",
    "g_size_bound",
}


def one_step_minors(g: Graph) -> Iterator[Graph]:
    """Every graph one minor operation away: a vertex deleted, an edge
    deleted, or an edge contracted."""
    for v in range(g.n):
        yield delete_vertex(g, v)
    for e in sorted(g.edges):
        yield delete_edge(g, e)
        yield contract_edge(g, e)


def is_minor_minimal(g: Graph, predicate: Callable[[Graph], bool]) -> bool:
    """The definition the scans' row-level minimality test is checked
    against: g fails the predicate but every one-step minor satisfies it
    (for a minor-closed predicate, every proper minor then satisfies it)."""
    return not predicate(g) and all(predicate(h) for h in one_step_minors(g))


def decision(kind: str, k: int):
    """The public membership decision of a scan's class."""
    return partial(vc_decision if kind == "vc" else idf_decision, k=k)


def forms(graphs) -> set[bytes]:
    return {canonical_form(g) for g in graphs}


def exhaustive_children(parent: Graph) -> list[Graph]:
    """The enumerator's acceptance rule with nothing skipped: every one of the
    2^n neighbour sets, with a full canonical search on each candidate."""
    parent_code = canonical_form(parent)
    out: dict[bytes, Graph] = {}
    for bits in range(1 << parent.n):
        child = with_new_vertex(parent, [v for v in range(parent.n) if (bits >> v) & 1])
        drop = canonical_labeling(child).index(parent.n)
        if canonical_form(delete_vertex(child, drop)) == parent_code:
            rep = canonical_graph(child)
            out.setdefault(canonical_form(rep), rep)
    return [out[code] for code in sorted(out)]


def full_scan(predicate, max_n: int) -> list[str]:
    """The scan without membership pruning: every class on up to max_n
    vertices goes through the minimality test."""
    found = [g for n in range(max_n + 1) for g in enumerate_graphs(n)
             if is_minor_minimal(g, predicate)]
    return [graph6_str(g) for g in sorted(found, key=canonical_form)]


def reference_provenance(g: Graph, target: int) -> str:
    """`_spanning_vc_minimal` with the public minimality test on every edge
    subset, the fewest edges deleted first."""
    edges = sorted(g.edges)
    for size in range(len(edges) + 1):
        if any(is_minor_minimal(Graph(g.n, set(edges) - set(drop)), decision("vc", target))
               for drop in combinations(edges, size)):
            return (obstructions.PROV_VC_OBSTRUCTION if size == 0
                    else obstructions.PROV_EDGE_AUGMENTED)
    return obstructions.PROV_OTHER


def level_sha256(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 4),
                                         (4, 11), (5, 34), (6, 156)])
    def test_class_counts_match_cycle_index_oracle(self, n, count):
        graphs = list(enumerate_graphs(n))
        assert len(graphs) == count == unlabeled_graph_count(n)
        assert all(g.n == n for g in graphs)

    def test_levels_match_exhaustive_augmentation(self):
        level = [Graph(0)]
        for n in range(8):
            if n:
                level = [child for parent in level for child in exhaustive_children(parent)]
            assert [graph6_str(g) for g in enumerate_graphs(n)] == \
                [graph6_str(g) for g in level]

    @pytest.mark.parametrize("parent", [
        complete_bipartite_graph(1, 6), complete_bipartite_graph(3, 4), complete_graph(7),
        disjoint_union(complete_graph(2), complete_graph(2), complete_graph(2), Graph(1)),
        gen_marguerite(3),
    ], ids=["K1_6", "K3_4", "K7", "3K2+K1", "marguerite3"])
    def test_twin_pruning_keeps_every_child(self, parent):
        parent = canonical_graph(parent)
        assert obstructions._twin_classes(parent.adj_masks)
        children = obstructions._augmented_children(parent, obstructions._keep)
        assert [graph6_str(c) for c, _ in children] == \
            [graph6_str(c) for c in exhaustive_children(parent)]
        assert all(verdict is True for _, verdict in children)

    @pytest.mark.parametrize("n,digest", [
        (7, "1dd8f91e8ea58c3c9d066fba8bfadccd0fdf4dbb6d5bb7afaa9e596ab366e6fe"),
        (8, "41341657a26425e4edbcb40bf70fed0f664158d8e31d2400c55105a36b4d7e1f"),
    ])
    def test_level_files_are_pinned(self, n, digest):
        lines = [graph6_str(g) for g in enumerate_graphs(n)]
        assert len(lines) == unlabeled_graph_count(n)
        assert level_sha256(lines) == digest

    def test_no_two_graphs_are_isomorphic(self):
        graphs = list(enumerate_graphs(6))
        assert len(forms(graphs)) == len(graphs)

    def test_representatives_are_canonical(self):
        for g in enumerate_graphs(5):
            assert canonical_graph(g) == g
            assert graph6_to_graph(graph6_str(g)) == g

    def test_deterministic_across_calls(self):
        first = [graph6_str(g) for g in enumerate_graphs(6)]
        second = [graph6_str(g) for g in enumerate_graphs(6)]
        assert first == second

    def test_parallel_workers_match_serial(self):
        serial = [graph6_str(g) for g in enumerate_graphs(7)]
        script = ("import idforest\n"
                  "for g in idforest.enumerate_graphs(7, workers=2):\n"
                  "    print(idforest.graph6_str(g))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == serial

    def test_a_killed_worker_fails_fast(self):
        # a pool worker SIGKILLs itself on one item, where a
        # multiprocessing.Pool would wait for its lost chunk for ever
        src = pathlib.Path(obstructions.__file__).parents[1]
        script = ("import multiprocessing, os, signal, time\n"
                  "from idforest import WorkerLostError\n"
                  "from idforest.obstructions import _pmap\n"
                  "def die_in_a_worker(x):\n"
                  "    if x == 37 and multiprocessing.parent_process() is not None:\n"
                  "        os.kill(os.getpid(), signal.SIGKILL)\n"
                  "    return x\n"
                  "start = time.monotonic()\n"
                  "try:\n"
                  "    list(_pmap(die_in_a_worker, list(range(100)), workers=2))\n"
                  "except WorkerLostError:\n"
                  "    print(time.monotonic() - start)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, check=True, timeout=60)
        assert float(proc.stdout) < 10

    def test_a_scan_killed_on_its_last_level_resumes_from_its_checkpoints(self, tmp_path):
        # obs_idf(2, workers=2) runs levels 7 and 8 on the pool; a worker
        # SIGKILLs itself on a 7-vertex parent, so level 8 is lost
        src = pathlib.Path(obstructions.__file__).parents[1]
        script = ("import multiprocessing, os, signal, sys\n"
                  "from idforest import WorkerLostError, obs_idf, obstructions\n"
                  "multiprocessing.set_start_method('fork')  # workers inherit the patch\n"
                  "real = obstructions._augmented_children\n"
                  "def die_on_level_8(parent, *args, **kwargs):\n"
                  "    if parent.n == 7 and multiprocessing.parent_process() is not None:\n"
                  "        os.kill(os.getpid(), signal.SIGKILL)\n"
                  "    return real(parent, *args, **kwargs)\n"
                  "obstructions._augmented_children = die_on_level_8\n"
                  "try:\n"
                  "    obs_idf(2, workers=2, checkpoint_dir=sys.argv[1])\n"
                  "except WorkerLostError:\n"
                  "    print('lost')\n")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, check=True, timeout=60)
        assert proc.stdout.strip() == "lost"
        # levels 1..7 left both files, level 8 neither, and no temporary file
        assert sorted(os.listdir(tmp_path)) == sorted(
            f"scan-idf-k2-n{n}.{part}.g6" for n in range(1, 8) for part in ("found", "members"))
        resumed = obs_idf(2, checkpoint_dir=str(tmp_path))
        assert resumed.as_json_dict() == obs_idf(2).as_json_dict()

    def test_worker_counts_below_one_are_refused(self):
        with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
            enumerate_graphs(4, workers=0)
        with pytest.raises(ValueError, match="workers must be at least 1, got -2"):
            obs_vc(1, workers=-2)

    def test_serial_runs_never_import_the_pool(self):
        src = pathlib.Path(obstructions.__file__).parents[1]
        script = ("import sys, idforest, idforest.cli\n"
                  "print('multiprocessing' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_size_guard(self):
        # the guards raise at the call, before anything is iterated
        with pytest.raises(SizeLimitError):
            enumerate_graphs(10)
        with pytest.raises(ValueError):
            enumerate_graphs(-1)


class TestOneStepMinors:
    def test_triangle(self):
        results = list(one_step_minors(complete_graph(3)))
        # one vertex deletion, one edge deletion, one contraction per edge
        assert len(results) == 9
        assert forms(results) == forms([complete_graph(2),
                                        path_graph(3),
                                        Graph(2, [(0, 1)])])

    def test_every_result_is_strictly_smaller(self):
        for g in [cycle_graph(5), gen_marguerite(2), complete_graph(4)]:
            for h in one_step_minors(g):
                assert h.n < g.n or h.m < g.m


class TestMinorMinimality:
    def test_matching_pair_is_minimal_for_cover_above_one(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert is_minor_minimal(g, lambda h: vc_decision(h, 1))

    def test_four_cycle_is_not_minimal_for_cover_above_one(self):
        # its one-edge-deleted minor still needs two cover vertices
        assert not is_minor_minimal(cycle_graph(4), lambda h: vc_decision(h, 1))

    def test_triangle_is_minimal_for_identification_above_one(self):
        assert is_minor_minimal(complete_graph(3), lambda h: idf_decision(h, 1))


class TestObstructionScans:
    def test_cover_obstructions_for_tiny_budgets(self):
        assert forms(obs_vc(0).obstructions) == forms([complete_graph(2)])
        assert forms(obs_vc(1).obstructions) == forms([
            complete_graph(3),
            disjoint_union(complete_graph(2), complete_graph(2)),
        ])

    def test_cover_obstructions_budget_two(self):
        report = obs_vc(2)
        assert forms(report.obstructions) == forms([
            complete_graph(4),
            cycle_graph(5),
            disjoint_union(complete_graph(3), complete_graph(2)),
            disjoint_union(*[complete_graph(2)] * 3),
        ])
        assert report.kind == "vc" and report.k == 2

    def test_identification_obstructions_for_tiny_budgets(self):
        for k in (0, 1):
            report = obs_idf(k)
            assert forms(report.obstructions) == forms([complete_graph(3)])
            assert list(report.provenance.values()) == ["bridgeless_vc_obstruction"]

    def test_long_run_guard(self):
        with pytest.raises(ValueError):
            obs_vc(3)
        with pytest.raises(ValueError):
            obs_idf(3)
        with pytest.raises(ValueError):
            obs_vc(4, long_run=True)
        for k in (3, -1):  # the family report reaches only k = 0..2
            with pytest.raises(ValueError):
                family_obstruction_report(k)

    def test_scan_bounds_do_not_follow_the_enumeration_limit(self, monkeypatch):
        asked = []

        def record(kind, k, max_n, **kwargs):
            asked.append((kind, max_n))
            return ()

        monkeypatch.setattr(obstructions, "_scan", record)
        obs_idf(3, long_run=True)
        obs_vc(3, long_run=True)
        assert asked == [("idf", 10), ("vc", 8)]

    def test_parallel_scans_match_serial(self):
        # levels 7 and 8 of the budget-2 identification scan grow from 61 and
        # 157 member parents, enough to go through the pool
        serial = obs_idf(2, workers=1).as_json_dict()
        script = ("import json, idforest\n"
                  "print(json.dumps(idforest.obs_idf(2, workers=2).as_json_dict()))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == serial

    def test_checkpointed_levels_are_read_back(self, tmp_path, monkeypatch):
        expected = obs_vc(2).graph6_lines()
        assert obs_vc(2, checkpoint_dir=str(tmp_path)).graph6_lines() == expected
        # the last level keeps no members, so it writes only its found file
        names = sorted(os.listdir(tmp_path))
        assert names == sorted([f"scan-vc-k2-n{n}.{part}.g6" for n in range(1, 6)
                                for part in ("found", "members")] + ["scan-vc-k2-n6.found.g6"])
        assert (tmp_path / "scan-vc-k2-n5.found.g6").read_text() == "D`K\nDLo\n"

        def no_augmentation(parent, classify, **kwargs):
            raise AssertionError("a checkpointed level was scanned again")

        monkeypatch.setattr(obstructions, "_augmented_children", no_augmentation)
        assert obs_vc(2, checkpoint_dir=str(tmp_path)).graph6_lines() == expected
        # a level below the last without its member file is grown again, and
        # so is the last level without its found file
        (tmp_path / "scan-vc-k2-n5.members.g6").unlink()
        (tmp_path / "scan-vc-k2-n6.found.g6").unlink()
        monkeypatch.undo()
        assert obs_vc(2, checkpoint_dir=str(tmp_path)).graph6_lines() == expected
        assert sorted(os.listdir(tmp_path)) == names

    @pytest.mark.parametrize("kind,k,n", [("vc", 1, 3), ("vc", 2, 4), ("vc", 2, 5),
                                          ("idf", 2, 4), ("idf", 2, 5)])
    def test_a_longer_scan_regrows_the_last_checkpointed_level(self, tmp_path, kind, k, n):
        # level n was the last level of the first scan and kept no members;
        # the second scan must grow it again to reach the obstructions of n + 1
        scan = partial(obstructions._scan, kind, k, workers=1)
        shorter = scan(n, checkpoint_dir=str(tmp_path))
        longer = scan(n + 1, checkpoint_dir=str(tmp_path))
        assert longer == scan(n + 1, checkpoint_dir=None)
        assert len(longer) > len(shorter)
        assert (tmp_path / f"scan-{kind}-k{k}-n{n}.members.g6").exists()
        assert not (tmp_path / f"scan-{kind}-k{k}-n{n + 1}.members.g6").exists()
        # the shorter scan reads its last level back from the found file
        assert scan(n, checkpoint_dir=str(tmp_path)) == shorter

    @pytest.mark.parametrize("scan", [obs_vc, obs_idf])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_obstructions_are_canonical_and_in_canonical_form_order(self, scan, k):
        found = scan(k).obstructions
        assert all(canonical_graph(g) == g for g in found)
        assert list(found) == sorted(found, key=canonical_form)

    def test_reports_serialize(self):
        payload = obs_vc(1).as_json_dict()
        assert payload["kind"] == "vc" and payload["k"] == 1
        assert payload["count"] == 2 == len(payload["obstructions"])


class TestPrunedScan:
    @pytest.mark.parametrize("kind,k", [("vc", 0), ("vc", 1), ("vc", 2),
                                        ("idf", 0), ("idf", 1)])
    def test_matches_the_full_scan(self, kind, k):
        if kind == "vc":
            report, max_n = obs_vc(k), 2 * k + 2
        else:
            report, max_n = obs_idf(k), 2 * k + 4
        predicate = decision(kind, k)
        assert report.graph6_lines() == full_scan(predicate, max_n)

    @pytest.mark.parametrize("kind,k", [("vc", 0), ("vc", 1), ("vc", 2),
                                        ("idf", 0), ("idf", 1)])
    def test_one_level_past_the_bound_finds_nothing_new(self, kind, k):
        # cover obstructions have at most 2k+2 vertices, identification
        # obstructions at most 2k+4 (the paper's bound)
        bound = 2 * k + 2 if kind == "vc" else 2 * k + 4
        scans = [obstructions._scan(kind, k, n, workers=1, checkpoint_dir=None)
                 for n in (bound, bound + 1)]
        assert [graph6_str(g) for g in scans[1]] == [graph6_str(g) for g in scans[0]]

    def test_skipped_children_are_never_minimal(self):
        # _classify drops a non-member with an isolated vertex, or for idf
        # with a bridge, without testing its minors; at a scan's last level
        # it also drops every member
        skipped = {"vc": 0, "idf": 0}
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                rows = list(g.adj_masks)
                isolated = any(g.degree(v) == 0 for v in g.vertices)
                bridged = bool(bridges(g))
                for kind in ("vc", "idf"):
                    skip = isolated or (kind == "idf" and bridged)
                    for k in range(3):
                        predicate = decision(kind, k)
                        outside, last_outside = [], []
                        verdict = obstructions._classify(rows, False, outside, kind, k)
                        last = obstructions._classify(rows, True, last_outside, kind, k)
                        assert rows == list(g.adj_masks)
                        if predicate(g):
                            assert verdict is True and last is None
                            assert outside == last_outside == []
                            continue
                        # a failed membership test reports the neighbour set,
                        # except at the last level when a skip rule came first
                        assert outside == [rows[-1]]
                        assert last_outside == ([] if skip else [rows[-1]])
                        minimal = is_minor_minimal(g, predicate)
                        assert verdict == last == (False if minimal else None), \
                            (kind, k, graph6_str(g))
                        if skip:
                            assert not minimal, (kind, k, graph6_str(g))
                            skipped[kind] += 1
                        if minimal:
                            degree = obstructions._LAST_MIN_DEGREE[kind]
                            assert all(g.degree(v) >= degree for v in g.vertices)
        assert skipped["vc"] < skipped["idf"]

    @pytest.mark.parametrize("kind,k", [("vc", 0), ("vc", 1), ("vc", 2),
                                        ("idf", 0), ("idf", 1), ("idf", 2)])
    def test_classifying_before_the_search_keeps_the_scan(self, kind, k):
        # the reference decides every canonical child after its search, with
        # the full one-step minimality test; at the last level the scan keeps
        # the same obstructions and no members
        predicate = decision(kind, k)
        classify = partial(obstructions._classify, kind=kind, k=k)
        last = partial(obstructions._grow_worker, classify=classify, last=True,
                       min_degree=obstructions._LAST_MIN_DEGREE[kind])
        for n in range(7):
            for parent in enumerate_graphs(n):
                if not predicate(parent):
                    continue
                members, found = [], []
                for child, _ in obstructions._augmented_children(parent, obstructions._keep):
                    if predicate(child):
                        members.append(graph6_str(child))
                    elif is_minor_minimal(child, predicate):
                        found.append(graph6_str(child))
                assert obstructions._grow_worker(graph6_str(parent), classify) == \
                    (members, found)
                assert last(graph6_str(parent)) == ([], found)

    @pytest.mark.parametrize("kind,k", [("vc", 0), ("vc", 1), ("vc", 2),
                                        ("idf", 0), ("idf", 1), ("idf", 2)])
    def test_superset_skips_are_outside_and_not_minimal(self, kind, k):
        # each member parent is augmented twice, at an inner and at the last
        # level: once as the scan does, and once with the decided-outside
        # sets thrown away, so that no set is skipped for containing one
        predicate = decision(kind, k)
        classify = partial(obstructions._classify, kind=kind, k=k)
        verdicts: dict[tuple[str, int], bool] = {}
        skipped = 0
        for n in range(7):
            for parent in enumerate_graphs(n):
                if not predicate(parent):
                    continue
                for last, min_degree in ((False, 0), (True, obstructions._LAST_MIN_DEGREE[kind])):
                    tried: dict[bool, list[int]] = {True: [], False: []}

                    def spy(rows, last, outside, pruned):
                        tried[pruned].append(rows[-1])
                        return classify(rows, last, outside if pruned else [])

                    children = {pruned: obstructions._augmented_children(
                        parent, partial(spy, pruned=pruned), last=last, min_degree=min_degree)
                        for pruned in (True, False)}
                    assert children[True] == children[False]
                    assert set(tried[True]) <= set(tried[False])
                    for bits in set(tried[False]) - set(tried[True]):
                        key = (graph6_str(parent), bits)
                        if key not in verdicts:
                            child = with_new_vertex(parent, [v for v in range(n) if bits >> v & 1])
                            verdicts[key] = (predicate(child)
                                             or is_minor_minimal(child, predicate))
                        assert not verdicts[key], (kind, k, key)
                        skipped += 1
        assert skipped > 0

    @pytest.mark.parametrize("kind,k", [("vc", 2), ("idf", 1)])
    def test_only_decided_outside_sets_skip_their_supersets(self, kind, k):
        # K2+K1 (edge 12) grown as a last level tries {0} (2K2), {0, 1} (P4),
        # {1, 2} (K3+K1) and {0, 1, 2} (the paw).  For vc at k = 2 the first,
        # second and fourth are members, and K3+K1 is dropped for its
        # isolated vertex.  For idf at k = 1 K3+K1 and the paw are outside,
        # but every child is dropped for an isolated vertex or a bridge
        # before its membership test.  None of these drops decides anything
        # about a superset, so all four sets reach the classifier.
        parent = graph6_to_graph("BG")
        assert sorted(parent.edges) == [(1, 2)]
        seen, appended = [], []

        def spy(rows, last, outside):
            before = len(outside)
            verdict = obstructions._classify(rows, last, outside, kind, k)
            seen.append(rows[-1])
            appended.extend(outside[before:])
            return verdict

        assert obstructions._augmented_children(parent, spy, last=True) == []
        assert seen == [0b001, 0b011, 0b110, 0b111] and appended == []
        # a classifier that reports {0} as outside cuts both sets above it
        seen.clear()

        def stub(rows, last, outside):
            seen.append(rows[-1])
            if rows[-1] == 0b001:
                outside.append(rows[-1])
            return None

        obstructions._augmented_children(parent, stub, last=True)
        assert seen == [0b001, 0b110]

    def test_edge_minors_decide_minimality(self):
        # the scans, the provenance and the family report test minimality on
        # rows, on a graph's edge minors only; every G - v is then a
        # subgraph of some G - e, and a graph with an isolated vertex, which
        # the provenance feeds in, is never minimal
        tested = minimal = 0
        for n in range(8):
            for g in enumerate_graphs(n):
                for kind in ("vc", "idf"):
                    for k in range(3):
                        row_test = obstructions._minimal(list(g.adj_masks), kind, k)
                        assert row_test == is_minor_minimal(g, decision(kind, k)), \
                            (kind, k, graph6_str(g))
                        tested += 1
                        minimal += row_test
        assert (tested, minimal) == (7518, 13)

    def test_provenance_twins_the_public_test(self):
        graphs = [g for k in range(3) for g in obs_idf(k).obstructions]
        graphs += [graph6_to_graph(line) for line in (DATA / "obs-idf-k3.g6").read_text().split()]
        seen = set()
        for g in graphs:
            target = idf_exact(g).value - 1
            provenance = obstructions._spanning_vc_minimal(g, target)
            assert provenance == reference_provenance(g, target), graph6_str(g)
            seen.add(provenance)
        assert seen == {obstructions.PROV_VC_OBSTRUCTION, obstructions.PROV_EDGE_AUGMENTED}
        # P4 is 2K2 plus one edge; no catalog member reaches "other", but
        # every spanning subgraph of K3+K1 keeps the isolated vertex
        for g, provenance in ((path_graph(4), obstructions.PROV_EDGE_AUGMENTED),
                              (disjoint_union(complete_graph(3), Graph(1)),
                               obstructions.PROV_OTHER)):
            assert obstructions._spanning_vc_minimal(g, 1) == provenance
            assert reference_provenance(g, 1) == provenance


class TestUnionIdentity:
    def test_disconnected_cover_obstructions_are_unions_of_connected_ones(self):
        # cover number adds over components, so a disconnected graph is a
        # minimal one of cover number k + 1 exactly when it is a disjoint
        # union of two or more connected minimal ones whose cover numbers
        # sum to k + 1; the scans compute each catalog with no such rule
        catalogs = [obs_vc(k).obstructions for k in range(3)]
        catalogs.append(tuple(graph6_to_graph(line) for line in
                              (DATA / "obs-vc-k3.g6").read_text().split()))
        connected = [[g for g in catalog if len(connected_components(g)) == 1]
                     for catalog in catalogs]
        assert [len(c) for c in connected] == [1, 1, 2, 3]
        # the connected obstructions of catalog j have cover number j + 1
        pieces = [(j + 1, g) for j, graphs in enumerate(connected) for g in graphs]
        for k, catalog in enumerate(catalogs):
            unions = [disjoint_union(*(g for _, g in parts))
                      for size in range(2, k + 2)
                      for parts in combinations_with_replacement(pieces, size)
                      if sum(value for value, _ in parts) == k + 1]
            disconnected = [g for g in catalog if len(connected_components(g)) > 1]
            assert len(forms(unions)) == len(unions) == len(disconnected), k
            assert forms(unions) == forms(disconnected), k


class TestBudgetThreeCatalogs:
    """The k = 3 catalogs of `idforest obstructions --k 3 --long-run`,
    pinned as test data and re-proved here graph by graph."""

    @pytest.mark.parametrize("kind,count", [("vc", 8), ("idf", 7)])
    def test_pinned_graphs_are_minimal_with_their_values(self, kind, count):
        lines = (DATA / f"obs-{kind}-k3.g6").read_text().split()
        assert len(lines) == count
        graphs = [graph6_to_graph(line) for line in lines]
        assert len(forms(graphs)) == count
        predicate = decision(kind, 3)
        for g in graphs:
            assert is_minor_minimal(g, predicate), graph6_str(g)
            if kind == "vc":
                assert vc_exact(g).value == 4
            else:
                assert 4 <= idf_exact(g).value <= 5
                assert g.n <= 10

    def test_sidecars_match_and_checks_passed(self):
        for kind in ("vc", "idf"):
            payload = json.loads((DATA / f"obs-{kind}-k3.json").read_text())
            assert payload["kind"] == kind and payload["k"] == 3
            assert payload["obstructions"] == \
                (DATA / f"obs-{kind}-k3.g6").read_text().split()
        checks = json.loads((DATA / "obs-idf-k3.json").read_text())["checks"]
        assert set(checks) == CHECK_NAMES
        assert all(c["passed"] for c in checks.values())


class TestVerification:
    @pytest.mark.parametrize("k", [0, 1])
    def test_all_checks_pass_for_tiny_budgets(self, k):
        checks = verify_section4(obs_vc(k), obs_idf(k))
        assert set(checks) == CHECK_NAMES
        failing = {name: c.detail for name, c in checks.items() if not c.passed}
        assert not failing

    def test_precomputed_reports_are_accepted(self):
        checks = verify_section4(obs_vc(1), obs_idf(1))
        assert all(c.passed for c in checks.values())
        # the reports given are the ones checked: K2 has cover number 1, not 2
        wrong = replace(obs_vc(1), obstructions=obs_vc(0).obstructions)
        checks = verify_section4(wrong, obs_idf(1))
        assert [name for name, c in checks.items() if not c.passed] == ["d_vc_value_exact"]
        assert checks["d_vc_value_exact"].detail == "off-value members: [('A_', 1)]"

    BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])

    @pytest.mark.parametrize("vc_graphs,idf_graphs,expected", [
        # every check fails; C4 has value 2 and neither K4 nor the bowtie as a minor
        ((complete_graph(4), BOWTIE), (complete_graph(2), cycle_graph(4), cycle_graph(7)), {
            "a_bridgeless": (False, "bridged members: ['A_']"),
            "b_bridgeless_vc_members": (False, "absent: ['C~', 'DxK']"),
            "c_components_2_connected": (False, "violations: ['DxK']"),
            "d_vc_value_exact": (False, "off-value members: [('C~', 3), ('DxK', 3)]"),
            "e_idf_value_window": (False, "out of window: [('A_', 0), ('FhCKG', 4)]"),
            "f_spanning_vc_obstruction": (
                False, "failures: [('Cl', 'no cover obstruction is a minor')]"),
            "g_size_bound": (False, "oversized: ['FhCKG']"),
        }),
        # K3 is a minor of C4 but no spanning subgraph of it
        ((complete_graph(3),), (cycle_graph(4),), {
            "a_bridgeless": (True, "every member bridgeless"),
            "b_bridgeless_vc_members": (False, "absent: ['Bw']"),
            "c_components_2_connected": (True, "every component 2-connected"),
            "d_vc_value_exact": (True, "all cover values equal 2"),
            "e_idf_value_window": (True, "all values in [2, 3]"),
            "f_spanning_vc_obstruction": (
                False, "failures: [('Cl', 'no edge set deletes down to Bw')]"),
            "g_size_bound": (True, "all members within 6 vertices"),
        }),
        (None, None, {
            "a_bridgeless": (True, "every member bridgeless"),
            "b_bridgeless_vc_members": (True, "bridgeless cover obstructions all present"),
            "c_components_2_connected": (True, "every component 2-connected"),
            "d_vc_value_exact": (True, "all cover values equal 2"),
            "e_idf_value_window": (True, "all values in [2, 3]"),
            "f_spanning_vc_obstruction": (True, "checked 1 members of value 2"),
            "g_size_bound": (True, "all members within 6 vertices"),
        }),
    ], ids=["all_fail", "no_spanning_copy", "scanned"])
    def test_check_details_are_pinned(self, vc_graphs, idf_graphs, expected):
        # reports built by hand at k = 1; None takes the scanned report
        vc_report = obs_vc(1) if vc_graphs is None else \
            obstructions.ObstructionReport("vc", 1, vc_graphs)
        idf_report = obs_idf(1) if idf_graphs is None else \
            obstructions.ObstructionReport("idf", 1, idf_graphs)
        checks = verify_section4(vc_report, idf_report)
        assert list(checks) == sorted(CHECK_NAMES)
        assert {name: (c.passed, c.detail) for name, c in checks.items()} == expected

    def test_spanning_copies_are_padded_with_isolated_vertices(self):
        assert obstructions._has_spanning_copy(complete_graph(3), complete_graph(2))
        assert obstructions._has_spanning_copy(
            gen_triangles(2), disjoint_union(complete_graph(3), complete_graph(2)))
        assert not obstructions._has_spanning_copy(cycle_graph(4), complete_graph(3))

    @pytest.mark.parametrize("first,second", [
        (("vc", 1), ("vc", 1)), (("idf", 1), ("vc", 1)), (("idf", 1), ("idf", 1)),
        (("vc", 0), ("idf", 1)), (("vc", 1), ("idf", 0)),
    ])
    def test_mismatched_reports_are_refused(self, first, second):
        scans = {"vc": obs_vc, "idf": obs_idf}
        with pytest.raises(ValueError, match="one budget"):
            verify_section4(scans[first[0]](first[1]), scans[second[0]](second[1]))


class TestFamilyReport:
    def test_budget_one_flags_the_marguerite_claim(self):
        rows = {(r.family, r.description): r for r in family_obstruction_report(1)}
        cyc = rows[("cycle", "C3")]
        assert cyc.claimed_member and cyc.computed_member and cyc.agrees
        marg = rows[("marguerite", "2-petal marguerite")]
        assert marg.claimed_member and not marg.computed_member
        assert marg.agrees is False
        shifted = rows[("marguerite", "1-petal marguerite (shifted index)")]
        assert shifted.claimed_member is None and shifted.computed_member
        assert shifted.agrees is None

    def test_budget_two_flags_the_marguerite_claim(self):
        rows = {(r.family, r.description): r for r in family_obstruction_report(2)}
        assert rows[("cycle", "C5")].agrees
        assert rows[("triangles", "2 disjoint triangles")].agrees
        marg = rows[("marguerite", "3-petal marguerite")]
        assert marg.agrees is False
        shifted = rows[("marguerite", "2-petal marguerite (shifted index)")]
        assert shifted.computed_member

    def test_budget_zero_has_no_cycle_graph(self):
        rows = {(r.family, r.description): r for r in family_obstruction_report(0)}
        cyc = rows[("cycle", "C1")]
        assert cyc.graph is None and cyc.computed_member is None


class TestCatalogFiles:
    def test_files_match_report_and_are_deterministic(self, tmp_path):
        report = obs_vc(1)
        g6_path, json_path = write_catalog(report, str(tmp_path / "a"))
        with open(g6_path) as fh:
            assert fh.read().split() == report.graph6_lines()
        with open(json_path) as fh:
            assert json.load(fh) == report.as_json_dict()
        again = write_catalog(report, str(tmp_path / "b"))
        assert open(again[0]).read() == open(g6_path).read()
        assert open(again[1]).read() == open(json_path).read()

    @pytest.mark.parametrize("suffix", [".g6", ".json"])
    def test_failed_write_leaves_the_previous_catalog(self, tmp_path, monkeypatch,
                                                      suffix):
        old = obs_vc(1)
        g6_path, json_path = write_catalog(old, str(tmp_path))
        g6_file, json_file = pathlib.Path(g6_path), pathlib.Path(json_path)
        old_g6, old_json = g6_file.read_text(), json_file.read_text()

        def failing_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            if "w" in mode and suffix + "." in str(path):
                fh.write("cut")
                fh.close()
                raise OSError("disk full")
            return fh

        monkeypatch.setattr(obstructions, "open", failing_open, raising=False)
        with pytest.raises(OSError):
            write_catalog(replace(old, obstructions=obs_vc(2).obstructions), str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["obs-vc-k1.g6", "obs-vc-k1.json"]
        assert json_file.read_text() == old_json
        # the .g6 file is written first, so it is new when only the .json write failed
        if suffix == ".g6":
            assert g6_file.read_text() == old_g6
        else:
            assert g6_file.read_text().split() == obs_vc(2).graph6_lines()
