"""Command-line interface: every subcommand, both output formats, exit
codes, and input handling."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest
from conftest import prism

from idforest import (Graph, WorkerLostError, cycle_graph, edge_list_str, gen_marguerite,
                      graph6_str, graph6_to_graph, is_isomorphic, obstructions)
from idforest.cli import main


def run(capsys, *argv) -> tuple[int, str]:
    status = main(list(argv))
    return status, capsys.readouterr().out


def run_json(capsys, *argv) -> tuple[int, dict]:
    status, out = run(capsys, *argv, "--json")
    return status, json.loads(out)


class TestSolve:
    def test_json_payload(self, capsys):
        status, payload = run_json(capsys, "solve", "Bw")
        assert status == 0
        assert payload == {"forest_graph6": "A_", "idf": 2, "partition": [[1, 2]]}

    def test_human_output(self, capsys):
        status, out = run(capsys, "solve", "Bw")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "idf = 2"
        assert lines[1] == "blocks: 1,2"
        assert lines[2] == "forest: A_"

    def test_forest_input(self, capsys):
        status, payload = run_json(capsys, "solve", "DhC")  # a 5-vertex tree
        assert status == 0
        assert payload["idf"] == 0 and payload["partition"] == []

    def test_output_is_byte_deterministic(self, capsys):
        first = run(capsys, "solve", "DK{", "--json")
        second = run(capsys, "solve", "DK{", "--json")
        assert first == second

    def test_reads_files(self, tmp_path, capsys):
        path = tmp_path / "g.g6"
        path.write_text("Bw\n")
        status, payload = run_json(capsys, "solve", str(path))
        assert status == 0 and payload["idf"] == 2

    def test_reads_edge_lists(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text("3 3\n0 1\n1 2\n0 2\n")
        status, payload = run_json(capsys, "solve", str(path), "--format", "edgelist")
        assert status == 0 and payload["idf"] == 2

    def test_repeated_edge_line_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "dup.edges"
        path.write_text("3 2\n0 1\n1 0\n")
        status = main(["solve", str(path), "--format", "edgelist", "--json"])
        captured = capsys.readouterr()
        assert status == 2 and captured.out == ""
        assert "edge line '1 0' repeats an earlier edge" in captured.err


class TestCheck:
    def test_valid_witness(self, capsys):
        status, payload = run_json(capsys, "check", "Bw",
                                   "--partition", "1,2", "--order", "2")
        assert status == 0
        assert payload["valid"] is True and payload["order"] == 2

    def test_wrong_order_is_invalid(self, capsys):
        status, payload = run_json(capsys, "check", "Bw",
                                   "--partition", "1,2", "--order", "3")
        assert status == 1
        assert payload["valid"] is False and "order" in payload["reason"]

    def test_non_forest_result_is_invalid(self, capsys):
        status, payload = run_json(capsys, "check", "C~",
                                   "--partition", "0,1", "--order", "2")
        assert status == 1
        assert payload["valid"] is False

    def test_out_of_range_vertex_is_invalid(self, capsys):
        status, payload = run_json(capsys, "check", "Bw",
                                   "--partition", "1,9", "--order", "2")
        assert status == 1
        assert payload["reason"] == "vertex out of range"

    @pytest.mark.parametrize("text", ["-1,2", "0,1000000000000"])
    def test_label_outside_every_graph_is_invalid(self, capsys, text):
        # a negative or huge label is an out-of-range vertex, not unusable input
        status, out = run(capsys, "check", "Bw", "--order", "1", f"--partition={text}", "--json")
        assert status == 1
        assert out == '{"reason": "vertex out of range", "valid": false}\n'

    def test_vertex_repeated_in_a_block_is_an_error(self, capsys):
        status = main(["check", "Bw", "--partition", "0,0", "--order", "1", "--json"])
        captured = capsys.readouterr()
        assert status == 2 and captured.out == ""
        assert "vertex 0 repeated in block '0,0'" in captured.err


class TestKernel:
    def test_settled_no_instance(self, capsys):
        status, payload = run_json(capsys, "kernel", "Dhc", "--k", "2")
        assert status == 1
        assert payload == {"budget": 1, "decided_no": True, "graph6": "Bw"}

    def test_open_instance_passes_through(self, capsys):
        status, payload = run_json(capsys, "kernel", "Dhc", "--k", "3")
        assert status == 0
        assert payload == {"budget": 3, "decided_no": False, "graph6": "Dhc"}

    def test_forest_with_zero_budget(self, capsys):
        status, payload = run_json(capsys, "kernel", "DhC", "--k", "0")
        assert status == 0
        assert payload["graph6"] == "?" and payload["budget"] == 0

    def test_human_verdict_line(self, capsys):
        status, out = run(capsys, "kernel", "Dhc", "--k", "2")
        assert status == 1
        assert "verdict: no instance" in out

    def test_large_edge_lists_get_a_verdict(self, tmp_path, capsys):
        # both need augmenting paths over a thousand vertices long
        cycle = tmp_path / "c3000.edges"
        cycle.write_text(edge_list_str(cycle_graph(3000)))
        status, payload = run_json(capsys, "kernel", str(cycle), "--format", "edgelist",
                                   "--k", "300")
        assert status == 1
        assert payload == {"budget": 1, "decided_no": True, "graph6": "Bw"}
        # a vertex 3000 joined to 0 and 2 makes the cycle's even side the
        # cover, so the kernel is empty
        eared = tmp_path / "eared.edges"
        eared.write_text(edge_list_str(
            Graph(3001, list(cycle_graph(3000).edges) + [(0, 3000), (2, 3000)])))
        status, payload = run_json(capsys, "kernel", str(eared), "--format", "edgelist",
                                   "--k", "1500")
        assert status == 0
        assert payload == {"budget": 0, "decided_no": False, "graph6": "?"}


class TestVc:
    def test_value_and_cover(self, capsys):
        status, payload = run_json(capsys, "vc", "Dhc")
        assert status == 0
        assert payload["value"] == 3 and len(payload["cover"]) == 3

    def test_decision_exit_codes(self, capsys):
        assert run_json(capsys, "vc", "Dhc", "--k", "3")[0] == 0
        status, payload = run_json(capsys, "vc", "Dhc", "--k", "2")
        assert status == 1 and payload["decision"] is False

    def test_negative_budget_is_unusable_input(self, capsys):
        assert main(["vc", "Dhc", "--k", "-1"]) == 2
        assert "budget must be non-negative, got -1" in capsys.readouterr().err


class TestDetect:
    def test_witness(self, capsys):
        status, payload = run_json(capsys, "detect", "DK{", "--k", "2")
        assert status == 0
        assert payload["family"] == "marguerite" and payload["k"] == 2
        assert len(payload["branch_sets"]) == gen_marguerite(2).n

    def test_identification_set(self, capsys):
        status, payload = run_json(capsys, "detect", "Dhc", "--k", "2")
        assert status == 0
        assert "id_set" in payload

    def test_bad_parameter(self, capsys):
        assert main(["detect", "Bw", "--k", "0"]) == 2
        assert "parameter" in capsys.readouterr().err


class TestFamilies:
    def test_marguerite(self, capsys):
        status, payload = run_json(capsys, "families", "marguerite", "2")
        assert status == 0
        assert payload["vertices"] == 5 and payload["edges"] == 6
        assert is_isomorphic(graph6_to_graph(payload["graph6"]), gen_marguerite(2))

    def test_human_output_is_the_graph6_line(self, capsys):
        status, out = run(capsys, "families", "triangles", "2")
        assert status == 0
        g = graph6_to_graph(out.strip())
        assert (g.n, g.m) == (6, 6)

    def test_antichain(self, capsys):
        status, payload = run_json(capsys, "families", "antichain", "1")
        assert status == 0
        assert payload["vertices"] == 6 and payload["edges"] == 6

    def test_unknown_family_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["families", "pentagon", "2"])


class TestOracle:
    def test_small_graph_gets_all_three_values(self, capsys):
        status, payload = run_json(capsys, "oracle", "DK{")
        assert status == 0
        assert payload == {"idf": 3, "vc": 3, "ecf": 2}

    def test_oversize_parts_are_skipped_not_failed(self, capsys):
        # ten vertices: identification oracle out of range, cover still fine
        status, payload = run_json(capsys, "oracle", "I???????w")
        assert status == 0
        assert payload["idf"] is None and payload["vc"] is not None

    def test_too_many_edges_skips_the_contraction_oracle(self, capsys):
        status, payload = run_json(capsys, "oracle", "F~~~w")  # K7
        assert status == 0
        assert payload["ecf"] is None and payload["vc"] == 6

    def test_human_output_is_pinned(self, capsys):
        assert run(capsys, "oracle", "DK{") == (0, "idf = 3\nvc = 3\necf = 2\n")
        assert run(capsys, "oracle", "I???????w") == \
            (0, "idf: skipped (needs <= 9 vertices)\nvc = 1\necf = 0\n")
        assert run(capsys, "oracle", "F~~~w") == \
            (0, "idf = 6\nvc = 6\necf: skipped (needs <= 20 edges)\n")


class TestObstructionsCommand:
    def test_writes_catalog_files(self, tmp_path, capsys):
        status, payload = run_json(capsys, "obstructions", "--k", "1",
                                   "--out", str(tmp_path))
        assert status == 0
        for stem in ("obs-vc-k1", "obs-idf-k1"):
            assert (tmp_path / f"{stem}.g6").exists()
            assert (tmp_path / f"{stem}.json").exists()
        assert payload["vc"]["count"] == 2
        assert payload["idf"]["count"] == 1
        assert all(c["passed"] for c in payload["idf"]["checks"].values())


class TestVerify4Command:
    def test_all_checks_pass(self, capsys):
        status, out = run(capsys, "verify4", "--k", "0")
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert all(": PASS - " in line for line in lines)

    def test_json_is_pinned(self, capsys):
        status, out = run(capsys, "verify4", "--k", "1", "--json")
        assert status == 0
        assert out == (
            '{"checks": {"a_bridgeless": {"detail": "every member bridgeless", "passed": true}, '
            '"b_bridgeless_vc_members": {"detail": "bridgeless cover obstructions all present", '
            '"passed": true}, "c_components_2_connected": {"detail": "every component '
            '2-connected", "passed": true}, "d_vc_value_exact": {"detail": "all cover values '
            'equal 2", "passed": true}, "e_idf_value_window": {"detail": "all values in [2, 3]", '
            '"passed": true}, "f_spanning_vc_obstruction": {"detail": "checked 1 members of '
            'value 2", "passed": true}, "g_size_bound": {"detail": "all members within 6 '
            'vertices", "passed": true}}, "k": 1}\n')


class TestErrorHandling:
    def test_bad_graph6_exits_2_with_offset(self, capsys):
        assert main(["solve", "Bz"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(byte 1)" in err

    def test_graph6_size_guard_at_the_boundary(self, capsys):
        # 63 and 64 vertices take graph6's "~" size form
        for text in ("~??~" + "?" * 326, "~?@?" + "?" * 336):
            status, payload = run_json(capsys, "solve", text)
            assert status == 0 and payload["idf"] == 0
            assert payload["forest_graph6"] == text
        # the eight-byte form, for more than 258047 vertices, is refused
        assert main(["solve", "~~" + "?" * 6]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(byte 1)" in err

    def test_branching_guard_exits_2(self, capsys):
        # the prism C33 x K2 is bridgeless and one 66-vertex half-valued component
        assert main(["solve", graph6_str(prism(33)), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "vc_exact branches on components of up to 64" in captured.err
        # a 65-cycle is past the old vertex limit, and needs no branching
        status, payload = run_json(capsys, "solve", graph6_str(cycle_graph(65)))
        assert status == 0 and payload["idf"] == 33

    def test_non_ascii_graph6_is_refused(self, capsys):
        assert main(["solve", "B\u00e9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(byte 1)" in err

    def test_missing_file_like_argument_is_parsed_as_inline_text(self, capsys):
        assert main(["solve", "no-such-file.g6"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_path_with_separator_reports_no_such_file(self, capsys):
        assert main(["solve", "/no/such/dir/input.g6"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_required_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["kernel", "Bw"])

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate", "Bw"])

    @pytest.mark.parametrize("command,workers", [("obstructions", "-3"), ("verify4", "0")])
    def test_worker_counts_below_one_exit_2(self, capsys, tmp_path, monkeypatch,
                                            command, workers):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--k", "1", "--workers", workers]) == 2
        assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_a_dead_worker_exits_3(self, capsys, tmp_path, monkeypatch):
        def lost(*args):
            raise WorkerLostError("a worker process died before returning its chunk")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(obstructions, "_pmap", lost)
        assert main(["obstructions", "--k", "1", "--workers", "2"]) == 3
        assert "worker process died" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestEntryPoints:
    def test_module_invocation_reads_stdin(self):
        proc = subprocess.run([sys.executable, "-m", "idforest",
                               "solve", "-", "--json"],
                              input="Bw\n", capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["idf"] == 2

    @pytest.mark.skipif(shutil.which("idforest") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["idforest", "families", "cycle", "5"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "Dhc"
