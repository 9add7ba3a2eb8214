"""The layer-bench workers: each runs in a fresh interpreter and reports
work counters that are read by wrapping private functions, so a renamed
function must fail here rather than leave a counter at zero."""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def worker(label: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), label, "--worker"],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_vc_worker_counts_branch_nodes():
    run = worker("vc")
    assert list(run) == ["points"]
    assert [(p["n"], p["p"]) for p in run["points"]] == [(40, 0.15), (64, 0.1), (64, 0.2)]
    for point in run["points"]:
        assert set(point) == {"n", "p", "seeds", "nodes", "vc_exact_ms"}
        assert len(point["nodes"]) == len(point["seeds"]) == 5
        assert all(nodes > 0 for nodes in point["nodes"])
        assert point["vc_exact_ms"] > 0


def test_detect_worker_counts_hubs():
    run = worker("detect")
    assert list(run) == ["cells", "dichotomy"]
    assert len(run["cells"]) == 8
    for cell in run["cells"]:
        assert set(cell) == {"k", "n", "graphs", "models_found", "hubs_tried",
                             "hubs_searched", "search_ms"}
        assert cell["hubs_tried"] > 0
        # a model puts petals next to its hub, so that hub was searched; a
        # cell without a model may have every hub cut
        assert cell["hubs_searched"] >= cell["models_found"]
        assert cell["search_ms"] > 0
    assert sum(cell["models_found"] for cell in run["cells"]) > 0
    # the dichotomy rows: one per k, each detector called at most once a
    # graph, and the long cycle never at k = 2
    assert [(row["k"], row["graphs"]) for row in run["dichotomy"]] == [(2, 32), (3, 64), (4, 64)]
    for row in run["dichotomy"]:
        assert set(row) == {"k", "graphs", "witnesses", "cycle_packing_calls",
                            "longest_cycle_calls", "dichotomy_ms"}
        assert row["cycle_packing_calls"] <= row["graphs"]
        assert row["longest_cycle_calls"] <= row["graphs"]
        assert row["witnesses"] > 0 and row["dichotomy_ms"] > 0
    assert run["dichotomy"][0]["longest_cycle_calls"] == 0


def test_enum_worker_counts_searches_and_classifications(monkeypatch):
    # the worker's code in this interpreter, on levels 5 and 6 only
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "LEVELS", range(5, 7))
    run = bench.measure_enum()
    assert list(run) == ["levels", "census"]
    assert [(level["n"], level["classes"]) for level in run["levels"]] == [(5, 34), (6, 156)]
    for level in run["levels"]:
        assert set(level) == {"n", "classes", "sets", "searches", "s"}
        assert level["sets"] >= level["classes"] > 0 and level["searches"] > 0
    census = run["census"]
    assert set(census) == {"searches", "classify", "s"}
    assert census["searches"] > 0 and census["classify"] > 0 and census["s"] > 0


def test_kernel_worker_times_and_sizes_each_graph(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "KERNEL_SIZES", (200,))
    monkeypatch.setattr(bench, "DIAMONDS", 20)
    run = bench.measure_kernel()
    assert list(run) == ["graphs"]
    # k is the core's LP value rounded up, so no instance is decided
    # negative and the random graph keeps its half-valued part
    assert [(g["graph"], g["n"], g["m"], g["k"]) for g in run["graphs"]] == \
        [("sparse", 200, 400, 88), ("diamonds", 61, 80, 21)]
    assert [g["kernel_n"] for g in run["graphs"]] == [176, 0]
    for g in run["graphs"]:
        assert set(g) == {"graph", "n", "m", "k", "kernel_n", "budget", "forced",
                          "decided_no", "peak_rss_mb", "s"}
        assert not g["decided_no"]
        assert g["kernel_n"] <= 2 * g["k"] + 1 and g["budget"] <= g["k"] + 1
        assert g["peak_rss_mb"] > 0 and g["s"] > 0


def test_solve_worker_times_and_weighs_certificates(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "SOLVE_SIZES", (24, 64))
    monkeypatch.setattr(bench, "SOLVE_SEEDS", range(1))
    run = bench.measure_solve()
    assert list(run) == ["sizes"]
    assert [(row["n"], row["graphs"]) for row in run["sizes"]] == [(24, 6), (64, 6)]
    for row in run["sizes"]:
        assert set(row) == {"n", "graphs", "idf_sum", "graph_bytes",
                            "kept_bytes_per_certificate", "solve_ms"}
        assert row["idf_sum"] > 0 and row["solve_ms"] > 0
        assert 0 < row["kept_bytes_per_certificate"] < 4096
