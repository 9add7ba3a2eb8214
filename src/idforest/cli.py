"""Command-line front end.

One subcommand per capability: solve and check work with identification
certificates, kernel and vc expose the reduction pipeline, detect runs the
witness-or-certificate dichotomy, obstructions and verify4 drive the
catalog machinery, families prints the named generators, and oracle runs
the brute-force reference implementations.

Exit status: 0 on success, 1 on a negative decision (a no-instance or an
invalid certificate), 2 on unusable input, 3 when a worker process of a
parallel scan (`--workers` above 1) died.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .errors import WorkerLostError
from .graph import Graph, is_forest
from .graphio import edge_list_to_graph, graph6_str, graph6_to_graph
from .identify import VertexPartition, _text_blocks, identify_partition
from .minors import dichotomy, gen_antichain_h, gen_cycle, gen_marguerite, gen_triangles
from .obstructions import (ObstructionReport, obs_idf, obs_vc, verify_section4,
                           write_catalog)
from .oracle import (BRUTE_ECF_MAX_EDGES, BRUTE_IDF_MAX, BRUTE_VC_MAX,
                     brute_ecf, brute_idf, brute_vc)
from .solver import idf_exact, idf_kernel
from .vc import vc_exact

_FAMILIES = {
    "cycle": gen_cycle,
    "triangles": gen_triangles,
    "marguerite": gen_marguerite,
    "antichain": gen_antichain_h,
}


def _read_graph(args: argparse.Namespace) -> Graph:
    source = args.graph
    if source == "-":
        text = sys.stdin.read()
    elif os.path.exists(source):
        with open(source) as fh:
            text = fh.read()
    elif os.sep in source:
        # '/' is below the graph6 alphabet, so this cannot be inline text
        raise OSError(f"no such file: {source}")
    else:
        text = source
    if args.format == "edgelist":
        return edge_list_to_graph(text)
    return graph6_to_graph(text.strip())


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(lines))


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    cert = idf_exact(g)
    payload = cert.as_json_dict()
    blocks = [",".join(map(str, sorted(b))) for b in cert.partition]
    lines = [f"idf = {cert.value}",
             "blocks: " + ("; ".join(blocks) if blocks else "(none)"),
             f"forest: {payload['forest_graph6']}",
             "note: the value is the vertex cover number of the bridgeless core"]
    _emit(args, payload, lines)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    blocks = _text_blocks(args.partition)
    if any(not 0 <= v < g.n for block in blocks for v in block):
        _emit(args, {"valid": False, "reason": "vertex out of range"},
              ["invalid: vertex out of range"])
        return 1
    partition = VertexPartition(blocks)
    quotient, _ = identify_partition(g, partition)
    forest_ok = is_forest(quotient)
    order_ok = partition.order == args.order
    valid = forest_ok and order_ok
    reason = ("" if valid
              else "identification does not give a forest" if not forest_ok
              else f"order is {partition.order}, not {args.order}")
    payload = {"valid": valid, "order": partition.order,
               "forest_graph6": graph6_str(quotient)}
    if reason:
        payload["reason"] = reason
    _emit(args, payload, [f"valid: order-{args.order} identification to a forest"
                          if valid else f"invalid: {reason}"])
    return 0 if valid else 1


def _cmd_kernel(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    ki = idf_kernel(g, args.k)
    code = graph6_str(ki.graph)
    payload = {"graph6": code, "budget": ki.budget, "decided_no": ki.decided_no}
    lines = [f"kernel: {code}",
             f"budget: {ki.budget}",
             f"vertices: {ki.graph.n}"]
    if ki.decided_no:
        lines.append("verdict: no instance")
    _emit(args, payload, lines)
    return 1 if ki.decided_no else 0


def _cmd_vc(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    if args.k is not None and args.k < 0:
        raise ValueError(f"budget must be non-negative, got {args.k}")
    sol = vc_exact(g)
    payload = {"value": sol.value, "cover": sorted(sol.cover)}
    lines = [f"vc = {sol.value}", "cover: " + ",".join(map(str, sorted(sol.cover)))]
    status = 0
    if args.k is not None:
        decision = sol.value <= args.k
        payload["k"] = args.k
        payload["decision"] = decision
        lines.append(f"vc <= {args.k}: {'yes' if decision else 'no'}")
        status = 0 if decision else 1
    _emit(args, payload, lines)
    return status


def _cmd_detect(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    outcome = dichotomy(g, args.k)
    if outcome.is_witness:
        sets = [sorted(outcome.model.branch_sets[v])
                for v in range(outcome.model.pattern.n)]
        lines = [f"witness: {outcome.family} at parameter {args.k}",
                 "branch sets: " + "; ".join(",".join(map(str, s)) for s in sets)]
    else:
        blocks = [",".join(map(str, sorted(b))) for b in outcome.id_set]
        lines = ["no witness found",
                 "id set: " + ("; ".join(blocks) if blocks else "(empty)"),
                 f"order: {outcome.id_set.order}"]
    _emit(args, outcome.as_json_dict(), lines)
    return 0


def _cmd_families(args: argparse.Namespace) -> int:
    g = _FAMILIES[args.family](args.parameter)
    payload = {"family": args.family, "parameter": args.parameter,
               "graph6": graph6_str(g), "vertices": g.n, "edges": g.m}
    _emit(args, payload, [graph6_str(g)])
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    rows = (("idf", g.n, BRUTE_IDF_MAX, "vertices", brute_idf),
            ("vc", g.n, BRUTE_VC_MAX, "vertices", brute_vc),
            ("ecf", g.m, BRUTE_ECF_MAX_EDGES, "edges", lambda h: brute_ecf(h).value))
    payload: dict = {}
    lines: list[str] = []
    for name, size, limit, unit, oracle in rows:
        if size <= limit:
            payload[name] = oracle(g)
            lines.append(f"{name} = {payload[name]}")
        else:
            payload[name] = None
            lines.append(f"{name}: skipped (needs <= {limit} {unit})")
    _emit(args, payload, lines)
    return 0


def _checked_reports(args: argparse.Namespace) -> tuple[ObstructionReport, ObstructionReport]:
    """Both scans at args.k, the identification report carrying the checks."""
    vc_report = obs_vc(args.k, long_run=args.long_run, workers=args.workers)
    idf_report = obs_idf(args.k, long_run=args.long_run, workers=args.workers)
    return vc_report, replace(idf_report, checks=verify_section4(vc_report, idf_report))


def _checks_lines(checks) -> list[str]:
    return [f"{name}: {'PASS' if r.passed else 'FAIL'} - {r.detail}"
            for name, r in sorted(checks.items())]


def _cmd_obstructions(args: argparse.Namespace) -> int:
    vc_report, idf_report = _checked_reports(args)
    vc_path, vc_json = write_catalog(vc_report, args.out)
    idf_path, idf_json = write_catalog(idf_report, args.out)
    payload = {"vc": vc_report.as_json_dict(), "idf": idf_report.as_json_dict(),
               "files": sorted([vc_path, vc_json, idf_path, idf_json])}
    lines = [f"cover obstructions (k={args.k}): {len(vc_report.obstructions)} -> {vc_path}",
             f"identification obstructions (k={args.k}): "
             f"{len(idf_report.obstructions)} -> {idf_path}"]
    lines += _checks_lines(idf_report.checks)
    _emit(args, payload, lines)
    return 0 if all(r.passed for r in idf_report.checks.values()) else 1


def _cmd_verify4(args: argparse.Namespace) -> int:
    _, idf_report = _checked_reports(args)
    _emit(args, {"k": args.k, "checks": idf_report.as_json_dict()["checks"]},
          _checks_lines(idf_report.checks))
    return 0 if all(r.passed for r in idf_report.checks.values()) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idforest",
        description="identification distance to a forest: solvers, kernels, "
                    "detectors, obstruction catalogs, and brute-force oracles")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p: argparse.ArgumentParser):
        p.add_argument("graph", help="graph6 text, a file path, or - for stdin")
        p.add_argument("--format", choices=["graph6", "edgelist"],
                       default="graph6", help="input format (default graph6)")

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_scan(p: argparse.ArgumentParser):
        p.add_argument("--k", required=True, type=int, help="parameter")
        p.add_argument("--long-run", action="store_true",
                       help="opt in to the k = 3 scans")
        p.add_argument("--workers", type=int, default=1, help="worker processes")

    p = sub.add_parser("solve", help="optimal identification-to-forest certificate")
    add_graph(p)
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="validate a claimed identification partition")
    add_graph(p)
    add_common(p)
    p.add_argument("--partition", required=True,
                   help="blocks as comma-separated vertices joined by ';'")
    p.add_argument("--order", required=True, type=int, help="claimed order")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("kernel", help="reduce to an equivalent instance on <= 2k+1 vertices")
    add_graph(p)
    add_common(p)
    p.add_argument("--k", required=True, type=int, help="identification budget")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("vc", help="exact vertex cover (optionally a budget decision)")
    add_graph(p)
    add_common(p)
    p.add_argument("--k", type=int, help="budget for a yes/no decision")
    p.set_defaults(func=_cmd_vc)

    p = sub.add_parser("detect", help="family witness at parameter k, or an identification set")
    add_graph(p)
    add_common(p)
    p.add_argument("--k", required=True, type=int, help="family parameter")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("obstructions", help="compute and write obstruction catalogs")
    add_common(p)
    add_scan(p)
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=_cmd_obstructions)

    p = sub.add_parser("families", help="print a named family member as graph6")
    add_common(p)
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("parameter", type=int)
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("oracle", help="brute-force reference values (small graphs)")
    add_graph(p)
    add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify4", help="run the obstruction cross-checks only")
    add_common(p)
    add_scan(p)
    p.set_defaults(func=_cmd_verify4)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerLostError as exc:
        print(f"error: {exc}; the scan stopped and wrote no catalog", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
