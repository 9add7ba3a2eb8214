"""Census of minimal obstructions.

A graph is an obstruction for a budget k when its value exceeds k but every
proper minor fits within k.  Because the value never decreases under minor
operations, these sets characterize the budget-k class completely.  This
script computes them exhaustively for small budgets, prints where each
member comes from, and runs the structural cross-checks.

Budget 2 takes about a minute; pass --k 2 to include it.
"""

from __future__ import annotations

import argparse

from idforest import (brute_idf, brute_vc, family_obstruction_report,
                      graph6_str, obs_idf, obs_vc, verify_section4)


def describe(report) -> None:
    kind = {"vc": "cover", "idf": "identification"}[report.kind]
    value_of = {"vc": brute_vc, "idf": brute_idf}[report.kind]
    print(f"{kind} obstructions at budget {report.k}: "
          f"{len(report.obstructions)} graph(s)")
    for g in report.obstructions:
        line = graph6_str(g)
        origin = report.provenance.get(line)
        suffix = f"  [{origin}]" if origin else ""
        print(f"  {line:<8} n={g.n} m={g.m} value={value_of(g) if g.n <= 9 else '?'}{suffix}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=1, choices=(0, 1, 2),
                        help="largest budget to scan (default 1)")
    args = parser.parse_args()

    for k in range(args.k + 1):
        vc_report = obs_vc(k)
        idf_report = obs_idf(k)
        describe(vc_report)
        describe(idf_report)

        checks = verify_section4(vc_report, idf_report)
        print(f"verification checks at budget {k}:")
        for name, result in sorted(checks.items()):
            print(f"  {name:<28} {'PASS' if result.passed else 'FAIL'} - {result.detail}")
        print()

    print("named-family membership claims, recomputed:")
    for k in range(min(args.k, 2) + 1):
        for row in family_obstruction_report(k):
            if row.computed_member is None and row.graph is None:
                verdict = "inapplicable"
            elif row.claimed_member is None:
                verdict = f"computed {row.computed_member} (informational)"
            elif row.agrees:
                verdict = "agrees"
            else:
                verdict = (f"DISAGREES (claimed {row.claimed_member}, "
                           f"computed {row.computed_member})")
            print(f"  k={k} {row.description:<34} {verdict}")


if __name__ == "__main__":
    main()
