#!/usr/bin/env python3
"""Invariant ledger and pairwise verdict matrix for the stationary family.

Lists, for every tower (m=3, d <= --max-d, s admissible), the limit K0 data,
homology group, extreme flag and homologically-limited flag, then prints the
pairwise isomorphism verdict matrix with witnesses for the failures.

Usage:
    python scripts/run_family_report.py --max-d 6
"""

import argparse
import json

from cyclealg.limits import (
    StationaryMatroidTower,
    decide_isomorphism,
    enumerate_S,
    h1_limit,
    is_extreme,
    is_homologically_limited,
    k0_limit,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--max-d", type=int, default=6)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    towers = [StationaryMatroidTower(args.m, d, s)
              for d in range(1, args.max_d + 1) for s in enumerate_S(args.m, d)]
    rows = []
    for t in towers:
        sn, _ = k0_limit(t)
        rows.append({
            "d": t.d, "s": t.s,
            "k0": str(sn),
            "h1": h1_limit(t).describe(),
            "extreme": is_extreme(t),
            "homologically_limited": is_homologically_limited(t),
        })

    matrix = []
    for a in towers:
        row = []
        for b in towers:
            verdict = decide_isomorphism(a, b)
            row.append("=" if verdict.isomorphic else verdict.witness[0])
        matrix.append("".join(row))

    if args.json:
        print(json.dumps({"towers": rows, "verdict_matrix": matrix}, sort_keys=True,
                         indent=2))
        return
    print(f"stationary towers, m={args.m}, d <= {args.max_d}")
    print(f"{'d':>3} {'s':>4}  {'K0':<16} {'H1':<14} extreme  hom.limited")
    for row in rows:
        print(f"{row['d']:>3} {row['s']:>4}  {row['k0']:<16} {row['h1']:<14} "
              f"{str(row['extreme']):<8} {row['homologically_limited']}")
    print()
    print("pairwise verdicts ('=' isomorphic, 'k' K0 witness, 'h' H1 witness,")
    print("'j' joint-scale boundedness witness); rows/cols in the order above")
    for label, line in zip(rows, matrix):
        print(f"d={label['d']:<2} s={label['s']:<4} {line}")


if __name__ == "__main__":
    main()
