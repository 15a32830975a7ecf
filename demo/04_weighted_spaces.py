#!/usr/bin/env python3
"""Weighted projective geometry: well-formedness, singular loci, and
antiholomorphic involutions, in exact (Gaussian-)rational arithmetic.
"""

from spin7 import wps
from spin7.wps import (CompleteIntersectionDatum, InvolutionDatum,
                       WeightedSpace)


def octic(n):
    entries = []
    for i in range(n):
        exps = [0] * n
        exps[i] = 8 if i < 4 else 2
        entries.append((tuple(exps), wps.GaussianRational.parse("1")))
    return wps.parse_polynomial(entries)


def main():
    space = WeightedSpace((1, 1, 1, 1, 4))
    ambient = CompleteIntersectionDatum(space)
    print("weights (1,1,1,1,4):")
    print("  anticanonical degree:", wps.anticanonical_degree(ambient))
    for s in wps.singular_strata(space):
        print(f"  singular stratum: coordinates {s.indices}, "
              f"order {s.order}, dimension {s.dimension}")
    iso = wps.isolated_z4_check(ambient)
    print(f"  isolated order-4 points: k = {iso.k}, "
          f"scalar local action = {iso.action_ok}")
    print()

    rho = InvolutionDatum((1, 0, 3, 2, 4), (0, 2, 0, 2, 0))
    check = wps.involution_check(ambient, rho, [octic(5)], iso)
    print("involution swapping (z0 z1)(z2 z3) with phases (1,-1,1,-1,1):")
    print(f"  admissible: {check.ok}; fixed points on the orbifold: "
          f"{check.fixed_count} (the singular point itself)")
    print()

    space6 = WeightedSpace((1, 1, 1, 1, 4, 4))
    v = CompleteIntersectionDatum(space6, (8,), (8, 8, 8, 8, 2, 2))
    iso6 = wps.isolated_z4_check(v)
    print("a diagonal octic in (1,1,1,1,4,4):")
    print(f"  quasismooth: {wps.diagonal_quasismooth(v)}; "
          f"isolated order-4 points: k = {iso6.k}")
    print()

    print("scanning all weight systems with entries <= 4 on 5 coordinates:")
    for c in wps.scan_admissible(4, 4):
        if c.accepted:
            print(f"  {c.weights}: accepted")
    total = wps.scan_admissible(4, 4)
    print(f"  ({sum(c.accepted for c in total)} accepted of {len(total)})")


if __name__ == "__main__":
    main()
