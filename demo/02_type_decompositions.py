#!/usr/bin/env python3
"""Type decompositions of form spaces under the stabilizer of the
distinguished 4-form, all in exact rational arithmetic.

Shows the rank-(7, 21), (8, 48), and (1, 7, 27, 35) splits, the unitary
refinement of the 2-form split, and the stabilizer dimensions, then
projects a sample 2-form onto its two components.
"""

from fractions import Fraction

from spin7 import splits
from spin7.forms import (Multivector, cayley_form, format_form, g2_phi,
                         su4_forms, volume_form)


def main():
    phi = cayley_form()

    for name, split in (("2-forms", splits.two_form_split(phi)),
                        ("3-forms", splits.three_form_split(phi)),
                        ("4-forms", splits.four_form_split(phi))):
        print(f"{name}: ranks {split.ranks}  (labels {split.labels})")

    omega, re_theta, _ = su4_forms()
    refinement = splits.su4_two_form_refinement(omega, re_theta)
    print(f"unitary refinement of the 2-form split: ranks "
          f"{refinement.ranks}")
    print()

    print("stabilizer dimensions (exact kernels of the derivation action):")
    print("  4-form on R^8 :", splits.stabilizer_dimension(phi).dim)
    print("  3-form on R^7 :", splits.stabilizer_dimension(g2_phi()).dim)
    print("  volume on R^8 :",
          splits.stabilizer_dimension(volume_form(8)).dim)
    print()

    sample = Multivector.from_terms(
        8, [((1, 2), Fraction(1)), ((3, 7), Fraction(-2, 3))])
    split2 = splits.two_form_split(phi)
    print("projecting", format_form(sample), ":")
    for label in split2.labels:
        part = split2.project(label, sample)
        print(f"  rank-{label} part: {format_form(part) or '0'}")
    total = split2.project("7", sample) + split2.project("21", sample)
    print("  parts sum back to the input ->", total == sample)
    print()

    cyl = splits.cylinder_two_form_types(g2_phi())
    print("cylinder parameterizations of the same split: ranks",
          cyl.split.ranks, "- contraction isometry scale", cyl.iso_scale)


if __name__ == "__main__":
    main()
