"""Command-line front end.

Subcommands:

- ``spin7 verify-forms``: run the exact identity suite for the standard
  Cayley/G2/SU(4) structures (optionally with Newton-projection probes);
- ``spin7 analyze CONFIG``: check an orbifold configuration and print
  its invariant report;
- ``spin7 scan``: enumerate weight systems passing the necessary
  admissibility conditions.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input or
schema error.  Output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


# ---------------------------------------------------------------------------
# verify-forms
# ---------------------------------------------------------------------------

def _identity_suite(inject_sign_flip: bool = False):
    """Yield (name, passed) pairs for the exact identity suite."""
    from spin7 import splits
    from spin7.forms import (Multivector, cayley_form, cylinder_form,
                             g2_split, hodge_star, inner, su4_forms,
                             volume_form, wedge)

    phi = cayley_form()
    if inject_sign_flip:
        terms = dict(phi.terms)
        mask = next(iter(sorted(terms)))
        terms[mask] = -terms[mask]
        phi = Multivector(8, 4, terms)
    vol8 = volume_form(8)

    yield ("Cayley form has 14 monomials with coefficients +-1",
           len(phi.terms) == 14
           and all(abs(c) == 1 for c in phi.terms.values()))
    yield ("Cayley form is self-dual", hodge_star(phi) == phi)
    yield ("Phi ^ Phi = 14 vol", wedge(phi, phi) == 14 * vol8)
    yield ("|Phi|^2 = 14", inner(phi, phi) == 14)

    def attempt(factory):
        """The factory's result, or None if the form is not admissible."""
        try:
            return factory()
        except splits.AdmissibilityError:
            return None

    split2 = attempt(lambda: splits.two_form_split(phi))
    yield ("2-form split has ranks (7, 21)",
           split2 is not None and split2.ranks == (7, 21))
    split3 = attempt(lambda: splits.three_form_split(phi))
    yield ("3-form split has ranks (8, 48)",
           split3 is not None and split3.ranks == (8, 48))
    split4 = attempt(lambda: splits.four_form_split(phi))
    yield ("4-form split has ranks (1, 7, 27, 35)",
           split4 is not None and split4.ranks == (1, 7, 27, 35))
    yield ("Hodge star is -1 on the rank-35 block",
           split4 is not None
           and all(hodge_star(b) == -1 * b for b in split4.basis("35")))

    yield ("stabilizer of the Cayley form in gl(8) has dimension 21",
           splits.stabilizer_dimension(phi).dim == 21)
    g2_phi3, g2_psi4 = g2_split(phi)
    yield ("G2 3-form factor has 7 monomials", len(g2_phi3.terms) == 7)
    yield ("G2 split remainder is the 7-dimensional Hodge dual",
           hodge_star(g2_phi3) == g2_psi4)
    yield ("stabilizer of the G2 3-form in gl(7) has dimension 14",
           splits.stabilizer_dimension(g2_phi3).dim == 14)
    yield ("cylinder lift of the G2 3-form recovers the Cayley form",
           cylinder_form(g2_phi3) == phi)

    omega, re_theta, im_theta = su4_forms()
    yield ("omega^2/2 + Re theta equals the Cayley form",
           Fraction(1, 2) * wedge(omega, omega) + re_theta == cayley_form())
    om4 = wedge(wedge(omega, omega), wedge(omega, omega))
    yield ("omega^4 = 24 vol", om4 == 24 * vol8)
    yield ("3 (Re theta^2 + Im theta^2) = 2 omega^4",
           3 * (wedge(re_theta, re_theta) + wedge(im_theta, im_theta))
           == 2 * om4)
    yield ("Kaehler form is a 3-eigenvector of *(Phi ^ .)",
           hodge_star(wedge(cayley_form(), omega)) == 3 * omega)
    refinement = attempt(
        lambda: splits.su4_two_form_refinement(omega, re_theta))
    yield ("SU(4) 2-form refinement has ranks (1, 6, 6, 15)",
           refinement is not None and refinement.ranks == (1, 6, 6, 15))
    # the Cayley form is the cylinder form of g2_phi3, so the cylinder
    # types reuse its 2-form split
    cyl = (None if split2 is None
           else attempt(lambda: splits.cylinder_two_form_types(split2)))
    yield ("cylindrical 2-form parameterizations match the split "
           "(contraction isometry scale 3)",
           cyl is not None and cyl.split.ranks == (7, 21)
           and cyl.iso_scale == 3)


def _newton_probes(tolerance: float):
    """Yield (description, passed) for floating Newton-projection probes."""
    import numpy as np
    from spin7 import projection
    from spin7.forms import cayley_form

    rng = np.random.default_rng(20260823)
    phi0 = projection.form_to_array(cayley_form())
    pr27 = projection.type_projector("27")
    lines = []
    ok_all = True
    for trial in range(3):
        xi = pr27 @ rng.standard_normal(70)
        xi /= np.linalg.norm(xi)
        for eps in (1e-2, 1e-3, 1e-4):
            out = projection.theta_project(phi0 + eps * xi,
                                           tolerance=tolerance)
            err = float(np.linalg.norm(out.psi - eps * xi))
            ok = err <= 100 * eps * eps and out.residual <= 1e-10
            ok_all &= ok
            lines.append((f"direction {trial}, eps {eps:g}: "
                          f"|psi - eps xi| = {err:.3e}, "
                          f"iterations {out.iterations}", ok))
    return lines, ok_all


def cmd_verify_forms(args) -> int:
    results = list(_identity_suite(inject_sign_flip=args.inject_sign_flip))
    failed = [name for name, ok in results if not ok]
    out = []
    if args.format == "structured":
        for name, ok in results:
            out.append(f"identity.{'pass' if ok else 'fail'} = {name}")
    else:
        out.append("exact identity suite:")
        for name, ok in results:
            out.append(f"  [{'pass' if ok else 'FAIL'}] {name}")
    if args.with_newton:
        lines, newton_ok = _newton_probes(args.tolerance)
        if args.format == "structured":
            for desc, ok in lines:
                out.append(f"newton.{'pass' if ok else 'fail'} = {desc}")
        else:
            out.append("Newton projection probes:")
            for desc, ok in lines:
                out.append(f"  [{'pass' if ok else 'FAIL'}] {desc}")
        if not newton_ok:
            failed.append("Newton projection probes")
    print("\n".join(out))
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def invariant_block(report) -> str:
    """The deterministic block of computed invariants (identical for any
    two configurations producing the same manifold)."""
    lines = [
        "invariants:",
        f"  b1(Y) = {report.b1_Y}",
        f"  b2(Y) = {report.b2_Y}",
        f"  b3(Y) = {report.b3_Y}",
        f"  b1(M) = {report.b_low_M[0]}",
        f"  b2(M) = {report.b_low_M[1]}",
        f"  b3(M) = {report.b_low_M[2]}",
        f"  b4_0(M) = {report.b4_0}",
        f"  b4(M) = {report.b4}",
        f"  b4_plus(M) = {report.b4_plus}",
        f"  b4_minus(M) = {report.b4_minus}",
        f"  moduli dimension = {report.moduli_dimension}",
        f"  holonomy = {report.holonomy}",
    ]
    return "\n".join(lines)


def render_analysis(result, fmt: str) -> str:
    r, d = result.report, result.data
    if fmt == "structured":
        lines = [f"name = {result.config.name}"]
        lines += [f"override = {name.removeprefix('override ')}: {note}"
                  for name, note in result.checks
                  if name.startswith("override ")]
        lines += [
            f"chi_orb_V = {result.chi_V.chi_orb}",
            f"chi_V = {result.chi_V.chi_top}",
            f"h31_V = {d.h31_V}",
            f"chi_D = {d.chi_D}",
            f"h21_D = {d.h21_D}",
            f"k = {d.k}",
        ]
        for i, s in enumerate(d.sigma):
            lines.append(f"sigma{i}_chi = {s.chi}")
            lines.append(f"sigma{i}_pg = {s.p_g}")
            lines.append(f"sigma{i}_multiplicity = {s.multiplicity}")
        lines += [
            f"b1_Y = {r.b1_Y}", f"b2_Y = {r.b2_Y}", f"b3_Y = {r.b3_Y}",
            f"b4_0 = {r.b4_0}", f"b4 = {r.b4}",
            f"b4_plus = {r.b4_plus}", f"b4_minus = {r.b4_minus}",
            f"moduli_dimension = {r.moduli_dimension}",
            f"holonomy = {r.holonomy}",
        ]
        return "\n".join(lines)
    lines = [f"configuration: {result.config.name}", "checks:"]
    for name, note in result.checks:
        lines.append(f"  {name}: {note}")
    lines.append("intermediate values:")
    lines.append(f"  chi_orb(V) = {result.chi_V.chi_orb}")
    lines.append(f"  chi(V) = {result.chi_V.chi_top}")
    lines.append(f"  h31(V) = {d.h31_V}")
    lines.append(f"  chi(D) = {d.chi_D}")
    lines.append(f"  h21(D) = {d.h21_D}")
    lines.append(f"  k = {d.k}")
    for i, s in enumerate(d.sigma):
        lines.append(f"  sigma[{i}]: chi = {s.chi}, p_g = {s.p_g}, "
                     f"multiplicity = {s.multiplicity}")
    lines.append(invariant_block(r))
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    from spin7 import config as config_mod
    from spin7 import wps
    try:
        with open(args.config_path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read configuration: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        config = config_mod.load_config(text)
    except config_mod.SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        result = config_mod.analyze(config)
    except config_mod.AdmissibilityFailure as exc:
        print(f"configuration rejected ({config.name}):", file=sys.stderr)
        for reason in exc.reasons:
            print(f"  {reason}", file=sys.stderr)
        return EXIT_MATH
    except wps.UnsupportedError as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_MATH
    print(render_analysis(result, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    from spin7 import wps
    candidates = wps.scan_admissible(args.max_weight, args.ambient_dim)
    lines = []
    if args.format == "structured":
        for c in candidates:
            status = "accepted" if c.accepted else "rejected"
            weight_text = ",".join(str(w) for w in c.weights)
            lines.append(f"candidate.{status} = {weight_text}")
    else:
        lines.append(f"scan: ambient dimension {args.ambient_dim}, "
                     f"max weight {args.max_weight}")
        for c in candidates:
            if c.accepted:
                lines.append(f"  {c.weights}: accepted")
            else:
                lines.append(f"  {c.weights}: rejected: "
                             + "; ".join(c.reasons))
        accepted = [c for c in candidates if c.accepted]
        lines.append(f"{len(accepted)} candidate(s) accepted "
                     f"of {len(candidates)}")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin7",
        description="Exact checks for Spin(7)/G2/SU(4) structures and "
                    "invariants of orbifold configurations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify-forms", help="run the exact identity suite")
    p_verify.add_argument("--format", choices=("table", "structured"),
                          default="table")
    p_verify.add_argument("--with-newton", action="store_true",
                          help="add floating Newton-projection probes")
    p_verify.add_argument("--tolerance", type=float, default=1e-12,
                          help="projection tolerance")
    p_verify.add_argument("--inject-sign-flip", action="store_true",
                          help=argparse.SUPPRESS)  # test mode: breaks Phi
    p_verify.set_defaults(func=cmd_verify_forms)

    p_analyze = sub.add_parser(
        "analyze", help="analyze an orbifold configuration file")
    p_analyze.add_argument("config_path")
    p_analyze.add_argument("--format", choices=("table", "structured"),
                           default="table")
    p_analyze.set_defaults(func=cmd_analyze)

    p_scan = sub.add_parser(
        "scan", help="scan weight systems for admissible candidates")
    p_scan.add_argument("--max-weight", type=int, required=True)
    p_scan.add_argument("--ambient-dim", type=int, default=4)
    p_scan.add_argument("--format", choices=("table", "structured"),
                        default="table")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
