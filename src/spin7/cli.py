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
import functools
import math
import sys
from fractions import Fraction

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


def render(sections, fmt: str) -> str:
    """Render a command's result in ``fmt``, ``table`` or ``structured``.

    A result is a list of ``(heading, items)`` sections, and an item is a
    ``(label, key, value)`` triple.  The table prints each heading, then
    ``  <label><value>`` for each item with a label; the structured format
    prints ``<key> = <value>`` for each item with a key, and writes a tuple
    value comma-separated.
    """
    lines = []
    for heading, items in sections:
        if fmt == "table":
            lines.append(heading)
            lines += [f"  {label}{value}" for label, _, value in items
                      if label is not None]
        else:
            lines += [f"{key} = {','.join(map(str, value))}"
                      if type(value) is tuple else f"{key} = {value}"
                      for _, key, value in items if key is not None]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verify-forms
# ---------------------------------------------------------------------------

def _identity_suite(inject_sign_flip: bool = False):
    """Yield (name, passed) pairs for the exact identity suite."""
    from spin7 import splits
    from spin7.forms import (Multivector, cayley_form, cylinder_form,
                             g2_split, hodge_star, inner, su4_forms,
                             volume_form, wedge)

    phi = phi0 = cayley_form()
    if inject_sign_flip:
        numerators = dict(phi0.numerators)  # over the denominator 1
        mask = min(numerators)
        numerators[mask] = -numerators[mask]
        phi = Multivector(8, 4, numerators)
    vol8 = volume_form(8)

    yield ("Cayley form has 14 monomials with coefficients +-1",
           len(phi.numerators) == 14 and phi.denominator == 1
           and all(abs(x) == 1 for x in phi.numerators.values()))
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
    yield ("G2 3-form factor has 7 monomials", len(g2_phi3.numerators) == 7)
    yield ("G2 split remainder is the 7-dimensional Hodge dual",
           hodge_star(g2_phi3) == g2_psi4)
    yield ("stabilizer of the G2 3-form in gl(7) has dimension 14",
           splits.stabilizer_dimension(g2_phi3).dim == 14)
    yield ("cylinder lift of the G2 3-form recovers the Cayley form",
           cylinder_form(g2_phi3) == phi)

    omega, re_theta, im_theta = su4_forms()
    yield ("omega^2/2 + Re theta equals the Cayley form",
           Fraction(1, 2) * wedge(omega, omega) + re_theta == phi0)
    om4 = wedge(wedge(omega, omega), wedge(omega, omega))
    yield ("omega^4 = 24 vol", om4 == 24 * vol8)
    yield ("3 (Re theta^2 + Im theta^2) = 2 omega^4",
           3 * (wedge(re_theta, re_theta) + wedge(im_theta, im_theta))
           == 2 * om4)
    yield ("Kaehler form is a 3-eigenvector of *(Phi ^ .)",
           hodge_star(wedge(phi0, omega)) == 3 * omega)
    refinement = attempt(
        lambda: splits.su4_two_form_refinement(omega, re_theta))
    yield ("SU(4) 2-form refinement has ranks (1, 6, 6, 15)",
           refinement is not None and refinement.ranks == (1, 6, 6, 15))
    cyl = attempt(lambda: splits.cylinder_two_form_types(g2_phi3))
    yield ("cylindrical 2-form parameterizations match the split "
           "(contraction isometry scale 3)",
           cyl is not None and cyl.split.ranks == (7, 21)
           and cyl.iso_scale == 3)


def _newton_probes(tolerance: float):
    """The (description, passed) pairs of the floating Newton-projection
    probes, and whether every probe passed."""
    import numpy as np
    from spin7 import projection
    from spin7.forms import cayley_form

    rng = np.random.default_rng(20260823)
    phi0 = projection.form_to_array(cayley_form())
    pr27 = projection.type_projector("27")
    lines = []
    for trial in range(3):
        xi = pr27 @ rng.standard_normal(70)
        xi /= np.linalg.norm(xi)
        for eps in (1e-2, 1e-3, 1e-4):
            probe = f"direction {trial}, eps {eps:g}: "
            try:
                out = projection.theta_project(phi0 + eps * xi,
                                               tolerance=tolerance)
            except projection.ProjectionError as exc:
                lines.append((f"{probe}ProjectionError: {exc}", False))
                continue
            err = float(np.linalg.norm(out.psi - eps * xi))
            lines.append((f"{probe}|psi - eps xi| = {err:.3e}, "
                          f"iterations {out.iterations}",
                          err <= 100 * eps * eps and out.residual <= 1e-10))
    return lines, all(ok for _, ok in lines)


def _positive(kind, noun: str):
    """The argparse type of a positive finite ``kind`` (``float`` for
    ``--tolerance``, ``int`` for ``scan``'s sizes), ``noun`` in errors."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:  # rejects NaN too
            raise argparse.ArgumentTypeError(f"must be {noun}, got {text!r}")
        return value
    return parse


def _outcomes(key: str, results) -> list:
    """Items for (description, passed) pairs, keyed ``<key>.pass|fail``."""
    return [(f"[{'pass' if ok else 'FAIL'}] ",
             f"{key}.{'pass' if ok else 'fail'}", name)
            for name, ok in results]


def cmd_verify_forms(args) -> int:
    results = list(_identity_suite(inject_sign_flip=args.inject_sign_flip))
    failed = [name for name, ok in results if not ok]
    sections = [("exact identity suite:", _outcomes("identity", results))]
    if args.with_newton:
        lines, newton_ok = _newton_probes(args.tolerance)
        sections.append(("Newton projection probes:",
                         _outcomes("newton", lines)))
        if not newton_ok:
            failed.append("Newton projection probes")
    print(render(sections, args.format))
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _invariants_section(r) -> tuple:
    return ("invariants:", [
        ("b1(Y) = ", "b1_Y", r.b1_Y),
        ("b2(Y) = ", "b2_Y", r.b2_Y),
        ("b3(Y) = ", "b3_Y", r.b3_Y),
        ("b1(M) = ", None, r.b_low_M[0]),
        ("b2(M) = ", None, r.b_low_M[1]),
        ("b3(M) = ", None, r.b_low_M[2]),
        ("b4_0(M) = ", "b4_0", r.b4_0),
        ("b4(M) = ", "b4", r.b4),
        ("b4_plus(M) = ", "b4_plus", r.b4_plus),
        ("b4_minus(M) = ", "b4_minus", r.b4_minus),
        ("moduli dimension = ", "moduli_dimension", r.moduli_dimension),
        ("holonomy = ", "holonomy", r.holonomy),
    ])


def invariant_block(report) -> str:
    """The deterministic block of computed invariants (identical for any
    two configurations producing the same manifold)."""
    return render([_invariants_section(report)], "table")


def render_analysis(result, fmt: str) -> str:
    d = result.data
    values = [
        ("chi_orb(V) = ", "chi_orb_V", result.chi_V.chi_orb),
        ("chi(V) = ", "chi_V", d.chi_V),
        ("h31(V) = ", "h31_V", d.h31_V),
        ("chi(D) = ", "chi_D", d.chi_D),
        ("h21(D) = ", "h21_D", d.h21_D),
        ("k = ", "k", d.k),
    ]
    for i, s in enumerate(d.sigma):
        values += [(f"sigma[{i}]: ", None, f"chi = {s.chi}, p_g = {s.p_g}, "
                                           f"multiplicity = {s.multiplicity}"),
                   (None, f"sigma{i}_chi", s.chi),
                   (None, f"sigma{i}_pg", s.p_g),
                   (None, f"sigma{i}_multiplicity", s.multiplicity)]
    name = result.config.name
    return render([
        (f"configuration: {name}", [(None, "name", name)]),
        ("checks:", [(f"{check}: ", None, note)
                     for check, note in result.checks]),
        ("intermediate values:", values),
        _invariants_section(result.report),
    ], fmt)


def cmd_analyze(args) -> int:
    from spin7 import config as config_mod
    from spin7 import wps
    try:
        with open(args.config_path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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

def _scan_items(candidates, fmt: str, size: int):
    """The item that ``fmt`` prints for each candidate, made lazily: a scan
    can have 10^4 of them.  One ``%d`` format writes every ``size``-tuple
    of weights, and one text serves each distinct reasons tuple."""
    if fmt != "table":
        slots = ",".join(["%d"] * size)
        for c in candidates:
            yield (None, "candidate.accepted" if c.accepted
                   else "candidate.rejected", slots % c.weights)
        return
    slots = "(" + ", ".join(["%d"] * size) + ")"
    texts = {(): ": accepted"}
    for weights, _, reasons in candidates:
        text = texts.get(reasons)
        if text is None:
            text = texts[reasons] = f": rejected: {'; '.join(reasons)}"
        yield slots % weights, None, text


def cmd_scan(args) -> int:
    from spin7 import wps
    candidates = wps.scan_admissible(args.max_weight, args.ambient_dim)
    accepted = sum(c.accepted for c in candidates)
    print(render([
        (f"scan: ambient dimension {args.ambient_dim}, "
         f"max weight {args.max_weight}",
         _scan_items(candidates, args.format, args.ambient_dim + 1)),
        (f"{accepted} candidate(s) accepted of {len(candidates)}", []),
    ], args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``spin7`` parser, built once per process: parsing keeps no
    state in it, so every ``main`` call reuses it."""
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
    p_verify.add_argument("--tolerance", type=_positive(
                              float, "a positive finite number"),
                          default=1e-12,
                          help="projection tolerance (positive, finite)")
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
    positive_int = _positive(int, "a positive integer")
    p_scan.add_argument("--max-weight", type=positive_int, required=True)
    p_scan.add_argument("--ambient-dim", type=positive_int, default=4)
    p_scan.add_argument("--format", choices=("table", "structured"),
                        default="table")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
