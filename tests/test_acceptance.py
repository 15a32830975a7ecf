"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Each test prints a single ``ACCEPTANCE n: PASS|FAIL`` line directly to the
terminal (bypassing capture), then asserts.  Criteria:

1. First golden configuration reproduced exactly, under 1 s.
2. Second golden configuration reproduced exactly, and its two routes give
   byte-identical invariant blocks, under 1 s.
3. Intermediate characteristic numbers reproduced exactly.
4. Exterior-algebra identity suite exact, under 10 s.
5. Newton projection: quadratic splitting error and tangency residual.
6. Hilbert series vs. direct enumeration on >= 200 random tuples, plus
   Poincare duality.
7. Negative fixtures fail with the designated exit codes and named
   violations.
8. Scan determinism.
"""

import contextlib
import io
import json
import math
import pathlib
import random
import time

import numpy as np
import pytest

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def report(capsys, request):
    """Emit the per-criterion verdict uncaptured, whatever the outcome."""
    verdict = {"passed": False, "detail": ""}
    yield verdict
    label = request.node.name.replace("test_criterion_", "criterion ")
    status = "PASS" if verdict["passed"] else "FAIL"
    detail = f" ({verdict['detail']})" if verdict["detail"] else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: {status}{detail}")


def run_cli(*argv):
    from spin7 import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def analyze_values(name):
    code, out, err = run_cli("analyze", str(CONFIG_DIR / name),
                             "--format", "structured")
    assert code == 0, err
    return dict(line.split(" = ") for line in out.strip().splitlines())


def invariant_block(name):
    code, out, err = run_cli("analyze", str(CONFIG_DIR / name))
    assert code == 0, err
    return out[out.index("invariants:"):]


def test_criterion_1_first_golden_row(report):
    start = time.perf_counter()
    values = analyze_values("m1.cfg")
    elapsed = time.perf_counter() - start
    expected = {"b4_0": "688", "b4": "839", "b3_Y": "151",
                "b4_minus": "200", "moduli_dimension": "352"}
    mismatches = {k: values.get(k) for k, v in expected.items()
                  if values.get(k) != v}
    assert not mismatches, mismatches
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    report["passed"] = True
    report["detail"] = f"exact integers, {elapsed:.2f} s"


def test_criterion_2_second_golden_row_two_routes(report):
    start = time.perf_counter()
    values = analyze_values("m2.cfg")
    expected = {"b4": "455", "b4_0": "304", "b4_minus": "72",
                "moduli_dimension": "224"}
    mismatches = {k: values.get(k) for k, v in expected.items()
                  if values.get(k) != v}
    assert not mismatches, mismatches
    direct = invariant_block("m2.cfg")
    via = invariant_block("m2_via_double_blowup.cfg")
    elapsed = time.perf_counter() - start
    assert direct == via, "invariant blocks differ between the two routes"
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    report["passed"] = True
    report["detail"] = f"byte-identical blocks, {elapsed:.2f} s"


def test_criterion_3_intermediate_values(report):
    from spin7 import charnum
    checks = []
    octic = charnum.euler_characteristics([1, 1, 1, 1, 4], [8])
    checks.append(("chi(D)", octic.chi_top, -296))
    checks.append(("h21(D)", charnum.cy3_hodge_from_chi(-296, 1), 149))
    chi88, _, pg88 = charnum.noether_pg([1, 1, 1, 1, 4], [8, 8])
    checks.append(("chi(Sigma_{8,8})", chi88, 1376))
    checks.append(("p_g(Sigma_{8,8})", pg88, 199))
    chi8, _, pg8 = charnum.noether_pg([1, 1, 1, 1, 4], [8, 4])
    checks.append(("chi(Sigma_8)", chi8, 304))
    checks.append(("p_g(Sigma_8)", pg8, 35))
    v = charnum.euler_characteristics([1, 1, 1, 1, 4, 4], [8], [4, 4])
    checks.append(("chi(V)", v.chi_top, 306))
    checks.append(("h31(V)",
                   charnum.steenbrink_hodge([1, 1, 1, 1, 4, 4], 8)[1], 35))
    bad = [(name, got, want) for name, got, want in checks if got != want]
    assert not bad, bad
    report["passed"] = True
    report["detail"] = "8/8 exact"


def test_criterion_4_exterior_algebra_suite(report):
    from spin7 import splits
    from spin7.forms import (cayley_form, g2_phi, hodge_star, su4_forms,
                             volume_form, wedge)
    from fractions import Fraction
    start = time.perf_counter()
    phi = cayley_form()
    assert splits.two_form_split(phi).ranks == (7, 21)
    assert splits.three_form_split(phi).ranks == (8, 48)
    assert splits.four_form_split(phi).ranks == (1, 7, 27, 35)
    assert hodge_star(phi) == phi
    assert wedge(phi, phi) == 14 * volume_form(8)
    assert splits.stabilizer_dimension(phi).dim == 21
    assert splits.stabilizer_dimension(g2_phi()).dim == 14
    omega, re_theta, _ = su4_forms()
    assert Fraction(1, 2) * wedge(omega, omega) + re_theta == phi
    assert hodge_star(wedge(phi, omega)) == 3 * omega
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f} s"
    report["passed"] = True
    report["detail"] = f"all exact, {elapsed:.2f} s"


def test_criterion_5_newton_projection(report):
    from spin7 import projection
    from spin7.forms import cayley_form

    rng = np.random.default_rng(20260823)
    phi0 = projection.form_to_array(cayley_form())
    pr27 = projection.type_projector("27")
    eps_grid = (1e-2, 1e-3, 1e-4)
    directions = 20
    noise_floor = 1e-12  # deviations at machine noise satisfy any C eps^2

    max_err = 0.0
    max_res = 0.0
    slopes_needed = []
    for _ in range(directions):
        errs = []
        for eps in eps_grid:
            out = projection.theta_project(phi0 + eps * pr27
                                           @ rng.standard_normal(70))
            xi = out.chi - phi0
            err = float(np.linalg.norm(out.psi - xi))
            errs.append(max(err, 0.0))
            max_err = max(max_err, err)
            max_res = max(max_res, out.residual, out.tangency_error())
        # |psi - eps xi| <= C eps^2: either all deviations sit at machine
        # noise (the bound holds with C = noise/eps^2 at the largest eps),
        # or the decay rate must be quadratic.
        if any(e > noise_floor for e in errs):
            slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
            slopes_needed.append(slope)
    assert all(s >= 1.9 for s in slopes_needed), slopes_needed
    for eps in eps_grid:
        assert max_err <= max(noise_floor, 100 * eps * eps)
    assert max_res <= 1e-10, max_res

    # The quadratic contraction is visible where the iteration genuinely
    # runs: |F(eps eta)| ~ eps^2 for generic directions eta.
    generic_slopes = []
    for _ in range(3):
        eta = rng.standard_normal(70)
        eta /= np.linalg.norm(eta)
        norms = [np.linalg.norm(projection.nonlinear_remainder(eps * eta))
                 for eps in eps_grid]
        generic_slopes.append(np.polyfit(np.log(eps_grid),
                                         np.log(norms), 1)[0])
    assert all(s >= 1.9 for s in generic_slopes), generic_slopes
    report["passed"] = True
    report["detail"] = (f"{directions} directions, max deviation "
                        f"{max_err:.1e}, max residual {max_res:.1e}, "
                        f"generic slope {min(generic_slopes):.2f}")


def test_criterion_6_hilbert_oracle_equivalence(report):
    from spin7.charnum import GradedMonomialRing

    rng = random.Random(20260823)
    tuples = 0
    comparisons = 0
    while tuples < 200:
        nvars = rng.randint(2, 6)
        degree = rng.randint(2, 30)
        weights = tuple(rng.choice([a for a in range(1, degree + 1)
                                    if degree % a == 0])
                        for _ in range(nvars))
        if math.gcd(*weights) != 1:
            continue
        tuples += 1
        ring = GradedMonomialRing(weights, degree)
        series = ring.hilbert_series_by_enumeration()
        for k in range(ring.socle_degree + 2):
            assert ring.hilbert(k) == series[k], (weights, degree, k)
            comparisons += 1
    for weights, degree in (((1, 1, 1, 1, 4, 4), 8), ((1, 1, 1, 1, 1), 5)):
        ring = GradedMonomialRing(weights, degree)
        top = ring.socle_degree
        assert all(ring.hilbert(k) == ring.hilbert(top - k)
                   for k in range(top + 1)), (weights, degree)
    report["passed"] = True
    report["detail"] = (f"{tuples} random tuples, {comparisons} degree "
                        "comparisons, duality on both rings")


def test_criterion_7_negative_fixtures(report):
    fixtures = [
        ("not_well_formed.cfg", 1, "well-formed"),
        ("non_isolated.cfg", 1, "singular"),
        ("wrong_parity.cfg", 1, "parity"),
    ]
    seen = []
    for name, want_code, needle in fixtures:
        code, out, err = run_cli("analyze", str(CONFIG_DIR / name))
        assert code == want_code, (name, code, err)
        assert needle in (out + err).lower(), (name, err)
        seen.append(f"{name} -> exit {code}")
    # Schema/input errors use exit code 2.
    code, _, err = run_cli("analyze", str(CONFIG_DIR / "does_not_exist.cfg"))
    assert code == 2
    seen.append("missing file -> exit 2")
    report["passed"] = True
    report["detail"] = "; ".join(seen)


def test_criterion_8_scan_determinism(report):
    runs = [run_cli("scan", "--max-weight", "4", "--ambient-dim", "4")
            for _ in range(2)]
    assert runs[0] == runs[1], "scan output is not deterministic"
    code, out, _ = runs[0]
    assert code == 0
    assert "(1, 1, 1, 1, 4): accepted" in out
    report["passed"] = True
    report["detail"] = "byte-identical runs, (1,1,1,1,4) accepted"
