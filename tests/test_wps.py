"""Weighted projective spaces: well-formedness, singular loci,
involutions, and the admissibility scan."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin7 import wps
from spin7.wps import (CompleteIntersectionDatum, GaussianRational,
                       InvolutionDatum, WeightedSpace)


def GR(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

gaussians = st.builds(
    GR,
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.fractions(min_value=-9, max_value=9, max_denominator=7))


@settings(max_examples=80, deadline=None)
@given(gaussians, gaussians)
def test_gaussian_norm_is_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@settings(max_examples=80, deadline=None)
@given(gaussians, gaussians)
def test_gaussian_division_inverts_multiplication(a, b):
    if b:
        assert (a * b) / b == a


@settings(max_examples=80, deadline=None)
@given(gaussians)
def test_gaussian_parse_round_trip(a):
    assert GaussianRational.parse(str(a)) == a


def test_gaussian_parse_examples():
    assert GaussianRational.parse("1") == GR(1)
    assert GaussianRational.parse("-2/3") == GR(Fraction(-2, 3))
    assert GaussianRational.parse("i") == GR(0, 1)
    assert GaussianRational.parse("-i") == GR(0, -1)
    assert GaussianRational.parse("2i") == GR(0, 2)
    assert GaussianRational.parse("1+2i") == GR(1, 2)
    with pytest.raises(ValueError):
        GaussianRational.parse("bogus")


# the digits are read by int(), which alone would also take "1_000"
@pytest.mark.parametrize("text", [" 1 ", "+1", "01", "\u0661"])
def test_gaussian_parse_accepts_these_spellings_of_one(text):
    assert GaussianRational.parse(text) == GR(1)


@pytest.mark.parametrize("text", ["1_000", "\u00b2", "1.0", "", "1/0",
                                  "2/0i", "1+1/00i"])
def test_gaussian_parse_rejects(text):
    with pytest.raises(ValueError, match="bad complex rational literal"):
        GaussianRational.parse(text)


# ---------------------------------------------------------------------------
# weighted spaces and well-formedness
# ---------------------------------------------------------------------------

def test_weighted_space_requires_coprime_weights():
    with pytest.raises(ValueError):
        WeightedSpace((2, 4, 6))
    WeightedSpace((1, 1, 1, 1, 4))  # fine


def test_well_formed_examples():
    space = WeightedSpace((1, 1, 1, 1, 4))
    ok, violations = wps.well_formed(CompleteIntersectionDatum(space, (8,)))
    assert ok and not violations

    bad = WeightedSpace((1, 1, 2, 2))
    ok, violations = wps.well_formed(CompleteIntersectionDatum(bad, (3,)))
    assert not ok
    assert any("gcd 2" in v for v in violations)

    # Two hypersurfaces: the codimension-2 gcd condition is one-or-both.
    space6 = WeightedSpace((1, 1, 1, 1, 4, 4))
    ok, violations = wps.well_formed(
        CompleteIntersectionDatum(space6, (8, 8)))
    assert ok and not violations

    deep = CompleteIntersectionDatum(space, (8, 8, 8))
    with pytest.raises(wps.UnsupportedError):
        wps.well_formed(deep)


@pytest.mark.parametrize("weights, degrees", [
    ((1, 1), (2,)),         # one hypersurface in a weighted projective line
    ((1, 1, 2), (2, 4)),    # two hypersurfaces in a weighted plane
])
def test_well_formed_rejects_a_zero_dimensional_intersection(weights,
                                                              degrees):
    # every index set omitted leaves no weight, whose gcd is 0
    ci = CompleteIntersectionDatum(WeightedSpace(weights), degrees)
    with pytest.raises(wps.UnsupportedError, match="zero-dimensional"):
        wps.well_formed(ci)


def _well_formed_by_omission(ci):
    """Reference: the violations, each omitted gcd taken over the weights
    whose index is not in a set."""
    a, degrees = ci.space.weights, ci.degrees

    def omitting(indices):
        return math.gcd(*(w for i, w in enumerate(a) if i not in indices))

    violations = [f"gcd of weights omitting index {i} is not 1"
                  for i in range(len(a)) if omitting({i}) != 1]
    for i, j in itertools.combinations(range(len(a)), 2) if degrees else ():
        g = omitting({i, j})
        if len(degrees) == 1 and degrees[0] % g:
            violations.append(f"gcd {g} omitting indices {{{i},{j}}} does "
                              f"not divide the degree {degrees[0]}")
        if len(degrees) == 2 and any(d % g for d in degrees):
            violations.append(f"gcd {g} omitting indices {{{i},{j}}} does "
                              f"not divide both degrees {degrees}")
    for trio in itertools.combinations(range(len(a)), 3):
        g = omitting(set(trio))
        if len(degrees) == 2 and all(d % g for d in degrees):
            violations.append(f"gcd {g} omitting indices {set(trio)} "
                              f"divides neither degree of {degrees}")
    return violations


@pytest.mark.parametrize("n1", [4, 5, 6])
def test_well_formed_matches_the_omission_reference(n1):
    for weights in itertools.combinations_with_replacement(range(1, 9), n1):
        if math.gcd(*weights) != 1:
            continue
        space = WeightedSpace(weights)
        d = sum(weights)
        for degrees in ((), (d,), (2 * d, 12)):
            ci = CompleteIntersectionDatum(space, degrees)
            violations = _well_formed_by_omission(ci)
            assert wps.well_formed(ci) == (not violations, violations)


def test_singular_strata():
    strata = wps.singular_strata(WeightedSpace((1, 1, 1, 1, 4)))
    assert len(strata) == 1
    assert strata[0].indices == (4,)
    assert strata[0].order == 4

    strata = wps.singular_strata(WeightedSpace((1, 1, 1, 1, 4, 4)))
    assert len(strata) == 1
    assert strata[0].indices == (4, 5)
    assert strata[0].order == 4
    assert strata[0].dimension == 1

    assert wps.singular_strata(WeightedSpace((1, 1, 1, 1, 1))) == []


def _singular_strata_by_subsets(space):
    """Reference: walk every subset of the coordinates and keep those with
    gcd >= 2 that no further coordinate keeps at the same gcd."""
    a = space.weights
    n1 = len(a)
    found = []
    for r in range(1, n1 + 1):
        for combo in itertools.combinations(range(n1), r):
            m = math.gcd(*(a[i] for i in combo))
            if m < 2:
                continue
            extendable = any(
                j not in combo and math.gcd(m, a[j]) == m
                for j in range(n1))
            if extendable:
                continue
            residues = tuple(a[j] % m for j in range(n1) if j not in combo)
            found.append(wps.SingularStratum(combo, m, residues))
    found.sort(key=lambda s: s.indices)
    return found


@pytest.mark.parametrize("n1", [5, 6])
def test_singular_strata_match_the_subset_walk(n1):
    count = 0
    for weights in itertools.combinations_with_replacement(range(1, 13), n1):
        if math.gcd(*weights) != 1:
            continue
        space = WeightedSpace(weights)
        assert wps.singular_strata(space) == _singular_strata_by_subsets(
            space), weights
        count += 1
    assert count > 4000


def test_anticanonical_degree():
    space = WeightedSpace((1, 1, 1, 1, 4))
    assert wps.anticanonical_degree(CompleteIntersectionDatum(space)) == 8
    v = CompleteIntersectionDatum(WeightedSpace((1, 1, 1, 1, 4, 4)), (8,))
    assert wps.anticanonical_degree(v) == 4


def test_diagonal_quasismooth():
    space = WeightedSpace((1, 1, 1, 1, 4, 4))
    good = CompleteIntersectionDatum(space, (8,), (8, 8, 8, 8, 2, 2))
    assert (wps.diagonal_quasismooth(good)
            == "diagonal member with every variable present")
    with pytest.raises(ValueError):
        CompleteIntersectionDatum(space, (8,), (8, 8, 8, 8, 2, 3))


# ---------------------------------------------------------------------------
# isolated Z4 points
# ---------------------------------------------------------------------------

def test_isolated_z4_check_ambient_point():
    ambient = CompleteIntersectionDatum(WeightedSpace((1, 1, 1, 1, 4)))
    iso = wps.isolated_z4_check(ambient)
    assert iso.ok and iso.action_ok
    assert iso.k == 1
    assert iso.points[0].count == 1


def test_isolated_z4_check_two_points_on_a_diagonal_member():
    space = WeightedSpace((1, 1, 1, 1, 4, 4))
    v = CompleteIntersectionDatum(space, (8,), (8, 8, 8, 8, 2, 2))
    iso = wps.isolated_z4_check(v)
    assert iso.ok and iso.action_ok
    assert iso.k == 2


def test_isolated_z4_check_rejects_a_singular_line():
    ambient = CompleteIntersectionDatum(WeightedSpace((1, 1, 1, 1, 4, 4)))
    iso = wps.isolated_z4_check(ambient)
    assert not iso.ok
    assert any("dimension" in r or "isolated" in r for r in iso.reasons)


def test_isolated_z4_check_rejects_wrong_order():
    ambient = CompleteIntersectionDatum(WeightedSpace((1, 1, 1, 3)))
    iso = wps.isolated_z4_check(ambient)
    assert iso.k == 1 and not iso.action_ok


def _diagonal_member(weights, degree):
    return CompleteIntersectionDatum(WeightedSpace(weights), (degree,),
                                     tuple(degree // a for a in weights))


def test_isolated_z4_check_rejects_a_stratum_of_three_weights():
    iso = wps.isolated_z4_check(_diagonal_member((1, 1, 2, 2, 2, 2), 4))
    assert not iso.ok
    assert iso.reasons == ("stratum (2, 3, 4, 5) meets the hypersurface in "
                           "a positive-dimensional set",)


def test_isolated_z4_check_on_unequal_weights_is_unsupported():
    with pytest.raises(wps.UnsupportedError,
                       match="stratum with unequal weights"):
        wps.isolated_z4_check(_diagonal_member((1, 1, 1, 1, 4, 8), 8))


# ---------------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------------

def octic_polynomial(n, extra=()):
    entries = []
    for i in range(n):
        exps = [0] * n
        exps[i] = 8 if i < 4 else 2
        entries.append((tuple(exps), GR(1)))
    for exps, coeff in extra:
        entries.append((tuple(exps), coeff))
    return wps.parse_polynomial(entries)


def test_involution_on_the_octic_ambient():
    ambient = CompleteIntersectionDatum(WeightedSpace((1, 1, 1, 1, 4)))
    rho = InvolutionDatum((1, 0, 3, 2, 4), (0, 2, 0, 2, 0))
    poly = octic_polynomial(5)
    check = wps.involution_check(ambient, rho, [poly],
                                 wps.isolated_z4_check(ambient))
    assert check.ok, check.reasons
    assert check.fixed_count == 1  # the Z4 point itself


def test_involution_with_two_fixed_points():
    space = WeightedSpace((1, 1, 1, 1, 4, 4))
    v = CompleteIntersectionDatum(space, (8,), (8, 8, 8, 8, 2, 2))
    rho = InvolutionDatum((1, 0, 3, 2, 5, 4), (0, 2, 0, 2, 0, 0))
    poly = octic_polynomial(6)
    check = wps.involution_check(v, rho, [poly],
                                 wps.isolated_z4_check(v))
    assert check.ok, check.reasons
    assert check.fixed_count == 2


def test_involution_rejects_unpreserved_polynomial():
    ambient = CompleteIntersectionDatum(WeightedSpace((1, 1, 1, 1, 4)))
    rho = InvolutionDatum((1, 0, 3, 2, 4), (0, 2, 0, 2, 0))
    # x0^8 alone is sent to x1^8: not preserved.
    poly = wps.parse_polynomial([((8, 0, 0, 0, 0), GR(1))])
    check = wps.involution_check(ambient, rho, [poly],
                                 wps.isolated_z4_check(ambient))
    assert not check.ok
    assert any("preserve" in r for r in check.reasons)


def test_involution_failure_messages():
    ambient = CompleteIntersectionDatum(WeightedSpace((1, 1, 1, 1, 4)))
    iso = wps.isolated_z4_check(ambient)
    rho = InvolutionDatum((1, 0, 3, 2, 4), (0, 2, 0, 2, 0))
    poly = wps.parse_polynomial([((8, 0, 0, 0, 0), GR(1))])
    check = wps.involution_check(ambient, rho, [poly], iso)
    assert check.reasons == (
        "polynomial 0 not preserved: monomial support not preserved: "
        "[(0, 8, 0, 0, 0), (8, 0, 0, 0, 0)]",)
    # i-phases and non-unit rational coefficients: the first image
    # monomial fixes the scale, and the next one breaks it
    rho = InvolutionDatum((1, 0, 3, 2, 4), (1, 3, 0, 2, 0))
    poly = wps.parse_polynomial([((1, 7, 0, 0, 0), "2/3+i"),
                                 ((7, 1, 0, 0, 0), "1/2"),
                                 ((0, 0, 0, 0, 2), "-3/5i")])
    check = wps.involution_check(ambient, rho, [poly], iso)
    assert check.reasons == (
        "polynomial 0 not preserved: monomial (1, 7, 0, 0, 0): coefficient "
        "ratio -3/13-9/26i differs from -4/3-2i",)
    poly = wps.parse_polynomial([((1, 7, 0, 0, 0), "2/3+i"),
                                 ((7, 1, 0, 0, 0), "2/3-i"),
                                 ((0, 0, 0, 0, 2), "3/5")])
    check = wps.involution_check(ambient, rho, [poly], iso)
    assert check.reasons == (
        "polynomial 0 not preserved: monomial (0, 0, 0, 0, 2): coefficient "
        "ratio 1 differs from -1",)
    # with the last coefficient on the imaginary axis it is preserved
    poly = wps.parse_polynomial([((1, 7, 0, 0, 0), "2/3+i"),
                                 ((7, 1, 0, 0, 0), "2/3-i"),
                                 ((0, 0, 0, 0, 2), "-3/5i")])
    assert wps._polynomial_preserved(poly, rho) == (True, "")


def test_involution_requires_square_identity():
    with pytest.raises(ValueError):
        InvolutionDatum((1, 2, 0), (0, 0, 0))  # a 3-cycle


def test_involution_requires_projective_involutivity():
    ambient = CompleteIntersectionDatum(WeightedSpace((1, 1, 1, 1, 4)))
    # phases that do not square to a single projective unit
    rho = InvolutionDatum((1, 0, 3, 2, 4), (0, 1, 0, 2, 0))
    check = wps.involution_check(ambient, rho, [octic_polynomial(5)],
                                 wps.isolated_z4_check(ambient))
    assert not check.ok


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_is_deterministic_and_finds_the_known_weights():
    first = wps.scan_admissible(4, 4)
    second = wps.scan_admissible(4, 4)
    assert first == second
    accepted = [c.weights for c in first if c.accepted]
    assert accepted == [(1, 1, 1, 1, 4)]
    # Every rejected candidate carries at least one reason.
    assert all(c.reasons for c in first if not c.accepted)


def test_scan_low_dimension_and_weight_edge_cases():
    assert wps.scan_admissible(4, 2) == []
    assert all(not c.accepted for c in wps.scan_admissible(1, 4))


def _sorted_tuples(max_weight, length, low=1):
    """Nondecreasing tuples of weights in 1..max_weight, in increasing
    order."""
    if not length:
        yield ()
        return
    for first in range(low, max_weight + 1):
        for rest in _sorted_tuples(max_weight, length - 1, first):
            yield (first,) + rest


def _reference_scan(max_weight, ambient_dim):
    """Reference: every coprime tuple, each through every check."""
    found = []
    for w in _sorted_tuples(max_weight, ambient_dim + 1):
        if math.gcd(*w) != 1:
            continue
        d = sum(w)
        if any(d % a for a in w):
            found.append(wps.ScanCandidate(w, False, (
                "anticanonical degree admits no diagonal member",)))
            continue
        space = WeightedSpace(w)
        reasons = wps.well_formed(CompleteIntersectionDatum(
            space, (d,), tuple(d // a for a in w)))[1]
        iso = wps.isolated_z4_check(CompleteIntersectionDatum(space))
        if not iso.k:
            reasons.append("singular locus is empty")
        reasons += iso.reasons
        if iso.ok and iso.k:
            on_points = {i for g in iso.points for i in g.stratum.indices}
            rest = [a for i, a in enumerate(w) if i not in on_points]
            odd = [a for a in dict.fromkeys(rest) if rest.count(a) % 2]
            if odd:
                reasons.append("no weight-pairing involution: odd number of "
                               f"non-singular coordinates of weight {odd}")
        found.append(wps.ScanCandidate(w, not reasons, tuple(reasons)))
    return found


@pytest.mark.parametrize("ambient_dim", [3, 4, 5, 6])
def test_scan_matches_the_brute_force_reference(ambient_dim):
    for max_weight in range(1, 9):
        assert (wps.scan_admissible(max_weight, ambient_dim)
                == _reference_scan(max_weight, ambient_dim)), max_weight


def test_scan_returns_a_list_of_immutable_records():
    # bench/tracing.py reads .weights, .accepted and .reasons of each
    result = wps.scan_admissible(6, 4)
    assert type(result) is list and result
    for c in result:
        assert type(c) is wps.ScanCandidate
        assert c == wps.ScanCandidate(c.weights, c.accepted, c.reasons)
        assert all(type(w) is int for w in c.weights)
        assert c.accepted is (not c.reasons)
        assert all(type(r) is str for r in c.reasons)
    with pytest.raises(AttributeError):
        result[0].accepted = True


def test_only_tuples_with_a_diagonal_member_reach_the_checks(monkeypatch):
    """The cheap divisibility rejection runs before well_formed and
    isolated_z4_check, which see each surviving tuple once."""
    calls = {"well_formed": 0, "isolated_z4_check": 0}

    def counted(name):
        original = getattr(wps, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(wps, name, counted(name))
    ranges = [(mw, dim) for mw in range(6, 13) for dim in (4, 5)]
    for mw, dim in ranges:
        wps.scan_admissible(mw, dim)
    survivors = sum(
        math.gcd(*w) == 1 and not any(sum(w) % a for a in w)
        for mw, dim in ranges
        for w in itertools.combinations_with_replacement(
            range(1, mw + 1), dim + 1))
    assert survivors == 591
    assert calls == {"well_formed": survivors, "isolated_z4_check": survivors}
