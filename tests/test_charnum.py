"""Characteristic numbers, Euler characteristics, Noether data, and
Jacobian-ring Hodge numbers — all in exact rational arithmetic."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spin7 import charnum
from spin7.charnum import (GradedMonomialRing, cy3_hodge_from_chi,
                           degree_pairing, euler_characteristics,
                           noether_pg, steenbrink_hodge, total_chern)


# ---------------------------------------------------------------------------
# Chern classes and Euler characteristics
# ---------------------------------------------------------------------------

def test_total_chern_of_projective_space():
    # c(CP^3) = (1 + x)^4: coefficients 1, 4, 6, 4.
    c = total_chern([1, 1, 1, 1], [])
    assert c == [1, 4, 6, 4]


def _chern_by_fractions(weights, degrees):
    """Reference: prod (1 + a x) * prod (1 + d x)^{-1} as Fraction series
    truncated at the dimension, with 1/(1 + d x) = sum (-d x)^k."""
    dim = len(weights) - 1 - len(degrees)
    factors = [[Fraction(1), Fraction(a)] + [Fraction(0)] * dim
               for a in weights]
    factors += [[Fraction(-d) ** k for k in range(dim + 1)] for d in degrees]
    series = [Fraction(1)] + [Fraction(0)] * dim
    for factor in factors:
        series = [sum(series[j] * factor[k - j] for j in range(k + 1))
                  for k in range(dim + 1)]
    return series


@st.composite
def weight_degree_systems(draw):
    weights = draw(st.lists(st.integers(1, 12), min_size=2, max_size=7))
    degrees = draw(st.lists(st.integers(1, 30), max_size=len(weights) - 1))
    orders = draw(st.lists(st.integers(2, 6), max_size=3))
    return weights, degrees, orders


@settings(max_examples=150, deadline=None)
@given(weight_degree_systems())
def test_integer_chern_series_matches_the_fraction_reference(system):
    weights, degrees, orders = system
    dim = len(weights) - 1 - len(degrees)
    reference = _chern_by_fractions(weights, degrees)
    assert total_chern(weights, degrees) == reference
    chi_orb = reference[dim] * Fraction(math.prod(degrees), math.prod(weights))
    total = chi_orb + sum(1 - Fraction(1, m) for m in orders)
    if total.denominator != 1:
        with pytest.raises(ValueError, match="is not an integer"):
            euler_characteristics(weights, degrees, orders)
        return
    res = euler_characteristics(weights, degrees, orders)
    assert res.chi_orb == chi_orb
    assert res.chi_top == total
    assert res.corrections == tuple(1 - Fraction(1, m) for m in orders)


def test_integer_chern_series_on_the_m1_octic():
    # D = the octic in P(1,1,1,1,4): c_3 = -148 and (D.D.D) = 2.
    assert total_chern([1, 1, 1, 1, 4], [8]) == [1, 0, 22, -148]
    assert euler_characteristics([1, 1, 1, 1, 4], [8]).chi_top == -296


def test_noether_rejects_fractional_invariants():
    # Surfaces in P(1,1,2,2) of degree 1 and 4: K^2 = 25/4, then an
    # integral K^2 = 4 with chi = 5, so chi(O) = 9/12.
    with pytest.raises(ValueError, match=r"^K\^2 = 25/4 is not an integer$"):
        noether_pg([1, 1, 2, 2], [1])
    with pytest.raises(ValueError, match="^holomorphic Euler characteristic "
                                         "3/4 is not an integer$"):
        noether_pg([1, 1, 2, 2], [4])


def test_degree_pairing_examples():
    assert degree_pairing([1, 1, 1, 1], []) == 1
    assert degree_pairing([1, 1, 1, 1, 4], [8]) == 2
    assert degree_pairing([1, 1, 1, 1, 4], [8, 8]) == 16


def test_euler_characteristic_of_projective_spaces():
    for n in range(1, 6):
        res = euler_characteristics([1] * (n + 1), [])
        assert res.chi_orb == n + 1
        assert res.chi_top == n + 1


def test_euler_characteristic_of_the_quintic():
    res = euler_characteristics([1, 1, 1, 1, 1], [5])
    assert res.chi_top == -200


def test_orbifold_correction_on_the_weighted_space():
    res = euler_characteristics([1, 1, 1, 1, 4], [], [4])
    assert res.chi_orb == Fraction(17, 4)
    assert res.chi_top == 5


def test_euler_characteristics_of_the_paper_examples():
    # Octic divisor in the weighted space.
    octic = euler_characteristics([1, 1, 1, 1, 4], [8])
    assert octic.chi_top == -296
    # The fourfold with two Z4 points.
    v = euler_characteristics([1, 1, 1, 1, 4, 4], [8], [4, 4])
    assert v.chi_orb == Fraction(609, 2)
    assert v.chi_top == 306
    # The divisor cut out of the fourfold agrees with the octic divisor.
    d2 = euler_characteristics([1, 1, 1, 1, 4, 4], [8, 4])
    assert d2.chi_top == -296


def test_euler_characteristic_integrality_guard():
    with pytest.raises(ValueError):
        euler_characteristics([1, 1, 1, 1, 4], [], [3])


def test_noether_formula_on_surfaces():
    # Sigma_{8,8} in (1,1,1,1,4): chi = 1376, p_g = 199.
    chi, k2, pg = noether_pg([1, 1, 1, 1, 4], [8, 8])
    assert (chi, k2, pg) == (1376, 1024, 199)
    # The same surface cut two ways: (8,4) in (1,1,1,1,4) and
    # (8,4,4) in (1,1,1,1,4,4).
    chi, k2, pg = noether_pg([1, 1, 1, 1, 4], [8, 4])
    assert (chi, pg) == (304, 35)
    chi, k2, pg = noether_pg([1, 1, 1, 1, 4, 4], [8, 4, 4])
    assert (chi, pg) == (304, 35)
    # The quartic K3: chi = 24, p_g = 1, K^2 = 0.
    assert noether_pg([1, 1, 1, 1], [4]) == (24, 0, 1)


def test_noether_requires_a_surface():
    with pytest.raises(ValueError):
        noether_pg([1, 1, 1, 1], [])


# ---------------------------------------------------------------------------
# Jacobian rings
# ---------------------------------------------------------------------------

def _hilbert_cases():
    rng = random.Random(4)
    cases = 0
    while cases < 60:
        nvars = rng.randint(2, 6)
        degree = rng.randint(2, 30)
        weights = []
        for _ in range(nvars):
            divisors = [a for a in range(1, degree + 1) if degree % a == 0]
            weights.append(rng.choice(divisors))
        if math.gcd(*weights) != 1:
            continue
        cases += 1
        yield tuple(weights), degree


@pytest.mark.parametrize("weights,degree", list(_hilbert_cases()))
def test_hilbert_series_matches_enumeration(weights, degree):
    ring = GradedMonomialRing(weights, degree)
    series = ring.hilbert_series_by_enumeration()
    for k in range(0, ring.socle_degree + 2):
        assert ring.hilbert(k) == series[k]


@st.composite
def graded_rings(draw):
    """Rings with a small monomial basis; half of them have every e_i in
    {1, 2}, where the ring is zero (some e_i = 1) or a point."""
    degree = draw(st.integers(1, 24))
    if draw(st.booleans()):
        pool = [a for a in sorted({degree, degree // 2} - {0})
                if degree % a == 0]
    else:
        pool = [a for a in range(1, degree + 1) if degree % a == 0]
    weights = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    assume(math.prod(max(degree // a - 1, 1) for a in weights) <= 4000)
    return GradedMonomialRing(tuple(weights), degree)


@settings(max_examples=200, deadline=None)
@given(graded_rings())
def test_hilbert_matches_the_enumeration_oracle(ring):
    series = ring.hilbert_series_by_enumeration()
    top = ring.socle_degree
    for k in range(-3, max(top, 0) + 4):
        expected = series[k] if 0 <= k < len(series) else 0
        assert ring.hilbert(k) == expected, k
    if 1 in ring.exponents:
        assert all(ring.hilbert(k) == 0 for k in range(-1, max(top, 0) + 2))
    elif set(ring.exponents) == {2}:
        assert top == 0 and ring.hilbert(0) == 1 and ring.hilbert(1) == 0


def test_hilbert_duality():
    for weights, degree in (((1, 1, 1, 1, 4, 4), 8), ((1, 1, 1, 1, 1), 5)):
        ring = GradedMonomialRing(weights, degree)
        top = ring.socle_degree
        for k in range(top + 1):
            assert ring.hilbert(k) == ring.hilbert(top - k)
        assert ring.hilbert(top) == 1
        assert ring.hilbert(top + 1) == 0


def test_steenbrink_hodge_rows():
    # Octic fourfold in (1,1,1,1,4,4): h^{3,1} = 35.
    assert steenbrink_hodge([1, 1, 1, 1, 4, 4], 8)[1] == 35
    # The quintic threefold: h^{2,1} = 101.
    assert steenbrink_hodge([1, 1, 1, 1, 1], 5)[1] == 101
    # The quartic K3: (h^{2,0}, h^{1,1}_prim, h^{0,2}) = (1, 20, 1).
    assert steenbrink_hodge([1, 1, 1, 1], 4) == [1, 20, 1]
    # The two anchor rows of the paper's examples: the octic threefold D
    # in (1,1,1,1,4) and the octic fourfold V in (1,1,1,1,4,4).
    assert steenbrink_hodge([1, 1, 1, 1, 4], 8) == [1, 149, 149, 1]
    assert steenbrink_hodge([1, 1, 1, 1, 4, 4], 8) == [0, 35, 232, 35, 0]


def test_cy3_hodge_from_chi():
    # chi = 2 (h11 - h21): quintic has h11 = 1, h21 = 101, chi = -200.
    assert cy3_hodge_from_chi(-200, 1) == 101
    # Octic divisor: chi = -296, h11 = 1 -> h21 = 149.
    assert cy3_hodge_from_chi(-296, 1) == 149
    with pytest.raises(ValueError):
        cy3_hodge_from_chi(-199, 1)  # odd chi is impossible


def test_graded_ring_rejects_nondividing_weights():
    with pytest.raises(ValueError):
        GradedMonomialRing((1, 3), 8)
