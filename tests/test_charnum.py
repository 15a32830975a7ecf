"""Characteristic numbers, Euler characteristics, Noether data, and
Jacobian-ring Hodge numbers — all in exact rational arithmetic."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin7 import charnum
from spin7.charnum import (GradedMonomialRing, TruncatedSeries,
                           cy3_hodge_from_chi, degree_pairing,
                           euler_characteristics, noether_pg,
                           steenbrink_hodge, total_chern)


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

coeff_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_series_ring_laws(xs, ys):
    order = 6
    a = TruncatedSeries(order, xs)
    b = TruncatedSeries(order, ys)
    assert a + b == b + a
    assert a * b == b * a
    one = TruncatedSeries.one(order)
    assert a * one == a


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_series_reciprocal_inverts(xs):
    order = 6
    coeffs = [Fraction(1)] + list(xs)
    a = TruncatedSeries(order, coeffs)
    assert a * a.reciprocal() == TruncatedSeries.one(order)


def test_series_reciprocal_requires_unit_constant_term():
    with pytest.raises(ZeroDivisionError):
        TruncatedSeries(3, [Fraction(0), Fraction(1)]).reciprocal()


def test_geometric_series_oracle():
    # 1 / (1 - x) = 1 + x + x^2 + ...
    a = TruncatedSeries(5, [Fraction(1), Fraction(-1)])
    assert a.reciprocal() == TruncatedSeries(5, [Fraction(1)] * 6)


# ---------------------------------------------------------------------------
# Chern classes and Euler characteristics
# ---------------------------------------------------------------------------

def test_total_chern_of_projective_space():
    # c(CP^3) = (1 + x)^4: coefficients 1, 4, 6, 4.
    c = total_chern([1, 1, 1, 1], [])
    assert [c.coefficient(k) for k in range(4)] == [1, 4, 6, 4]


def test_degree_pairing_examples():
    assert degree_pairing([1, 1, 1, 1], [], 3) == 1
    assert degree_pairing([1, 1, 1, 1, 4], [8], 3) == 2
    assert degree_pairing([1, 1, 1, 1, 4], [8, 8], 2) == 16
    with pytest.raises(ValueError):
        degree_pairing([1, 1, 1, 1], [], 2)


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
