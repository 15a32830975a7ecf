"""Exact multivector arithmetic and the distinguished forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin7.forms import (Multivector, cayley_form, contract, cylinder_form,
                         format_form, g2_phi, g2_split, hodge_star, inner,
                         parse_form, su4_forms, volume_form, wedge)


def random_form(draw, dimension, degree):
    import itertools
    combos = list(itertools.combinations(range(1, dimension + 1), degree))
    coeffs = draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=len(combos), max_size=len(combos)))
    return Multivector.from_terms(
        dimension, [(idx, c) for idx, c in zip(combos, coeffs)])


@st.composite
def forms(draw, dimension=4, degree=2):
    return random_form(draw, dimension, degree)


# ---------------------------------------------------------------------------
# algebraic laws
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(forms(4, 1), forms(4, 2))
def test_wedge_graded_anticommutative(a, b):
    assert wedge(a, b) == (-1) ** (a.degree * b.degree) * wedge(b, a)


@settings(max_examples=60, deadline=None)
@given(forms(4, 1), forms(4, 1), forms(4, 2))
def test_wedge_bilinear_associative(a, b, c):
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=60, deadline=None)
@given(forms(5, 2))
def test_hodge_star_involution(a):
    # ** = (-1)^{r(n-r)} on degree-r forms in dimension n.
    sign = (-1) ** (a.degree * (a.dimension - a.degree))
    assert hodge_star(hodge_star(a)) == sign * a


@settings(max_examples=60, deadline=None)
@given(forms(5, 2), forms(5, 2))
def test_inner_matches_wedge_with_star(a, b):
    vol = volume_form(5)
    assert wedge(a, hodge_star(b)) == inner(a, b) * vol
    assert inner(a, b) == inner(b, a)


@settings(max_examples=60, deadline=None)
@given(forms(5, 3), st.integers(min_value=1, max_value=5))
def test_contraction_is_an_antiderivation(a, i):
    # (v . (dx_i ^ a)) = a - dx_i ^ (v . a) for v the i-th basis vector.
    dxi = Multivector.monomial(5, [i])
    assert (contract(i, wedge(dxi, a))
            == a - wedge(dxi, contract(i, a)))


@settings(max_examples=40, deadline=None)
@given(forms(5, 2))
def test_contract_by_rational_vector_is_linear(a):
    v = [Fraction(1), Fraction(-2, 3), Fraction(0), Fraction(1, 2),
         Fraction(3)]
    expect = Multivector.zero(5, 1)
    for i, vi in enumerate(v, start=1):
        expect = expect + vi * contract(i, a)
    assert contract(v, a) == expect


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=9).flatmap(
           lambda n: st.tuples(st.just(n), st.lists(
               st.integers(min_value=1, max_value=n),
               min_size=1, max_size=n))),
       st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_from_terms_sign_is_the_wedge_of_one_forms(case, c):
    # An unsorted (or repeated) index tuple means dx_{i1} ^ ... ^ dx_{ir}
    # in the given order; from_terms folds the sorting sign into c.
    n, indices = case
    product = Multivector.monomial(n, [indices[0]])
    for i in indices[1:]:
        product = wedge(product, Multivector.monomial(n, [i]))
    assert Multivector.from_terms(n, [(indices, c)]) == c * product
    if len(set(indices)) == len(indices):
        # independent reference: the parity of the inversions
        inversions = sum(a > b for k, a in enumerate(indices)
                         for b in indices[k + 1:])
        assert product == (-1) ** inversions * Multivector.monomial(
            n, sorted(indices))


@pytest.mark.parametrize("indices", [(1, 1, 9), (1, 2, 9), (0, 0, 1)])
def test_from_terms_rejects_out_of_range_index_even_if_repeated(indices):
    # the range check comes before a repeated index kills the term
    with pytest.raises(ValueError, match="out of range"):
        Multivector.from_terms(4, [(indices, 1)])


def test_wedge_above_top_degree_is_zero():
    a = Multivector.monomial(3, [1, 2])
    b = Multivector.monomial(3, [2, 3])
    assert wedge(a, b).is_zero()


def test_mixed_dimension_or_degree_rejected():
    with pytest.raises(ValueError):
        Multivector.monomial(3, [1]) + Multivector.monomial(4, [1])
    with pytest.raises(ValueError):
        Multivector.monomial(3, [1]) + Multivector.monomial(3, [1, 2])


def test_immutability():
    a = cayley_form()
    with pytest.raises(AttributeError):
        a.degree = 3


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(forms(6, 3))
def test_format_parse_round_trip(a):
    assert parse_form(format_form(a), a.dimension, a.degree) == a


def test_parse_form_examples():
    a = parse_form("+1 dx[1,2,3,4] -2/3 dx[5,6,7,8]", 8)
    assert a.coefficient([1, 2, 3, 4]) == 1
    assert a.coefficient([5, 6, 7, 8]) == Fraction(-2, 3)
    assert parse_form("0", 8, 4).is_zero()
    with pytest.raises(ValueError):
        parse_form("0", 8)  # zero literal needs an explicit degree
    with pytest.raises(ValueError):
        parse_form("1 dx[2,1]", 8)  # indices must be strictly increasing
    with pytest.raises(ValueError):
        parse_form("1 dx[1,2] 3 dx[1,2,3]", 8)  # mixed degrees


# ---------------------------------------------------------------------------
# distinguished forms
# ---------------------------------------------------------------------------

def test_cayley_form_basic_identities():
    phi = cayley_form()
    vol = volume_form(8)
    assert len(phi.terms) == 14
    assert all(abs(c) == 1 for _, c in phi.items())
    assert hodge_star(phi) == phi
    assert wedge(phi, phi) == 14 * vol
    assert inner(phi, phi) == 14


def test_g2_split_and_cylinder_lift():
    phi = cayley_form()
    phi3, psi4 = g2_split(phi)
    assert (phi3.dimension, phi3.degree) == (7, 3)
    assert (psi4.dimension, psi4.degree) == (7, 4)
    assert len(phi3.terms) == 7
    assert hodge_star(phi3) == psi4
    assert g2_phi() == phi3
    assert cylinder_form(phi3) == phi
    # 7-dimensional normalizations.
    vol7 = volume_form(7)
    assert wedge(phi3, psi4) == 7 * vol7
    assert inner(phi3, phi3) == 7


def test_su4_forms_reconstruct_the_cayley_form():
    omega, re_theta, im_theta = su4_forms()
    phi = cayley_form()
    vol = volume_form(8)
    assert Fraction(1, 2) * wedge(omega, omega) + re_theta == phi
    om4 = wedge(wedge(omega, omega), wedge(omega, omega))
    assert om4 == 24 * vol
    assert 3 * (wedge(re_theta, re_theta)
                + wedge(im_theta, im_theta)) == 2 * om4
    assert wedge(re_theta, re_theta) == wedge(im_theta, im_theta)
    assert wedge(re_theta, im_theta).is_zero()
    assert inner(omega, omega) == 4


def test_kaehler_form_eigenvalue():
    omega, _, _ = su4_forms()
    assert hodge_star(wedge(cayley_form(), omega)) == 3 * omega
