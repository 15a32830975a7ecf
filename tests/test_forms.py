"""Exact multivector arithmetic and the distinguished forms."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin7 import forms as forms_module
from spin7 import splits
from spin7.forms import (Multivector, cayley_form, contract, cylinder_form,
                         format_form, g2_phi, g2_split, hodge_star, inner,
                         merge_sign, parse_form, su4_forms, volume_form,
                         wedge)


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


# ---------------------------------------------------------------------------
# oracles: the int accumulation of from_terms and the table-read signs
# ---------------------------------------------------------------------------

def _from_terms_by_fractions(n, entries):
    """``from_terms`` as a Fraction sum per mask, through the public
    constructor, with the sign of sorting as a product of merge_signs."""
    acc, degree = {}, None
    for indices, coeff in entries:
        degree = len(indices)
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError(f"index {i} out of range 1..{n}")
        if len(set(indices)) != len(indices):
            continue
        sign, mask = 1, 0
        for i in indices:
            sign *= merge_sign(mask, 1 << (i - 1))
            mask |= 1 << (i - 1)
        acc[mask] = acc.get(mask, Fraction(0)) + sign * Fraction(coeff)
    return Multivector(n, degree, acc)


@st.composite
def term_lists(draw):
    """(n, entries): index tuples of one length, unsorted and possibly
    repeated, with int, Fraction or mixed coefficients."""
    n = draw(st.integers(min_value=1, max_value=9))
    r = draw(st.integers(min_value=1, max_value=n))
    coefficient = draw(st.sampled_from([
        st.integers(min_value=-6, max_value=6),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        st.one_of(st.integers(min_value=-6, max_value=6),
                  st.fractions(min_value=-5, max_value=5,
                               max_denominator=6))]))
    entries = draw(st.lists(st.tuples(
        st.lists(st.integers(min_value=1, max_value=n), min_size=r,
                 max_size=r), coefficient), min_size=1, max_size=10))
    return n, entries


@settings(max_examples=120, deadline=None)
@given(term_lists())
def test_from_terms_accumulates_the_fraction_sum(case):
    n, entries = case
    built = Multivector.from_terms(n, entries)
    oracle = _from_terms_by_fractions(n, entries)
    assert built == oracle
    assert (built.numerators, built.denominator) == (oracle.numerators,
                                                     oracle.denominator)
    assert _in_lowest_terms(built)


def test_named_forms_equal_their_fraction_construction():
    omega, re_theta, im_theta = su4_forms()
    for form, terms in [(cayley_form(), forms_module._CAYLEY_TERMS),
                        (omega, [((1, 2), 1), ((3, 4), 1), ((5, 6), 1),
                                 ((7, 8), 1)])]:
        assert form == _from_terms_by_fractions(8, terms)
        assert form.denominator == 1
    # (dx1 + i dx2)(dx3 + i dx4)(dx5 + i dx6)(dx7 + i dx8), term by term
    re_terms, im_terms = [], []
    for picks in range(16):
        indices = [2 * j + 1 + (picks >> j & 1) for j in range(4)]
        k = bin(picks).count("1")
        (re_terms if k % 2 == 0 else im_terms).append(
            (indices, (-1) ** (k // 2)))
    assert re_theta == _from_terms_by_fractions(8, re_terms)
    assert im_theta == _from_terms_by_fractions(8, im_terms)


def test_star_sign_table_is_merge_sign():
    for n in range(1, 10):
        full = (1 << n) - 1
        assert forms_module._star_negated(n) == tuple(
            merge_sign(m, full ^ m) < 0 for m in range(1 << n))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))
).flatmap(lambda nr: st.tuples(
    st.just(nr), st.dictionaries(
        st.sampled_from(splits.monomial_masks(*nr)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=12))))
def test_star_and_contraction_signs_are_merge_signs(case):
    (n, r), terms = case
    a = Multivector(n, r, terms)
    full = (1 << n) - 1
    assert hodge_star(a) == Multivector(n, n - r, {
        full ^ m: merge_sign(m, full ^ m) * c for m, c in a.terms.items()})
    if r:
        for k in range(1, n + 1):
            bit = 1 << (k - 1)
            assert contract(k, a) == Multivector(n, r - 1, {
                m ^ bit: merge_sign(bit, m ^ bit) * c
                for m, c in a.terms.items() if m & bit})


def test_contraction_signs_on_every_monomial_of_r8():
    for m in range(1, 1 << 8):
        a = Multivector(8, m.bit_count(), {m: 1})
        for k in range(1, 9):
            bit = 1 << (k - 1)
            expected = (Multivector(8, a.degree - 1, {
                m ^ bit: merge_sign(bit, m ^ bit)}) if m & bit
                else Multivector.zero(8, a.degree - 1))
            assert contract(k, a) == expected
            vector = [int(j == k) for j in range(1, 9)]
            assert contract(vector, a) == expected


@pytest.mark.parametrize("index", [0, 9, -1, -8])
def test_contract_rejects_a_basis_index_out_of_range(index):
    with pytest.raises(ValueError, match=r"basis index -?\d+ out of range "
                                         r"1\.\.8"):
        contract(index, cayley_form())


@pytest.mark.parametrize("index", [np.int64(3), np.int8(3), np.uint16(3)])
def test_contract_takes_any_integral_basis_index(index):
    phi = cayley_form()
    assert contract(index, phi) == contract(3, phi)


@pytest.mark.parametrize("flag", [True, False])
def test_contract_rejects_a_bool_basis_index(flag):
    # True == 1, but a flag is not an index: it must not contract with dx_1
    with pytest.raises(TypeError, match="is a bool, not an int"):
        contract(flag, cayley_form())


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
    # the public constructor and the trusted one (behind wedge) fill the
    # slots past __setattr__, which still refuses every assignment
    e1, e2 = Multivector.monomial(4, [1]), Multivector.monomial(4, [2])
    for a in (Multivector(4, 2, {3: Fraction(1, 2)}), cayley_form(),
              wedge(e1, e2)):
        for field in Multivector.__slots__:
            before = getattr(a, field)
            with pytest.raises(AttributeError, match="immutable"):
                setattr(a, field, 3)
            assert getattr(a, field) == before


class _Tagged(Fraction):
    """A Fraction subclass, which a form must not keep as it is."""


@pytest.mark.parametrize("kind", [int, Fraction, _Tagged])
def test_coefficients_are_stored_as_fractions(kind):
    # stored as int numerators over one denominator; ``terms`` is the
    # Fraction view of them
    a = Multivector(4, 2, {0b0011: kind(2), 0b0101: kind(0),
                           0b1100: kind(-3)})
    assert a.terms == {0b0011: 2, 0b1100: -3}  # the zero is dropped
    assert all(type(c) is Fraction for c in a.terms.values())
    assert (a.numerators, a.denominator) == ({0b0011: 2, 0b1100: -3}, 1)
    assert all(type(x) is int for x in [*a.numerators.values(),
                                        a.denominator])
    sixth = a / kind(6)  # 1/3 and -1/2, over the lcm of 3 and 2
    assert (sixth.numerators, sixth.denominator) == (
        {0b0011: 2, 0b1100: -3}, 6)
    assert sixth.terms == {0b0011: Fraction(1, 3), 0b1100: Fraction(-1, 2)}
    assert all(type(c) is Fraction for c in sixth.terms.values())


def test_from_coords_reads_sparse_rows():
    # columns are masks, in any order, numerators over a shared,
    # unreduced denominator
    a = splits.from_coords(([(0b1100, 10), (0b0011, 7), (0b0110, -42)], 14),
                           4, 2)
    assert a == Multivector(4, 2, {0b0011: Fraction(1, 2), 0b0110: -3,
                                   0b1100: Fraction(5, 7)})
    assert all(type(c) is Fraction for c in a.terms.values())
    entries, d = splits.to_coords(a)
    assert (sorted(entries), d) == ([(0b0011, 7), (0b0110, -42),
                                     (0b1100, 10)], 14)
    assert splits.from_coords(splits.to_coords(a), 4, 2) == a


def _checked(a):
    """The same terms passed through the public constructor."""
    return Multivector(a.dimension, a.degree, dict(a.terms))


@settings(max_examples=60, deadline=None)
@given(forms(4, 1), forms(4, 2), forms(4, 2),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_operation_results_equal_the_checked_construction(a, b, c, s):
    # b - b, b + (-b) and a ^ a cancel every term; s may be 0
    results = [wedge(a, b), wedge(a, a), wedge(b, c), hodge_star(b),
               contract(1, b), contract([1, 0, Fraction(1, 2), -2], b),
               b + c, b + (-b), b - c, b - b, s * b, -c,
               splits.from_coords(splits.to_coords(c), 4, 2)]
    for r in results:
        checked = _checked(r)
        assert r == checked and hash(r) == hash(checked)
        assert r.terms == checked.terms
        assert all(type(x) is Fraction and x for x in r.terms.values())
        assert all(0 <= m < 1 << r.dimension and m.bit_count() == r.degree
                   for m in r.terms)


def _in_lowest_terms(a) -> bool:
    """Nonzero int numerators over a positive int denominator, gcd 1."""
    return (all(type(x) is int and x for x in a.numerators.values())
            and type(a.denominator) is int and a.denominator > 0
            and math.gcd(a.denominator, *a.numerators.values()) == 1)


@settings(max_examples=60, deadline=None)
@given(forms(4, 1), forms(4, 2), forms(4, 2),
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.integers(min_value=1, max_value=12))
def test_forms_are_int_numerators_in_lowest_terms(a, b, c, s, k):
    results = [wedge(a, b), wedge(a, a), wedge(b, c), hodge_star(b),
               contract(1, b), contract(3, c),
               contract([1, 0, Fraction(1, 2), -2], b), inner(b, c) * b,
               b + c, b + (-b), b - c, s * b, -c, b / 3, *g2_split(
                   cylinder_form(wedge(g2_phi(), Multivector.scalar(7, s)))),
               splits.from_coords(splits.to_coords(c), 4, 2)]
    assert all(_in_lowest_terms(r) for r in results)
    # equal forms built by different routes have equal fields and hashes
    entries, d = splits.to_coords(b)
    unreduced = ([(j, k * x) for j, x in entries], k * d)
    for route in [(3 * b) / 3, b + c - c, c + b - c,
                  splits.from_coords(unreduced, 4, 2)]:
        assert route == b and hash(route) == hash(b)
        assert (route.numerators, route.denominator) == (b.numerators,
                                                         b.denominator)


@pytest.mark.parametrize("terms", [
    {1 << 4: 1},            # dx_5 does not exist on R^4
    {-1: 1},
    {0b0111: 1},            # a 3-form mask in a 2-form
    {0b0001: 1},
])
def test_public_constructor_rejects_invalid_masks(terms):
    with pytest.raises(ValueError):
        Multivector(4, 2, terms)


@pytest.mark.parametrize("coeff", [1j, float("nan"), "x", None])
def test_public_constructor_rejects_non_rational_coefficients(coeff):
    with pytest.raises((TypeError, ValueError)):
        Multivector(4, 2, {0b0011: coeff})


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


@pytest.mark.parametrize("text", ["", "  \n"])
@pytest.mark.parametrize("degree", [None, 2])
def test_parse_form_rejects_a_blank_literal(text, degree):
    # the grammar is "0" | term+: a blank literal is not the zero form
    with pytest.raises(ValueError, match="bad form literal"):
        parse_form(text, 8, degree)


@pytest.mark.parametrize("text, term", [
    ("1/0 dx[1]", "1/0 dx[1]"),
    ("+1 dx[1,,2]", "+1 dx[1,,2]"),
    ("+1 dx[1,]", "+1 dx[1,]"),
    ("+1 dx[1,2] -1/0 dx[1,3]", "-1/0 dx[1,3]"),
])
def test_parse_form_names_a_malformed_term(text, term):
    # a zero denominator or an empty index is a bad literal, not an
    # arithmetic or int() error
    with pytest.raises(ValueError, match=re.escape(
            f"bad form literal term: {term!r}")):
        parse_form(text, 3)


@pytest.mark.parametrize("text, degree, message", [
    ("1 dx[1]", 2, "term '1 dx[1]' has degree 1, not the stated degree 2"),
    ("1 dx[1]", 5, "degree 5 out of range 0..3"),
    ("1 dx[1]", -1, "degree -1 out of range 0..3"),
    ("0", 5, "degree 5 out of range 0..3"),
    ("1 dx[1,2] -1 dx[3]", 2,
     "term '-1 dx[3]' has degree 1, not the stated degree 2"),
    ("1 dx[1,2] -1 dx[3]", None, "mixed degrees in form literal"),
])
def test_parse_form_names_the_degrees_that_disagree(text, degree, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_form(text, 3, degree)


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
