"""Exact type decompositions, stabilizers, and cylinder parameterizations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin7 import splits
from spin7.forms import (Multivector, cayley_form, contract, g2_phi,
                         hodge_star, inner, su4_forms, volume_form, wedge)


PHI = cayley_form()


def _orthogonal_blocks(split):
    for la in split.labels:
        for lb in split.labels:
            if la == lb:
                continue
            for a in split.basis(la):
                for b in split.basis(lb):
                    assert inner(a, b) == 0


def _projections_resolve_identity(split, sample):
    total = Multivector.zero(sample.dimension, sample.degree)
    for label in split.labels:
        total = total + split.project(label, sample)
    assert total == sample


def test_two_form_split():
    split = splits.two_form_split(PHI)
    assert split.ranks == (7, 21)
    assert split.labels == ("7", "21")
    _orthogonal_blocks(split)
    # Blocks are exact eigenspaces of alpha -> *(Phi ^ alpha).
    for label, eigenvalue in (("7", 3), ("21", -1)):
        for alpha in split.basis(label):
            assert hodge_star(wedge(PHI, alpha)) == eigenvalue * alpha
    sample = Multivector.from_terms(
        8, [((1, 2), Fraction(2)), ((3, 7), Fraction(-1, 3)),
            ((5, 6), Fraction(1))])
    _projections_resolve_identity(split, sample)


def test_rank_21_block_is_the_cayley_stabilizer_algebra():
    split = splits.two_form_split(PHI)
    stab = splits.stabilizer_dimension(PHI)
    # Convert each stabilizer element (antisymmetric part) to a 2-form and
    # check it projects trivially to the rank-7 block.
    for A in stab.basis:
        alpha = Multivector.from_terms(
            8, [((i + 1, j + 1), A[i][j] - A[j][i])
                for i in range(8) for j in range(i + 1, 8)])
        if alpha.is_zero():
            continue
        assert split.project("7", alpha).is_zero()


def test_three_form_split():
    split = splits.three_form_split(PHI)
    assert split.ranks == (8, 48)
    _orthogonal_blocks(split)
    # The rank-8 block is spanned by contractions of the Cayley form.
    span = split.basis("8")
    for i in range(1, 9):
        gamma = contract(i, PHI)
        assert split.project("8", gamma) == gamma
    assert len(span) == 8


def test_four_form_split():
    split = splits.four_form_split(PHI)
    assert split.ranks == (1, 7, 27, 35)
    _orthogonal_blocks(split)
    assert split.basis("1") == (PHI,)
    for b in split.basis("35"):
        assert hodge_star(b) == -1 * b
    for label in ("1", "7", "27"):
        for b in split.basis(label):
            assert hodge_star(b) == b
    sample = Multivector.from_terms(
        8, [((1, 2, 3, 4), Fraction(1)), ((1, 2, 5, 7), Fraction(-2)),
            ((2, 4, 6, 8), Fraction(1, 5))])
    _projections_resolve_identity(split, sample)


def test_four_form_split_rejects_non_self_dual_input():
    bad = Multivector.monomial(8, [1, 2, 3, 4])
    with pytest.raises(splits.AdmissibilityError):
        splits.four_form_split(bad)


def test_su4_refinement_of_the_two_form_split():
    omega, re_theta, _ = su4_forms()
    refinement = splits.su4_two_form_refinement(omega, re_theta)
    assert refinement.ranks == (1, 6, 6, 15)
    _orthogonal_blocks(refinement)
    assert refinement.basis("1") == (omega,)
    # The 6 +/- blocks are the +-2 eigenspaces of alpha -> *(alpha ^ Re theta).
    for label, eigenvalue in (("6+", 2), ("6-", -2)):
        for alpha in refinement.basis(label):
            assert hodge_star(wedge(alpha, re_theta)) == eigenvalue * alpha
    # The refinement is compatible with the rank-(7, 21) split:
    # 7 = 1 + 6+,  21 = 6- + 15.
    split = splits.two_form_split(cayley_form())
    for label in ("1", "6+"):
        for alpha in refinement.basis(label):
            assert split.project("21", alpha).is_zero()
    for label in ("6-", "15"):
        for alpha in refinement.basis(label):
            assert split.project("7", alpha).is_zero()


def test_stabilizer_dimensions():
    assert splits.stabilizer_dimension(PHI).dim == 21
    assert splits.stabilizer_dimension(g2_phi()).dim == 14
    assert splits.stabilizer_dimension(volume_form(8)).dim == 63  # sl(8)


def _wedged_contractions(A, form):
    """sum_j dx_j ^ (A[:, j] -| form): the derivation dx_i -> sum_j A[i][j]
    dx_j, computed without the action matrix."""
    n = form.dimension
    out = Multivector.zero(n, form.degree)
    for j in range(n):
        column = [A[i][j] for i in range(n)]
        out = out + wedge(Multivector.monomial(n, [j + 1]),
                          contract(column, form))
    return out


def _rotated_cayley_form(perm, signs, planes):
    """g.Phi for g = R2 R1 P: P the signed permutation dx_i -> signs[i]
    dx_perm[i] of determinant +1, R1 and R2 the exact rotations with
    (cos, sin) = (3/5, 4/5) and (5/13, 12/13) in the two given planes."""
    inversions = sum(perm[a] > perm[b]
                     for a, b in itertools.combinations(range(8), 2))
    assert (-1) ** (inversions + signs.count(-1)) == 1  # det P = +1
    g = [[Fraction(signs[i]) if j == perm[i] else Fraction(0)
          for j in range(8)] for i in range(8)]
    for (cos, sin), (i, j) in zip(((Fraction(3, 5), Fraction(4, 5)),
                                   (Fraction(5, 13), Fraction(12, 13))),
                                  planes):
        r = [[Fraction(int(a == b)) for b in range(8)] for a in range(8)]
        r[i][i] = r[j][j] = cos
        r[i][j], r[j][i] = sin, -sin
        g = [[sum(r[a][k] * g[k][b] for k in range(8)) for b in range(8)]
             for a in range(8)]
    images = [Multivector(8, 1, {1 << j: g[i][j] for j in range(8)})
              for i in range(8)]
    out = Multivector.zero(8, 4)
    for mask, coeff in PHI.terms.items():
        term = Multivector(8, 0, {0: coeff})
        for i in range(8):
            if mask >> i & 1:
                term = wedge(term, images[i])
        out = out + term
    return out


ROTATED = [_rotated_cayley_form(*case) for case in (
    ([1, 0, 2, 3, 4, 5, 6, 7], [-1, 1, 1, 1, 1, 1, 1, 1], [(0, 4), (2, 7)]),
    ([7, 6, 5, 4, 3, 2, 1, 0], [1, -1, 1, 1, 1, -1, 1, 1], [(1, 2), (3, 6)]),
    ([2, 3, 4, 5, 6, 7, 0, 1], [-1, 1, 1, -1, 1, -1, -1, 1], [(0, 1), (5, 7)]),
)]


@pytest.mark.parametrize("form", ROTATED, ids=["g1", "g2", "g3"])
def test_stabilizer_and_four_form_split_of_a_rotated_cayley_form(form):
    assert len(form.terms) > len(PHI.terms)  # the rotations mix terms
    assert any(c.denominator > 1 for c in form.terms.values())
    stab = splits.stabilizer_dimension(form)
    assert stab.dim == 21
    for A in stab.basis:
        assert _wedged_contractions(A, form).is_zero()
    assert splits.four_form_split(form).ranks == (1, 7, 27, 35)


def test_infinitesimal_action_is_a_derivation():
    A = [[Fraction(0)] * 8 for _ in range(8)]
    A[0][1] = Fraction(1)
    A[2][2] = Fraction(-2)
    a = Multivector.monomial(8, [1, 3])
    b = Multivector.monomial(8, [2, 5])
    lhs = splits.infinitesimal_action(A, wedge(a, b))
    rhs = (wedge(splits.infinitesimal_action(A, a), b)
           + wedge(a, splits.infinitesimal_action(A, b)))
    assert lhs == rhs


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def matrices_and_forms(draw):
    n = draw(st.integers(min_value=4, max_value=8))
    r = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        A = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    else:  # an elementary matrix E_ij
        i, j = (draw(st.integers(min_value=0, max_value=n - 1))
                for _ in range(2))
        A = [[Fraction(int((a, b) == (i, j))) for b in range(n)]
             for a in range(n)]
    terms = draw(st.lists(
        st.tuples(st.sets(st.integers(min_value=1, max_value=n),
                          min_size=r, max_size=r).map(sorted), rationals),
        max_size=8))
    form = (Multivector.from_terms(n, terms) if terms
            else Multivector.zero(n, r))
    return A, form


@settings(max_examples=80, deadline=None)
@given(matrices_and_forms())
def test_infinitesimal_action_is_sum_of_wedged_contractions(case):
    # dx_i -> sum_j A[i][j] dx_j acting as a derivation is
    # sum_j dx_j ^ (A[:, j] -| form), with column j of A as the vector.
    A, form = case
    assert splits.infinitesimal_action(A, form) == _wedged_contractions(
        A, form)


def test_cylinder_two_form_types():
    cyl = splits.cylinder_two_form_types(splits.two_form_split(PHI))
    assert cyl.split.ranks == (7, 21)
    assert cyl.iso_scale == 3
    _orthogonal_blocks(cyl.split)
    # Eigenvalue property with respect to the lifted Cayley form.
    for label, eigenvalue in (("7", 3), ("21", -1)):
        for alpha in cyl.split.basis(label):
            assert hodge_star(wedge(PHI, alpha)) == eigenvalue * alpha


def test_cylinder_two_form_types_rejects_a_non_cylinder_form():
    # the split's 4-form with dx_1 reversed is dt ^ (-phi) + *phi, which is
    # not the cylinder form dt ^ (-phi) - *phi of its dt factor
    split = splits.two_form_split(PHI)
    flipped = Multivector(8, 4, {m: -c if m & 1 else c
                                 for m, c in PHI.terms.items()})
    with pytest.raises(splits.AdmissibilityError, match="cylinder form"):
        splits.cylinder_two_form_types(
            splits.TypeSplit(8, 2, flipped, split.blocks))


def test_type_split_rejects_unknown_label():
    split = splits.two_form_split(PHI)
    with pytest.raises(KeyError):
        split.basis("99")
