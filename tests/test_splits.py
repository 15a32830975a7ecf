"""Exact type decompositions, stabilizers, and cylinder parameterizations."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin7 import linalg, splits
from spin7.forms import (Multivector, cayley_form, contract, cylinder_form,
                         g2_phi, hodge_star, inner, su4_forms, volume_form,
                         wedge)


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


def _matrix(row, n):
    """The n x n matrix of a stabilizer row, whose column i*n + j holds
    entry (i, j)."""
    flat = linalg.dense(row, n * n)
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def test_rank_21_block_is_the_cayley_stabilizer_algebra():
    split = splits.two_form_split(PHI)
    stab = splits.stabilizer_dimension(PHI)
    # Convert each stabilizer element (antisymmetric part) to a 2-form and
    # check it projects trivially to the rank-7 block.
    for A in (_matrix(row, 8) for row in stab.basis):
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
    for form, dim in ((PHI, 21), (g2_phi(), 14),
                      (volume_form(8), 63)):  # sl(8)
        stab = splits.stabilizer_dimension(form)
        assert stab.dim == len(stab.basis) == dim
        for row in stab.basis:
            A = _matrix(row, form.dimension)
            assert splits.infinitesimal_action(A, form).is_zero()


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


def _rotation(perm, signs, planes):
    """g = R2 R1 P in SO(n), n = len(perm): P the signed permutation
    dx_i -> signs[i] dx_perm[i] of determinant +1, R1 and R2 the exact
    rotations with (cos, sin) = (3/5, 4/5) and (5/13, 12/13) in the two
    given planes."""
    n = len(perm)
    inversions = sum(perm[a] > perm[b]
                     for a, b in itertools.combinations(range(n), 2))
    assert (-1) ** (inversions + signs.count(-1)) == 1  # det P = +1
    g = [[Fraction(signs[i]) if j == perm[i] else Fraction(0)
          for j in range(n)] for i in range(n)]
    for (cos, sin), (i, j) in zip(((Fraction(3, 5), Fraction(4, 5)),
                                   (Fraction(5, 13), Fraction(12, 13))),
                                  planes):
        r = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
        r[i][i] = r[j][j] = cos
        r[i][j], r[j][i] = sin, -sin
        g = [[sum(r[a][k] * g[k][b] for k in range(n)) for b in range(n)]
             for a in range(n)]
    return g


def _rotated_cayley_form(perm, signs, planes):
    """g.Phi for g = ``_rotation(perm, signs, planes)`` in SO(8)."""
    return _act(_rotation(perm, signs, planes), PHI)


def _act(g, form):
    """g.form: the substitution dx_i -> sum_j g[i][j] dx_j."""
    n = form.dimension
    images = [Multivector(n, 1, {1 << j: g[i][j] for j in range(n)})
              for i in range(n)]
    out = Multivector.zero(n, form.degree)
    for mask, coeff in form.terms.items():
        term = Multivector(n, 0, {0: coeff})
        for i in range(n):
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
    for row in stab.basis:
        assert _wedged_contractions(_matrix(row, 8), form).is_zero()
    assert splits.four_form_split(form).ranks == (1, 7, 27, 35)


@st.composite
def cayley_transforms(draw):
    """g = (I - A)(I + A)^-1 for a skew A with entries p/q, |p| <= h and
    1 <= q <= h, h <= 2: a rational rotation of determinant +1 whose g.Phi
    is generically dense, unlike the signed permutations and plane
    rotations above."""
    h = draw(st.integers(1, 2))
    entry = st.builds(Fraction, st.integers(-h, h), st.integers(1, h))
    A = [[Fraction(0)] * 8 for _ in range(8)]
    for i, j in itertools.combinations(range(8), 2):
        A[i][j] = draw(entry)
        A[j][i] = -A[i][j]
    identity = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
    plus = [[e + a for e, a in zip(*rows)] for rows in zip(identity, A)]
    minus = [[e - a for e, a in zip(*rows)] for rows in zip(identity, A)]
    # I + A is invertible for skew A: the right half of the reduced
    # [I + A | I] is its inverse
    reduced, _ = linalg.rref([left + right
                              for left, right in zip(plus, identity)])
    inverse = [r[8:] for r in reduced]
    return [[sum((m[k] * inverse[k][j] for k in range(8)), Fraction(0))
             for j in range(8)] for m in minus]


def _spans_the_images(g, block, images_of):
    """The block spans the g-images of ``images_of``, a basis of the
    same dimension."""
    images = [_act(g, a) for a in images_of]
    rows = [splits.to_coords(a) for a in (*block, *images)]
    assert len(block) == len(images) == len(linalg.echelon(rows)[1])


@settings(max_examples=8, deadline=None)
@given(cayley_transforms())
def test_splits_of_a_generic_rotation_are_the_rotated_cayley_splits(g):
    phi = _act(g, PHI)
    assert splits.stabilizer_dimension(phi).dim == 21
    for split, ranks in ((splits.two_form_split, (7, 21)),
                         (splits.three_form_split, (8, 48)),
                         (splits.four_form_split, (1, 7, 27, 35))):
        rotated, cayley = split(phi), split(PHI)
        assert rotated.ranks == ranks
        for label in rotated.labels:
            _spans_the_images(g, rotated.basis(label), cayley.basis(label))


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
    cyl = splits.cylinder_two_form_types(g2_phi())
    assert cyl.split.phi == PHI
    assert cyl.split.ranks == (7, 21)
    assert cyl.iso_scale == 3
    _orthogonal_blocks(cyl.split)
    # Eigenvalue property with respect to the lifted Cayley form.
    for label, eigenvalue in (("7", 3), ("21", -1)):
        for alpha in cyl.split.basis(label):
            assert hodge_star(wedge(PHI, alpha)) == eigenvalue * alpha


def _doubled(row):
    entries, d = row
    return [(k, 2 * x) for k, x in entries], d


@pytest.mark.parametrize("mutate,message", [
    # a -1-eigenvector among the rank-7 rows
    pytest.param(lambda seven, twentyone, hats:
                 seven.__setitem__(0, twentyone[0]),
                 "rank-7 parameterization leaves the eigenspace split",
                 id="rank-7-row-leaves"),
    # a repeated 3-eigenvector: every row in its block, rank 6
    pytest.param(lambda seven, twentyone, hats:
                 seven.__setitem__(1, _doubled(seven[0])),
                 "rank-7 parameterization is degenerate", id="degenerate"),
    pytest.param(lambda seven, twentyone, hats:
                 twentyone.__setitem__(0, seven[0]),
                 "rank-21 parameterization leaves the eigenspace split",
                 id="rank-21-row-leaves"),
    # the hat of e_1 -| phi gains a dx_2 term
    pytest.param(lambda seven, twentyone, hats:
                 hats.__setitem__(0, (hats[0][0] + [(2, 1)], hats[0][1])),
                 "contraction map is not a multiple of the metric dual",
                 id="not-the-dual"),
    pytest.param(lambda seven, twentyone, hats:
                 hats.__setitem__(0, _doubled(hats[0])),
                 "contraction map scale differs between directions",
                 id="scale-differs"),
])
def test_cylinder_types_name_each_failed_check(monkeypatch, mutate, message):
    # _cylinder_rows returns its rows after ``mutate`` changed them in place
    cylinder_rows = splits._cylinder_rows

    def mutated(phi):
        rows = cylinder_rows(phi)
        mutate(*rows)
        return rows

    monkeypatch.setattr(splits, "_cylinder_rows", mutated)
    with pytest.raises(splits.AdmissibilityError) as error:
        splits.cylinder_two_form_types(g2_phi())
    assert str(error.value) == message


def test_cylinder_types_take_a_three_form_on_r7():
    with pytest.raises(ValueError, match="3-form on R\\^7"):
        splits.cylinder_two_form_types(PHI)


@pytest.mark.parametrize("seed", range(3))
def test_cylinder_types_of_a_rotated_g2_form(seed):
    # g.phi for g in SO(7) is a G2 form of the same metric, so its cylinder
    # types are the 2-form split of its cylinder form
    phi = _act(_seeded_rotation(seed, 7), g2_phi())
    assert len(phi.terms) > len(g2_phi().terms)  # the rotations mix terms
    cyl = splits.cylinder_two_form_types(phi)
    assert cyl.iso_scale == 3
    split = splits.two_form_split(cylinder_form(phi))
    assert cyl.split.basis("21") == split.basis("21")
    for b in cyl.split.basis("7"):
        assert split.project("21", b).is_zero()


def test_type_split_rejects_unknown_label():
    split = splits.two_form_split(PHI)
    with pytest.raises(KeyError):
        split.basis("99")


def _sha256(rows) -> str:
    """Digest of a basis given as rows of (index, exact coefficient)."""
    text = repr([[(k, str(c)) for k, c in row] for row in rows])
    return hashlib.sha256(text.encode()).hexdigest()


def _bases(subject):
    """Label -> basis (as rows) of every split block and stabilizer basis
    computed for one subject."""
    def forms(split, name):
        return {f"{name} {label}": [sorted(b.terms.items()) for b in basis]
                for label, _, basis in split.blocks}

    def stabilizer(form):
        return {"stabilizer": [
            [(k, Fraction(x, d)) for k, x in sorted(entries)]
            for entries, d in splits.stabilizer_dimension(form).basis]}

    if subject == "g2_phi":
        cylinder = splits.cylinder_two_form_types(g2_phi())
        return {**stabilizer(g2_phi()), **forms(cylinder.split, "cylinder")}
    if subject == "su4":
        omega, re_theta, _ = su4_forms()
        return forms(splits.su4_two_form_refinement(omega, re_theta), "su4")
    phi = {"cayley": PHI, "g1": ROTATED[0], "g2": ROTATED[1],
           "g3": ROTATED[2]}[subject]
    return {**forms(splits.two_form_split(phi), "2-form"),
            **forms(splits.three_form_split(phi), "3-form"),
            **forms(splits.four_form_split(phi), "4-form"),
            **stabilizer(phi)}


# sha256 of every basis above, recorded with the Fraction elimination
# kernel: a change of kernel must leave every basis exactly the same
BASIS_SHA256 = {
    "cayley": {
        "2-form 7":
            "06027fffe237154616493581467f651abba23a9a67212f0126ba073c67885d07",
        "2-form 21":
            "2f394677f11d4e00b8db20ddfe143d463a4facb3a3b22e1224bbc2579cb60c0c",
        "3-form 8":
            "3d93a76c670a8c11a674d0355a97930fab676b15fa4e6b077ee91322633f56a1",
        "3-form 48":
            "cc77b38a57553114f3d5a3019c28c195db05113b031d0f431bc0b6a2d6ff2c9b",
        "4-form 1":
            "71d64b23cb633925d9ecd176f49c8c5dc65481d1eaa33a554f404bc25b1a04bd",
        "4-form 7":
            "a4b4f98398e1eb96717b6fff00ad70f360986670053fd44da65591a7f2524059",
        "4-form 27":
            "1ab7829330b61cab7e905493c09ec0bac6384e74e139afb54d28db7f3376d8fa",
        "4-form 35":
            "aeedf9264efd9645e9ab8ca8c637a601b590c22c5c85e924c03c1ce294915235",
        "stabilizer":
            "4cf31ff3787fc3eb71d53b7d4f3d0d3a2126968ffb728a384fd2f373653c578d",
    },
    "g1": {
        "2-form 7":
            "394870a40df0b0b55f0add464db846cc8b8c600122f37a3f91c258b204302600",
        "2-form 21":
            "6621090dfc7a4c81b03f2973e5d2981e1d590f37c183c1349c8d7653fedb2121",
        "3-form 8":
            "93c0086b5e254b0e177a17ef22e356040247955514dc35d43650b7d1332e51fc",
        "3-form 48":
            "ddf009c99c28d54e8acb0711fad36a79bd5d29773ca18204f29d4700581b513a",
        "4-form 1":
            "a17c4c30cd547f14e372814449a6bac1675c22bbbf79df28d29976475120567c",
        "4-form 7":
            "e860055b3c23f3b6d9e6ebb2cf783823bc52dbe66ae348ca8079f5e81b98e91d",
        "4-form 27":
            "00af2121dd2373f2e5add588c9a1cddd7dea7967d6df815822464ef444eac0b8",
        "4-form 35":
            "aeedf9264efd9645e9ab8ca8c637a601b590c22c5c85e924c03c1ce294915235",
        "stabilizer":
            "91355e888624d4188313e910afb82cd4cf7412572339c7cb9a8ae599fc5f43bf",
    },
    "g2": {
        "2-form 7":
            "22721a53395c971079aaeeff77dec12aa14baeb1ea37ac1ec9104b52f9d67ddf",
        "2-form 21":
            "ae907dc00ae9f920425c8f23297f7e6916c12d1f0cc41684d162deeff3a4a441",
        "3-form 8":
            "1a1862bac640bcda6b7068fe25ec4ad7197e4bce7cc15d039fe241031cf7e2b6",
        "3-form 48":
            "0bf236daed46e843ad501849d59c1da13a3949206507e404953d8ee83d0bc42b",
        "4-form 1":
            "c566d29f4ac970b0abf7f9ae4e263b87ef7c0cf2e6efbca822825c65c0515740",
        "4-form 7":
            "b3431225ee3156c08778d7b28a1e6a57eb56ebb5e9cc289a9ad9864cab683d97",
        "4-form 27":
            "bf92a089f174c701d178c1c078e82599881d3ca9258f559e2c1722966dc54e73",
        "4-form 35":
            "aeedf9264efd9645e9ab8ca8c637a601b590c22c5c85e924c03c1ce294915235",
        "stabilizer":
            "f84da88bee9de54fbd8687b973f3a698f60a783029e6766e14a5416084d86a89",
    },
    "g3": {
        "2-form 7":
            "7555691b26d6322e6a6d57174a1acc48ced892442b8ccb4ef838636d565c2e87",
        "2-form 21":
            "cd67d386ba14a48c51948a5dfdae19bf8759cb3103b7ceb0f2350efac5a25ac2",
        "3-form 8":
            "3db594e817cf88569cdc7feea51e8ed4acd25eb2bd406f1ac721a18202825080",
        "3-form 48":
            "4d3cc22c130f92653d75ca5a8e9ed67402c9755e1095993cb0e4b47c2dcbef02",
        "4-form 1":
            "c4499c677b822d0c92462065faf924aec232f9ef4ba63f5f40172dc2ddce0858",
        "4-form 7":
            "838ea8a95556af1727628d8dc36ba30a752287c47e03dcec3e3f5ac2ed2ce750",
        "4-form 27":
            "37ccd76357b167209c5196f14198599360f22cce11b1175e4f47dd70674188f1",
        "4-form 35":
            "aeedf9264efd9645e9ab8ca8c637a601b590c22c5c85e924c03c1ce294915235",
        "stabilizer":
            "c9169ca45ccb1fe46cef216efd258a1d2e590a8f4bd7978c7a5bd85dcd953f8f",
    },
    "g2_phi": {
        "stabilizer":
            "1205fbe1e6b3088b48b71869b7042adbccec34fdc2c35e37bc9e3ad7a12b55ba",
        "cylinder 7":
            "8f1d732acac6fb3812656e222c0035b92a124deb584a92a4215dc86cf570aaeb",
        "cylinder 21":
            "2f394677f11d4e00b8db20ddfe143d463a4facb3a3b22e1224bbc2579cb60c0c",
    },
    "su4": {
        "su4 1":
            "5361fe13e0b22babc5815e95f1102f6725416121e383fd4c0d720bb3a3fcf1be",
        "su4 6+":
            "cf0f75854d691f01a0e9ef3935b8bb98689c0fa83762be448b66b6d550d2ec3a",
        "su4 6-":
            "4b3bf99ceb540d4665d85973f48a53bdec2e0f653e8a9cb4b03a15166fe4c15d",
        "su4 15":
            "c6e6807faea5feb9a745de02e1170f8aba7954acf7ce1dd5fdac6878b6bd5fff",
    },
}


@pytest.mark.parametrize("subject", list(BASIS_SHA256))
def test_bases_are_pinned(subject):
    assert {label: _sha256(rows) for label, rows in
            _bases(subject).items()} == BASIS_SHA256[subject]


# sha256 of the action matrix of each form, as rows of (column, exact
# entry) over the nonzero entries, recorded with the entries computed as
# merge_sign products: picking them from (c, -c) must give the same matrix
ACTION_SHA256 = {
    "cayley":
        "366fb78a5bf3b6f5d6f4ffbf5f71314243e8864ab81a4d9b92315e83e612cf2d",
    "g1": "39d84985a6ba7dd9a5cd5dafd481d27538399701eb020708e826dc1500c7155a",
    "g2": "d3abf5983ba69abd993fc032a2901b2c0fb9ad80d9ec8f6147758d7c90b19db8",
    "g3": "78dddb00200732fd913e609f001780c0a5b1a308507ade25c09ca6db1963ddf9",
}


@pytest.mark.parametrize("name, form", zip(ACTION_SHA256, [PHI, *ROTATED]))
def test_action_matrix_is_pinned(name, form):
    matrix = splits.action_matrix(form)
    assert _sha256([sorted((k, Fraction(c, d)) for k, c in entries)
                    for entries, d in matrix]) == ACTION_SHA256[name]


def test_anti_self_dual_block_is_computed_once():
    # the rank-35 block does not depend on Phi: every split shares it
    assert (splits.four_form_split(PHI).basis("35")
            is splits.four_form_split(ROTATED[0]).basis("35"))


def test_anti_self_dual_block_is_the_kernel_of_the_star_plus_one():
    # the oracle: the -1 eigenspace of the operator matrix of the star on
    # 4-forms, from one elimination, field by field and in the same order
    masks = splits.monomial_masks(8, 4)
    shifted = []
    for m, (entries, d) in zip(
            masks, splits.operator_matrix(hodge_star, 8, 4, 4)):
        assert all(j != m for j, _ in entries)  # * has no diagonal
        shifted.append((entries + [(m, d)], d))
    kernel = [splits.from_coords(v, 8, 4)
              for v in linalg.kernel(shifted, masks)]
    anti = splits._anti_self_dual_block()
    assert len(anti) == 35
    assert ([(list(b.numerators.items()), b.denominator) for b in anti]
            == [(list(b.numerators.items()), b.denominator)
                for b in kernel])


# ---------------------------------------------------------------------------
# oracles: the operator matrix of C_r(psi) and the 70-column 4-form path
# ---------------------------------------------------------------------------

def _contraction(psi, a):
    """C_r(psi)(a) = sum_(m<k) (e_m ^ e_k -| psi) ^ (e_m ^ e_k -| a), from
    ``contract`` and ``wedge``."""
    n = psi.dimension
    total = Multivector.zero(n, psi.degree + a.degree - 4)
    for m, k in itertools.combinations(range(1, n + 1), 2):
        total = total + wedge(contract(k, contract(m, psi)),
                              contract(k, contract(m, a)))
    return total


def _contraction_by_operator_matrix(psi, r):
    """The rows of C_r(psi) from ``_contraction`` of the monomials."""
    return splits.operator_matrix(lambda a: _contraction(psi, a),
                                  psi.dimension, r, psi.degree + r - 4)


def _star_wedge_by_operator_matrix(psi, r):
    """The rows of a -> (-1)^(s (n - s)) *( *psi ^ a), s the degree of psi,
    from ``wedge`` and ``hodge_star`` images of the monomials."""
    n, s = psi.dimension, psi.degree
    sign = (-1) ** (s * (n - s))
    return splits.operator_matrix(
        lambda a: sign * hodge_star(wedge(hodge_star(psi), a)), n, r, s - r)


def _exact_rows(rows):
    """Rows as dicts of column mask -> exact entry."""
    return [{m: Fraction(x, d) for m, x in entries} for entries, d in rows]


NOT_SELF_DUAL = Multivector.from_terms(
    8, [((1, 2, 3, 4), Fraction(1)), ((1, 3, 5, 7), Fraction(-2, 3)),
        ((2, 4, 6, 8), Fraction(5, 7))])
CONTRACTED = [PHI, *ROTATED, su4_forms()[1], NOT_SELF_DUAL]
CONTRACTED_IDS = ["cayley", "g1", "g2", "g3", "re_theta", "not_self_dual"]


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("psi", CONTRACTED, ids=CONTRACTED_IDS)
def test_contraction_matrix_is_the_operator_matrix(psi, r):
    assert (_exact_rows(splits.contraction_matrix(psi, r))
            == _exact_rows(_contraction_by_operator_matrix(psi, r)))


# on 2-forms C_2(psi) is the star-wedge operator a -> *( *psi ^ a) of the
# 4-forms on R^8 and of the 3-forms on R^7, and up to a sign in general

@pytest.mark.parametrize("psi", [*CONTRACTED, g2_phi()],
                         ids=[*CONTRACTED_IDS, "g2_phi"])
def test_star_wedge_matrix_is_the_operator_matrix(psi):
    assert (_exact_rows(splits.contraction_matrix(psi, 2))
            == _exact_rows(_star_wedge_by_operator_matrix(psi, 2)))


@st.composite
def forms_and_degrees(draw):
    """A rational form of degree s on R^n, and a degree r <= n - s."""
    n = draw(st.integers(min_value=1, max_value=8))
    s = draw(st.integers(min_value=0, max_value=n))
    r = draw(st.integers(min_value=0, max_value=n - s))
    masks = splits.monomial_masks(n, s)
    terms = draw(st.dictionaries(st.sampled_from(masks), rationals,
                                 max_size=12))
    return Multivector(n, s, terms), r


@st.composite
def contracted_forms_and_degrees(draw):
    """A rational form psi of degree s >= 2 on R^n, and a degree r >= 2
    with 0 <= s + r - 4 <= n."""
    n = draw(st.integers(min_value=2, max_value=8))
    s = draw(st.integers(min_value=2, max_value=n))
    r = draw(st.integers(min_value=max(2, 4 - s),
                         max_value=min(n, n + 4 - s)))
    terms = draw(st.dictionaries(st.sampled_from(splits.monomial_masks(n, s)),
                                 rationals, max_size=12))
    return Multivector(n, s, terms), r


@settings(max_examples=60, deadline=None)
@given(contracted_forms_and_degrees())
def test_contraction_matrix_is_the_operator_matrix_on_random_forms(case):
    psi, r = case
    assert (_exact_rows(splits.contraction_matrix(psi, r))
            == _exact_rows(_contraction_by_operator_matrix(psi, r)))


@settings(max_examples=60, deadline=None)
@given(contracted_forms_and_degrees())
def test_star_wedge_matrix_is_the_operator_matrix_on_random_forms(case):
    psi, _ = case
    assert (_exact_rows(splits.contraction_matrix(psi, 2))
            == _exact_rows(_star_wedge_by_operator_matrix(psi, 2)))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(splits.monomial_masks(8, 4)),
                       rationals, min_size=1, max_size=20))
def test_star_wedge_matrix_of_a_rational_4_form(terms):
    psi = Multivector(8, 4, terms)
    assert (_exact_rows(splits.contraction_matrix(psi, 2))
            == _exact_rows(_star_wedge_by_operator_matrix(psi, 2)))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(splits.monomial_masks(7, 3)),
                       rationals, min_size=1, max_size=20))
def test_star_wedge_matrix_of_a_rational_3_form(terms):
    psi = Multivector(7, 3, terms)
    assert (_exact_rows(splits.contraction_matrix(psi, 2))
            == _exact_rows(_star_wedge_by_operator_matrix(psi, 2)))


def _seeded_self_dual_form(seed):
    """a + *a for a seeded rational 4-form a on R^8 with about half of its
    coefficients nonzero."""
    rng = random.Random(seed)
    a = Multivector(8, 4, {m: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for m in splits.monomial_masks(8, 4)
                           if rng.random() < 0.5})
    return a + hodge_star(a)


def _apply(rows, a):
    """The rows applied to the coefficients of the form ``a``."""
    n, r = a.dimension, a.degree
    v = a.terms
    return Multivector(n, r, {
        m: sum((Fraction(x, d) * v[k] for k, x in entries if k in v),
               Fraction(0))
        for m, (entries, d) in zip(splits.monomial_masks(n, r), rows)})


@pytest.mark.parametrize("seed", range(4))
def test_contraction_matrices_of_a_self_dual_form(seed):
    # the facts behind the eigenvalue labels of the splits and their
    # premise: each holds exactly on random self-dual psi
    psi = _seeded_self_dual_form(seed)
    assert hodge_star(psi) == psi and not psi.is_zero()
    for r, scale in ((2, 6), (3, 24), (4, 36)):
        masks = splits.monomial_masks(8, r)
        rows = dict(zip(masks, _exact_rows(splits.contraction_matrix(psi, r))))
        # symmetric with zero diagonal
        assert all(m not in row for m, row in rows.items())
        assert all(rows[k].get(m) == x for m, row in rows.items()
                   for k, x in row.items())
        assert (sum(x * x for row in rows.values() for x in row.values())
                == scale * inner(psi, psi))
    c4 = splits.contraction_matrix(psi, 4)
    for b in splits._anti_self_dual_block():
        assert _apply(c4, b).is_zero()
    image = _apply(c4, psi)
    c3 = splits.contraction_matrix(psi, 3)
    for i in range(1, 9):
        assert _apply(c3, contract(i, psi)) == Fraction(1, 2) * contract(
            i, image)


def _four_form_blocks_on_all_columns(phi):
    """The rank-7 and rank-27 blocks by 70-column eliminations: the
    reduced rows of the so(8) images E_ij - E_ji . Phi, and the complement
    of Phi, those rows and the anti-self-dual block."""
    images = []
    for i, j in itertools.combinations(range(8), 2):
        A = [[Fraction(0)] * 8 for _ in range(8)]
        A[i][j], A[j][i] = Fraction(1), Fraction(-1)
        images.append(splits.to_coords(splits.infinitesimal_action(A, phi)))
    block7 = [splits.from_coords(v, 8, 4)
              for v in linalg.echelon(images)[0]]
    anti = splits._anti_self_dual_block()
    return block7, splits._complement([phi, *block7, *anti])


def _seeded_rotation(seed, n):
    """A seeded g in SO(n) shaped like the benchmark's: a signed
    permutation of determinant +1 and two exact plane rotations."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    inversions = sum(perm[a] > perm[b]
                     for a, b in itertools.combinations(range(n), 2))
    if (-1) ** (inversions + signs.count(-1)) < 0:
        signs[0] = -signs[0]
    planes = [tuple(rng.sample(range(n), 2)) for _ in range(2)]
    return _rotation(perm, signs, planes)


def _seeded_rotated_cayley_form(seed):
    """g.Phi for ``_seeded_rotation(seed, 8)``."""
    return _act(_seeded_rotation(seed, 8), PHI)


@pytest.mark.parametrize("seed", range(20))
def test_four_form_blocks_equal_the_70_column_eliminations(seed):
    phi = _seeded_rotated_cayley_form(seed)
    block7, block27 = _four_form_blocks_on_all_columns(phi)
    split = splits.four_form_split(phi)
    assert split.basis("7") == tuple(block7)
    assert split.basis("27") == tuple(block27)
    # field by field, so the stored forms are the oracle's too
    for new, old in zip(split.basis("7") + split.basis("27"),
                        block7 + block27):
        assert (new.numerators, new.denominator) == (old.numerators,
                                                     old.denominator)


FLIPPED = Multivector(8, 4, {m: -c if m == min(PHI.terms) else c
                             for m, c in PHI.terms.items()})
# self-dual, but not in the orbit of the Cayley form
SELF_DUAL_NOT_ADMISSIBLE = (PHI + Multivector.monomial(8, [1, 2, 3, 4])
                            + Multivector.monomial(8, [5, 6, 7, 8]))


NOT_SELF_DUAL_MESSAGE = ("form not admissible here: Phi must be self-dual "
                         "for the Euclidean metric")
PREMISE_MESSAGE = ("form not admissible: Phi must have |Phi|^2 = 14 and "
                   "C_4(Phi)(Phi) = 12 Phi")


@pytest.mark.parametrize("split, phi, message", [
    (splits.two_form_split, FLIPPED,
     "form not admissible: the 2-form operator C_2(Phi) = *( *Phi ^ .) does "
     "not have eigenspace ranks (7, 21); found (4, 15)"),
    (splits.three_form_split, FLIPPED, NOT_SELF_DUAL_MESSAGE),
    (splits.four_form_split, FLIPPED, NOT_SELF_DUAL_MESSAGE),
    (splits.two_form_split, SELF_DUAL_NOT_ADMISSIBLE,
     "form not admissible: the 2-form operator C_2(Phi) = *( *Phi ^ .) does "
     "not have eigenspace ranks (7, 21); found (4, 12)"),
    (splits.four_form_split, SELF_DUAL_NOT_ADMISSIBLE,
     "form not admissible: so(8).Phi has rank 19, not 7"),
    # C_4(0)(0) = 12 * 0 holds, so |Phi|^2 = 14 alone rejects the zero form
    (splits.three_form_split, Multivector.zero(8, 4), PREMISE_MESSAGE),
], ids=["2-form-flipped", "3-form-flipped", "4-form-flipped",
        "2-form-self-dual", "4-form-self-dual", "3-form-zero"])
def test_non_admissible_forms_keep_their_messages(split, phi, message):
    with pytest.raises(splits.AdmissibilityError) as error:
        split(phi)
    assert str(error.value) == message


def test_project_rejects_a_form_of_another_dimension_or_degree():
    split = splits.two_form_split(PHI)
    # dx_12 on R^7 has the mask of dx_12 on R^8
    with pytest.raises(ValueError, match=r"\(n, r\) = \(8, 2\); got \(7, 2\)"):
        split.project("7", Multivector.monomial(7, [1, 2]))
    with pytest.raises(ValueError, match=r"\(n, r\) = \(8, 2\); got \(8, 4\)"):
        split.project("7", PHI)


def _gram_projection(split, label, a):
    """The reference projection of ``a`` onto a block, by its Gram system.

    Over the numerators U, V of the basis forms and A of ``a``, the
    projection is sum_V z_V V / (denominator of a), where z solves the
    integer Gram system sum_V (U.V) z_V = U.A; one ``echelon`` call on the
    augmented rows solves it."""
    basis = [b.numerators for b in split.basis(label)]
    k = len(basis)

    def dot(u, v):
        return sum(x * v[m] for m, x in u.items() if m in v)

    rows = [([(j, g) for j, v in enumerate([*basis, a.numerators])
              if (g := dot(u, v))], 1) for u in basis]
    reduced, pivots = linalg.echelon(rows)
    assert pivots == list(range(k))  # the basis is independent
    acc = {}
    for (entries, _), v in zip(reduced, basis):
        j, z = entries[-1]  # the augmented column is the last
        if j == k:
            for m, x in v.items():
                acc[m] = acc.get(m, 0) + z * x
    scale = reduced[0][1] if reduced else 1  # shared by the rows
    return Multivector(split.dimension, split.degree,
                       {m: Fraction(x, scale * a.denominator)
                        for m, x in acc.items()})


def _every_split(name):
    """The splits that ``TypeSplit.project`` serves, by name."""
    if name == "su4":
        omega, re_theta, _ = su4_forms()
        return [splits.su4_two_form_refinement(omega, re_theta)]
    if name == "cylinder":
        return [splits.cylinder_two_form_types(g2_phi()).split]
    phi = {"cayley": PHI, "g1": ROTATED[0], "g2": ROTATED[1],
           "g3": ROTATED[2]}[name]
    return [splits.two_form_split(phi), splits.three_form_split(phi),
            splits.four_form_split(phi)]


@pytest.mark.parametrize("name", ["cayley", "g1", "g2", "g3", "su4",
                                  "cylinder"])
def test_blocks_are_eigenspaces_of_the_contraction(name):
    for split in _every_split(name):
        rows = splits.contraction_matrix(split.phi, split.degree)
        # each basis has the rank the split checked when it was built
        assert tuple(len(basis) for _, _, basis in split.blocks) == split.ranks
        for _, eigenvalue, basis in split.blocks:
            for b in basis:
                assert _apply(rows, b) == eigenvalue * b


@pytest.mark.parametrize("name", ["cayley", "g1", "g2", "g3", "su4",
                                  "cylinder"])
def test_lagrange_projections_equal_the_gram_projections(name):
    for split in _every_split(name):
        for seed in range(2):
            rng = random.Random(seed)
            sample = Multivector(split.dimension, split.degree, {
                m: Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                for m in splits.monomial_masks(split.dimension, split.degree)
                if rng.random() < 0.4})
            parts = [split.project(label, sample) for label in split.labels]
            assert parts == [_gram_projection(split, label, sample)
                             for label in split.labels]
            assert sum(parts, Multivector.zero(8, split.degree)) == sample


# a rational g that is not orthogonal: det g = 2/3
NON_ORTHOGONAL = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
NON_ORTHOGONAL[0][0] = Fraction(2, 3)
NON_ORTHOGONAL[0][1] = Fraction(1, 2)
NON_ORTHOGONAL[3][5] = Fraction(-3, 4)


@pytest.mark.parametrize("split", [splits.three_form_split,
                                   splits.four_form_split])
def test_non_euclidean_cayley_forms_are_rejected_by_the_self_dual_premise(
        split):
    # g.Phi is admissible for its own metric, not for the Euclidean one
    # that the star of this module uses
    phi = _act(NON_ORTHOGONAL, PHI)
    assert hodge_star(phi) != phi
    with pytest.raises(splits.AdmissibilityError) as error:
        split(phi)
    assert str(error.value) == NOT_SELF_DUAL_MESSAGE


# the split-signature form: the Cayley terms with exactly two indices in
# {5, ..., 8} negated; self-dual, and not admissible
SPLIT_SIGNATURE = Multivector(8, 4, {
    m: -c if (m >> 4).bit_count() == 2 else c for m, c in PHI.terms.items()})


# self-dual 4-forms outside the orbit of the Cayley form
NOT_ADMISSIBLE = {"plus-dx1234-dx5678": SELF_DUAL_NOT_ADMISSIBLE,
                  "split-signature": SPLIT_SIGNATURE,
                  "minus-phi": -1 * PHI, "twice-phi": 2 * PHI}


@pytest.mark.parametrize("split", [splits.two_form_split,
                                   splits.three_form_split,
                                   splits.four_form_split],
                         ids=["2-form", "3-form", "4-form"])
@pytest.mark.parametrize("phi", list(NOT_ADMISSIBLE.values()),
                         ids=list(NOT_ADMISSIBLE))
def test_every_split_rejects_self_dual_non_admissible_forms(split, phi):
    assert hodge_star(phi) == phi
    with pytest.raises(splits.AdmissibilityError):
        split(phi)


@pytest.mark.parametrize("split", [splits.two_form_split,
                                   splits.three_form_split,
                                   splits.four_form_split],
                         ids=["2-form", "3-form", "4-form"])
def test_every_split_rejects_the_anti_self_dual_cayley_form(split):
    # the Cayley form with dx_1 reversed: C_2 has the spectrum of C_2(Phi),
    # but *(Phi ^ .) = -C_2
    reversed_phi = Multivector(8, 4, {m: -c if m & 1 else c
                                      for m, c in PHI.terms.items()})
    assert hodge_star(reversed_phi) == -1 * reversed_phi
    with pytest.raises(splits.AdmissibilityError) as error:
        split(reversed_phi)
    assert str(error.value) == NOT_SELF_DUAL_MESSAGE


@pytest.mark.parametrize("phi", list(NOT_ADMISSIBLE.values()),
                         ids=list(NOT_ADMISSIBLE))
def test_three_form_split_rejects_self_dual_non_admissible_forms(phi):
    # the rank of the contractions v -| Phi is 8 for these forms too; the
    # premise |Phi|^2 = 14, C_4(Phi)(Phi) = 12 Phi tells them apart
    assert len(splits._complement([contract(i, phi)
                                   for i in range(1, 9)])) == 48
    with pytest.raises(splits.AdmissibilityError) as error:
        splits.three_form_split(phi)
    assert str(error.value) == PREMISE_MESSAGE


# ---------------------------------------------------------------------------
# oracles: the so(n) table, and the cylinder rows
# ---------------------------------------------------------------------------

def _rotation_images_by_action_matrix(form):
    """The images of form under E_ij - E_ji, i < j, as dicts of row mask
    -> exact entry: the columns E_ij minus the columns E_ji of the action
    matrix."""
    n = form.dimension
    images = {i * n + j: {} for i, j in itertools.combinations(range(n), 2)}
    for k, (entries, d) in zip(splits.monomial_masks(n, form.degree),
                               splits.action_matrix(form)):
        for col, x in entries:
            i, j = divmod(col, n)
            if i != j:
                image = images[min(col, j * n + i)]
                image[k] = image.get(k, 0) + Fraction(x if i < j else -x, d)
    return [{k: x for k, x in image.items() if x}
            for image in images.values()]


def _rotation_images_by_table(form):
    n = form.dimension
    images = [{} for _ in itertools.combinations(range(n), 2)]
    for mask, c in form.terms.items():
        for generator, row, negated in splits._monomial_rotation(n, mask):
            image = images[generator]
            assert row not in image  # no two entries meet
            image[row] = -c if negated else c
    return images


@settings(max_examples=80, deadline=None)
@given(forms_and_degrees())
def test_rotation_table_is_the_regrouped_action_matrix(case):
    form, _ = case
    assert (_rotation_images_by_table(form)
            == _rotation_images_by_action_matrix(form))


@pytest.mark.parametrize("form", [PHI, *ROTATED, FLIPPED],
                         ids=["cayley", "g1", "g2", "g3", "flipped"])
def test_rotation_table_on_the_split_inputs(form):
    assert (_rotation_images_by_table(form)
            == _rotation_images_by_action_matrix(form))


def test_the_star_pairs_mask_m_with_255_xor_m():
    # the premise of the half-column 4-form split and of the closed-form
    # anti-self-dual block, which swap the masks with dx_8 and those
    # without through it
    for mask in splits.monomial_masks(8, 4):
        (starred, _), = hodge_star(Multivector(8, 4, {mask: 1})).terms.items()
        assert starred == 255 ^ mask


def test_rotations_commute_with_the_star_on_every_4_form_monomial():
    # the premise of four_form_split: the images of a self-dual Phi are
    # self-dual, which holds once the star of every monomial's image is
    # the image of its star.  Checked on all 70 monomials, so by
    # linearity on every 4-form
    for mask in splits.monomial_masks(8, 4):
        monomial = Multivector(8, 4, {mask: 1})
        images = _rotation_images_by_table(monomial)
        of_star = _rotation_images_by_table(hodge_star(monomial))
        for image, expected in zip(images, of_star):
            assert (hodge_star(Multivector(8, 4, image))
                    == Multivector(8, 4, expected))


def _cylinder_forms_by_wedge_and_star(phi):
    """The parameterizations of cylinder_two_form_types built from
    ``wedge``, ``hodge_star`` and ``contract``: the rank-7 forms, the
    rank-21 forms and the hats of the contractions."""
    star_phi = hodge_star(phi)

    def hat(alpha):
        return hodge_star(wedge(star_phi, alpha))

    def lift_one(beta):
        return Multivector(8, 2, {(m << 1) | 1: c
                                  for m, c in beta.terms.items()})

    def lift_two(gamma):
        return Multivector(8, 2, {m << 1: c for m, c in gamma.terms.items()})

    contractions = [contract(i, phi) for i in range(1, 8)]
    hats = [hat(v) for v in contractions]
    seven = [lift_one(h) + 3 * lift_two(v)
             for v, h in zip(contractions, hats)]
    twentyone = [lift_one(hat(a)) - lift_two(a)
                 for a in (Multivector(7, 2, {m: 1})
                           for m in splits.monomial_masks(7, 2))]
    return seven, twentyone, hats


def _assert_cylinder_rows_match(phi):
    seven, twentyone, hats = splits._cylinder_rows(phi)
    oracle = _cylinder_forms_by_wedge_and_star(phi)
    assert ([splits.from_coords(v, 8, 2) for v in seven],
            [splits.from_coords(v, 8, 2) for v in twentyone],
            [splits.from_coords(v, 7, 1) for v in hats]) == oracle


def test_cylinder_rows_of_the_g2_form():
    _assert_cylinder_rows_match(g2_phi())


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(splits.monomial_masks(7, 3)),
                       rationals, max_size=12))
def test_cylinder_rows_are_the_wedge_and_star_parameterization(terms):
    _assert_cylinder_rows_match(Multivector(7, 3, terms))


# ---------------------------------------------------------------------------
# ranks up front, bases on read, and the oracles of the cheap routes
# ---------------------------------------------------------------------------

def test_ranks_build_no_complement_and_a_basis_is_built_once(monkeypatch):
    complement = splits._complement

    def refuse(forms):
        raise AssertionError("a complement was built")

    monkeypatch.setattr(splits, "_complement", refuse)
    built = [split for name in ("cayley", "su4", "cylinder")
             for split in _every_split(name)]
    assert [split.ranks for split in built] == [
        (7, 21), (8, 48), (1, 7, 27, 35), (1, 6, 6, 15), (7, 21)]

    calls = []

    def counted(forms):
        calls.append(len(forms))
        return complement(forms)

    monkeypatch.setattr(splits, "_complement", counted)
    split = built[0]
    first = split.basis("21")
    assert calls == [7]
    assert split.basis("21") is first
    assert calls == [7]


def test_projections_build_the_contraction_matrix_once(monkeypatch):
    calls = []
    contraction_matrix = splits.contraction_matrix

    def counted(psi, r):
        calls.append(r)
        return contraction_matrix(psi, r)

    monkeypatch.setattr(splits, "contraction_matrix", counted)
    split = splits.four_form_split(ROTATED[0])
    sample = _seeded_self_dual_form(0) + Multivector.monomial(8, [1, 2, 3, 4])
    parts = [split.project(label, sample) for label in split.labels]
    assert calls == [4]
    assert sum(parts, Multivector.zero(8, 4)) == sample


def _assert_cheap_routes_match_their_oracles(phi):
    # the 2-form rank-7 block: the row space of C_2 + 1, against the
    # kernel of C_2 - 3, field by field
    split = splits.two_form_split(phi)
    oracle = splits._eigenspace(splits.contraction_matrix(phi, 2), 3)
    assert [(b.numerators, b.denominator) for b in split.basis("7")] == [
        (b.numerators, b.denominator) for b in oracle]
    # the so(8) orbit: the 7 images under e_1 ^ e_j reduce to the rows of
    # all 28
    seven = linalg.echelon(splits._orbit_rows(phi, 7))
    assert seven == linalg.echelon(splits._orbit_rows(phi, 28))
    assert len(seven[0]) == 7


@pytest.mark.parametrize("phi", [PHI, *ROTATED],
                         ids=["cayley", "g1", "g2", "g3"])
def test_cheap_routes_match_their_oracles(phi):
    _assert_cheap_routes_match_their_oracles(phi)


@settings(max_examples=6, deadline=None)
@given(cayley_transforms())
def test_cheap_routes_match_their_oracles_on_generic_rotations(g):
    _assert_cheap_routes_match_their_oracles(_act(g, PHI))
