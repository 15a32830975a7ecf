"""Decompositions of form spaces under Spin(7), G2 and SU(4).

Everything in this module is exact: the relevant operators have known
integer eigenvalues, so invariant subspaces are exact kernels computed
over the rationals.  The ambient metric is the standard Euclidean one;
operations that need the Hodge star check that the supplied 4-form is
compatible with it (self-dual) and raise ``AdmissibilityError`` otherwise.

``action_matrix`` is the one construction of the infinitesimal gl(n)
action on forms: the stabilizer, the so(8)-orbit block of the 4-form
split, ``infinitesimal_action`` and the Newton tangent directions of
:mod:`spin7.projection` all read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from spin7.forms import (
    Multivector, contract, cylinder_form, g2_split, hodge_star, inner,
    merge_sign, wedge,
)
from spin7 import linalg
from spin7.linalg import Matrix, Vector


class AdmissibilityError(ValueError):
    """The supplied form does not define the expected structure."""


# ---------------------------------------------------------------------------
# coordinates on the monomial basis
# ---------------------------------------------------------------------------

def monomial_masks(n: int, r: int) -> list[int]:
    """Bitmasks of the degree-r monomial basis, in increasing mask order."""
    masks = []
    for combo in itertools.combinations(range(n), r):
        mask = 0
        for i in combo:
            mask |= 1 << i
        masks.append(mask)
    return sorted(masks)


def to_coords(a: Multivector, masks: list[int]) -> Vector:
    """Coefficients of ``a`` on the monomials ``masks``; the int 0 where
    ``a`` has no term."""
    lookup = a.terms
    return [lookup.get(m, 0) for m in masks]


def from_coords(v: Vector, masks: list[int], n: int, r: int) -> Multivector:
    return Multivector(n, r, {m: c for m, c in zip(masks, v) if c})


def operator_matrix(op, n: int, r_in: int, r_out: int) -> Matrix:
    """Matrix of a linear map Lambda^r_in -> Lambda^r_out in monomial bases."""
    in_masks = monomial_masks(n, r_in)
    out_masks = monomial_masks(n, r_out)
    cols = []
    for m in in_masks:
        image = op(Multivector(n, r_in, {m: 1}))
        cols.append(to_coords(image, out_masks))
    # transpose: entry [i][j] = coefficient of out basis i in op(in basis j)
    return [[cols[j][i] for j in range(len(in_masks))]
            for i in range(len(out_masks))]


# ---------------------------------------------------------------------------
# infinitesimal gl(n) action
# ---------------------------------------------------------------------------

def action_matrix(form: Multivector) -> Matrix:
    """Exact matrix of the derivation action A -> A.form of gl(n).

    Row k belongs to the k-th degree-r monomial and column i*n + j to the
    elementary matrix E_ij, which replaces dx_i by dx_j.  Every nonzero
    entry is plus or minus a coefficient of the form, so it is picked from
    (c, -c) by sign and never multiplied.
    """
    n = form.dimension
    row_of = {m: k for k, m in enumerate(monomial_masks(n, form.degree))}
    matrix = linalg.zeros(len(row_of), n * n)
    for mask, coeff in form.terms.items():
        pair = (coeff, -coeff)
        for i in range(n):
            bit_i = 1 << i
            if not mask & bit_i:
                continue
            # replacing dx_i by dx_j: move dx_i to the front, swap, sort back
            rest = mask ^ bit_i
            sign_i = merge_sign(bit_i, rest)
            for j in range(n):
                bit_j = 1 << j
                if rest & bit_j:
                    continue  # a repeated index kills the term
                # (row, column) determine the source mask: one term each
                matrix[row_of[rest | bit_j]][i * n + j] = pair[
                    sign_i * merge_sign(bit_j, rest) < 0]
    return matrix


def infinitesimal_action(A: Matrix, form: Multivector) -> Multivector:
    """Derivation action of A in gl(n) on a form, dx_i -> sum_j A[i][j] dx_j:
    the action matrix applied to the n*n entries of A."""
    n, r = form.dimension, form.degree
    entries = [a for row in A for a in row]
    coords = [sum((c * a for c, a in zip(row, entries) if c and a), 0)
              for row in action_matrix(form)]
    return from_coords(coords, monomial_masks(n, r), n, r)


# ---------------------------------------------------------------------------
# type splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeSplit:
    """An orthogonal decomposition of Lambda^r(R^n) into labeled blocks."""

    dimension: int
    degree: int
    phi: Multivector
    blocks: tuple[tuple[str, tuple[Multivector, ...]], ...]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(len(basis) for _, basis in self.blocks)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.blocks)

    def basis(self, label: str) -> tuple[Multivector, ...]:
        for block_label, block_basis in self.blocks:
            if block_label == label:
                return block_basis
        raise KeyError(f"no block labeled {label!r}")

    def project(self, label: str, a: Multivector) -> Multivector:
        """Exact orthogonal projection of ``a`` onto the labeled block."""
        basis = self.basis(label)
        if not basis:
            return Multivector.zero(self.dimension, self.degree)
        gram = [[inner(u, v) for v in basis] for u in basis]
        rhs = [inner(u, a) for u in basis]
        coeffs = linalg.solve(gram, rhs)
        assert coeffs is not None  # Gram matrix of independent vectors
        out = Multivector.zero(self.dimension, self.degree)
        for c, b in zip(coeffs, basis):
            if c:
                out = out + c * b
        return out


def _eigenspaces(op, n: int, r: int,
                 eigenvalues: tuple[int, ...]) -> list[list[Multivector]]:
    """Exact eigenspaces of a linear map Lambda^r -> Lambda^r, one basis
    per requested eigenvalue."""
    masks = monomial_masks(n, r)
    matrix = operator_matrix(op, n, r, r)
    out = []
    for eigenvalue in eigenvalues:
        shifted = [row[:] for row in matrix]
        for i in range(len(shifted)):
            shifted[i][i] -= eigenvalue
        out.append([from_coords(v, masks, n, r)
                    for v in linalg.nullspace(shifted)])
    return out


def _complement(forms: list[Multivector]) -> list[Multivector]:
    """Basis of the orthogonal complement of the span of equal-degree forms."""
    n, r = forms[0].dimension, forms[0].degree
    masks = monomial_masks(n, r)
    rows = [to_coords(f, masks) for f in forms]
    return [from_coords(v, masks, n, r) for v in linalg.nullspace(rows)]


def two_form_split(phi: Multivector) -> TypeSplit:
    """Split 2-forms on R^8 by the eigenvalues {3, -1} of a -> *(Phi ^ a).

    Ranks (7, 21); the rank-7 block is the 3-eigenspace.
    """
    if phi.dimension != 8 or phi.degree != 4:
        raise ValueError("expected a 4-form on R^8")
    e3, em1 = _eigenspaces(lambda a: hodge_star(wedge(phi, a)), 8, 2, (3, -1))
    if len(e3) != 7 or len(em1) != 21:
        raise AdmissibilityError(
            "form not admissible: the 2-form operator *(Phi ^ .) does not "
            f"have eigenspace ranks (7, 21); found ({len(e3)}, {len(em1)})")
    return TypeSplit(8, 2, phi, (("7", tuple(e3)), ("21", tuple(em1))))


def three_form_split(phi: Multivector) -> TypeSplit:
    """Split 3-forms on R^8 into {v -| Phi} and its orthogonal complement.

    Ranks (8, 48).
    """
    if phi.dimension != 8 or phi.degree != 4:
        raise ValueError("expected a 4-form on R^8")
    contractions = [contract(i, phi) for i in range(1, 9)]
    complement = _complement(contractions)
    if len(complement) != 48:  # the contractions span 56 - 48 = 8 dimensions
        raise AdmissibilityError(
            "form not admissible: contractions v -| Phi do not span an "
            "8-dimensional space")
    return TypeSplit(8, 3, phi,
                     (("8", tuple(contractions)), ("48", tuple(complement))))


@lru_cache(maxsize=1)
def _anti_self_dual_block() -> tuple[Multivector, ...]:
    """The rank-35 block of every 4-form split: the -1 eigenspace of the
    Euclidean Hodge star on 4-forms, which does not depend on Phi.
    Computed on first use and shared by every split."""
    (anti,) = _eigenspaces(hodge_star, 8, 4, (-1,))
    assert len(anti) == 35  # ** = 1 on 4-forms on R^8, trace of * is 0
    return tuple(anti)


def four_form_split(phi: Multivector) -> TypeSplit:
    """Split 4-forms on R^8 into ranks (1, 7, 27, 35).

    The rank-1 block is spanned by Phi, the rank-7 block is the tangent
    space so(8).Phi of the rotation orbit, the rank-35 block consists of
    the anti-self-dual forms, and the rank-27 block is the orthogonal
    complement of the rest.  Phi must be self-dual for the Euclidean
    metric (true for the standard Cayley form and its rotations); this
    module does not recompute the metric induced by a general Phi.
    """
    if phi.dimension != 8 or phi.degree != 4:
        raise ValueError("expected a 4-form on R^8")
    if hodge_star(phi) != phi:
        raise AdmissibilityError(
            "form not admissible here: Phi must be self-dual for the "
            "Euclidean metric")
    anti = _anti_self_dual_block()

    masks = monomial_masks(8, 4)
    action = action_matrix(phi)
    # the generators E_ij - E_ji of so(8), i < j.  E_ij only reaches
    # monomials with dx_j and without dx_i, E_ji the others, so at most one
    # of the two entries is nonzero and no subtraction is needed
    orbit_rows = [[row[i * 8 + j] or -row[j * 8 + i] for row in action]
                  for i, j in itertools.combinations(range(8), 2)]
    reduced, pivots = linalg.rref(orbit_rows)
    block7 = [from_coords(reduced[i], masks, 8, 4) for i in range(len(pivots))]
    if len(block7) != 7:
        raise AdmissibilityError(
            f"form not admissible: so(8).Phi has rank {len(block7)}, not 7")
    for b in block7:
        if hodge_star(b) != b or inner(b, phi):
            raise AdmissibilityError(
                "form not admissible: so(8).Phi is not self-dual and "
                "orthogonal to Phi")

    block27 = _complement([phi, *block7, *anti])
    if len(block27) != 27:
        raise AdmissibilityError("rank-27 complement has wrong dimension")
    return TypeSplit(8, 4, phi, (
        ("1", (phi,)),
        ("7", tuple(block7)),
        ("27", tuple(block27)),
        ("35", anti),
    ))


def su4_two_form_refinement(omega: Multivector,
                            re_theta: Multivector) -> TypeSplit:
    """Refine the 2-form split under SU(4) into ranks (1, 6, 6, 15).

    The two rank-6 blocks are the +2 and -2 eigenspaces of the operator
    a -> *(a ^ Re theta); the rank-1 block is spanned by omega; the
    rank-15 block is the orthogonal complement.
    """
    if omega.dimension != 8 or omega.degree != 2:
        raise ValueError("expected the Kaehler 2-form on R^8")
    if re_theta.dimension != 8 or re_theta.degree != 4:
        raise ValueError("expected the real part of the (4,0)-form")
    plus, minus = _eigenspaces(lambda a: hodge_star(wedge(a, re_theta)),
                               8, 2, (2, -2))
    if len(plus) != 6 or len(minus) != 6:
        raise AdmissibilityError(
            "eigenvalue structure violated: the +/-2 eigenspaces of "
            f"*(. ^ Re theta) have ranks ({len(plus)}, {len(minus)}), "
            "expected (6, 6)")
    rest = _complement([omega, *plus, *minus])
    if len(rest) != 15:
        raise AdmissibilityError("rank-15 complement has wrong dimension")
    return TypeSplit(8, 2, wedge(omega, omega) * Fraction(1, 2) + re_theta, (
        ("1", (omega,)),
        ("6+", tuple(plus)),
        ("6-", tuple(minus)),
        ("15", tuple(rest)),
    ))


# ---------------------------------------------------------------------------
# stabilizer algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizerResult:
    """Annihilator of a form under the infinitesimal gl(n) action."""

    form: Multivector
    dim: int
    basis: tuple[Matrix, ...]  # n x n rational matrices


def stabilizer_dimension(form: Multivector) -> StabilizerResult:
    """Exact kernel of A -> (derivation action of A on the form)."""
    n = form.dimension
    kernel = linalg.nullspace(action_matrix(form))
    return StabilizerResult(form, len(kernel), tuple(
        [v[i * n:(i + 1) * n] for i in range(n)] for v in kernel))


# ---------------------------------------------------------------------------
# cylindrical 2-form types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderTypes:
    """The cylindrical realization of the 2-form split, plus the
    contraction-to-1-form isometry scale."""

    split: TypeSplit
    iso_scale: Fraction  # v -| phi  ->  *( *phi ^ (v -| phi) ) = scale * v-flat


def _lift_one_form(beta7: Multivector) -> Multivector:
    """dt ^ beta for a 1-form beta on R^7 (t is x_1 of R^8)."""
    terms = {(m << 1) | 1: c for m, c in beta7.terms.items()}
    return Multivector(8, 2, terms)


def _lift_two_form(gamma7: Multivector) -> Multivector:
    terms = {m << 1: c for m, c in gamma7.terms.items()}
    return Multivector(8, 2, terms)


def cylinder_two_form_types(split: TypeSplit) -> CylinderTypes:
    """Realize the 2-form split of a cylinder 4-form dt^phi + *phi.

    ``split`` is ``two_form_split`` of that 4-form, and phi is its dt
    factor.  For each tangent vector v of R^7 the rank-7 block is spanned by
    dt ^ *( *phi ^ (v -| phi) ) + 3 (v -| phi), and the rank-21 block by
    dt ^ *( *phi ^ alpha ) - alpha over 2-forms alpha.  The function
    checks these parameterizations against the eigenspace split of the
    cylinder form and determines the exact scalar making the map
    v -| phi -> *( *phi ^ (v -| phi) ) a multiple of the metric dual of v.
    """
    phi = g2_split(split.phi)[0]
    if cylinder_form(phi) != split.phi:
        raise AdmissibilityError(
            "the 4-form is not the cylinder form of its dt factor")
    star_phi = hodge_star(phi)

    def hat(alpha7: Multivector) -> Multivector:
        return hodge_star(wedge(star_phi, alpha7))  # 1-form on R^7

    seven = []
    for i in range(1, 8):
        v_phi = contract(i, phi)
        seven.append(_lift_one_form(hat(v_phi)) + 3 * _lift_two_form(v_phi))
    twentyone = []
    for m in monomial_masks(7, 2):
        alpha = Multivector(7, 2, {m: 1})
        twentyone.append(_lift_one_form(hat(alpha)) - _lift_two_form(alpha))

    masks8 = monomial_masks(8, 2)
    rows7 = [to_coords(b, masks8) for b in split.basis("7")]
    rows21 = [to_coords(b, masks8) for b in split.basis("21")]
    coords7 = [to_coords(w, masks8) for w in seven]
    # the eigenspace bases are independent, so the parameterization stays
    # inside a block exactly when stacking it on the basis keeps the rank
    if linalg.rank(rows7 + coords7) != 7:
        raise AdmissibilityError(
            "rank-7 parameterization leaves the eigenspace split")
    if linalg.rank(coords7) != 7:
        raise AdmissibilityError("rank-7 parameterization is degenerate")
    if linalg.rank(rows21 + [to_coords(w, masks8) for w in twentyone]) != 21:
        raise AdmissibilityError(
            "rank-21 parameterization leaves the eigenspace split")

    # the 1-form *( *phi ^ (v -| phi) ) must equal scale * v-flat
    scale = None
    for i in range(1, 8):
        image = hat(contract(i, phi))
        expected = Multivector.monomial(7, (i,))
        coeff = image.coefficient((i,))
        if image != coeff * expected:
            raise AdmissibilityError(
                "contraction map is not a multiple of the metric dual")
        if scale is None:
            scale = coeff
        elif coeff != scale:
            raise AdmissibilityError(
                "contraction map scale differs between directions")
    assert scale is not None
    return CylinderTypes(split=TypeSplit(8, 2, split.phi, (
        ("7", tuple(seven)), ("21", tuple(split.basis("21"))))),
        iso_scale=scale)
