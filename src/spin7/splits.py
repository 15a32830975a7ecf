"""Decompositions of form spaces under Spin(7), G2 and SU(4).

Everything in this module is exact: the relevant operators have known
integer eigenvalues, so invariant subspaces are exact kernels computed
over the rationals.  The ambient metric is the standard Euclidean one;
operations that need the Hodge star check that the supplied 4-form is
compatible with it (self-dual) and raise ``AdmissibilityError`` otherwise.

The constructions read cached tables of +-1 entries per monomial,
keyed by (n, mask) and independent of any input form, so every entry of
a matrix is plus or minus a coefficient of the form:

- ``_monomial_action`` gives ``action_matrix``, the one construction of
  the infinitesimal gl(n) action on forms: the stabilizer,
  ``infinitesimal_action`` and the Newton tangent directions of
  :mod:`spin7.projection` read it.
- ``_monomial_rotation`` is that table regrouped by the generators
  E_ij - E_ji of so(n); the 4-form split reads the so(8)-orbit images
  from it.
- ``_monomial_star_wedge`` gives ``star_wedge_matrix``, the one
  construction of a -> *(psi ^ a): the 2-form split and its SU(4)
  refinement read their eigenspaces from it, and the cylinder types
  their hats *( *phi ^ . ).

The column of the coefficient of dx_m in every exact row is the mask m
itself, so a form's numerators are its row as they stand; the rows of
each matrix are listed in increasing mask order.  Every star sign is
read from ``forms._star_negated``, the table of the Hodge star itself,
and the star sends dx_m to +-dx_(255 ^ m) on R^8.  The 4-form split
works on half of the 70 coordinates: a self-dual 4-form is fixed by
its coefficients at the masks with dx_8 (``m & 128``), or at those
without, and the anti-self-dual block is dx_m - *dx_m over the masks
with dx_8, with no elimination.  The stabilizer is kept as kernel rows,
column i*n + j for E_ij.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from spin7.forms import (
    Multivector, _star_negated, contract, cylinder_form, g2_split,
    hodge_star, inner, merge_sign, wedge,
)
from spin7 import linalg
from spin7.linalg import Matrix, Row


class AdmissibilityError(ValueError):
    """The supplied form does not define the expected structure."""


# ---------------------------------------------------------------------------
# coordinates on the monomial basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def monomial_masks(n: int, r: int) -> tuple[int, ...]:
    """Bitmasks of the degree-r monomial basis, in increasing mask order."""
    return tuple(sorted(sum(1 << i for i in combo)
                        for combo in itertools.combinations(range(n), r)))


def to_coords(a: Multivector) -> Row:
    """The coefficients of ``a`` on the monomial basis, as a row: its
    numerators, column m for dx_m, over its denominator."""
    return list(a.numerators.items()), a.denominator


def from_coords(v: Row, n: int, r: int) -> Multivector:
    """The degree-r form on R^n with coefficients ``v`` on the monomial
    basis."""
    entries, d = v
    return Multivector._reduced(n, r, dict(entries), d)


def _self_dual(v: Row) -> Row:
    """The self-dual 4-form on R^8 that agrees with ``v`` on one half of
    the masks, ``v`` listing masks of that half only: *dx_m is
    +-dx_(255 ^ m), with the sign of ``forms._star_negated``."""
    entries, d = v
    negated = _star_negated(8)
    return sorted(entries + [(255 ^ m, -x if negated[m] else x)
                             for m, x in entries]), d


def operator_matrix(op, n: int, r_in: int, r_out: int) -> list[Row]:
    """Rows of a linear map Lambda^r_in -> Lambda^r_out in monomial bases,
    one per out monomial in increasing mask order: column m of row i is
    the coefficient of out monomial i in op(dx_m).  The rows share the lcm
    of the images' denominators."""
    images = {m: op(Multivector._trusted(n, r_in, {m: 1}))
              for m in monomial_masks(n, r_in)}
    d = lcm(*[image.denominator for image in images.values()])
    rows: dict[int, list[tuple[int, int]]] = {
        m: [] for m in monomial_masks(n, r_out)}
    for m, image in images.items():
        scale = d // image.denominator
        for mask, x in image.numerators.items():
            rows[mask].append((m, x * scale))
    return [(entries, d) for entries in rows.values()]


# ---------------------------------------------------------------------------
# infinitesimal gl(n) action
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _monomial_action(n: int, mask: int) -> tuple[tuple[int, int, bool], ...]:
    """(row mask, column, negated) of each entry of the action matrix of
    the monomial dx_mask, all +-1: one per E_ij that replaces a dx_i of the
    monomial by a dx_j it lacks (a repeated index kills the term).  The
    sign moves dx_i to the front, swaps it for dx_j and sorts back."""
    return tuple(
        (rest | 1 << j, i * n + j,
         merge_sign(1 << i, rest) * merge_sign(1 << j, rest) < 0)
        for i in range(n) if mask >> i & 1
        for rest in (mask ^ 1 << i,)
        for j in range(n) if not rest >> j & 1)


@lru_cache(maxsize=None)
def _monomial_rotation(n: int, mask: int
                       ) -> tuple[tuple[int, int, bool], ...]:
    """(generator, row mask, negated) of each entry of the images of dx_mask
    under the generators E_ij - E_ji of so(n), i < j, numbered in
    ``itertools.combinations`` order: the entries of ``_monomial_action``
    in the columns E_ij and E_ji, the latter negated.  E_ij only reaches
    monomials with dx_j and without dx_i, E_ji the others, so no two
    entries of one generator share a row."""
    generator = {}
    for g, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        generator[i * n + j] = g, False
        generator[j * n + i] = g, True
    return tuple((g, row, negated != flip)
                 for row, col, negated in _monomial_action(n, mask)
                 if col in generator
                 for g, flip in (generator[col],))


def action_matrix(form: Multivector) -> list[Row]:
    """Exact rows of the derivation action A -> A.form of gl(n).

    The rows belong to the degree-r monomials in increasing mask order,
    and column i*n + j to the elementary matrix E_ij, which replaces dx_i
    by dx_j.  A (row, column) pair determines the source monomial, so
    every nonzero entry is plus or minus one coefficient of the form: it
    is picked from (c, -c) by sign and never multiplied.  The rows share
    the form's denominator and list their columns in no particular order.
    """
    n = form.dimension
    rows: dict[int, list[tuple[int, int]]] = {
        m: [] for m in monomial_masks(n, form.degree)}
    for mask, c in form.numerators.items():
        pair = (c, -c)
        for row, col, negated in _monomial_action(n, mask):
            rows[row].append((col, pair[negated]))
    return [(r, form.denominator) for r in rows.values()]


@lru_cache(maxsize=None)
def _monomial_star_wedge(n: int, r: int, mask: int
                         ) -> tuple[tuple[int, int, bool], ...]:
    """(row mask, column mask, negated) of each entry of the matrix of
    a -> *(dx_mask ^ a) on r-forms, all +-1: one per degree-r monomial
    dx_m disjoint from dx_mask, sent to the complement of mask | m.  The
    sign sorts dx_mask ^ dx_m and then applies the star."""
    full = (1 << n) - 1
    star_negated = _star_negated(n)
    return tuple(
        (full ^ union, m, (merge_sign(mask, m) < 0) != star_negated[union])
        for m in monomial_masks(n, r) if not mask & m
        for union in (mask | m,))


def star_wedge_matrix(psi: Multivector, r: int) -> list[Row]:
    """Exact rows of a -> *(psi ^ a) from r-forms to (n - s - r)-forms,
    s the degree of psi, in monomial bases.

    The rows belong to the output monomials in increasing mask order, and
    column m to the input monomial dx_m.  A (row, column) pair determines
    the monomial of psi that joins them, so, as in ``action_matrix``,
    every nonzero entry is plus or minus one coefficient of psi.  The rows
    share psi's denominator and list their columns in no particular order.
    """
    n = psi.dimension
    rows: dict[int, list[tuple[int, int]]] = {
        m: [] for m in monomial_masks(n, n - psi.degree - r)}
    for mask, c in psi.numerators.items():
        pair = (c, -c)
        for row, col, negated in _monomial_star_wedge(n, r, mask):
            rows[row].append((col, pair[negated]))
    return [(entries, psi.denominator) for entries in rows.values()]


def infinitesimal_action(A: Matrix, form: Multivector) -> Multivector:
    """Derivation action of A in gl(n) on a form, dx_i -> sum_j A[i][j] dx_j:
    the action matrix applied to the n*n entries of A."""
    n, r = form.dimension, form.degree
    flat = [a for row in A for a in row]
    return Multivector(n, r, {
        m: Fraction(sum(c * flat[j] for j, c in entries), d)
        for m, (entries, d) in zip(monomial_masks(n, r),
                                   action_matrix(form))})


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
        """Exact orthogonal projection of ``a`` onto the labeled block.

        Over the numerators U, V of the basis forms and A of ``a``, the
        projection is sum_V z_V V / (denominator of a), where z solves the
        integer Gram system sum_V (U.V) z_V = U.A; one ``echelon`` call on
        the augmented rows solves it."""
        if (a.dimension, a.degree) != (self.dimension, self.degree):
            raise ValueError(
                f"expected a form with (n, r) = ({self.dimension}, "
                f"{self.degree}); got ({a.dimension}, {a.degree})")
        basis = [b.numerators for b in self.basis(label)]
        k = len(basis)

        def dot(u: dict[int, int], v: dict[int, int]) -> int:
            return sum(x * v[m] for m, x in u.items() if m in v)

        rows = [([(j, g) for j, v in enumerate([*basis, a.numerators])
                  if (g := dot(u, v))], 1) for u in basis]
        reduced, pivots = linalg.echelon(rows)
        # the Gram matrix of independent vectors is invertible
        if pivots != list(range(k)):
            raise ValueError(f"the basis of block {label!r} is not linearly "
                             "independent")
        acc: dict[int, int] = {}
        for (entries, _), v in zip(reduced, basis):
            j, z = entries[-1]  # the augmented column is the last
            if j == k:
                for m, x in v.items():
                    acc[m] = acc.get(m, 0) + z * x
        scale = reduced[0][1] if reduced else 1  # shared by the rows
        return Multivector._reduced(self.dimension, self.degree,
                                    {m: x for m, x in acc.items() if x},
                                    scale * a.denominator)


def _eigenspaces(matrix: list[Row], n: int, r: int,
                 eigenvalues: tuple[int, ...]) -> list[list[Multivector]]:
    """Exact eigenspaces of the rows of a linear map Lambda^r -> Lambda^r,
    one basis per requested eigenvalue."""
    masks = monomial_masks(n, r)
    out = []
    for eigenvalue in eigenvalues:
        shifted = []
        for m, (entries, d) in zip(masks, matrix):
            diagonal = dict(entries)
            x = diagonal.pop(m, 0) - eigenvalue * d
            if x:
                diagonal[m] = x
            shifted.append((list(diagonal.items()), d))
        out.append([from_coords(v, n, r)
                    for v in linalg.kernel(shifted, masks)])
    return out


def _complement(forms: list[Multivector]) -> list[Multivector]:
    """Basis of the orthogonal complement of the span of equal-degree forms."""
    n, r = forms[0].dimension, forms[0].degree
    rows = [to_coords(f) for f in forms]
    return [from_coords(v, n, r)
            for v in linalg.kernel(rows, monomial_masks(n, r))]


def two_form_split(phi: Multivector) -> TypeSplit:
    """Split 2-forms on R^8 by the eigenvalues {3, -1} of a -> *(Phi ^ a).

    Ranks (7, 21); the rank-7 block is the 3-eigenspace.
    """
    if phi.dimension != 8 or phi.degree != 4:
        raise ValueError("expected a 4-form on R^8")
    e3, em1 = _eigenspaces(star_wedge_matrix(phi, 2), 8, 2, (3, -1))
    if len(e3) != 7 or len(em1) != 21:
        raise AdmissibilityError(
            "form not admissible: the 2-form operator *(Phi ^ .) does not "
            f"have eigenspace ranks (7, 21); found ({len(e3)}, {len(em1)})")
    return TypeSplit(8, 2, phi, (("7", tuple(e3)), ("21", tuple(em1))))


def _require_self_dual(phi: Multivector) -> None:
    """The premise of the 3- and 4-form splits: this module does not
    recompute the metric induced by a general Phi, so Phi must be
    self-dual for the Euclidean one."""
    if hodge_star(phi) != phi:
        raise AdmissibilityError(
            "form not admissible here: Phi must be self-dual for the "
            "Euclidean metric")


def three_form_split(phi: Multivector) -> TypeSplit:
    """Split 3-forms on R^8 into {v -| Phi} and its orthogonal complement.

    Ranks (8, 48).  Phi must be self-dual for the Euclidean metric: the
    rank of the contractions alone does not tell an admissible Phi.
    """
    if phi.dimension != 8 or phi.degree != 4:
        raise ValueError("expected a 4-form on R^8")
    _require_self_dual(phi)
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
    """The rank-35 block of every 4-form split: the anti-self-dual 4-forms,
    which do not depend on Phi.  Its basis is dx_m - *dx_m over the masks
    m with dx_8 in increasing order, the kernel basis of * + 1 whose free
    columns are those.  Built on first use and shared by every split."""
    negated = _star_negated(8)
    return tuple(Multivector._trusted(8, 4, {
        255 ^ m: 1 if negated[m] else -1, m: 1})
        for m in monomial_masks(8, 4) if m & 128)


def four_form_split(phi: Multivector) -> TypeSplit:
    """Split 4-forms on R^8 into ranks (1, 7, 27, 35).

    The rank-1 block is spanned by Phi, the rank-7 block is the tangent
    space so(8).Phi of the rotation orbit, the rank-35 block consists of
    the anti-self-dual forms, and the rank-27 block is the orthogonal
    complement of the rest.  Phi must be self-dual for the Euclidean
    metric (true for the standard Cayley form and its rotations).  The
    rank-1, 7 and 27 blocks are then self-dual, so each is computed on
    one half of the columns and extended by the star.
    """
    if phi.dimension != 8 or phi.degree != 4:
        raise ValueError("expected a 4-form on R^8")
    _require_self_dual(phi)
    anti = _anti_self_dual_block()

    # so(8) commutes with *, so the images of the self-dual Phi under the
    # generators E_ij - E_ji are self-dual, and so are their reduced rows,
    # which then have their pivots among the masks without dx_8:
    # eliminating there and extending by * gives the reduced rows of all 70
    # columns
    low: list[Row] = [([], phi.denominator) for _ in range(28)]
    for mask, c in phi.numerators.items():
        pair = (c, -c)
        for generator, row, negated in _monomial_rotation(8, mask):
            if not row & 128:
                low[generator][0].append((row, pair[negated]))
    rows7 = [_self_dual(v) for v in linalg.echelon(low)[0]]
    block7 = [from_coords(v, 8, 4) for v in rows7]
    if len(block7) != 7:
        raise AdmissibilityError(
            f"form not admissible: so(8).Phi has rank {len(block7)}, not 7")
    if any(inner(b, phi) for b in block7):
        raise AdmissibilityError(
            "form not admissible: so(8).Phi is not self-dual and orthogonal "
            "to Phi")

    # the anti-self-dual forms make up the rank-35 block, so the rank-27
    # block is the self-dual v orthogonal to Phi and the rank-7 block; for
    # self-dual a, <a, v> is twice sum_m a_m v_m over the masks with dx_8.
    # A kernel's free columns are its basis of columns picked greedily
    # from the right, and self-dual forms are fixed by their coefficients
    # at those masks, the 35 largest, so this 35-column kernel has the
    # free columns, and the basis, of the 70-column one
    high = [([(m, x) for m, x in entries if m & 128], 1)
            for entries, _ in [to_coords(phi), *rows7]]
    block27 = [from_coords(_self_dual(v), 8, 4)
               for v in linalg.kernel(high, [m for m in monomial_masks(8, 4)
                                             if m & 128])]
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
    # a ^ Re theta = Re theta ^ a: the degrees are even
    plus, minus = _eigenspaces(star_wedge_matrix(re_theta, 2), 8, 2, (2, -2))
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
    basis: tuple[Row, ...]  # column i*n + j holds the entry of E_ij


def stabilizer_dimension(form: Multivector) -> StabilizerResult:
    """Exact kernel of A -> (derivation action of A on the form), as the
    kernel rows of ``action_matrix``."""
    basis = linalg.kernel(action_matrix(form), range(form.dimension ** 2))
    return StabilizerResult(form, len(basis), tuple(basis))


# ---------------------------------------------------------------------------
# cylindrical 2-form types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderTypes:
    """The cylindrical realization of the 2-form split, plus the
    contraction-to-1-form isometry scale."""

    split: TypeSplit
    iso_scale: Fraction  # v -| phi  ->  *( *phi ^ (v -| phi) ) = scale * v-flat


def _cylinder_rows(phi: Multivector
                   ) -> tuple[list[Row], list[Row], list[Row]]:
    """The rank-7 and rank-21 parameterizations of the cylinder 2-form
    split for the 3-form phi on R^7, as rows of 2-forms on R^8, and the
    hats *( *phi ^ (v -| phi) ), as rows of 1-forms on R^7, one for each
    basis vector v.

    The hats *( *phi ^ . ) are the rows of ``star_wedge_matrix``.  dt is
    x_1, so a form of mask m on R^7 lifts to the mask m << 1 on R^8, and
    dt ^ it to (m << 1) | 1.
    """
    # hat[k][m]: the coefficient of dx_k in the hat of dx_m
    hat = {k: dict(entries) for k, (entries, _) in zip(
        monomial_masks(7, 1), star_wedge_matrix(hodge_star(phi), 2))}
    d = phi.denominator
    twentyone = [([((k << 1) | 1, row[m]) for k, row in hat.items()
                   if m in row] + [(m << 1, -d)], d)
                 for m in monomial_masks(7, 2)]
    seven: list[Row] = []
    hats: list[Row] = []
    for i in range(1, 8):
        entries, e = to_coords(contract(i, phi))
        dual = [(k, y) for k, row in hat.items()
                if (y := sum(x * row.get(m, 0) for m, x in entries))]
        hats.append((dual, d * e))
        seven.append(([((k << 1) | 1, y) for k, y in dual]
                      + [(m << 1, 3 * d * x) for m, x in entries], d * e))
    return seven, twentyone, hats


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
    seven, twentyone, hats = _cylinder_rows(phi)

    def rank(rows: list[Row]) -> int:
        return len(linalg.echelon(rows)[1])

    # the eigenspace bases are independent, so the parameterization stays
    # inside a block exactly when stacking it on the basis keeps the rank
    if rank([*map(to_coords, split.basis("7")), *seven]) != 7:
        raise AdmissibilityError(
            "rank-7 parameterization leaves the eigenspace split")
    if rank(seven) != 7:
        raise AdmissibilityError("rank-7 parameterization is degenerate")
    if rank([*map(to_coords, split.basis("21")), *twentyone]) != 21:
        raise AdmissibilityError(
            "rank-21 parameterization leaves the eigenspace split")
    # the 1-form *( *phi ^ (v -| phi) ) must equal scale * v-flat
    if any(k != 1 << i for i, (entries, _) in enumerate(hats)
           for k, _ in entries):
        raise AdmissibilityError(
            "contraction map is not a multiple of the metric dual")
    scales = [Fraction(dict(entries).get(1 << i, 0), d)
              for i, (entries, d) in enumerate(hats)]
    if len(set(scales)) != 1:
        raise AdmissibilityError(
            "contraction map scale differs between directions")
    return CylinderTypes(split=TypeSplit(8, 2, split.phi, (
        ("7", tuple(from_coords(v, 8, 2) for v in seven)),
        ("21", tuple(split.basis("21"))))),
        iso_scale=scales[0])
