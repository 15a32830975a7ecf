"""Decompositions of form spaces under Spin(7), G2 and SU(4).

Everything in this module is exact.  Every type split is a set of
eigenspaces of one operator on r-forms, the contraction
C_r(psi): a -> sum_(m<k) (e_m ^ e_k -| psi) ^ (e_m ^ e_k -| a),
whose integer eigenvalues label the blocks; ``TypeSplit.project``, a
Lagrange polynomial of it, also tests the cylinder rows.  The metric is
the Euclidean one: the 3- and 4-form splits check that Phi is self-dual
and meets ``_admissible``, and raise ``AdmissibilityError`` otherwise.

A split function checks every rank, and raises every
``AdmissibilityError``, when it builds the split; a block's basis is
built on its first read.  Where a rank needs an elimination, it is the
smallest one the spectrum allows: C_r is symmetric with trace 0 and a
known norm, so once the known blocks are eigenspaces of the right ranks,
the eigenvalues left are forced (see ``TypeSplit``).  The 2-form split
reduces the 28 rows of C_2(Phi) + 1 to 7 pivots, and the 4-form split
the 7 images of Phi under e_1 ^ e_j instead of all 28 of so(8).

Cached tables of +-1 entries per monomial, keyed by (n, mask), make every
matrix entry plus or minus a coefficient of the form:
``_monomial_action`` gives ``action_matrix``, the gl(n) action, which
``_monomial_rotation`` regroups by the generators of so(n), and
``_monomial_contraction`` gives ``contraction_matrix``, C_r itself.  The
column of dx_m in every exact row is the mask m, and rows are listed in
increasing mask order.  The star sends dx_m to +-dx_(255 ^ m) on R^8, so
a self-dual 4-form is fixed by its coefficients at the masks with dx_8
(``m & 128``), the half of the 70 coordinates that the 4-form split
works on.  The stabilizer is kept as kernel rows, column i*n + j for E_ij.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from spin7.forms import (
    Multivector, _star_negated, contract, cylinder_form,
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
def _monomial_contraction(n: int, r: int, mask: int
                          ) -> tuple[tuple[int, int, bool], ...]:
    """(row mask, column mask, negated) of each entry of C_r(dx_mask), all
    +-1: one per degree-r monomial dx_m sharing exactly one pair p of
    indices with dx_mask, sent to dx_(mask ^ m).  The sign moves dx_p to
    the front of both, where e_p -| takes it off, and sorts the rest."""
    return tuple(
        (mask ^ m, m, merge_sign(p, mask ^ p) * merge_sign(p, m ^ p)
         * merge_sign(mask ^ p, m ^ p) < 0)
        for m in monomial_masks(n, r)
        for p in (mask & m,) if p.bit_count() == 2)


def contraction_matrix(psi: Multivector, r: int) -> list[Row]:
    """Exact rows of C_r(psi) from r-forms to (s + r - 4)-forms, s the
    degree of psi; on 2-forms C_2(psi) is a -> *( *psi ^ a) if s (n - s)
    is even, as on R^8 and R^7 here, and its negative otherwise.

    The rows belong to the output monomials in increasing mask order, and
    column m to the input monomial dx_m.  The entry in row i and column m
    is plus or minus the coefficient of psi at the mask i ^ m, picked from
    (c, -c) as in ``action_matrix``.  The rows share psi's denominator and
    list their columns in no particular order.
    """
    n = psi.dimension
    rows: dict[int, list[tuple[int, int]]] = {
        m: [] for m in monomial_masks(n, psi.degree + r - 4)}
    for mask, c in psi.numerators.items():
        pair = (c, -c)
        for row, col, negated in _monomial_contraction(n, r, mask):
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

@dataclass(frozen=True, eq=False)
class TypeSplit:
    """An orthogonal decomposition of Lambda^r(R^n) into labeled blocks:
    each block is the eigenspace of C_r(phi) for the eigenvalue stored
    beside its label.  C_r(phi) is symmetric with zero diagonal and
    |C_r(phi)|^2 = (6, 24, 36) |phi|^2 for r = 2, 3, 4 on R^8, so when the
    k eigenvalues left after the known blocks have the sum k mu and the
    sum of squares k mu^2, the complement is the mu-eigenspace.  The same
    argument forces whole spectra from one small elimination:

    - on 2-forms, with |phi|^2 = 14, C_2 + 1 of rank 7 leaves 7
      eigenvalues besides the 21-fold -1, with the sum 21 and squares
      summing to 84 - 21 = 63 = 7 * 3^2: the spectrum is {3^7, -1^21};
    - on 4-forms, with phi a 12-eigenvector, the 35 anti-self-dual forms
      0-eigenvectors and 7 independent 6-eigenvectors, the 27 eigenvalues
      left sum to -54 with squares summing to 504 - 144 - 252 = 108, and
      (-54)^2 = 27 * 108 is the equality case of Cauchy-Schwarz: they are
      all -2, and the multiplicities are (1, 7, 35, 27).

    The split functions check every rank when they build a split, so
    ``ranks`` reads no basis.  ``specs`` holds (label, eigenvalue, rank,
    build) per block, and ``build(split)`` returns the block's basis.  A
    basis, and C_r(phi) for ``project``, is built on its first read and
    kept.  Splits compare by identity, since ``build`` is a function."""

    dimension: int
    degree: int
    phi: Multivector
    specs: tuple[tuple[str, int, int,
                       Callable[[TypeSplit], Sequence[Multivector]]], ...]
    # label -> basis, and None -> the entries of C_r(phi) by row mask
    _built: dict = field(default_factory=dict, init=False, repr=False)

    def _read(self, key, build):
        """The value kept under ``key``, from ``build()`` on the first read."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(rank for _, _, rank, _ in self.specs)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _, _ in self.specs)

    @property
    def blocks(self) -> tuple[tuple[str, int, tuple[Multivector, ...]], ...]:
        """(label, eigenvalue, basis) per block, every basis built."""
        return tuple((label, eigenvalue, self.basis(label))
                     for label, eigenvalue, _, _ in self.specs)

    def basis(self, label: str) -> tuple[Multivector, ...]:
        for block_label, _, _, build in self.specs:
            if block_label == label:
                return self._read(label, lambda: tuple(build(self)))
        raise KeyError(f"no block labeled {label!r}")

    def project(self, label: str, a: Multivector) -> Multivector:
        """Exact orthogonal projection of ``a`` onto the labeled block.

        C_r(phi) is symmetric and the blocks are its eigenspaces, so the
        projection onto the block of eigenvalue lambda is the Lagrange
        polynomial prod_mu (C_r(phi) - mu) / (lambda - mu) over the other
        blocks' eigenvalues mu, applied to the numerators v of ``a``; by
        the symmetry, C_r(phi) v is the sum of v_k times the row of mask k."""
        if (a.dimension, a.degree) != (self.dimension, self.degree):
            raise ValueError(
                f"expected a form with (n, r) = ({self.dimension}, "
                f"{self.degree}); got ({a.dimension}, {a.degree})")
        eigenvalues = {block_label: eigenvalue
                       for block_label, eigenvalue, _, _ in self.specs}
        eigenvalue = eigenvalues.pop(label)
        rows = self._read(None, lambda: {
            m: entries for m, (entries, _) in zip(
                monomial_masks(self.dimension, self.degree),
                contraction_matrix(self.phi, self.degree))})
        d = self.phi.denominator
        v, scale = a.numerators, a.denominator
        for mu in eigenvalues.values():  # (C_r - mu) v gains the factor d
            w = {m: -mu * d * x for m, x in v.items()}
            for k, x in v.items():
                for m, c in rows[k]:
                    w[m] = w.get(m, 0) + c * x
            v = {m: x for m, x in w.items() if x}
            scale *= d * (eigenvalue - mu)
        return Multivector(self.dimension, self.degree,
                           {m: Fraction(x, scale) for m, x in v.items()})


def _eigenspace(matrix: list[Row], eigenvalue: int) -> list[Multivector]:
    """Exact eigenspace of the rows of a C_2(psi) on 2-forms on R^8, which
    has no diagonal entries."""
    masks = monomial_masks(8, 2)
    # from the last row up: the same kernel, with less fill-in
    return [from_coords(v, 8, 2) for v in linalg.kernel(
        [(entries + [(m, -eigenvalue * d)], d)
         for m, (entries, d) in zip(masks[::-1], matrix[::-1])], masks)]


def _complement(forms: Sequence[Multivector]) -> list[Multivector]:
    """Basis of the orthogonal complement of the span of equal-degree forms."""
    n, r = forms[0].dimension, forms[0].degree
    rows = [to_coords(f) for f in forms]
    return [from_coords(v, n, r)
            for v in linalg.kernel(rows, monomial_masks(n, r))]


_NOT_SELF_DUAL = ("form not admissible here: Phi must be self-dual for the "
                  "Euclidean metric")


def two_form_split(phi: Multivector) -> TypeSplit:
    """Split 2-forms on R^8 by the eigenvalues {3, -1} of C_2(Phi), that is
    of a -> *( *Phi ^ a), into ranks (7, 21).

    The rank-7 block is the row space of C_2(Phi) + 1: with |Phi|^2 = 14,
    rank 7 forces the spectrum {3^7, -1^21} (see ``TypeSplit``), so the
    row space is the 3-eigenspace.  Rank 7 alone gives only |Phi|^2 >= 14:
    the other 7 eigenvalues sum to 21 with squares summing to
    6 |Phi|^2 - 21, and Cauchy-Schwarz gives 21^2 <= 7 (6 |Phi|^2 - 21),
    with equality exactly when all 7 are 3.  So the norm test is that
    equality case, and it stays.  The pivots of a reduced basis taken
    from the right are the free columns of the reduction of its
    orthogonal complement from the left, so one ``echelon`` of the 28 rows
    of C_2(Phi) + 1, run with the columns in reverse order, gives the
    kernel basis of C_2(Phi) - 3.  The rank-21 block is the orthogonal
    complement.  Phi must be self-dual, checked after the ranks."""
    if phi.dimension != 8 or phi.degree != 4:
        raise ValueError("expected a 4-form on R^8")
    masks = monomial_masks(8, 2)
    matrix = contraction_matrix(phi, 2)
    # the column of dx_m is keyed 255 - m, so pivots are taken from the right
    rows = linalg.echelon([
        ([(255 - k, x) for k, x in entries] + [(255 - m, d)], d)
        for m, (entries, d) in zip(masks, matrix)])[0]
    if len(rows) != 7 or inner(phi, phi) != 14:
        rank3 = len(_eigenspace(matrix, 3))  # only to name its rank
        raise AdmissibilityError(
            "form not admissible: the 2-form operator C_2(Phi) = "
            "*( *Phi ^ .) does not have eigenspace ranks (7, 21); found "
            f"({rank3}, {28 - len(rows)})")
    if hodge_star(phi) != phi:
        raise AdmissibilityError(_NOT_SELF_DUAL)
    # the rows and their entries back in increasing mask order
    block7 = [([(255 - k, x) for k, x in reversed(entries)], d)
              for entries, d in reversed(rows)]
    return TypeSplit(8, 2, phi, (
        ("7", 3, 7, lambda _: [from_coords(v, 8, 2) for v in block7]),
        ("21", -1, 21, lambda split: _complement(split.basis("7")))))


def _admissible(phi: Multivector) -> bool:
    """The premise of the 3- and 4-form splits, for a self-dual Phi:
    |Phi|^2 = 14 and C_4(Phi)(Phi) = 12 Phi.  C_4 is so(8)-equivariant and
    symmetric in its two 4-forms, so so(8).Phi is then in the 6-eigenspace
    of C_4(Phi), and C_3(v -| Phi) = 1/2 v -| C_4(Phi)(Phi) = 6 v -| Phi.
    C_4(Phi) kills the anti-self-dual forms, so its image is self-dual and
    the identity is checked at the masks with dx_8.  There each product
    pairs a monomial without dx_8 with one with it, and appears twice."""
    v, d = phi.numerators, phi.denominator
    half: dict[int, int] = {}  # of C_4(Phi)(Phi), over d^2
    for mask, c in v.items():
        if not mask & 128:
            for row, col, negated in _monomial_contraction(8, 4, mask):
                if row & 128 and col in v:
                    x = c * v[col]
                    half[row] = half.get(row, 0) + (-x if negated else x)
    return (sum(x * x for x in v.values()) == 14 * d * d
            and all(half.get(m, 0) == 6 * d * v.get(m, 0)
                    for m in monomial_masks(8, 4) if m & 128))


_NOT_ADMISSIBLE = ("form not admissible: Phi must have |Phi|^2 = 14 and "
                   "C_4(Phi)(Phi) = 12 Phi")


def three_form_split(phi: Multivector) -> TypeSplit:
    """Split 3-forms on R^8 into {v -| Phi} and its orthogonal complement,
    of ranks (8, 48), the eigenspaces of C_3(Phi) for 6 and -1.  Under the
    premise of ``_admissible`` the contractions are 6-eigenvectors; once
    one ``echelon`` finds the 8 of them independent, the 48 eigenvalues
    left sum to -48 with squares summing to 336 - 8 * 36 = 48, so all are
    -1."""
    if phi.dimension != 8 or phi.degree != 4:
        raise ValueError("expected a 4-form on R^8")
    if hodge_star(phi) != phi:
        raise AdmissibilityError(_NOT_SELF_DUAL)
    if not _admissible(phi):
        raise AdmissibilityError(_NOT_ADMISSIBLE)
    contractions = [contract(i, phi) for i in range(1, 9)]
    if len(linalg.echelon([to_coords(c) for c in contractions])[1]) != 8:
        raise AdmissibilityError(
            "form not admissible: contractions v -| Phi do not span an "
            "8-dimensional space")
    return TypeSplit(8, 3, phi, (
        ("8", 6, 8, lambda _: contractions),
        ("48", -1, 48, lambda split: _complement(split.basis("8")))))


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


def _orbit_rows(phi: Multivector, count: int) -> list[Row]:
    """The images of Phi under the first ``count`` generators of so(8), in
    ``_monomial_rotation`` order, on the masks without dx_8.  The first 7
    are e_1 ^ e_j for j = 2, ..., 8."""
    rows: list[Row] = [([], phi.denominator) for _ in range(count)]
    for mask, c in phi.numerators.items():
        pair = (c, -c)
        for generator, row, negated in _monomial_rotation(8, mask):
            if generator < count and not row & 128:
                rows[generator][0].append((row, pair[negated]))
    return rows


def four_form_split(phi: Multivector) -> TypeSplit:
    """Split 4-forms on R^8 into ranks (1, 7, 27, 35), the eigenspaces of
    C_4(Phi) for 12, 6, -2 and 0.

    The rank-1 block is spanned by Phi, the rank-7 block is the tangent
    space so(8).Phi of the rotation orbit, the rank-35 block consists of
    the anti-self-dual forms, and the rank-27 block is ``_complement`` of
    the other 43 basis forms, as every rest-block is.  Only the 7 images of Phi under e_1 ^ e_j are
    eliminated: under the premise of ``_admissible``, Phi is a
    12-eigenvector, the anti-self-dual forms are 0-eigenvectors and so(8)
    maps Phi into the 6-eigenspace, so 7 independent images there force
    the multiplicities (1, 7, 35, 27) (see ``TypeSplit``) and span
    so(8).Phi, the whole 6-eigenspace."""
    if phi.dimension != 8 or phi.degree != 4:
        raise ValueError("expected a 4-form on R^8")
    if hodge_star(phi) != phi:
        raise AdmissibilityError(_NOT_SELF_DUAL)

    # so(8) commutes with *, so the images of Phi and their reduced rows
    # are self-dual, with pivots among the masks without dx_8: eliminating
    # there and extending by * gives the reduced rows of all 70 columns
    reduced = linalg.echelon(_orbit_rows(phi, 7))[0]
    admissible = _admissible(phi)
    if len(reduced) != 7 or not admissible:
        # the whole orbit, to name its rank.  A form that passes both
        # checks below has an orbit of rank 7 in the 6-eigenspace, which
        # forces the spectrum as 7 independent images would
        reduced = linalg.echelon(_orbit_rows(phi, 28))[0]
        if len(reduced) != 7:
            raise AdmissibilityError(
                f"form not admissible: so(8).Phi has rank {len(reduced)}, "
                "not 7")
        if not admissible:
            raise AdmissibilityError(_NOT_ADMISSIBLE)

    return TypeSplit(8, 4, phi, (
        ("1", 12, 1, lambda _: (phi,)),
        ("7", 6, 7, lambda _: [from_coords(_self_dual(v), 8, 4)
                               for v in reduced]),
        ("27", -2, 27, lambda split: _complement(
            [phi, *split.basis("7"), *split.basis("35")])),
        ("35", 0, 35, lambda _: _anti_self_dual_block()),
    ))


def su4_two_form_refinement(omega: Multivector,
                            re_theta: Multivector) -> TypeSplit:
    """Refine the 2-form split under SU(4) into ranks (1, 6, 6, 15), the
    eigenspaces of C_2(psi) for 3, 5, -3 and -1, psi = omega^2/2 +
    2 Re theta.

    The rank-1 block is spanned by omega, and the rank-15 block is the
    complement of the rest: with a nonzero omega as a 3-eigenvector and
    |psi|^2 = 38 its 15 eigenvalues sum to -15 with squares summing to
    15."""
    if omega.dimension != 8 or omega.degree != 2:
        raise ValueError("expected the Kaehler 2-form on R^8")
    if re_theta.dimension != 8 or re_theta.degree != 4:
        raise ValueError("expected the real part of the (4,0)-form")
    psi = wedge(omega, omega) * Fraction(1, 2) + 2 * re_theta
    matrix = contraction_matrix(psi, 2)
    plus, minus = _eigenspace(matrix, 5), _eigenspace(matrix, -3)
    # C_2(psi) omega = *( *psi ^ omega)
    if (omega.is_zero()
            or hodge_star(wedge(hodge_star(psi), omega)) != 3 * omega
            or inner(psi, psi) != 38 or (len(plus), len(minus)) != (6, 6)):
        raise AdmissibilityError(
            "eigenvalue structure violated: C_2(omega^2/2 + 2 Re theta) "
            "needs the norm sqrt(38), omega as a 3-eigenvector and 5- and "
            f"-3-eigenspaces of ranks ({len(plus)}, {len(minus)}) = (6, 6)")
    return TypeSplit(8, 2, psi, (
        ("1", 3, 1, lambda _: (omega,)),
        ("6+", 5, 6, lambda _: plus),
        ("6-", -3, 6, lambda _: minus),
        ("15", -1, 15, lambda _: _complement([omega, *plus, *minus])),
    ))


# ---------------------------------------------------------------------------
# stabilizer algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizerResult:
    """Annihilator of a form under the infinitesimal gl(n) action."""

    dim: int
    basis: tuple[Row, ...]  # column i*n + j holds the entry of E_ij


def stabilizer_dimension(form: Multivector) -> StabilizerResult:
    """Exact kernel of A -> (derivation action of A on the form), as the
    kernel rows of ``action_matrix``."""
    basis = linalg.kernel(action_matrix(form), range(form.dimension ** 2))
    return StabilizerResult(len(basis), tuple(basis))


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

    The hats *( *phi ^ . ) are the rows of ``contraction_matrix``.  dt is
    x_1, so a form of mask m on R^7 lifts to the mask m << 1 on R^8, and
    dt ^ it to (m << 1) | 1.
    """
    # hat[k][m]: the coefficient of dx_k in the hat of dx_m
    hat = {k: dict(entries) for k, (entries, _) in zip(
        monomial_masks(7, 1), contraction_matrix(phi, 2))}
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


def cylinder_two_form_types(phi: Multivector) -> CylinderTypes:
    """The 2-form split of the cylinder 4-form dt ^ phi + *phi of the
    3-form phi on R^7, and the contraction isometry scale.

    For each tangent vector v of R^7 the rank-7 block is spanned by
    dt ^ *( *phi ^ (v -| phi) ) + 3 (v -| phi), and the rank-21 block by
    dt ^ *( *phi ^ alpha ) - alpha over 2-forms alpha.  Each row must
    project to 0 on the other block; each projection is one factor
    C_2 - mu, so this is the eigenvector equation.  The 21 rows are
    independent (each holds -d at its own mask without dt), so with 7
    independent rank-7 rows they fill both eigenspaces.  The rank-21
    basis is the orthogonal complement of the rank-7 rows.  The scale
    makes v -| phi -> *( *phi ^ (v -| phi) ) a multiple of v-flat.
    """
    psi = cylinder_form(phi)  # raises unless phi is a 3-form on R^7
    seven, twentyone, hats = _cylinder_rows(phi)
    split = TypeSplit(8, 2, psi, (
        ("7", 3, 7, lambda _: [from_coords(v, 8, 2) for v in seven]),
        ("21", -1, 21, lambda split: _complement(split.basis("7")))))
    if not all(split.project("21", from_coords(v, 8, 2)).is_zero()
               for v in seven):
        raise AdmissibilityError(
            "rank-7 parameterization leaves the eigenspace split")
    if len(linalg.echelon(seven)[1]) != 7:
        raise AdmissibilityError("rank-7 parameterization is degenerate")
    if not all(split.project("7", from_coords(v, 8, 2)).is_zero()
               for v in twentyone):
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
    return CylinderTypes(split=split, iso_scale=scales[0])
