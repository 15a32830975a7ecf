"""Exact exterior algebra on an oriented Euclidean R^n (n <= 9).

Multivectors are antisymmetric tensors with rational coefficients, stored
sparsely as a map from index bitmasks to nonzero ``Fraction`` values.  The
monomial basis dx_I (I a strictly increasing index tuple) is orthonormal,
and the orientation is fixed by declaring dx_1 ^ ... ^ dx_n the positive
unit volume form.  All operations here are pure and exact; no floating
point enters this module.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence, Union

MAX_DIMENSION = 9

Scalar = Union[int, Fraction]


def _mask_of(indices: Iterable[int], n: int) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated index {i}")
        mask |= bit
    return mask


def _indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def merge_sign(mask_a: int, mask_b: int) -> int:
    """Sign of sorting the concatenation dx_A ^ dx_B into increasing order.

    Counts transpositions: for each bit of ``mask_b``, the number of bits of
    ``mask_a`` strictly above it.  This is the only sign computation of the
    exterior algebra; every other sign is a product of these.
    """
    swaps = 0
    while mask_b:
        low = mask_b & -mask_b
        swaps += (mask_a & -(low << 1)).bit_count()  # bits of a above low
        mask_b ^= low
    return -1 if swaps & 1 else 1


class Multivector:
    """An exact degree-r form on oriented Euclidean R^n.

    Immutable.  ``terms`` maps index bitmasks to nonzero rational
    coefficients; bit i-1 of a mask corresponds to dx_i.
    """

    __slots__ = ("dimension", "degree", "terms")

    def __init__(self, dimension: int, degree: int,
                 terms: Mapping[int, Scalar] | None = None):
        if not 1 <= dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
        if not 0 <= degree <= dimension:
            raise ValueError("degree must satisfy 0 <= r <= n")
        clean: dict[int, Fraction] = {}
        if terms:
            for mask, coeff in terms.items():
                if mask < 0 or mask >= (1 << dimension):
                    raise ValueError("index mask out of range")
                if bin(mask).count("1") != degree:
                    raise ValueError("mask degree mismatch")
                c = Fraction(coeff)
                if c:
                    clean[mask] = c
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dimension: int, degree: int) -> "Multivector":
        return cls(dimension, degree, {})

    @classmethod
    def monomial(cls, dimension: int, indices: Sequence[int],
                 coeff: Scalar = 1) -> "Multivector":
        """coeff * dx_{i1} ^ ... ^ dx_{ir} for strictly increasing indices."""
        idx = tuple(indices)
        if list(idx) != sorted(set(idx)):
            raise ValueError("indices must be strictly increasing")
        return cls(dimension, len(idx), {_mask_of(idx, dimension): coeff})

    @classmethod
    def scalar(cls, dimension: int, value: Scalar) -> "Multivector":
        return cls(dimension, 0, {0: value})

    @classmethod
    def from_terms(cls, dimension: int,
                   entries: Iterable[tuple[Sequence[int], Scalar]]
                   ) -> "Multivector":
        """Build a form from (index tuple, coefficient) pairs.

        Index tuples may be unsorted; the sign of sorting is absorbed into
        the coefficient.  All tuples must have equal length.
        """
        acc: dict[int, Fraction] = {}
        degree = None
        for indices, coeff in entries:
            idx = list(indices)
            if degree is None:
                degree = len(idx)
            elif len(idx) != degree:
                raise ValueError("mixed degrees")
            bits = [_mask_of((i,), dimension) for i in idx]  # range check
            if len(set(bits)) != len(bits):
                continue  # a repeated index kills the term
            sign, mask = 1, 0
            for bit in bits:
                sign *= merge_sign(mask, bit)
                mask |= bit
            acc[mask] = acc.get(mask, Fraction(0)) + sign * Fraction(coeff)
        if degree is None:
            raise ValueError("no terms supplied; use Multivector.zero")
        return cls(dimension, degree, acc)

    # -- basic structure ----------------------------------------------

    def coefficient(self, indices: Sequence[int]) -> Fraction:
        return self.terms.get(_mask_of(indices, self.dimension), Fraction(0))

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms as (increasing index tuple, coefficient), canonically ordered."""
        return sorted(((_indices_of(m), c) for m, c in self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Multivector)
                and self.dimension == other.dimension
                and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dimension, self.degree,
                     tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        return (f"Multivector(n={self.dimension}, r={self.degree}, "
                f"{format_form(self)!r})")

    # -- linear operations --------------------------------------------

    def _check_additive(self, other: "Multivector"):
        if not isinstance(other, Multivector):
            raise TypeError("expected a Multivector")
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_additive(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return Multivector(self.dimension, self.degree, acc)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_additive(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, Fraction(0)) - c
        return Multivector(self.dimension, self.degree, acc)

    def __neg__(self) -> "Multivector":
        return Multivector(self.dimension, self.degree,
                           {m: -c for m, c in self.terms.items()})

    def __mul__(self, scalar: Scalar) -> "Multivector":
        if not isinstance(scalar, Rational):
            return NotImplemented
        s = Fraction(scalar)
        return Multivector(self.dimension, self.degree,
                           {m: c * s for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "Multivector":
        return self * (Fraction(1) / Fraction(scalar))


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product.  Degree overflow (> n) yields the zero form."""
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    n = a.dimension
    degree = a.degree + b.degree
    if degree > n:
        return Multivector.zero(n, n)  # canonical zero of top degree
    acc: dict[int, Fraction] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            sign = merge_sign(ma, mb)
            m = ma | mb
            acc[m] = acc.get(m, Fraction(0)) + sign * ca * cb
    return Multivector(n, degree, acc)


def hodge_star(a: Multivector) -> Multivector:
    """Hodge star for the Euclidean metric and standard orientation.

    On monomials, *(dx_I) = sign * dx_{I^c} with the sign fixed by
    dx_I ^ *(dx_I) = vol.
    """
    n = a.dimension
    full = (1 << n) - 1
    acc: dict[int, Fraction] = {}
    for m, c in a.terms.items():
        comp = full ^ m
        acc[comp] = merge_sign(m, comp) * c
    return Multivector(n, n - a.degree, acc)


def contract(v, a: Multivector) -> Multivector:
    """Interior product v -| a.

    ``v`` is a 1-based basis index or a sequence of rational components.
    """
    if a.degree == 0:
        raise ValueError("cannot contract a 0-form")
    n = a.dimension
    if isinstance(v, int):
        components = {v: Fraction(1)}
    else:
        components = {i + 1: Fraction(c) for i, c in enumerate(v) if c}
        if len(v) != n:
            raise ValueError("vector length must equal the dimension")
    acc: dict[int, Fraction] = {}
    for m, c in a.terms.items():
        for k, vk in components.items():
            bit = 1 << (k - 1)
            if not m & bit:
                continue
            m2 = m ^ bit
            acc[m2] = (acc.get(m2, Fraction(0))
                       + merge_sign(bit, m2) * vk * c)
    return Multivector(n, a.degree - 1, acc)


def inner(a: Multivector, b: Multivector) -> Fraction:
    """Euclidean inner product; the monomial basis is orthonormal."""
    if a.dimension != b.dimension or a.degree != b.degree:
        raise ValueError("inner product needs equal dimension and degree")
    total = Fraction(0)
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    for m, c in small.items():
        d = large.get(m)
        if d is not None:
            total += c * d
    return total


def volume_form(n: int) -> Multivector:
    return Multivector(n, n, {(1 << n) - 1: 1})


# ---------------------------------------------------------------------------
# named forms
# ---------------------------------------------------------------------------

_CAYLEY_TERMS = [
    ((1, 2, 3, 4), 1), ((1, 2, 5, 6), 1), ((1, 2, 7, 8), 1),
    ((1, 3, 5, 7), 1), ((1, 3, 6, 8), -1), ((1, 4, 5, 8), -1),
    ((1, 4, 6, 7), -1), ((2, 3, 5, 8), -1), ((2, 3, 6, 7), -1),
    ((2, 4, 5, 7), -1), ((2, 4, 6, 8), 1), ((3, 4, 5, 6), 1),
    ((3, 4, 7, 8), 1), ((5, 6, 7, 8), 1),
]


def cayley_form() -> Multivector:
    """The 14-term self-dual 4-form on R^8 whose GL(8) stabilizer is Spin(7)."""
    return Multivector.from_terms(8, _CAYLEY_TERMS)


def g2_split(phi4: Multivector) -> tuple[Multivector, Multivector]:
    """Split a 4-form on R^8 as dx_1 ^ alpha + beta with no dx_1 in beta.

    Returns (alpha, beta) as forms on R^7, where coordinate j on R^7
    corresponds to x_{j+1} on R^8.  Applied to the Cayley form this yields
    the standard G2 3-form and its 7-dimensional Hodge dual.
    """
    if phi4.dimension != 8 or phi4.degree != 4:
        raise ValueError("expected a 4-form on R^8")
    with_dx1: dict[int, Fraction] = {}
    without: dict[int, Fraction] = {}
    for m, c in phi4.terms.items():
        if m & 1:
            with_dx1[(m >> 1)] = c  # drop x1, shift x_{j+1} -> x_j
        else:
            without[(m >> 1)] = c
    return (Multivector(7, 3, with_dx1), Multivector(7, 4, without))


def g2_phi() -> Multivector:
    """The standard G2 3-form on R^7 (the dx_1 factor of the Cayley form)."""
    return g2_split(cayley_form())[0]


def cylinder_form(phi: Multivector) -> Multivector:
    """Lift a 3-form phi on R^7 to the cylinder 4-form dt ^ phi + *7(phi).

    The cylinder coordinate t is x_1 of R^8, and R^7 coordinate j maps to
    x_{j+1}.
    """
    if phi.dimension != 7 or phi.degree != 3:
        raise ValueError("expected a 3-form on R^7")
    star7 = hodge_star(phi)
    terms: dict[int, Fraction] = {}
    for m, c in phi.terms.items():
        terms[(m << 1) | 1] = c
    for m, c in star7.terms.items():
        terms[m << 1] = c
    return Multivector(8, 4, terms)


def su4_forms() -> tuple[Multivector, Multivector, Multivector]:
    """The standard SU(4) data on R^8: (omega, Re theta, Im theta).

    Complex coordinates are z_j = x_{2j-1} + i x_{2j}; omega is the Kaehler
    form and theta = dz_1 ^ dz_2 ^ dz_3 ^ dz_4 the holomorphic volume form.
    The normalization identity 3 theta ^ conj(theta) = 2 omega^4 holds
    exactly, as does (1/2) omega^2 + Re theta = cayley_form().
    """
    omega = Multivector.from_terms(
        8, [((1, 2), 1), ((3, 4), 1), ((5, 6), 1), ((7, 8), 1)])
    re_terms: list[tuple[tuple[int, ...], int]] = []
    im_terms: list[tuple[tuple[int, ...], int]] = []
    reals = (1, 3, 5, 7)
    imags = (2, 4, 6, 8)
    # expand (dx1 + i dx2)(dx3 + i dx4)(dx5 + i dx6)(dx7 + i dx8)
    for picks in itertools.product((0, 1), repeat=4):
        indices = tuple(imags[j] if picks[j] else reals[j] for j in range(4))
        k = sum(picks)  # power of i
        coeff = (-1) ** (k // 2)
        if k % 2 == 0:
            re_terms.append((indices, coeff))
        else:
            im_terms.append((indices, coeff))
    return (omega,
            Multivector.from_terms(8, re_terms),
            Multivector.from_terms(8, im_terms))


# ---------------------------------------------------------------------------
# text form literals
# ---------------------------------------------------------------------------
#
# Grammar (whitespace-separated terms):
#   form  := "0" | term+
#   term  := sign? rational "dx[" indices "]"     e.g.  +1 dx[1,2,3,4]
#   rational := int ("/" int)?
#
# format_form and parse_form round-trip bit-exactly.

_TERM_RE = re.compile(
    r"\s*([+-]?\s*\d+(?:/\d+)?)\s*dx\[([0-9,\s]*)\]")


def format_form(a: Multivector) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for indices, coeff in a.items():
        sign = "+" if coeff > 0 else "-"
        mag = -coeff if coeff < 0 else coeff
        idx = ",".join(str(i) for i in indices)
        parts.append(f"{sign}{mag} dx[{idx}]")
    return " ".join(parts)


def parse_form(text: str, dimension: int,
               degree: int | None = None) -> Multivector:
    """Parse a form literal such as ``+1 dx[1,2,3,4] -2/3 dx[5,6,7,8]``."""
    stripped = text.strip()
    if stripped == "0":
        if degree is None:
            raise ValueError("degree required to parse the zero form")
        return Multivector.zero(dimension, degree)
    acc: dict[int, Fraction] = {}
    pos = 0
    seen_degree = degree
    while pos < len(stripped):
        m = _TERM_RE.match(stripped, pos)
        if not m:
            raise ValueError(f"bad form literal near: {stripped[pos:pos+30]!r}")
        coeff = Fraction(m.group(1).replace(" ", ""))
        idx_text = m.group(2).strip()
        indices = tuple(int(t) for t in idx_text.split(",")) if idx_text else ()
        if list(indices) != sorted(set(indices)):
            raise ValueError("indices must be strictly increasing")
        if seen_degree is None:
            seen_degree = len(indices)
        elif len(indices) != seen_degree:
            raise ValueError("mixed degrees in form literal")
        mask = _mask_of(indices, dimension)
        acc[mask] = acc.get(mask, Fraction(0)) + coeff
        pos = m.end()
    assert seen_degree is not None
    return Multivector(dimension, seen_degree, acc)
