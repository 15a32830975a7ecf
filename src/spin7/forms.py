"""Exact exterior algebra on an oriented Euclidean R^n (n <= 9).

Multivectors are antisymmetric tensors with rational coefficients, stored
sparsely as nonzero int numerators keyed by index bitmask over one
positive denominator, in lowest terms.  The operations run on those ints:
a product multiplies numerators and denominators, the Hodge star and the
contraction with a basis vector only flip signs and pick terms, and a sum
scales both forms to the lcm of their denominators.  Each result is
reduced by one gcd.  ``Fraction`` appears only at the edges: the public
constructor reads ``Fraction``-convertible coefficients, and ``terms``,
``coefficient`` and ``items`` return them.  ``from_terms`` keeps int
coefficients as ints.

Every sign derives from one primitive, ``merge_sign``.  The Hodge star
reads its signs from a table of merge_signs per mask, built on first
use for each n, and the contraction with dx_k uses merge_sign's closed
form for one bit: the parity of the bits of the monomial below k.

The monomial basis dx_I (I a strictly increasing index tuple) is
orthonormal, and the orientation is fixed by declaring dx_1 ^ ... ^ dx_n
the positive unit volume form.  All operations here are pure and exact;
no floating point enters this module.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
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
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def merge_sign(mask_a: int, mask_b: int) -> int:
    """Sign of sorting the concatenation dx_A ^ dx_B into increasing order.

    Counts transpositions: for each bit of ``mask_b``, the number of bits of
    ``mask_a`` strictly above it.  This is the one sign primitive of the
    exterior algebra; every other sign is a product of these, a table of
    them or, for a one-bit ``mask_a``, their closed form.
    """
    swaps = 0
    while mask_b:
        low = mask_b & -mask_b
        swaps += (mask_a & -(low << 1)).bit_count()  # bits of a above low
        mask_b ^= low
    return -1 if swaps & 1 else 1


class Multivector:
    """An exact degree-r form on oriented Euclidean R^n.

    Immutable.  The form is ``numerators[mask] / denominator`` at each
    listed index bitmask and zero elsewhere; bit i-1 of a mask corresponds
    to dx_i.  The numerators are nonzero ints and the denominator a
    positive int, always in lowest terms: ``gcd(*numerators.values(),
    denominator) == 1``, so equal forms have equal fields.  ``terms`` is
    the same form as a map from masks to ``Fraction`` coefficients.
    """

    __slots__ = ("dimension", "degree", "numerators", "denominator")

    def __init__(self, dimension: int, degree: int,
                 terms: Mapping[int, Scalar] | None = None):
        if not 1 <= dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
        if not 0 <= degree <= dimension:
            raise ValueError("degree must satisfy 0 <= r <= n")
        clean: dict[int, tuple[int, int]] = {}  # reduced (p, q) by mask
        if terms:
            for mask, coeff in terms.items():
                if mask < 0 or mask >= (1 << dimension):
                    raise ValueError("index mask out of range")
                if bin(mask).count("1") != degree:
                    raise ValueError("mask degree mismatch")
                c = Fraction(coeff)
                if c:
                    clean[mask] = int(c.numerator), int(c.denominator)
        # over the lcm of reduced denominators the numerators share no
        # factor with it: a prime power dividing it exactly divides some
        # coefficient's denominator, and not that coefficient's numerator
        d = lcm(*[q for _, q in clean.values()])
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "numerators", {
            m: p * (d // q) for m, (p, q) in clean.items()})
        object.__setattr__(self, "denominator", d)

    @classmethod
    def _trusted(cls, dimension: int, degree: int, numerators: dict[int, int],
                 denominator: int = 1) -> "Multivector":
        """A form from fields that are valid by construction, with no check:
        masks of the right range and degree, nonzero int numerators and a
        positive denominator, in lowest terms."""
        form = object.__new__(cls)
        object.__setattr__(form, "dimension", dimension)
        object.__setattr__(form, "degree", degree)
        object.__setattr__(form, "numerators", numerators)
        object.__setattr__(form, "denominator", denominator)
        return form

    @classmethod
    def _reduced(cls, dimension: int, degree: int, numerators: dict[int, int],
                 denominator: int) -> "Multivector":
        """``_trusted`` for fields that may share a factor: divides it out."""
        if denominator != 1:
            g = gcd(denominator, *numerators.values())
            if g != 1:
                numerators = {m: x // g for m, x in numerators.items()}
                denominator //= g
        return cls._trusted(dimension, degree, numerators, denominator)

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
        signed: list[tuple[int, Scalar]] = []  # (mask, signed coefficient)
        degree = None
        for indices, coeff in entries:
            idx = list(indices)
            if degree is None:
                degree = len(idx)
            elif len(idx) != degree:
                raise ValueError("mixed degrees")
            for i in idx:  # the range check comes before a repeat
                if not 0 < i <= dimension:
                    raise ValueError(f"index {i} out of range 1..{dimension}")
            mask, sign = 0, 1
            for i in idx:
                bit = 1 << (i - 1)
                if mask & bit:
                    break  # a repeated index kills the term
                if mask > bit:  # else no bit of mask lies above bit
                    sign *= merge_sign(mask, bit)
                mask |= bit
            else:
                c = coeff if type(coeff) is int else Fraction(coeff)
                signed.append((mask, c if sign > 0 else -c))
        if degree is None:
            raise ValueError("no terms supplied; use Multivector.zero")
        # an int is its own numerator over the denominator 1
        d = lcm(*[c.denominator for _, c in signed])
        acc: dict[int, int] = {}
        for mask, c in signed:
            acc[mask] = acc.get(mask, 0) + c.numerator * (d // c.denominator)
        return cls._reduced(dimension, degree,
                            {m: x for m, x in acc.items() if x}, d)

    # -- basic structure ----------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        """Index bitmask -> nonzero ``Fraction`` coefficient (a new dict)."""
        d = self.denominator
        return {m: Fraction(x, d) for m, x in self.numerators.items()}

    def coefficient(self, indices: Sequence[int]) -> Fraction:
        return Fraction(
            self.numerators.get(_mask_of(indices, self.dimension), 0),
            self.denominator)

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms as (increasing index tuple, coefficient), canonically ordered."""
        return sorted(((_indices_of(m), c) for m, c in self.terms.items()))

    def is_zero(self) -> bool:
        return not self.numerators

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Multivector)
                and self.dimension == other.dimension
                and self.degree == other.degree
                and self.denominator == other.denominator
                and self.numerators == other.numerators)

    def __hash__(self):
        return hash((self.dimension, self.degree, self.denominator,
                     frozenset(self.numerators.items())))

    def __repr__(self) -> str:
        return (f"Multivector(n={self.dimension}, r={self.degree}, "
                f"{format_form(self)!r})")

    # -- linear operations --------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            raise TypeError("expected a Multivector")
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        da, db = self.denominator, other.denominator
        if da == db:
            acc = dict(self.numerators)
            for m, x in other.numerators.items():
                prev = acc.get(m)
                acc[m] = x if prev is None else prev + x
            d = da
        else:
            d = lcm(da, db)
            sa, sb = d // da, d // db
            acc = {m: x * sa for m, x in self.numerators.items()}
            for m, x in other.numerators.items():
                prev = acc.get(m)
                acc[m] = x * sb if prev is None else prev + x * sb
        return Multivector._reduced(self.dimension, self.degree,
                                    {m: x for m, x in acc.items() if x}, d)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + -other

    def __neg__(self) -> "Multivector":
        return Multivector._trusted(
            self.dimension, self.degree,
            {m: -x for m, x in self.numerators.items()}, self.denominator)

    def __mul__(self, scalar: Scalar) -> "Multivector":
        if type(scalar) is int:
            p, q = scalar, 1
        elif isinstance(scalar, Rational):
            s = Fraction(scalar)
            p, q = int(s.numerator), int(s.denominator)
        else:
            return NotImplemented
        if not p:
            return Multivector._trusted(self.dimension, self.degree, {})
        return Multivector._reduced(
            self.dimension, self.degree,
            {m: x * p for m, x in self.numerators.items()},
            self.denominator * q)

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
    acc: dict[int, int] = {}
    for ma, xa in a.numerators.items():
        for mb, xb in b.numerators.items():
            if ma & mb:
                continue
            x = xa * xb
            if merge_sign(ma, mb) < 0:
                x = -x
            m = ma | mb
            prev = acc.get(m)
            acc[m] = x if prev is None else prev + x
    return Multivector._reduced(n, degree, {m: x for m, x in acc.items() if x},
                                a.denominator * b.denominator)


@lru_cache(maxsize=None)
def _star_negated(n: int) -> tuple[bool, ...]:
    """Whether *(dx_m) = -dx_{m^c} on R^n, indexed by the mask m: the
    sign of dx_m ^ dx_{m^c} = +-vol, from ``merge_sign``."""
    full = (1 << n) - 1
    return tuple(merge_sign(m, full ^ m) < 0 for m in range(1 << n))


def hodge_star(a: Multivector) -> Multivector:
    """Hodge star for the Euclidean metric and standard orientation.

    On monomials, *(dx_I) = sign * dx_{I^c} with the sign fixed by
    dx_I ^ *(dx_I) = vol, read from a table of masks.
    """
    n = a.dimension
    full = (1 << n) - 1
    negated = _star_negated(n)
    return Multivector._trusted(n, n - a.degree, {
        full ^ m: -x if negated[m] else x for m, x in a.numerators.items()},
        a.denominator)


def contract(v, a: Multivector) -> Multivector:
    """Interior product v -| a.

    ``v`` is a 1-based basis index or a sequence of rational components.
    The sign of dx_k -| dx_m is merge_sign(dx_k, dx_{m - k}); for a basis
    index it is read in closed form, as the parity of the bits of m below
    k.
    """
    if a.degree == 0:
        raise ValueError("cannot contract a 0-form")
    n = a.dimension
    if isinstance(v, int):
        if not 1 <= v <= n:
            raise ValueError(f"basis index {v} out of range 1..{n}")
        # each term with dx_v goes to its own monomial, so none cancel;
        # dropping the others can leave a common factor
        bit = 1 << (v - 1)
        below = bit - 1
        return Multivector._reduced(n, a.degree - 1, {
            m ^ bit: -x if (m & below).bit_count() & 1 else x
            for m, x in a.numerators.items() if m & bit}, a.denominator)
    if len(v) != n:
        raise ValueError("vector length must equal the dimension")
    components = [(k, Fraction(c)) for k, c in enumerate(v, 1) if c]
    q = lcm(*[c.denominator for _, c in components])
    acc: dict[int, int] = {}
    for m, x in a.numerators.items():
        for k, c in components:
            bit = 1 << (k - 1)
            if not m & bit:
                continue
            m2 = m ^ bit
            y = merge_sign(bit, m2) * c.numerator * (q // c.denominator) * x
            acc[m2] = acc.get(m2, 0) + y
    return Multivector._reduced(n, a.degree - 1,
                                {m: x for m, x in acc.items() if x},
                                a.denominator * q)


def inner(a: Multivector, b: Multivector) -> Fraction:
    """Euclidean inner product; the monomial basis is orthonormal."""
    if a.dimension != b.dimension or a.degree != b.degree:
        raise ValueError("inner product needs equal dimension and degree")
    small, large = a.numerators, b.numerators
    if len(small) > len(large):
        small, large = large, small
    total = 0
    for m, x in small.items():
        y = large.get(m)
        if y is not None:
            total += x * y
    return Fraction(total, a.denominator * b.denominator)


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
    with_dx1: dict[int, int] = {}
    without: dict[int, int] = {}
    for m, x in phi4.numerators.items():
        if m & 1:
            with_dx1[(m >> 1)] = x  # drop x1, shift x_{j+1} -> x_j
        else:
            without[(m >> 1)] = x
    d = phi4.denominator
    return (Multivector._reduced(7, 3, with_dx1, d),
            Multivector._reduced(7, 4, without, d))


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
    # the star keeps phi's numerators and denominator, so the union of
    # both is in lowest terms
    numerators = {(m << 1) | 1: x for m, x in phi.numerators.items()}
    for m, x in star7.numerators.items():
        numerators[m << 1] = x
    return Multivector._trusted(8, 4, numerators, phi.denominator)


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
