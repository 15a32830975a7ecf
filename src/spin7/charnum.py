"""Characteristic numbers and Hodge numbers, all in exact arithmetic.

Chern classes of well-formed quasismooth hypersurfaces and complete
intersections via truncated power series, orbifold/topological Euler
characteristics, Noether's formula for surfaces, and Steenbrink's
Jacobian-ring Hodge numbers for diagonal hypersurfaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """A power series in one variable truncated at a fixed order, with
    exact rational coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence = ()):
        if order < 0:
            raise ValueError("order must be nonnegative")
        c = [Fraction(x) for x in coeffs[:order + 1]]
        c += [Fraction(0)] * (order + 1 - len(c))
        self.order = order
        self.coeffs = c

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, [1])

    @classmethod
    def linear(cls, order: int, slope) -> "TruncatedSeries":
        """1 + slope * x."""
        return cls(order, [1, slope])

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.order == other.order
                and self.coeffs == other.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.order != other.order:
            raise ValueError("order mismatch")
        return TruncatedSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.order != other.order:
            raise ValueError("order mismatch")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(n, out)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if not self.coeffs[0]:
            raise ZeroDivisionError("series has zero constant term")
        n = self.order
        inv0 = Fraction(1) / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * n
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if self.coeffs[j]:
                    acc += self.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return TruncatedSeries(n, out)

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.order}, {self.coeffs})"


# ---------------------------------------------------------------------------
# Chern classes and Euler characteristics
# ---------------------------------------------------------------------------

def total_chern(weights: Sequence[int],
                degrees: Sequence[int]) -> TruncatedSeries:
    """c(Z) for a complete intersection Z of the given degrees in CP^n_a:
    prod (1 + a_j x) * prod (1 + d_i x)^{-1}, truncated at dim Z."""
    dim = len(weights) - 1 - len(degrees)
    if dim < 0:
        raise ValueError("too many hypersurfaces")
    series = TruncatedSeries.one(dim)
    for a in weights:
        series = series * TruncatedSeries.linear(dim, a)
    for d in degrees:
        series = series * TruncatedSeries.linear(dim, d).reciprocal()
    return series


def degree_pairing(weights: Sequence[int], degrees: Sequence[int],
                   power: int) -> Fraction:
    """Pairing of x^power against the fundamental class: prod d / prod a."""
    dim = len(weights) - 1 - len(degrees)
    if power != dim:
        raise ValueError(f"power {power} does not match the dimension {dim}")
    return Fraction(prod(degrees, start=1), prod(weights))


@dataclass(frozen=True)
class ChiResult:
    """Orbifold and topological Euler characteristics."""

    chi_orb: Fraction
    chi_top: int
    corrections: tuple[Fraction, ...]  # (1 - 1/m) per singular point


def euler_characteristics(weights: Sequence[int], degrees: Sequence[int],
                          singular_orders: Sequence[int] = ()) -> ChiResult:
    """Topological Euler characteristic of a variety with isolated cyclic
    quotient points of the given orders.

    The Chern-class route computes the orbifold value; each order-m point
    contributes an extra 1 - 1/m.  A non-integral total is a hard error
    (it signals wrong singular data).
    """
    dim = len(weights) - 1 - len(degrees)
    top = total_chern(weights, degrees).coefficient(dim)
    chi_orb = top * degree_pairing(weights, degrees, dim)
    corrections = tuple(Fraction(1) - Fraction(1, m) for m in singular_orders)
    total = chi_orb + sum(corrections, Fraction(0))
    if total.denominator != 1:
        raise ValueError(
            f"topological Euler characteristic {total} is not an integer; "
            "singular point data is inconsistent with the variety")
    return ChiResult(chi_orb=chi_orb, chi_top=int(total),
                     corrections=corrections)


def noether_pg(weights: Sequence[int],
               degrees: Sequence[int]) -> tuple[int, int, int]:
    """(chi_top, K^2, p_g) for a smooth simply-connected complete
    intersection surface, via Noether's formula.

    K^2 = (sum d - sum a)^2 * (prod d / prod a); chi(O) = (K^2 + chi)/12;
    p_g = chi(O) - 1 (q = 0).
    """
    dim = len(weights) - 1 - len(degrees)
    if dim != 2:
        raise ValueError("Noether's formula applies to surfaces")
    chi = euler_characteristics(weights, degrees).chi_top
    canonical = sum(degrees) - sum(weights)
    k_squared = Fraction(canonical * canonical) * degree_pairing(
        weights, degrees, 2)
    if k_squared.denominator != 1:
        raise ValueError(f"K^2 = {k_squared} is not an integer")
    chi_o = Fraction(int(k_squared) + chi, 12)
    if chi_o.denominator != 1:
        raise ValueError(
            f"holomorphic Euler characteristic {chi_o} is not an integer")
    return chi, int(k_squared), int(chi_o) - 1


# ---------------------------------------------------------------------------
# Jacobian rings and Steenbrink Hodge numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedMonomialRing:
    """The Jacobian ring of a diagonal degree-d polynomial: the quotient
    by the monomial ideal (z_i^{e_i - 1}) with e_i = d / a_i, graded by
    the weights."""

    weights: tuple[int, ...]
    degree: int

    def __post_init__(self):
        for a in self.weights:
            if self.degree % a:
                raise ValueError(
                    f"weight {a} does not divide the degree {self.degree}")

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(self.degree // a for a in self.weights)

    @property
    def socle_degree(self) -> int:
        """Top nonzero degree: sum of (d - 2 a_i)."""
        return sum(self.degree - 2 * a for a in self.weights)

    def hilbert(self, k: int) -> int:
        """Hilbert function via the generating series
        prod (1 - t^{d - a_i}) / (1 - t^{a_i})."""
        if k < 0:
            return 0
        # expand the polynomial prod_i (1 + t^{a_i} + ... + t^{(e_i-2) a_i})
        coeffs = [0] * (k + 1)
        coeffs[0] = 1
        for a, e in zip(self.weights, self.exponents):
            new = [0] * (k + 1)
            top = (e - 2) * a
            for deg, c in enumerate(coeffs):
                if not c:
                    continue
                for step in range(0, min(top, k - deg) + 1, a):
                    new[deg + step] += c
            coeffs = new
        return coeffs[k]

    def hilbert_series_by_enumeration(self) -> list[int]:
        """Oracle: the Hilbert function in degrees 0..socle+1, by
        enumerating every monomial with each exponent at most e_i - 2 once
        and counting the monomials of each weighted degree."""
        counts = [0] * (self.socle_degree + 2)
        steps = [range(0, (e - 1) * a, a)
                 for a, e in zip(self.weights, self.exponents)]
        for combo in itertools.product(*steps):
            counts[sum(combo)] += 1
        return counts


def steenbrink_hodge(weights: Sequence[int], degree: int) -> list[int]:
    """Hodge numbers h^{n-1-q, q} of a quasismooth diagonal degree-d
    hypersurface in CP^n_a, for q = 0..n-1.

    The primitive part is the Hilbert function of the Jacobian ring at
    degree (q+1) d - sum(a); the ambient space contributes 1 on the
    middle diagonal when the variety's dimension n-1 is even.
    """
    ring = GradedMonomialRing(tuple(weights), degree)
    n = len(weights) - 1
    total_weight = sum(weights)
    out = []
    for q in range(n):
        h = ring.hilbert((q + 1) * degree - total_weight)
        p = n - 1 - q
        if p == q:
            h += 1
        out.append(h)
    return out


def cy3_hodge_from_chi(chi: int, h11: int) -> int:
    """h^{2,1} of a Calabi-Yau 3-fold with b1 = 0: h11 - chi/2."""
    if chi % 2:
        raise ValueError("Euler characteristic of a CY 3-fold must be even")
    return h11 - chi // 2
