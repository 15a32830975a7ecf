"""Characteristic numbers and Hodge numbers, all in exact arithmetic.

Chern classes of well-formed quasismooth hypersurfaces and complete
intersections via integer recurrences, orbifold/topological Euler
characteristics, Noether's formula for surfaces, and Steenbrink's
Jacobian-ring Hodge numbers for diagonal hypersurfaces.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Sequence


# ---------------------------------------------------------------------------
# Chern classes and Euler characteristics
# ---------------------------------------------------------------------------

def total_chern(weights: Sequence[int],
                degrees: Sequence[int]) -> list[int]:
    """Coefficients c_0..c_dim of c(Z) for a complete intersection Z of the
    given degrees in CP^n_a: prod (1 + a_j x) * prod (1 + d_i x)^{-1},
    truncated at dim Z.  Both factors have integer coefficients, so each
    is one integer recurrence."""
    dim = len(weights) - 1 - len(degrees)
    if dim < 0:
        raise ValueError("too many hypersurfaces")
    c = [1] + [0] * dim
    for a in weights:
        for k in range(dim, 0, -1):
            c[k] += a * c[k - 1]
    for d in degrees:
        for k in range(1, dim + 1):
            c[k] -= d * c[k - 1]
    return c


def degree_pairing(weights: Sequence[int], degrees: Sequence[int]
                   ) -> Fraction:
    """Pairing of x^dim against the fundamental class, dim the dimension
    of the complete intersection: prod d / prod a."""
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
    top = total_chern(weights, degrees)[dim]
    chi_orb = top * degree_pairing(weights, degrees)
    corrections = tuple(Fraction(m - 1, m) for m in singular_orders)
    total = sum(corrections, chi_orb)
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
    k_squared, rest = divmod(canonical * canonical * prod(degrees),
                             prod(weights))
    if rest:
        pairing = canonical * canonical * degree_pairing(weights, degrees)
        raise ValueError(f"K^2 = {pairing} is not an integer")
    chi_o, rest = divmod(k_squared + chi, 12)
    if rest:
        raise ValueError(
            "holomorphic Euler characteristic "
            f"{Fraction(k_squared + chi, 12)} is not an integer")
    return chi, k_squared, chi_o - 1


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
    _series: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in self.weights:
            if self.degree % a:
                raise ValueError(
                    f"weight {a} does not divide the degree {self.degree}")
        # The Hilbert series prod (1 - t^{d - a_i}) / (1 - t^{a_i}) is a
        # polynomial of degree socle_degree (zero when some e_i = 1, which
        # is also the only way socle_degree < 0).  Expand it once in exact
        # ints: times (1 - t^s) is one shifted subtraction, and over
        # (1 - t^a) a running sum along each residue class mod a.
        top = self.socle_degree
        series = [1] + [0] * top if top >= 0 else []
        for a in self.weights:
            shift = self.degree - a
            series[shift:] = list(map(operator.sub, series[shift:], series))
            for r in range(min(a, len(series))):
                series[r::a] = itertools.accumulate(series[r::a])
        object.__setattr__(self, "_series", tuple(series))

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(self.degree // a for a in self.weights)

    @property
    def socle_degree(self) -> int:
        """Top nonzero degree: sum of (d - 2 a_i)."""
        return sum(self.degree - 2 * a for a in self.weights)

    def hilbert(self, k: int) -> int:
        """Hilbert function: the coefficient of t^k in the generating series
        prod (1 - t^{d - a_i}) / (1 - t^{a_i})."""
        return self._series[k] if 0 <= k < len(self._series) else 0

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
