"""Weighted projective spaces and admissibility checks.

Implements the arithmetic around complex weighted projective spaces
CP^n_a: well-formedness of hypersurfaces and complete intersections,
singular strata from weight gcds, quasismoothness certification for
diagonal (Fermat-type) members, the isolated-Z4-singularity condition,
antiholomorphic involutions of coordinate-swap type, and a brute-force
scan for weight systems passing the necessary admissibility conditions.

Checks that would require general commutative algebra (Groebner bases,
arbitrary polynomials) are deliberately out of scope: ``isolated_z4_check``
supports the ambient space or a single diagonal hypersurface and raises
``UnsupportedError`` for any other variety.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple


class UnsupportedError(ValueError):
    """The datum is outside the machine-checkable fragment."""


# ---------------------------------------------------------------------------
# Gaussian rationals (coefficients of defining polynomials)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianRational:
    """An exact complex number re + im*i with rational parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.norm()
        if not n:
            raise ZeroDivisionError("division by zero")
        return self * other.conjugate() * GaussianRational(Fraction(1) / n)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        im_text = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{im_text}"

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse literals like '1', '-2/3', 'i', '-i', '2i', '1+2i'."""
        m = _COMPLEX_PATTERN.match(text)
        if m and (m["re"] is not None or m["im"] is not None):
            # the parts from their digit groups, by int()
            im_num = ("0" if m["im"] is None
                      else m["im"] + (m["im_num"] or "1"))
            try:
                return cls(Fraction(int(m["re"] or 0), int(m["re_den"] or 1)),
                           Fraction(int(im_num), int(m["im_den"] or 1)))
            except ZeroDivisionError:  # a zero denominator
                pass
        raise ValueError(f"bad complex rational literal: {text!r}")


# the group ``im`` is the sign of the imaginary part, "" when it has none
_COMPLEX_PATTERN = re.compile(
    r"^\s*(?:(?P<re>[+-]?\d+)(?:/(?P<re_den>\d+))?(?![0-9/]*i))?\s*"
    r"(?:(?P<im>[+-]?)(?:(?P<im_num>\d+)(?:/(?P<im_den>\d+))?)?i)?\s*$")

def _rotate(c: GaussianRational, k: int) -> GaussianRational:
    """c * i**k, by swapping and negating the parts of c."""
    k %= 4
    if k == 0:
        return c
    if k == 1:
        return GaussianRational(-c.im, c.re)
    if k == 2:
        return GaussianRational(-c.re, -c.im)
    return GaussianRational(c.im, -c.re)


# A polynomial in the homogeneous coordinates: exponent tuple -> coefficient.
Polynomial = dict[tuple[int, ...], GaussianRational]


def parse_polynomial(entries) -> Polynomial:
    """Build a polynomial from [(exponent tuple, coeff literal or value)]."""
    poly: Polynomial = {}
    for exps, coeff in entries:
        c = (coeff if isinstance(coeff, GaussianRational)
             else GaussianRational.parse(str(coeff)))
        key = tuple(map(int, exps))
        if key in poly:
            raise ValueError(f"repeated monomial {key}")
        if c:
            poly[key] = c
    return poly


# ---------------------------------------------------------------------------
# weighted spaces and strata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedSpace:
    """The weight system of CP^n_a."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) < 2:
            raise ValueError("need at least two weights")
        if any(a < 1 for a in self.weights):
            raise ValueError("weights must be positive")
        if math.gcd(*self.weights) != 1:
            raise ValueError("weights must have gcd 1")

    @property
    def n(self) -> int:
        return len(self.weights) - 1


@dataclass(frozen=True)
class SingularStratum:
    """A maximal singular stratum {z_j = 0 for j not in indices}."""

    indices: tuple[int, ...]  # 0-based, sorted
    order: int                # isotropy order m = gcd of the weights on S
    local_weights: tuple[int, ...]  # residues a_j mod m for j not in indices

    @property
    def dimension(self) -> int:
        return len(self.indices) - 1


def singular_strata(space: WeightedSpace) -> list[SingularStratum]:
    """Maximal singular strata: subsets S with gcd >= 2 that cannot be
    enlarged without lowering the gcd.

    Such an S is exactly S_m = {i : m | a_i} for an m >= 2 with
    gcd(a_i : i in S_m) = m.  These m are the gcds >= 2 of nonempty sets
    of weights: a set T with gcd g lies in S_g, whose gcd divides g.
    """
    a = space.weights
    orders: set[int] = set()
    for w in set(a):
        orders |= {math.gcd(w, g) for g in orders}
        orders.add(w)
    strata = [SingularStratum(tuple([i for i, w in enumerate(a) if not w % m]),
                              m, tuple([w % m for w in a if w % m]))
              for m in orders if m > 1]
    return sorted(strata, key=lambda s: s.indices)


# ---------------------------------------------------------------------------
# complete intersections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompleteIntersectionDatum:
    """A (possibly empty) list of hypersurfaces in CP^n_a.

    ``exponents`` describes a diagonal defining polynomial
    f = sum c_i z_i^{e_i} for a single hypersurface; None means the
    member is not diagonal.
    """

    space: WeightedSpace
    degrees: tuple[int, ...] = ()
    exponents: tuple[int, ...] | None = None

    def __post_init__(self):
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be positive")
        if len(self.degrees) > self.space.n:
            raise ValueError("too many hypersurfaces")
        if self.exponents is not None:
            if len(self.degrees) != 1:
                raise ValueError(
                    "diagonal exponents apply to a single hypersurface")
            if len(self.exponents) != len(self.space.weights):
                raise ValueError("one exponent per coordinate")
            d = self.degrees[0]
            for e, a in zip(self.exponents, self.space.weights):
                if e < 1 or e * a != d:
                    raise ValueError(
                        "diagonal exponents must satisfy e_i * a_i = d")

    @property
    def dimension(self) -> int:
        return self.space.n - len(self.degrees)


def well_formed(ci: CompleteIntersectionDatum) -> tuple[bool, list[str]]:
    """Divisibility conditions making adjunction valid.

    Supports the ambient space itself and complete intersections of at
    most two hypersurfaces of positive dimension; raises
    ``UnsupportedError`` beyond that.
    """
    a = ci.space.weights
    k = len(ci.degrees)
    if k > 2:
        raise UnsupportedError(
            "unsupported: general well-formedness for three or more "
            "hypersurfaces")
    if k and len(a) == k + 1:
        # the conditions below omit k + 1 indices, which leaves no weight
        raise UnsupportedError(
            f"unsupported: well-formedness of {k} hypersurface(s) in a "
            f"space of {len(a)} weights, a zero-dimensional intersection")
    violations: list[str] = []
    n1 = len(a)
    for i in range(n1):
        if math.gcd(*a[:i], *a[i + 1:]) != 1:
            violations.append(
                f"gcd of weights omitting index {i} is not 1")
    if k >= 1:
        for i, j in itertools.combinations(range(n1), 2):
            g = math.gcd(*a[:i], *a[i + 1:j], *a[j + 1:])
            if k == 1:
                if ci.degrees[0] % g:
                    violations.append(
                        f"gcd {g} omitting indices {{{i},{j}}} does not "
                        f"divide the degree {ci.degrees[0]}")
            else:
                if any(d % g for d in ci.degrees):
                    violations.append(
                        f"gcd {g} omitting indices {{{i},{j}}} does not "
                        f"divide both degrees {ci.degrees}")
    if k == 2:
        for i, j, m in itertools.combinations(range(n1), 3):
            g = math.gcd(*a[:i], *a[i + 1:j], *a[j + 1:m], *a[m + 1:])
            if all(d % g for d in ci.degrees):
                violations.append(
                    f"gcd {g} omitting indices {({i, j, m})} divides "
                    f"neither degree of {ci.degrees}")
    return (not violations, violations)


def anticanonical_degree(ci: CompleteIntersectionDatum) -> int:
    """Degree of -K in O(1)-units: sum of weights minus sum of degrees."""
    return sum(ci.space.weights) - sum(ci.degrees)


def diagonal_quasismooth(ci: CompleteIntersectionDatum) -> str:
    """Certify quasismoothness of a diagonal member (or the ambient space)
    and say why it holds.

    A diagonal polynomial with every variable present has gradient
    vanishing only at the origin, so the affine cone is smooth.  Every
    variable is present because ``CompleteIntersectionDatum`` requires
    ``e_i * a_i = d``.
    """
    if not ci.degrees:
        return "ambient space; nothing to certify"
    if ci.exponents is None:
        raise UnsupportedError(
            "unsupported: general quasismoothness; supply diagonal exponents")
    return "diagonal member with every variable present"


# ---------------------------------------------------------------------------
# isolated Z4 singularities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularPointGroup:
    """Isolated singular points of the variety lying on one ambient stratum."""

    stratum: SingularStratum
    count: int


@dataclass(frozen=True)
class IsolatedCheck:
    ok: bool                      # all singular intersections are isolated
    k: int                        # number of singular points on the variety
    action_ok: bool               # every local action is the scalar Z4 model
    points: tuple[SingularPointGroup, ...]
    reasons: tuple[str, ...]


def isolated_z4_check(ci: CompleteIntersectionDatum) -> IsolatedCheck:
    """Check that the variety meets the ambient singular locus in isolated
    points whose local model is the scalar Z4 action.

    Supported shapes: the ambient space itself, or a single diagonal
    hypersurface.  The local action check requires every residue weight
    (mod the isotropy order m) to be the same unit, so that after
    normalizing the generator the action is multiplication by i on every
    coordinate; this also forces m = 4 with exactly four transverse
    directions.
    """
    if len(ci.degrees) > 1 or (ci.degrees and ci.exponents is None):
        raise UnsupportedError(
            "unsupported: isolated-singularity check needs the ambient "
            "space or a single diagonal hypersurface")
    strata = singular_strata(ci.space)
    reasons: list[str] = []
    groups: list[SingularPointGroup] = []
    isolated = True
    action_ok = True
    vdim = ci.dimension
    for stratum in strata:
        if not ci.degrees:
            if stratum.dimension > 0:
                isolated = False
                reasons.append(
                    f"stratum {stratum.indices} has complex dimension "
                    f"{stratum.dimension}: singular locus not isolated")
                continue
            count = 1
            residues = stratum.local_weights
        else:
            s = stratum.indices
            if len(s) == 1:
                # diagonal member contains c * z_i^{e_i}, so the
                # coordinate point is not on the variety
                continue
            if len(s) == 2:
                i, j = s
                a = ci.space.weights
                e = ci.exponents
                if a[i] != a[j]:
                    raise UnsupportedError(
                        "unsupported: stratum with unequal weights")
                count = e[i]  # roots of z_i^e + c z_j^e, all simple
                residues = stratum.local_weights
            else:
                isolated = False
                reasons.append(
                    f"stratum {stratum.indices} meets the hypersurface in "
                    "a positive-dimensional set")
                continue
        m = stratum.order
        if m != 4:
            action_ok = False
            reasons.append(
                f"stratum {stratum.indices}: isotropy order {m}, not 4")
        if len(residues) != vdim or len(set(residues)) != 1 \
                or math.gcd(residues[0], m) != 1:
            action_ok = False
            reasons.append(
                f"stratum {stratum.indices}: local weights {residues} are "
                "not a single unit repeated over the variety directions")
        groups.append(SingularPointGroup(stratum, count))
    k = sum(g.count for g in groups)
    return IsolatedCheck(ok=isolated, k=k, action_ok=action_ok,
                         points=tuple(groups), reasons=tuple(reasons))


# ---------------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvolutionDatum:
    """An antiholomorphic map z_i -> eps_i * conj(z_{sigma(i)}) with
    eps_i = i^{phase_powers[i]}."""

    permutation: tuple[int, ...]          # sigma, 0-based
    phase_powers: tuple[int, ...]         # exponents of i, mod 4

    def __post_init__(self):
        n1 = len(self.permutation)
        if sorted(self.permutation) != list(range(n1)):
            raise ValueError("not a permutation")
        if any(self.permutation[j] != i
               for i, j in enumerate(self.permutation)):
            raise ValueError("the permutation must square to the identity")
        if len(self.phase_powers) != n1:
            raise ValueError("one phase per coordinate")


@dataclass(frozen=True)
class InvolutionCheck:
    ok: bool
    fixed_count: int
    reasons: tuple[str, ...]


def _projective_involution_unit(space: WeightedSpace,
                                inv: InvolutionDatum) -> int | None:
    """Exponent q such that the square of the map is scaling by i^q,
    i.e. phase(i) * conj(phase(sigma(i))) = (i^q)^{a_i} for all i."""
    sigma, p, a = inv.permutation, inv.phase_powers, space.weights
    for q in range(4):
        if all((p[i] - p[sigma[i]] - q * a[i]) % 4 == 0
               for i in range(len(a))):
            return q
    return None


def _polynomial_preserved(poly: Polynomial,
                          inv: InvolutionDatum) -> tuple[bool, str]:
    """Is poly o rho a scalar multiple of conj(poly)?

    rho multiplies the monomial z^e by i^(sum p_i e_i), so each image
    coefficient is one rotation.  t = lambda * conj(c) for every monomial
    is tested as t * conj(c_0) == t_0 * conj(c) against the first one.
    The test is homogeneous, so it runs on the coefficients times one
    common denominator, in ints; the ratios are formed only to name a
    failure.
    """
    sigma, powers = inv.permutation, inv.phase_powers
    common = math.lcm(*(x.denominator for c in poly.values()
                        for x in (c.re, c.im)))
    scaled = {exps: GaussianRational(
                  c.re.numerator * (common // c.re.denominator),
                  c.im.numerator * (common // c.im.denominator))
              for exps, c in poly.items()}
    image: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for exps in poly:
        new_exps = [0] * len(sigma)
        for i, e in enumerate(exps):
            new_exps[sigma[i]] = e
        image[tuple(new_exps)] = exps, sum(map(operator.mul, powers, exps))
    if image.keys() != poly.keys():
        missing = set(image) ^ set(poly)
        return False, f"monomial support not preserved: {sorted(missing)}"

    def ratio(exps):
        source, k = image[exps]
        return _rotate(poly[source], k) / poly[exps].conjugate()

    first = None
    for exps, (source, k) in image.items():
        t, conj = _rotate(scaled[source], k), scaled[exps].conjugate()
        if first is None:
            first, t0, conj0 = exps, t, conj
        elif t * conj0 != t0 * conj:
            return False, (f"monomial {exps}: coefficient ratio "
                           f"{ratio(exps)} differs from {ratio(first)}")
    return True, ""


def involution_check(ci: CompleteIntersectionDatum,
                     inv: InvolutionDatum,
                     polynomials: list[Polynomial],
                     singular: IsolatedCheck) -> InvolutionCheck:
    """Verify the involution requirements of an admissible configuration.

    Checks: weight compatibility and projective involutivity; each
    supplied polynomial (defining equations and divisor cuts) maps to a
    scalar multiple of its own conjugate; and the fixed locus on the
    variety equals the isolated singular set ``singular``, the result of
    ``isolated_z4_check(ci)``.  The fixed-locus analysis is implemented
    for the coordinate-pairing shape of the maps used here; other shapes
    raise ``UnsupportedError``.
    """
    sigma = inv.permutation
    a = ci.space.weights
    if len(sigma) != len(a):
        raise ValueError("involution size does not match the space")
    reasons = [f"weights differ along the permutation: "
               f"a[{i}]={a[i]}, a[{sigma[i]}]={a[sigma[i]]}"
               for i in range(len(a)) if a[sigma[i]] != a[i]]
    if reasons:
        return InvolutionCheck(False, 0, tuple(reasons))
    if _projective_involution_unit(ci.space, inv) is None:
        reasons.append("map squared is not a projective identity")
        return InvolutionCheck(False, 0, tuple(reasons))

    for idx, poly in enumerate(polynomials):
        ok, why = _polynomial_preserved(poly, inv)
        if not ok:
            reasons.append(f"polynomial {idx} not preserved: {why}")
    if reasons:
        return InvolutionCheck(False, 0, tuple(reasons))

    # fixed locus: coordinates in "free" 2-cycles must vanish at any
    # fixed point, since there eps_i * conj(eps_j) = i^(p_i - p_j) must be 1
    free: set[int] = set()
    for i in range(len(a)):
        j = sigma[i]
        if j != i and (inv.phase_powers[i] - inv.phase_powers[j]) % 4:
            free.add(i)
            free.add(j)
    support = [i for i in range(len(a)) if i not in free]

    for group in singular.points:
        if not set(group.stratum.indices) <= set(support):
            reasons.append(
                f"singular points on stratum {group.stratum.indices} are "
                "not fixed by the involution")
    if reasons:
        return InvolutionCheck(False, 0, tuple(reasons))

    fixed_count = _fixed_locus_count(ci, inv, support, reasons)
    if fixed_count is None:
        return InvolutionCheck(False, 0, tuple(reasons))
    if fixed_count != singular.k:
        reasons.append(
            f"fixed locus has {fixed_count} points but the singular set "
            f"has {singular.k}")
        return InvolutionCheck(False, fixed_count, tuple(reasons))
    return InvolutionCheck(True, fixed_count, tuple(reasons))


def _fixed_locus_count(ci: CompleteIntersectionDatum, inv: InvolutionDatum,
                       support: list[int],
                       reasons: list[str]) -> int | None:
    """Count fixed points of the involution on the variety.

    ``ci`` is a shape ``isolated_z4_check`` accepted: the ambient space
    or a single diagonal hypersurface.  ``support`` lists the coordinates
    allowed to be nonzero at a fixed point.  Returns None (appending a
    reason) when the fixed locus is positive-dimensional or the shape is
    out of scope.
    """
    sigma = inv.permutation
    if not ci.degrees:
        if len(support) != 1:
            reasons.append(
                "fixed locus of the involution is positive-dimensional "
                f"(free coordinates {support})")
            return None
        return 1  # the coordinate point, fixed since sigma fixes it
    if len(support) == 1:
        # the single coordinate point is not on a diagonal hypersurface
        return 0
    if len(support) == 2:
        i, j = support
        e = ci.exponents
        if e[i] != e[j]:
            raise UnsupportedError(
                "unsupported: unequal exponents on the fixed block")
        if sigma[i] == j:
            # roots [t, 1] with t^e determined; |t| = 1 for the diagonal
            # members used here, and then every root is fixed exactly
            # when the two phases agree
            if inv.phase_powers[i] % 4 == inv.phase_powers[j] % 4:
                return e[i]
            return 0
        # sigma fixes i and j separately: [t, 1] fixed iff
        # t^2 = eps_i / eps_j, at most 2 of the e roots; the paper's
        # configurations never need this case to succeed
        raise UnsupportedError(
            "unsupported: fixed block with two separately-fixed coordinates")
    reasons.append(
        f"fixed-locus analysis unsupported for {len(support)} free "
        "coordinates")
    return None


# ---------------------------------------------------------------------------
# admissibility scan
# ---------------------------------------------------------------------------

class ScanCandidate(NamedTuple):
    """A scanned weight tuple; ``reasons`` is empty exactly when accepted."""

    weights: tuple[int, ...]
    accepted: bool
    reasons: tuple[str, ...]


# the reasons of the most common rejection, shared by every such candidate
_NO_DIAGONAL_MEMBER = ("anticanonical degree admits no diagonal member",)


def scan_admissible(max_weight: int, ambient_dim: int) -> list[ScanCandidate]:
    """Scan sorted weight tuples for ambient spaces V = CP^n_a passing the
    necessary admissibility conditions, with the anticanonical Fermat
    member as the divisor D.

    Necessary conditions only: well-formedness, a diagonal quasismooth
    anticanonical member, a non-empty isolated singular locus with the
    scalar Z4 local model, and a weight-pairing for an involution of the
    coordinate-swap type.  Not a proof of admissibility.

    The candidates come in increasing order of their weight tuples, the
    order in which ``combinations_with_replacement`` enumerates them.
    Only tuples whose weights all divide their sum reach the checks of
    ``well_formed`` and ``isolated_z4_check``.
    """
    results: list[ScanCandidate] = []
    if ambient_dim < 3:
        return results
    gcd, lcm, append = math.gcd, math.lcm, results.append
    # ScanCandidate(...) without its keyword handling: 10^4 records a scan
    record = tuple.__new__
    for weights in itertools.combinations_with_replacement(
            range(1, max_weight + 1), ambient_dim + 1):
        if gcd(*weights) != 1:
            continue
        d = sum(weights)
        # the largest weight, last, rejects most tuples before the lcm does
        if d % weights[-1] or d % lcm(*weights):
            append(record(ScanCandidate,
                          (weights, False, _NO_DIAGONAL_MEMBER)))
            continue
        space = WeightedSpace(weights)
        member = CompleteIntersectionDatum(space, (d,),
                                           tuple(d // a for a in weights))
        reasons = well_formed(member)[1]
        iso = isolated_z4_check(CompleteIntersectionDatum(space))
        if iso.k == 0:
            reasons.append("singular locus is empty")
        reasons += iso.reasons  # empty when isolated with Z4 action
        if iso.ok and iso.k:
            singular_support = set()
            for group in iso.points:
                singular_support |= set(group.stratum.indices)
            counts = Counter(w for i, w in enumerate(weights)
                             if i not in singular_support)
            odd = [w for w, c in counts.items() if c % 2]
            if odd:
                reasons.append(
                    "no weight-pairing involution: odd number of "
                    f"non-singular coordinates of weight {odd}")
        append(ScanCandidate(weights, not reasons, tuple(reasons)))
    return results
