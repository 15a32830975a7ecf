"""Betti numbers, signature split and moduli dimension of the
asymptotically cylindrical 8-manifold built from an orbifold configuration.

The input is purely arithmetic: the Euler characteristics and Hodge
numbers of the configuration's pieces.  Formulas:

- cross-section: b1(Y) = b2(Y) = 0, b3(Y) = 2 + h^{2,1}(D);
- b4_0(M) = (chi(Sigma) + chi(V) + 3k)/2 - 4, with chi(Sigma) summed
  over blow-up steps (a multiplicity-n component contributes n steps);
- b4(M) = b4_0(M) + b3(Y); b1(M) = b2(M) = b3(M) = 0;
- b4_-(M) = h^{3,1}(V) + sum over steps of p_g(Sigma_i) + (m - 1) + k,
  where m is the total number of blow-up steps and k the number of
  singular points: the first blow-up supplies one anti-invariant
  (1,1)-class beyond the geometric-genus classes, each further step one
  more, and each resolved point one more; b4_+ = b4_0 - b4_-;
- moduli dimension = b4 - b4_+ + 1 (simply-connected, single end).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SigmaComponent:
    """One component of the self-intersection divisor: its surface
    invariants and blow-up multiplicity."""

    chi: int
    p_g: int
    multiplicity: int = 1

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")
        if self.p_g < 0:
            raise ValueError("geometric genus must be nonnegative")


@dataclass(frozen=True)
class OrbifoldConfiguration:
    """Arithmetic data of an admissible configuration (V, D, Sigma, rho)."""

    chi_V: int
    h31_V: int
    chi_D: int
    h21_D: int
    k: int
    orders: tuple[int, ...]
    sigma: tuple[SigmaComponent, ...]
    simply_connected: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("the singular locus must be non-empty (k >= 1)")
        if len(self.orders) != self.k:
            raise ValueError("one isotropy order per singular point")
        if any(m != 4 for m in self.orders):
            raise ValueError("every singular point must have isotropy Z4")
        if not self.sigma:
            raise ValueError("the self-intersection divisor is empty")


@dataclass(frozen=True)
class InvariantReport:
    """Computed invariants of the 8-manifold M and its cross-section Y."""

    b1_Y: int
    b2_Y: int
    b3_Y: int
    b_low_M: tuple[int, int, int]    # b1, b2, b3 of M (and compact supports)
    b4: int
    b4_0: int
    b4_plus: int
    b4_minus: int
    moduli_dimension: int
    holonomy: str

    def __post_init__(self):
        if self.b4_plus + self.b4_minus != self.b4_0:
            raise ValueError("b4_+ + b4_- must equal b4_0")
        if self.b4 != self.b4_0 + self.b3_Y:
            raise ValueError("b4 must equal b4_0 + b3(Y)")
        if min(self.b4, self.b4_0, self.b4_plus, self.b4_minus,
               self.b3_Y) < 0:
            raise ValueError("Betti numbers must be nonnegative")
        if self.b4 <= 0 or self.b3_Y <= 0:
            raise ValueError("b4(M) and b3(Y) are positive for this "
                             "construction")


def cross_section_betti(cfg: OrbifoldConfiguration) -> tuple[int, int, int]:
    """(b1, b2, b3) of the cross-section Y = (D x S^1)/rho."""
    return (0, 0, 2 + cfg.h21_D)


def betti_pipeline(cfg: OrbifoldConfiguration) -> tuple[int, int]:
    """(b4_0, b4) of M.  chi(Sigma) is summed over blow-up steps."""
    chi_sigma = sum(c.multiplicity * c.chi for c in cfg.sigma)
    numerator = chi_sigma + cfg.chi_V + 3 * cfg.k
    if numerator % 2:
        raise ValueError(
            f"parity violation: chi(Sigma) + chi(V) + 3k = {numerator} "
            "is odd; the configuration data is inconsistent")
    b4_0 = numerator // 2 - 4
    b3_y = cross_section_betti(cfg)[2]
    return b4_0, b4_0 + b3_y


def signature_pipeline(cfg: OrbifoldConfiguration) -> tuple[int, int]:
    """(b4_+, b4_-) of M."""
    b4_0, _ = betti_pipeline(cfg)
    steps = sum(c.multiplicity for c in cfg.sigma)
    pg_total = sum(c.multiplicity * c.p_g for c in cfg.sigma)
    b4_minus = cfg.h31_V + pg_total + (steps - 1) + cfg.k
    if b4_minus > b4_0:
        raise ValueError(
            f"b4_- = {b4_minus} exceeds b4_0 = {b4_0}; configuration "
            "data is inconsistent")
    return b4_0 - b4_minus, b4_minus


def moduli_dimension(b4: int, b4_plus: int, b1_M: int = 0,
                     b1_Y: int = 0) -> int:
    """Dimension of the moduli space of asymptotically cylindrical
    torsion-free structures: b4 - b4_+ - b1(M) + b1(Y) + 1."""
    return b4 - b4_plus - b1_M + b1_Y + 1


def holonomy_verdict(b0_Y: int, b1_Y: int, simply_connected: bool,
                     single_end: bool) -> str:
    """Holonomy of an asymptotically cylindrical torsion-free structure,
    from the cross-section's Betti numbers."""
    if not (simply_connected and single_end and b0_Y == 1):
        return "undetermined"
    return {0: "Spin(7)", 1: "SU(4)", 3: "SU(2)xSU(2)"}.get(
        b1_Y, "undetermined")


def compute_report(cfg: OrbifoldConfiguration) -> InvariantReport:
    """Run the full pipeline and package the result with its invariants
    enforced.  The construction has a single cylindrical end."""
    b1_y, b2_y, b3_y = cross_section_betti(cfg)
    b4_0, b4 = betti_pipeline(cfg)
    b4_plus, b4_minus = signature_pipeline(cfg)
    return InvariantReport(
        b1_Y=b1_y, b2_Y=b2_y, b3_Y=b3_y,
        b_low_M=(0, 0, 0),
        b4=b4, b4_0=b4_0, b4_plus=b4_plus, b4_minus=b4_minus,
        moduli_dimension=moduli_dimension(b4, b4_plus, 0, b1_y),
        holonomy=holonomy_verdict(1, b1_y, cfg.simply_connected, True),
    )
