"""Newton projection onto the orbit of admissible 4-forms on R^8.

A 4-form is admissible when it is the image of the standard Cayley form
under an orientation-preserving linear map.  The orbit is 43-dimensional
(GL+(8) modulo the 21-dimensional stabilizer).  ``theta_project`` splits
a 4-form chi near the orbit as chi = Phi + psi with Phi admissible and
psi in the rank-27 component at Phi, by Newton iteration over a
complement of the stabilizer algebra in gl(8).

This is the only module of the package that uses floating point; the
subspace data it consumes is computed exactly in :mod:`spin7.splits` and
converted to floats once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from spin7 import linalg, splits
from spin7.forms import Multivector, cayley_form

TOLERANCE = 1e-12
MAX_ITERATIONS = 50

_MASKS = splits.monomial_masks(8, 4)
_MASK_INDEX = {m: i for i, m in enumerate(_MASKS)}
_QUADS = [tuple(i for i in range(8) if m & (1 << i)) for m in _MASKS]


class ProjectionError(RuntimeError):
    """Newton iteration failed to converge; the input 4-form is outside
    the reachable neighbourhood of the admissible orbit."""


def form_to_array(a: Multivector) -> np.ndarray:
    """Coordinates of a 4-form on R^8 over the monomial basis, as floats."""
    if a.dimension != 8 or a.degree != 4:
        raise ValueError("expected a 4-form on R^8")
    out = np.zeros(70)
    for mask, coeff in a.terms.items():
        out[_MASK_INDEX[mask]] = float(coeff)
    return out


def array_to_form(v: np.ndarray) -> Multivector:
    """Inverse of :func:`form_to_array` (coefficients become exact floats)."""
    terms = {m: Fraction(float(c)) for m, c in zip(_MASKS, v) if c}
    return Multivector(8, 4, terms)


def fourth_exterior_power(g: np.ndarray) -> np.ndarray:
    """The induced action of g on 4-forms: the 70 x 70 matrix of 4 x 4 minors.

    With the convention dx_i -> sum_j g[i, j] dx_j on 1-forms, the entry
    at (row J, column I) is det g[I, J] (rows I, columns J of g).
    """
    P = np.empty((70, 70))
    for col, I in enumerate(_QUADS):
        gI = g[list(I), :]
        for row, J in enumerate(_QUADS):
            P[row, col] = np.linalg.det(gI[:, list(J)])
    return P


def apply_map(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Push a 4-form coordinate vector through the linear map g."""
    return fourth_exterior_power(g) @ v


@lru_cache(maxsize=1)
def _newton_data() -> dict:
    """Precomputed exact data around the Cayley form, as float arrays."""
    phi0 = cayley_form()
    stab = splits.stabilizer_dimension(phi0)
    # 43-dimensional Frobenius-orthogonal complement of the stabilizer
    stab_rows = [[A[i][j] for i in range(8) for j in range(8)]
                 for A in stab.basis]
    complement = linalg.nullspace(stab_rows)
    assert len(complement) == 43
    W = [np.array([[float(v[i * 8 + j]) for j in range(8)]
                   for i in range(8)]) for v in complement]

    masks = _MASKS
    # tangent directions of the orbit at phi0: columns L_W phi0
    columns = []
    for v in complement:
        A = [[v[i * 8 + j] for j in range(8)] for i in range(8)]
        img = splits.infinitesimal_action(A, phi0)
        columns.append([float(c) for c in splits.to_coords(img, masks)])
    D = np.array(columns).T  # 70 x 43
    Q, _ = np.linalg.qr(D)
    P_tan = Q @ Q.T

    split4 = splits.four_form_split(phi0)
    projectors = {}
    for label in ("1", "7", "27", "35"):
        basis = split4.basis(label)
        B = np.array([[float(x) for x in splits.to_coords(b, masks)]
                      for b in basis]).T
        Qb, _ = np.linalg.qr(B)
        projectors[label] = Qb @ Qb.T

    return {
        "phi0": form_to_array(phi0),
        "W": W,
        "D": D,
        "P_tan": P_tan,
        "projectors": projectors,
    }


def type_projector(label: str) -> np.ndarray:
    """Float orthogonal projector onto a rank block at the Cayley form."""
    return _newton_data()["projectors"][label]


@dataclass(frozen=True)
class ProjectionOutcome:
    """Result of splitting chi = Phi + psi with Phi admissible."""

    chi: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    iterations: int
    residual: float
    gauge: np.ndarray  # 8 x 8 map carrying phi back to the Cayley form

    def tangency_error(self) -> float:
        """Norm of the rank-(1+7+35) component of psi, measured after
        pulling back to the standard fiber; small when psi lies in the
        rank-27 block at phi."""
        pr = _newton_data()["projectors"]
        pulled = apply_map(self.gauge, self.psi)
        tangent = (pr["1"] + pr["7"] + pr["35"]) @ pulled
        return float(np.linalg.norm(tangent))


def _as_array(chi) -> np.ndarray:
    if isinstance(chi, Multivector):
        return form_to_array(chi)
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (70,):
        raise ValueError("expected a Multivector or a length-70 vector")
    return chi


def theta_project(chi, tolerance: float = TOLERANCE,
                  max_iterations: int = MAX_ITERATIONS) -> ProjectionOutcome:
    """Split chi = Phi + psi with Phi admissible and psi of rank-27 type.

    Newton iteration: maintain y = (Lambda^4 H) chi and update H by
    exponentials of stabilizer-complement directions until the component
    of y - Phi0 tangent to the orbit vanishes.  Then Phi is the image of
    Phi0 under H^{-1} and psi = chi - Phi lies in the rank-27 block at
    Phi by equivariance of the type decomposition.
    """
    data = _newton_data()
    phi0 = data["phi0"]
    W, D, P_tan = data["W"], data["D"], data["P_tan"]

    chi_vec = _as_array(chi)
    H = np.eye(8)
    y = chi_vec.copy()
    iterations = 0
    residual = float(np.linalg.norm(P_tan @ (y - phi0)))
    while residual > tolerance or not np.isfinite(residual):
        if not np.isfinite(residual):
            raise ProjectionError(
                f"iteration diverged after {iterations} step(s); the input "
                "is outside the reachable neighbourhood of the orbit")
        if iterations >= max_iterations:
            raise ProjectionError(
                f"no convergence after {max_iterations} iterations "
                f"(tangential residual {residual:.3e}); the input is "
                "outside the reachable neighbourhood of the orbit")
        t = P_tan @ (y - phi0)
        m, *_ = np.linalg.lstsq(D, -t, rcond=None)
        M = sum(mk * Wk for mk, Wk in zip(m, W))
        H = H @ expm(M)
        y = apply_map(H, chi_vec)
        iterations += 1
        residual = float(np.linalg.norm(P_tan @ (y - phi0)))

    phi = apply_map(np.linalg.inv(H), phi0)
    psi = chi_vec - phi
    return ProjectionOutcome(chi=chi_vec, phi=phi, psi=psi,
                             iterations=iterations, residual=residual,
                             gauge=H)


def nonlinear_remainder(psi, tolerance: float = TOLERANCE) -> np.ndarray:
    """F(psi): the second-order defect of the projection at the Cayley fiber.

    The projection of Phi0 + psi expands as
    Phi0 + (rank-1 + rank-7 + rank-35 parts of psi) - F(psi),
    so F vanishes to second order in psi.  Input and output are length-70
    coordinate vectors (a Multivector input is converted).
    """
    data = _newton_data()
    phi0 = data["phi0"]
    pr = data["projectors"]
    psi_vec = _as_array(psi)
    outcome = theta_project(phi0 + psi_vec, tolerance=tolerance)
    tangent_part = (pr["1"] + pr["7"] + pr["35"]) @ psi_vec
    return phi0 + tangent_part - outcome.phi


def quadratic_estimate_probe(psi1, psi2,
                             tolerance: float = TOLERANCE) -> float:
    """|F(psi1) - F(psi2)| / (|psi1 - psi2| (|psi1| + |psi2|)).

    Empirically exhibits the Lipschitz-quadratic bound of the projection;
    returns 0 by convention when the denominator vanishes.
    """
    v1, v2 = _as_array(psi1), _as_array(psi2)
    denom = np.linalg.norm(v1 - v2) * (np.linalg.norm(v1)
                                       + np.linalg.norm(v2))
    if denom == 0:
        return 0.0
    f1 = nonlinear_remainder(v1, tolerance=tolerance)
    f2 = nonlinear_remainder(v2, tolerance=tolerance)
    return float(np.linalg.norm(f1 - f2) / denom)
