"""Newton projection onto the orbit of admissible 4-forms on R^8.

A 4-form is admissible when it is the image of the standard Cayley form
under an orientation-preserving linear map.  The orbit is 43-dimensional
(GL+(8) modulo the 21-dimensional stabilizer).  ``theta_project`` splits
a 4-form chi near the orbit as chi = Phi + psi with Phi admissible and
psi in the rank-27 component at Phi, by Newton iteration over a
complement of the stabilizer algebra in gl(8).

This is the only module of the package that uses floating point; the
action matrix and C_4 of the Cayley form, which it consumes, are computed
exactly in :mod:`spin7.splits` and converted to floats once.  It needs
numpy alone.  The Newton steps move the map by the second-order
retraction I + X + X^2/2 of their generator X, which agrees with exp(X)
to second order and so leaves the fixed point of the iteration
unchanged; ``expm``, the Taylor polynomial of degree 14 with scaling and
squaring, is the accurate exponential for callers that need one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from spin7 import linalg, splits
from spin7.forms import Multivector, cayley_form

TOLERANCE = 1e-12
MAX_ITERATIONS = 50

_MASKS = splits.monomial_masks(8, 4)
_MASK_INDEX = {m: k for k, m in enumerate(_MASKS)}  # position in a vector
_QUADS = [tuple(i for i in range(8) if m & (1 << i)) for m in _MASKS]

# Flat positions in the antisymmetric 8^4 tensor: entry (I permuted by
# sigma) of each quadruple I holds sign(sigma) times coordinate I.
_PERMS = list(itertools.permutations(range(4)))  # identity first
_PERM_SIGNS = [float(Multivector.from_terms(4, [([k + 1 for k in p], 1)])
                     .coefficient((1, 2, 3, 4))) for p in _PERMS]
_FLAT = np.array(_QUADS)[:, _PERMS] @ 8 ** np.arange(3, -1, -1)  # 70 x 24
_SCATTER_FLAT = _FLAT.ravel()
_SCATTER_SIGN = np.tile(_PERM_SIGNS, len(_QUADS))
_SCATTER_SOURCE = np.repeat(np.arange(len(_QUADS)), len(_PERMS))
_GATHER_FLAT = _FLAT[:, 0]


# the least Taylor degree m of exp with (1/2)^(m+1)/(m+1)! e^(1/2) <= 2^-53:
# at a 1-norm of at most 1/2 it bounds the truncation error relative to exp
_TAYLOR_DEGREE = 14
_EYE = np.eye(8)


class ProjectionError(RuntimeError):
    """Newton iteration failed to converge; the input 4-form is outside
    the reachable neighbourhood of the admissible orbit."""


def form_to_array(a: Multivector) -> np.ndarray:
    """Coordinates of a 4-form on R^8 over the monomial basis, as floats."""
    if a.dimension != 8 or a.degree != 4:
        raise ValueError("expected a 4-form on R^8")
    out = np.zeros(70)
    d = a.denominator
    for mask, x in a.numerators.items():
        out[_MASK_INDEX[mask]] = x / d  # int division rounds correctly
    return out


def fourth_exterior_power(g: np.ndarray) -> np.ndarray:
    """The induced action of g on 4-forms: the 70 x 70 matrix of 4 x 4 minors.

    With the convention dx_i -> sum_j g[i, j] dx_j on 1-forms, the entry
    at (row J, column I) is det g[I, J] (rows I, columns J of g).
    """
    return apply_map(g, np.eye(70))


def apply_map(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Push 4-form coordinates (a length-70 vector, or the columns of a
    70 x k array) through the linear map g.

    The coordinates are scattered into the antisymmetric 8^4 tensor, each
    of its four slots is contracted with g, and the entries at increasing
    index quadruples are gathered back; the 70 x 70 matrix of minors is
    never formed.  Raises ValueError unless g is 8 x 8 and v is a length-70
    vector or a 70 x k array.
    """
    if np.shape(g) != (8, 8):
        raise ValueError(f"expected an 8 x 8 map, got shape {np.shape(g)}")
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != 70:
        raise ValueError("expected a length-70 vector or a 70 x k array, "
                         f"got shape {v.shape}")
    return _push(_scatter(v), g).reshape(v.shape)


def expm(X: np.ndarray) -> np.ndarray:
    """The matrix exponential of an 8 x 8 matrix, by its Taylor series.

    Above |X|_1 = 1/2, X is first halved s times, to a 1-norm below 1/2,
    and the result is squared s times.  At that scale the Taylor
    polynomial of degree 14 (``_TAYLOR_DEGREE``) has a truncation error
    of at most 2^-53 exp(|X|_1), and it is evaluated by Horner's rule as
    I + X (I + X/2 (... (I + X/14))).  A NaN or an infinite entry gives a
    matrix of NaNs; a finite X whose exponential overflows gives a
    non-finite matrix.  Raises ValueError unless X is 8 x 8.
    """
    if np.shape(X) != (8, 8):
        raise ValueError(f"expected an 8 x 8 matrix, got shape {np.shape(X)}")
    norm = float(np.abs(X).sum(axis=0).max())
    if not math.isfinite(norm):
        return np.full(X.shape, np.nan)
    s = math.frexp(norm)[1] + 1 if norm > 0.5 else 0
    if s:  # scale by 2^-s, to a 1-norm in [1/4, 1/2)
        X = np.ldexp(X, -s)
    P = X / _TAYLOR_DEGREE
    P += _EYE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        P = X @ P
        P /= k
        P += _EYE
    for _ in range(s):
        P = P @ P
    return P


def _scatter(v: np.ndarray) -> np.ndarray:
    """The antisymmetric 8^4 tensors of the columns of v, as 4096 x k."""
    if v.ndim == 1:  # one vector: no column axis to broadcast
        t = np.zeros(8 ** 4)
        t[_SCATTER_FLAT] = _SCATTER_SIGN * v[_SCATTER_SOURCE]
        return t[:, None]
    cols = v.reshape(70, -1)
    t = np.zeros((8 ** 4, cols.shape[1]))
    t[_SCATTER_FLAT] = _SCATTER_SIGN[:, None] * cols[_SCATTER_SOURCE]
    return t


def _push(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Contract the four slots of scattered tensors with g and gather the
    coordinates back, as a 70 x k array."""
    for _ in range(4):  # each contraction moves the new slot to the end
        t = t.reshape(8, -1).T @ g
    return t.reshape(-1, 8 ** 4)[:, _GATHER_FLAT].T


@lru_cache(maxsize=1)
def _newton_data() -> dict:
    """Precomputed exact data around the Cayley form, as float arrays.

    The complement of the stabilizer, the kernel of the action matrix A,
    is the row space of A: its 43 reduced rows W, all integral.  The
    projector onto the lambda-block is the Lagrange polynomial
    prod (C - mu) / (lambda - mu) of C = C_4(phi0) over the other
    eigenvalues mu of ``four_form_split``.  C has entries 0, +-1, so the
    integer product is exact and the division is the only rounding."""
    phi0 = cayley_form()
    action = splits.action_matrix(phi0)
    complement = linalg.echelon(action)[0]
    if len(complement) != 43:  # 64 - 21
        raise ArithmeticError(
            f"the stabilizer of the Cayley form has a complement of "
            f"dimension {len(complement)} in gl(8), not 43")
    W = np.array([linalg.dense(v, 64) for v in complement],
                 dtype=float).reshape(43, 8, 8)

    # tangent directions of the orbit at phi0, the 70 x 43 matrix D = QR.
    # The action matrix of phi0 has entries 0, +-1 and the complement basis
    # W is integral, so this float product is the exact D.
    A = np.array([linalg.dense(r, 64) for r in action], dtype=float)
    Q, R = np.linalg.qr(A @ W.reshape(43, 64).T)

    C = np.zeros((70, 70))
    for i, (entries, _) in enumerate(splits.contraction_matrix(phi0, 4)):
        C[i, [_MASK_INDEX[m] for m, _ in entries]] = [x for _, x in entries]
    spectrum = [spec[:2] for spec in splits.four_form_split(phi0).specs]
    projectors = {}
    for label, eigenvalue in spectrum:
        others = [mu for _, mu in spectrum if mu != eigenvalue]
        projectors[label] = reduce(np.matmul, [
            C - mu * np.eye(70) for mu in others]) / math.prod(
            eigenvalue - mu for mu in others)

    phi0_vec = form_to_array(phi0)
    return {
        "phi0": phi0_vec,
        "phi0_tensor": _scatter(phi0_vec),
        "W": W,
        "Q": Q,
        "R": R,
        # the tangent part t = Q^T y - Q^T phi0 of y - phi0, and the
        # generator X = sum_k m_k W_k of the Gauss-Newton step m = -R^{-1} t
        # (the least-squares solution of D m = -(tangent part)) as
        # (t @ S).reshape(8, 8), with S = -R^{-T} W
        "Qt": np.ascontiguousarray(Q.T),
        "Qt_phi0": Q.T @ phi0_vec,
        "S": -np.linalg.solve(R.T, W.reshape(43, 64)),
        "projectors": projectors,
        "off27": np.eye(70) - projectors["27"],
    }


def type_projector(label: str) -> np.ndarray:
    """Float orthogonal projector onto a rank block at the Cayley form
    ("1", "7", "27" or "35"), the polynomial in C_4(Phi0) that
    ``TypeSplit.project`` applies; raises KeyError for any other label."""
    projectors = _newton_data()["projectors"]
    if label not in projectors:
        raise KeyError(f"no block labeled {label!r}")
    return projectors[label]


@dataclass(frozen=True)
class ProjectionOutcome:
    """Result of splitting chi = Phi + psi with Phi admissible."""

    chi: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    iterations: int
    residual: float
    # tangential residual before the first step and after each step:
    # len(residuals) == iterations + 1 and residuals[-1] == residual
    residuals: tuple[float, ...]
    gauge: np.ndarray  # 8 x 8 map carrying phi back to the Cayley form

    def tangency_error(self) -> float:
        """Norm of the rank-(1+7+35) component of psi, measured after
        pulling back to the standard fiber; small when psi lies in the
        rank-27 block at phi."""
        pulled = apply_map(self.gauge, self.psi)
        return float(np.linalg.norm(_newton_data()["off27"] @ pulled))


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

    Newton iteration with the tangent fixed at Phi0 (the chord method):
    maintain y = (Lambda^4 H) chi and update H <- H E until the component
    of y - Phi0 tangent to the orbit vanishes.  Each step is the
    least-squares solution m of D m = -(tangent part) for the 70 x 43
    matrix D = QR of orbit directions at Phi0: with t = Q^T y - Q^T Phi0,
    the residual is |t| and m = -R^{-1} t, whose generator X = sum m_k W_k
    in the stabilizer complement is t @ S for the stored S = -R^{-T} W.
    E = I + X + X^2/2 is the second-order retraction of X (the first step
    sets H = E): it agrees with exp(X) to second order, so the iteration
    keeps the fixed point it has with the exact exponential.  chi is
    scattered into the 8^4 tensor once; each step pushes that tensor
    through H.  Then Phi is the image of Phi0 under H^{-1} (Phi0 itself
    when no step is taken) and psi = chi - Phi lies in the rank-27 block
    at Phi by equivariance of the type decomposition.

    Raises ValueError for a tolerance that is not positive and finite,
    a negative max_iterations or a non-finite chi, and ProjectionError
    when the iteration diverges or does not converge.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(
            f"tolerance must be positive and finite, got {tolerance!r}")
    if max_iterations < 0:
        raise ValueError(
            f"max_iterations must be nonnegative, got {max_iterations!r}")
    chi_vec = _as_array(chi)
    if not np.isfinite(chi_vec).all():
        raise ValueError("chi has a non-finite coordinate")
    data = _newton_data()
    phi0, Qt, Qt_phi0, S = (data["phi0"], data["Qt"], data["Qt_phi0"],
                            data["S"])

    # a far input or a diverging step overflows: the residual check names it
    with np.errstate(over="ignore", invalid="ignore"):
        t = Qt @ (chi_vec - phi0)  # no cancellation for chi near phi0
        residuals = [math.sqrt(t @ t)]
        if residuals[0] <= tolerance:
            phi, H = phi0.copy(), np.eye(8)  # no step: Phi is Phi0 itself
        else:
            chi_tensor = _scatter(chi_vec)
            while not residuals[-1] <= tolerance:  # a NaN residual enters
                iterations = len(residuals) - 1
                if not math.isfinite(residuals[-1]):
                    raise ProjectionError(
                        f"iteration diverged after {iterations} step(s); the "
                        "input is outside the reachable neighbourhood of the "
                        "orbit")
                if iterations >= max_iterations:
                    raise ProjectionError(
                        f"no convergence after {max_iterations} iterations "
                        f"(tangential residual {residuals[-1]:.3e}, "
                        f"tolerance {tolerance:.3e}); the input is outside "
                        "the reachable neighbourhood of the orbit, or the "
                        "tolerance is below the rounding floor")
                X = (t @ S).reshape(8, 8)
                E = X @ X  # the retraction E = I + X + X^2/2
                E *= 0.5
                E += X
                E += _EYE
                H = E if iterations == 0 else H @ E
                t = Qt @ _push(chi_tensor, H).ravel()
                t -= Qt_phi0
                residuals.append(math.sqrt(t @ t))
            phi = _push(data["phi0_tensor"], np.linalg.inv(H)).ravel()

    return ProjectionOutcome(chi=chi_vec, phi=phi, psi=chi_vec - phi,
                             iterations=len(residuals) - 1,
                             residual=residuals[-1],
                             residuals=tuple(residuals), gauge=H)


def nonlinear_remainder(psi, tolerance: float = TOLERANCE) -> np.ndarray:
    """F(psi): the second-order defect of the projection at the Cayley fiber.

    The projection of Phi0 + psi expands as
    Phi0 + (rank-1 + rank-7 + rank-35 parts of psi) - F(psi),
    so F vanishes to second order in psi.  Input and output are length-70
    coordinate vectors (a Multivector input is converted).
    """
    data = _newton_data()
    phi0 = data["phi0"]
    psi_vec = _as_array(psi)
    outcome = theta_project(phi0 + psi_vec, tolerance=tolerance)
    return phi0 + data["off27"] @ psi_vec - outcome.phi

