"""Floating-point Newton projection onto the admissible orbit."""

import numpy as np
import pytest

from spin7 import projection, splits
from spin7.forms import cayley_form

PHI0 = projection.form_to_array(cayley_form())
RNG_SEED = 20260823


def test_form_array_round_trip():
    assert projection.array_to_form(PHI0) == cayley_form()
    v = np.zeros(70)
    v[0] = 1.5
    assert projection.form_to_array(projection.array_to_form(v)) == \
        pytest.approx(v)


def test_fourth_exterior_power_functoriality():
    rng = np.random.default_rng(RNG_SEED)
    g = rng.standard_normal((8, 8))
    h = rng.standard_normal((8, 8))
    v = rng.standard_normal(70)
    lhs = projection.apply_map(g, projection.apply_map(h, v))
    rhs = projection.apply_map(h @ g, v)
    assert np.allclose(lhs, rhs, atol=1e-9)
    # Identity and determinant normalization.
    assert np.allclose(projection.fourth_exterior_power(np.eye(8)),
                       np.eye(70))
    top = projection.apply_map(g, PHI0)
    # A rotation keeps the norm of any 4-form.
    q, _ = np.linalg.qr(g)
    assert np.linalg.norm(projection.apply_map(q, top)) == pytest.approx(
        np.linalg.norm(top))


def _minors(g):
    """The definition of the induced map: entry (J, I) is det g[I, J]."""
    quads = [[i for i in range(8) if m >> i & 1]
             for m in splits.monomial_masks(8, 4)]
    return np.array([[np.linalg.det(g[np.ix_(I, J)]) for I in quads]
                     for J in quads])


def test_fourth_exterior_power_is_the_matrix_of_minors():
    rng = np.random.default_rng(RNG_SEED)
    generic = rng.standard_normal((8, 8))
    singular = rng.standard_normal((8, 8))
    singular[7] = singular[0] - 2 * singular[3]  # rank 7
    for g in (generic, singular):
        ref = _minors(g)
        err = np.abs(projection.fourth_exterior_power(g) - ref).max()
        assert err <= 1e-12 * np.abs(ref).max()
    # exact on maps that permute and negate the coordinates
    signed_perm = np.diag([1., -1, 1, 1, -1, -1, 1, -1])[rng.permutation(8)]
    for g in (np.eye(8), signed_perm):
        assert np.array_equal(projection.fourth_exterior_power(g),
                              _minors(g))
    assert np.array_equal(projection.fourth_exterior_power(np.eye(8)),
                          np.eye(70))


def test_apply_map_acts_on_columns():
    rng = np.random.default_rng(RNG_SEED)
    g = rng.standard_normal((8, 8))
    V = rng.standard_normal((70, 5))
    columns = np.stack([projection.apply_map(g, V[:, k]) for k in range(5)],
                       axis=1)
    out = projection.apply_map(g, V)
    assert out.shape == (70, 5)
    assert np.allclose(out, columns, rtol=1e-14, atol=0)


def test_type_projectors_are_orthogonal_resolution():
    labels = ("1", "7", "27", "35")
    total = np.zeros((70, 70))
    for la in labels:
        p = projection.type_projector(la)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.T, atol=1e-12)
        total += p
    assert np.allclose(total, np.eye(70), atol=1e-12)
    ranks = [int(round(np.trace(projection.type_projector(la))))
             for la in labels]
    assert ranks == [1, 7, 27, 35]


def test_projection_of_an_orbit_point_recovers_it():
    rng = np.random.default_rng(RNG_SEED)
    g = np.eye(8) + 0.05 * rng.standard_normal((8, 8))
    chi = projection.apply_map(g, PHI0)
    out = projection.theta_project(chi)
    assert np.linalg.norm(out.psi) < 1e-10
    assert out.residual <= projection.TOLERANCE
    assert out.tangency_error() < 1e-9


def test_projection_splits_off_exact_rank_27_perturbations():
    rng = np.random.default_rng(RNG_SEED)
    pr27 = projection.type_projector("27")
    for _ in range(5):
        xi = pr27 @ rng.standard_normal(70)
        xi /= np.linalg.norm(xi)
        for eps in (1e-2, 1e-3):
            out = projection.theta_project(PHI0 + eps * xi)
            assert np.linalg.norm(out.psi - eps * xi) <= 100 * eps * eps
            assert out.residual <= 1e-10
            assert out.tangency_error() <= 1e-10


def test_projection_accepts_multivector_input():
    out = projection.theta_project(cayley_form())
    assert np.linalg.norm(out.psi) < 1e-12
    assert out.iterations == 0
    assert out.residuals == (out.residual,)


def test_residual_history_contracts_to_tolerance():
    # chord method: each step shrinks the tangential residual by a factor
    # of order eps, until it falls below the tolerance
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(3):
        eta = rng.standard_normal(70)
        eta /= np.linalg.norm(eta)
        out = projection.theta_project(PHI0 + 1e-2 * eta)
        res = out.residuals
        assert out.iterations >= 2
        assert len(res) == out.iterations + 1
        assert res[-1] == out.residual <= projection.TOLERANCE
        assert all(r > projection.TOLERANCE for r in res[:-1])
        assert all(b < 0.1 * a for a, b in zip(res, res[1:]))


def test_nonlinear_remainder_is_quadratically_small():
    rng = np.random.default_rng(RNG_SEED)
    slopes = []
    for _ in range(3):
        eta = rng.standard_normal(70)
        eta /= np.linalg.norm(eta)
        eps_grid = (1e-2, 1e-3, 1e-4)
        norms = [np.linalg.norm(projection.nonlinear_remainder(eps * eta))
                 for eps in eps_grid]
        slope = np.polyfit(np.log(eps_grid), np.log(norms), 1)[0]
        slopes.append(slope)
    assert all(s >= 1.9 for s in slopes)


def test_quadratic_estimate_probe_is_bounded():
    rng = np.random.default_rng(RNG_SEED)
    eta1 = rng.standard_normal(70) * 1e-3
    eta2 = rng.standard_normal(70) * 1e-3
    assert projection.quadratic_estimate_probe(eta1, eta2) < 10.0
    assert projection.quadratic_estimate_probe(eta1, eta1) == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_far_inputs_raise_projection_error():
    with pytest.raises(projection.ProjectionError):
        projection.theta_project(-PHI0, max_iterations=5)


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        projection.theta_project(np.zeros(3))
