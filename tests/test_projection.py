"""Floating-point Newton projection onto the admissible orbit."""

import itertools
import math
import os
import pathlib
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm, solve_triangular

from spin7 import projection, splits
from spin7.forms import Multivector, cayley_form

PHI0 = projection.form_to_array(cayley_form())
RNG_SEED = 20260823
ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_form_array_round_trip():
    # coordinates follow the monomial basis in increasing mask order
    masks = splits.monomial_masks(8, 4)
    expected = np.zeros(70)
    for m, x in cayley_form().numerators.items():
        expected[masks.index(m)] = x
    assert np.count_nonzero(expected) == 14 and set(expected) == {-1, 0, 1}
    assert np.array_equal(PHI0, expected)
    mask = 0b10110001  # dx_1 ^ dx_5 ^ dx_6 ^ dx_8
    v = projection.form_to_array(Multivector(8, 4, {mask: Fraction(-3, 2)}))
    assert v[masks.index(mask)] == -1.5 and np.count_nonzero(v) == 1


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


def test_apply_map_takes_sequences_as_arrays():
    g = np.random.default_rng(RNG_SEED).standard_normal((8, 8))
    assert np.array_equal(projection.apply_map(g.tolist(), list(PHI0)),
                          projection.apply_map(g, PHI0))


def test_apply_map_acts_on_columns():
    rng = np.random.default_rng(RNG_SEED)
    g = rng.standard_normal((8, 8))
    V = rng.standard_normal((70, 5))
    columns = np.stack([projection.apply_map(g, V[:, k]) for k in range(5)],
                       axis=1)
    out = projection.apply_map(g, V)
    assert out.shape == (70, 5)
    assert np.allclose(out, columns, rtol=1e-14, atol=0)


def test_newton_tangent_matrix_is_an_exact_integer_product():
    # _newton_data forms the tangent matrix D = QR as the float product of
    # the action matrix of the Cayley form and the complement basis W;
    # integral factors make that product exact
    action = splits.action_matrix(cayley_form())
    assert all(d == 1 and abs(x) == 1 for entries, d in action
               for _, x in entries)
    data = projection._newton_data()
    assert np.array_equal(data["W"], np.round(data["W"]))
    exact = np.array([projection.form_to_array(splits.infinitesimal_action(
        [[Fraction(x) for x in row] for row in A], cayley_form()))
        for A in data["W"]]).T
    assert np.abs(data["Q"] @ data["R"] - exact).max() <= 1e-12


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


def test_type_projectors_are_the_exact_projections():
    # column k of a projector is the exact projection of the k-th monomial
    split = splits.four_form_split(cayley_form())
    for label in split.labels:
        p = projection.type_projector(label)
        for k, mask in enumerate(splits.monomial_masks(8, 4)):
            exact = projection.form_to_array(
                split.project(label, Multivector(8, 4, {mask: 1})))
            assert np.abs(p[:, k] - exact).max() <= 1e-15


def test_newton_data_reads_no_basis_and_no_stabilizer(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Newton set-up must not call this")

    monkeypatch.setattr(splits.TypeSplit, "basis", forbidden)
    monkeypatch.setattr(splits, "stabilizer_dimension", forbidden)
    data = projection._newton_data.__wrapped__()
    assert data["W"].shape == (43, 8, 8)
    for label, p in data["projectors"].items():
        assert np.array_equal(p, projection.type_projector(label))


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


def test_rank_27_inputs_take_no_step_and_return_phi0():
    rng = np.random.default_rng(RNG_SEED)
    pr27 = projection.type_projector("27")
    for _ in range(5):
        xi = pr27 @ rng.standard_normal(70)
        for eps in (1e-2, 1e-3, 1e-4):
            chi = PHI0 + eps * xi / np.linalg.norm(xi)
            out = projection.theta_project(chi)
            assert out.iterations == 0
            assert np.array_equal(out.phi, PHI0)
            assert np.array_equal(out.gauge, np.eye(8))
            assert np.array_equal(out.psi, chi - PHI0)


def _seeded_inputs():
    """Generic and gauge-moved perturbations of the Cayley form."""
    rng = np.random.default_rng(RNG_SEED)
    pr27 = projection.type_projector("27")
    for eps in (1e-2, 1e-3):
        eta = rng.standard_normal(70)
        yield PHI0 + eps * eta / np.linalg.norm(eta)
        xi = pr27 @ rng.standard_normal(70)
        a = rng.standard_normal((8, 8))
        yield projection.apply_map(expm(0.1 * a / np.linalg.norm(a)),
                                   PHI0 + eps * xi / np.linalg.norm(xi))


def test_each_step_is_the_least_squares_gauss_newton_step():
    # replay the iteration one step at a time: stopping at the k-th
    # residual returns the gauge H_k = H_{k-1} (I + X + X^2/2) after
    # exactly k steps, X = sum_j m_j W_j for the least-squares step m
    data = projection._newton_data()
    Q, R, W = data["Q"], data["R"], data["W"]
    P_tan = Q @ Q.T
    for chi in _seeded_inputs():
        out = projection.theta_project(chi)
        assert out.iterations >= 2
        H = np.eye(8)
        for k in range(1, out.iterations + 1):
            y = projection.apply_map(H, chi)
            m_ref = np.linalg.lstsq(Q @ R, -P_tan @ (y - PHI0), rcond=None)[0]
            X = np.tensordot(m_ref, W, 1)
            t = data["Qt"] @ y - data["Qt_phi0"]
            assert np.abs((t @ data["S"]).reshape(8, 8) - X).max() <= 1e-12
            step = projection.theta_project(chi, tolerance=out.residuals[k])
            assert step.iterations == k
            assert np.abs(step.gauge - H @ (np.eye(8) + X + X @ X / 2)
                          ).max() <= 1e-12
            H = step.gauge


def _chord_with_expm(chi):
    """The chord iteration of ``theta_project`` with the exact exponential,
    H <- H expm(X), returning (phi, iterations)."""
    data = projection._newton_data()
    Q, R, W = data["Q"], data["R"], data["W"]
    H = np.eye(8)
    for iterations in range(projection.MAX_ITERATIONS + 1):
        t = Q.T @ (projection.apply_map(H, chi) - PHI0)
        if np.linalg.norm(t) <= projection.TOLERANCE:
            return projection.apply_map(np.linalg.inv(H), PHI0), iterations
        H = H @ expm(np.tensordot(-solve_triangular(R, t), W, 1))
    raise AssertionError("the exponential chord iteration did not converge")


def _wider_inputs(count=60):
    """Seeded perturbations up to eps = 0.3, gauge-moved by up to |A| = 1."""
    rng = np.random.default_rng(RNG_SEED)
    pr27 = projection.type_projector("27")
    for k in range(count):
        eps = rng.uniform(0, 0.3)
        if k % 3 == 0:
            eta = rng.standard_normal(70)
            yield PHI0 + eps * eta / np.linalg.norm(eta)
            continue
        xi = pr27 @ rng.standard_normal(70)
        chi = PHI0 + eps * xi / np.linalg.norm(xi)
        if k % 3 == 2:
            a = rng.standard_normal((8, 8))
            chi = projection.apply_map(
                expm(rng.uniform(0, 1) * a / np.linalg.norm(a)), chi)
        yield chi


def test_the_retraction_reaches_the_fixed_point_of_the_exponential_chord():
    # a second-order retraction leaves the fixed point of the chord
    # iteration where the exact exponential puts it
    for chi in itertools.chain(_seeded_inputs(), _wider_inputs()):
        phi, iterations = _chord_with_expm(chi)
        out = projection.theta_project(chi)
        assert np.abs(out.phi - phi).max() <= 1e-9
        assert abs(out.iterations - iterations) <= 1


def test_every_residual_is_the_tangential_norm():
    data = projection._newton_data()
    P_tan = data["Q"] @ data["Q"].T
    for chi in _seeded_inputs():
        out = projection.theta_project(chi)
        gauges = [np.eye(8)] + [
            projection.theta_project(chi, tolerance=r).gauge
            for r in out.residuals[1:]]
        for H, r in zip(gauges, out.residuals):
            y = projection.apply_map(H, chi)
            assert abs(r - np.linalg.norm(P_tan @ (y - PHI0))) <= 1e-15


@pytest.mark.parametrize("kwargs", [
    {"tolerance": 0.0}, {"tolerance": -1e-12}, {"tolerance": float("nan")},
    {"tolerance": float("inf")}, {"max_iterations": -1}])
def test_bad_newton_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        projection.theta_project(PHI0, **kwargs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_input_rejected(bad):
    chi = PHI0.copy()
    chi[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        projection.theta_project(chi)


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
    # Lipschitz-quadratic bound near the fiber:
    # |F(a) - F(b)| < 10 |a - b| (|a| + |b|)
    rng = np.random.default_rng(RNG_SEED)
    eta1 = rng.standard_normal(70) * 1e-3
    eta2 = rng.standard_normal(70) * 1e-3
    gap = np.linalg.norm(projection.nonlinear_remainder(eta1)
                         - projection.nonlinear_remainder(eta2))
    assert gap < 10.0 * np.linalg.norm(eta1 - eta2) * (
        np.linalg.norm(eta1) + np.linalg.norm(eta2))


def test_far_inputs_raise_projection_error():
    with pytest.raises(projection.ProjectionError):
        projection.theta_project(-PHI0, max_iterations=5)


def test_divergent_inputs_raise_without_a_warning():
    rng = np.random.default_rng(RNG_SEED)
    directions = [rng.standard_normal(70) for _ in range(5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eta in directions:
            chi = PHI0 + 2.5 * eta / np.linalg.norm(eta)
            with pytest.raises(projection.ProjectionError):
                projection.theta_project(chi)
        with pytest.raises(projection.ProjectionError):
            projection.theta_project(-PHI0, max_iterations=5)


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        projection.theta_project(np.zeros(3))


def test_type_projector_names_an_unknown_label():
    with pytest.raises(KeyError, match="no block labeled '28'"):
        projection.type_projector("28")


@pytest.mark.parametrize("g,v,expected", [
    (np.eye(7), np.zeros(70), "8 x 8 map, got shape \\(7, 7\\)"),
    (np.eye(8), np.zeros(69), "70 x k array, got shape \\(69,\\)"),
    (np.eye(8), np.zeros((70, 2, 2)), "70 x k array, got shape"),
])
def test_apply_map_names_the_expected_shapes(g, v, expected):
    with pytest.raises(ValueError, match=expected):
        projection.apply_map(g, v)


def test_expm_names_the_expected_shape():
    with pytest.raises(ValueError, match="8 x 8 matrix, got shape \\(3, 3\\)"):
        projection.expm(np.eye(3))


def _generators(norm, count=20):
    """Seeded random 8 x 8 matrices scaled to the given 1-norm."""
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(count):
        X = rng.standard_normal((8, 8))
        yield X * (norm / np.abs(X).sum(axis=0).max())


@pytest.mark.parametrize("norm", np.logspace(-12, 1, 27))
def test_expm_agrees_with_scipy(norm):
    bound = 1e-15 if norm <= 0.5 else 1e-13
    for X in _generators(norm):
        ref = expm(X)
        assert np.abs(projection.expm(X) - ref).max() <= bound * np.abs(
            ref).max()


def test_expm_of_zero_is_exactly_the_identity():
    assert np.array_equal(projection.expm(np.zeros((8, 8))), np.eye(8))


def test_expm_of_a_diagonal_matrix_exponentiates_the_diagonal():
    rng = np.random.default_rng(RNG_SEED)
    for scale in (1e-8, 1e-3, 0.3, 1.0, 3.0):
        d = scale * rng.uniform(-1, 1, 8)
        E = projection.expm(np.diag(d))
        assert np.array_equal(E, np.diag(np.diag(E)))
        assert np.diag(E) == pytest.approx(np.exp(d), rel=4e-15, abs=0)


@pytest.mark.parametrize("norm", [1e-6, 1e-3, 0.1, 0.5, 1.0])
def test_expm_of_minus_x_inverts_expm_of_x(norm):
    for X in _generators(norm):
        product = projection.expm(X) @ projection.expm(-X)
        assert np.abs(product - np.eye(8)).max() <= 4e-15


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("entry", [np.inf, np.nan, 1e300])
def test_expm_of_a_non_finite_or_overflowing_generator_is_not_finite(entry):
    X = next(_generators(1.0))
    X[1, 2] = entry
    assert not np.isfinite(projection.expm(X)).all()


def test_expm_of_a_nilpotent_generator_with_a_huge_entry_is_exact():
    X = np.zeros((8, 8))
    X[2, 3] = 1e300
    assert np.array_equal(projection.expm(X), np.eye(8) + X)


def test_scatter_of_a_vector_is_the_scatter_of_its_column():
    v = np.random.default_rng(RNG_SEED).standard_normal(70)
    t = projection._scatter(v)
    assert t.shape == (8 ** 4, 1)
    assert np.array_equal(t, projection._scatter(v[:, None]))


# past a scale of about 1e154 the first residual overflows
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1.0, 1e3, 1e150, 1e154, 1e300])
def test_scaled_far_inputs_raise_projection_error(scale):
    eta = np.random.default_rng(RNG_SEED).standard_normal(70)
    with pytest.raises(projection.ProjectionError):
        projection.theta_project(PHI0 + scale * eta)


def test_projection_and_newton_probes_import_no_scipy():
    script = ("import sys\n"
              "import spin7.projection\n"
              "assert 'scipy' not in sys.modules\n"
              "from spin7 import cli\n"
              "assert cli.main(['verify-forms', '--with-newton']) == 0\n"
              "assert 'scipy' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_taylor_degree_is_the_least_that_meets_the_remainder_bound():
    def log_bound(m):  # log of (1/2)^(m+1)/(m+1)! e^(1/2)
        return (m + 1) * math.log(0.5) - math.lgamma(m + 2) + 0.5

    m = projection._TAYLOR_DEGREE
    assert log_bound(m) <= -53 * math.log(2) < log_bound(m - 1)
