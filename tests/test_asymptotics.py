"""Endpoint eigen-structure, boundary angles, truncation window selection."""

import math

import numpy as np
import pytest

import diracgap as dg


def test_infinity_data_midgap():
    d = dg.infinity_data(-1.0, 1.0, 0.0)
    assert math.isclose(d.decay_rate, 1.0)
    assert math.isclose(d.theta_inf, 3.0 * math.pi / 4.0)


def test_infinity_data_sqrt3_over_2():
    lam = math.sqrt(3.0) / 2.0
    d = dg.infinity_data(-1.0, 1.0, lam)
    # tan 75 deg = 2 + sqrt(3); the boundary angle is pi minus that arctan
    assert math.isclose(math.sqrt((1.0 + lam) / (1.0 - lam)), 2.0 + math.sqrt(3.0),
                        rel_tol=1e-12)
    assert math.isclose(d.theta_inf, math.pi - math.atan(2.0 + math.sqrt(3.0)),
                        rel_tol=1e-12)
    assert math.isclose(d.theta_inf, 1.8325957, abs_tol=5e-8)
    assert math.isclose(d.decay_rate, 0.5)


def test_infinity_angle_approaches_pi_half_at_upper_edge():
    d = dg.infinity_data(-1.0, 1.0, 1.0 - 1e-9)
    assert math.pi / 2.0 < d.theta_inf < math.pi / 2.0 + 1e-4


def test_infinity_rejects_lambda_outside_gap():
    with pytest.raises(ValueError):
        dg.infinity_data(-1.0, 1.0, 1.5)


def test_infinity_eigenvector_residuals():
    for lam in np.linspace(-0.95, 0.95, 25):
        d = dg.infinity_data(-1.0, 1.0, lam)
        # J^{-1}(lam Id - diag(mu-, mu+)) has the unit vector at theta_inf as
        # its eigenvector for -decay_rate
        b = np.array([[0.0, 1.0 - lam], [lam + 1.0, 0.0]])
        e = np.array([math.cos(d.theta_inf), math.sin(d.theta_inf)])
        r1 = np.linalg.norm(b @ e + d.decay_rate * e)
        assert r1 < 1e-12


def test_infinity_angle_strictly_decreasing():
    lams = np.linspace(-0.99, 0.99, 100)
    th = [dg.infinity_data(-1.0, 1.0, l).theta_inf for l in lams]
    assert all(a > b for a, b in zip(th, th[1:]))


# -- origin data ---------------------------------------------------------------

def test_zero_data_first_quadrant(coulomb_minus):
    zd = dg.zero_data(coulomb_minus)
    # eigenvector of the origin flow matrix by hand: (gamma0, k + sqrt(3)/2),
    # angle arctan(2 - sqrt(3)) = pi/12
    np.testing.assert_allclose(zd.flow_matrix, [[-1.0, 0.5], [-0.5, 1.0]])
    assert math.isclose(zd.theta_zero, math.atan(2.0 - math.sqrt(3.0)), rel_tol=1e-12)
    assert math.isclose(zd.theta_zero, math.pi / 12.0, rel_tol=1e-12)
    assert zd.quadrant == "first"


def test_zero_data_second_quadrant(coulomb_plus):
    zd = dg.zero_data(coulomb_plus)
    expected = math.pi - math.atan(2.0 + math.sqrt(3.0))
    assert math.isclose(zd.theta_zero, expected, rel_tol=1e-12)
    assert math.isclose(zd.theta_zero, 1.8325958, abs_tol=2e-7)
    assert zd.quadrant == "second"


def test_zero_data_degenerate_angle():
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=1.0, potential=dg.coulomb_potential(-2.0)))
    zd = dg.zero_data(fam)
    # purely off-diagonal limit with negative entry: flow matrix diag(2, -2)
    assert math.isclose(zd.theta_zero, math.pi / 2.0, abs_tol=1e-12)
    assert zd.quadrant == "degenerate"
    np.testing.assert_allclose([math.cos(zd.theta_zero), math.sin(zd.theta_zero)],
                               [0.0, 1.0], atol=1e-15)


def test_zero_data_eigen_residual(coulomb_minus):
    zd = dg.zero_data(coulomb_minus)
    # the unit vector at theta_zero is the eigenvector for -rate
    e = np.array([math.cos(zd.theta_zero), math.sin(zd.theta_zero)])
    r = np.linalg.norm(zd.flow_matrix @ e + zd.rate * e)
    assert r < 1e-12


def test_zero_data_deterministic(coulomb_minus):
    a = dg.zero_data(coulomb_minus)
    b = dg.zero_data(coulomb_minus)
    assert a.theta_zero == b.theta_zero
    assert np.array_equal(a.flow_matrix, b.flow_matrix)


def test_zero_data_rejects_inadmissible():
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=0.0, potential=dg.coulomb_potential(-1.0)))
    with pytest.raises(ValueError):
        dg.zero_data(fam)


def test_zero_direction_invariant_under_beta_scaling():
    # same origin limit matrix, different singularity exponent: the flow
    # matrix is rescaled by a positive factor, the directions must not move
    limit = np.array([[0.0, -2.0], [-2.0, 0.0]])

    def coeffs(x):
        return (-1.0, -2.0 / x ** 2, 1.0)

    fam2 = dg.CoefficientFamily(coeffs=coeffs, mu_minus=-1.0, mu_plus=1.0,
                                beta=2.0, limit_zero=limit)
    fam3 = dg.CoefficientFamily(coeffs=coeffs, mu_minus=-1.0, mu_plus=1.0,
                                beta=3.0, limit_zero=limit)
    a, b = dg.zero_data(fam2), dg.zero_data(fam3)
    assert a.theta_zero == b.theta_zero
    assert not math.isclose(a.rate, b.rate)


# -- window selection ----------------------------------------------------------

def test_window_coulomb_infinity_cutoff(coulomb_minus, zero_minus):
    win = dg.select_truncation(coulomb_minus, (0.5, 0.99), delta=1e-3,
                               zero=zero_minus)
    # the coefficient tail is (|gamma| + |k|)/x, so closeness 1e-3 needs
    # a cutoff of at least max(|gamma|, |k|)/delta
    assert win.x_inf >= 500.0
    assert win.x_zero <= 1e-3


def test_window_synthetic_exact_match():
    p_inf = np.diag([-1.0, 1.0])

    def coeffs(x):
        if x < 10.0:
            return (-1.0 + 0.05, 0.05, 1.0 + 0.05)
        return (-1.0, 0.0, 1.0)

    fam = dg.CoefficientFamily(coeffs=coeffs, mu_minus=-1.0, mu_plus=1.0,
                               beta=1.0, limit_zero=np.zeros((2, 2)))
    win = dg.select_truncation(fam, (-0.5, 0.5), delta=1e-2)
    assert win.x_inf == 10.0


def test_window_unattainable_delta():
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=0.0, potential=dg.coulomb_potential(-0.5)))
    with pytest.raises(dg.NoWindowError):
        dg.select_truncation(fam, (0.0, 0.5), delta=1e-12)


def test_window_requires_range_inside_gap(coulomb_minus):
    with pytest.raises(ValueError):
        dg.select_truncation(coulomb_minus, (-1.5, 0.5))


def test_window_midpoint_is_geometric_mean():
    win = dg.TruncationWindow(x_zero=1e-4, x_inf=1e4, delta=1e-3, eps=1e-3)
    assert math.isclose(win.x_mid, 1.0)
