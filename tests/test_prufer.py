"""Angle/amplitude integration, the raw Cartesian cross-check, residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracgap as dg
from diracgap.model import polar_rates


def constant_family():
    return dg.CoefficientFamily(coeffs=lambda x: (-1.0, 0.0, 1.0),
                                mu_minus=-1.0, mu_plus=1.0, beta=1.0,
                                limit_zero=np.zeros((2, 2)))


# -- right-hand side -----------------------------------------------------------

def test_rhs_at_zero_angle():
    dth, dlr = polar_rates(0.3, -0.7, 1.1, 0.25, 0.0)
    assert math.isclose(dth, 0.25 - 0.3)
    assert math.isclose(dlr, -0.7)


def test_rhs_at_right_angle():
    dth, dlr = polar_rates(0.3, -0.7, 1.1, 0.25, math.pi / 2.0)
    assert math.isclose(dth, 0.25 - 1.1, abs_tol=1e-15)
    assert math.isclose(dlr, 0.7, abs_tol=1e-15)


def test_rhs_can_be_negative():
    # the angle is not monotone for these systems: Coulomb matrix at x = 1
    dth, _ = polar_rates(-1.5, 1.0, 0.5, 0.0, math.pi / 4.0)
    assert math.isclose(dth, -0.5)


@settings(max_examples=80, deadline=None)
@given(p11=st.floats(-3, 3), p12=st.floats(-3, 3), p22=st.floats(-3, 3),
       lam=st.floats(-1, 1), theta=st.floats(-10, 10))
def test_rhs_matches_cartesian_quadratic_forms(p11, p12, p22, lam, theta):
    # reconstruct from the raw system: theta' = (u v' - v u')/rho^2 and
    # (log rho)' = (u u' + v v')/rho^2 on the unit circle
    dth, dlr = polar_rates(p11, p12, p22, lam, theta)
    u, v = math.cos(theta), math.sin(theta)
    du = p12 * u - (lam - p22) * v
    dv = (lam - p11) * u - p12 * v
    assert math.isclose(dth, u * dv - v * du, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(dlr, u * du + v * dv, rel_tol=1e-12, abs_tol=1e-12)


# -- angle integration ---------------------------------------------------------

def test_stationary_angle_constant_coefficients():
    # 3 pi/4 is a fixed point of the angle flow for diag(-1, 1) at lam = 0;
    # it is dynamically repelling, so the window is kept short enough that
    # roundoff amplification stays below the tolerance
    fam = constant_family()
    win = dg.TruncationWindow(x_zero=0.5, x_inf=10.0, delta=1e-3, eps=1e-3)
    traj = dg.integrate_prufer(fam, 0.0, win, 3.0 * math.pi / 4.0)
    for x in np.geomspace(0.5, 10.0, 17):
        assert abs(traj.theta(x) - 3.0 * math.pi / 4.0) < 1e-6


def test_trajectory_monotone_x_and_finite_angle(coulomb_minus, zero_minus,
                                                fast_window):
    traj = dg.integrate_prufer(coulomb_minus, 0.3, fast_window,
                               zero_minus.theta_zero)
    assert traj.x_start == fast_window.x_zero
    assert traj.x_end == fast_window.x_inf
    assert traj.end.shape == (1, 2) and np.all(np.isfinite(traj.end))
    assert traj.stats.steps > 10
    assert traj.stats.rtol == 1e-10


def test_backward_matches_forward_at_midpoint(coulomb_plus, zero_plus,
                                              ground_fast, fast_window):
    # at an eigenvalue, forward from the origin angle and backward from the
    # infinity angle trace the same solution modulo an integer multiple of pi
    lam = ground_fast.lam
    idata = dg.infinity_data(-1.0, 1.0, lam)
    x_mid = fast_window.x_mid
    f = dg.integrate_prufer(coulomb_plus, lam, fast_window,
                            zero_plus.theta_zero, "forward", x_stop=x_mid)
    b = dg.integrate_prufer(coulomb_plus, lam, fast_window,
                            idata.theta_inf, "backward", x_stop=x_mid)
    mismatch = (f.end[0, 0] - b.end[0, 0] + math.pi / 2.0) % math.pi - math.pi / 2.0
    assert abs(mismatch) < 1e-7


def test_dense_output_queryable_between_nodes(coulomb_minus, zero_minus,
                                              fast_window):
    traj = dg.integrate_prufer(coulomb_minus, 0.1, fast_window,
                               zero_minus.theta_zero)
    xs = np.geomspace(fast_window.x_zero, fast_window.x_inf, 200)
    th = np.array([traj.theta(x) for x in xs])
    assert np.all(np.isfinite(th))
    # continuity: no jumps beyond what the dynamics allows on this grid
    assert np.max(np.abs(np.diff(th))) < 1.0


def test_invalid_direction_rejected(coulomb_minus, fast_window):
    with pytest.raises(ValueError):
        dg.integrate_prufer(coulomb_minus, 0.1, fast_window, 0.3, "sideways")


# -- the lane rule, on both integrators ------------------------------------------

# lanes whose components match one float run: theta lanes against (theta,
# log rho), Cartesian lanes against one (u, v, mu, theta) run
ONE_RUN_LANES = {"prufer": 2, "cartesian": 1}


def integrate(integrator, family, lam, window):
    """Either integrator from the start angle 0.3; returns (trajectory, the
    column of ``end`` that holds the angle, the angle at x)."""
    if integrator == "prufer":
        traj = dg.integrate_prufer(family, lam, window, 0.3)
        return traj, 0, traj.theta
    traj = dg.integrate_cartesian(family, lam, window,
                                  (math.cos(0.3), math.sin(0.3)))
    return traj, 3, traj.angle


@pytest.mark.parametrize("integrator", ["prufer", "cartesian"])
def test_float_lam_is_one_dense_run(integrator, coulomb_minus, fast_window):
    traj, col, angle = integrate(integrator, coulomb_minus, 0.2, fast_window)
    assert traj.end.shape[0] == 1
    assert traj.stats.rtol == 1e-10 and traj.stats.atol == 1e-12
    assert angle(fast_window.x_inf) == pytest.approx(traj.end[0, col],
                                                     abs=1e-12)
    assert math.isfinite(angle(fast_window.x_mid))


@pytest.mark.parametrize("integrator", ["prufer", "cartesian"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_array_lam_is_endpoint_only_lanes(integrator, n, coulomb_minus,
                                          fast_window):
    lams = np.linspace(0.2, 0.6, n)
    traj, col, _ = integrate(integrator, coulomb_minus, lams, fast_window)
    assert traj.end.shape[0] == n
    scale = math.sqrt(ONE_RUN_LANES[integrator] / n)
    assert traj.stats.rtol == pytest.approx(1e-10 * scale, rel=1e-15)
    assert traj.stats.atol == pytest.approx(1e-12 * scale, rel=1e-15)
    # each lane ends where a float run of its lam ends, to tolerance
    for lam, lane_end in zip(lams.tolist(), traj.end[:, col].tolist()):
        one, _, _ = integrate(integrator, coulomb_minus, lam, fast_window)
        assert abs(lane_end - one.end[0, col]) < 1e-7


@pytest.mark.parametrize("integrator", ["prufer", "cartesian"])
def test_lane_run_refuses_interior_values(integrator, coulomb_minus,
                                          fast_window):
    traj, _, angle = integrate(integrator, coulomb_minus,
                               np.array([0.5, 0.6]), fast_window)
    with pytest.raises(ValueError, match="endpoint-only"):
        angle(1.0)
    if integrator == "cartesian":
        with pytest.raises(ValueError, match="endpoint-only"):
            traj.state(1.0)


# -- Cartesian cross-check -----------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_angle_equivalence_random_families(seed):
    rng = np.random.default_rng(20260811 + seed)
    gamma = float(rng.uniform(-0.8, -0.2))
    k = int(rng.choice([-2, -1, 1, 2]))
    lam = float(rng.uniform(-0.5, 0.9))
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=k, mu_a=0.0, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=400.0, delta=2e-4, eps=1e-3)
    tp = dg.integrate_prufer(fam, lam, win, zd.theta_zero,
                             rtol=1e-11, atol=1e-13)
    tc = dg.integrate_cartesian(
        fam, lam, win, (math.cos(zd.theta_zero), math.sin(zd.theta_zero)),
        rtol=1e-11, atol=1e-13)
    xs = np.geomspace(win.x_zero, win.x_inf, 64)
    for x in xs:
        assert abs(tp.theta(x) - tc.angle(x)) < 1e-8
        # the integrated angle stays tied to the integrated components
        u, v, _ = tc.state(x)
        d = tc.angle(x) - math.atan2(v, u)
        assert abs((d + math.pi) % (2.0 * math.pi) - math.pi) < 1e-9


def test_amplitude_consistency(coulomb_minus, zero_minus):
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=400.0, delta=2e-4, eps=1e-3)
    tp = dg.integrate_prufer(coulomb_minus, 0.3, win, zero_minus.theta_zero)
    tc = dg.integrate_cartesian(
        coulomb_minus, 0.3, win,
        (math.cos(zero_minus.theta_zero), math.sin(zero_minus.theta_zero)))
    for x in np.geomspace(win.x_zero, win.x_inf, 64):
        assert abs(tp.logrho(x) - tc.log_norm(x)) < 1e-8


def test_cartesian_amplitude_exact_across_hundreds_of_decades(coulomb_minus,
                                                              zero_minus):
    # a growing run over a long window: the scaled state stays of unit size
    # while mu carries the true log-amplitude, which matches the polar one
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=800.0, delta=2e-4, eps=1e-3)
    tc = dg.integrate_cartesian(
        coulomb_minus, 0.3, win,
        (math.cos(zero_minus.theta_zero), math.sin(zero_minus.theta_zero)))
    tp = dg.integrate_prufer(coulomb_minus, 0.3, win, zero_minus.theta_zero)
    assert abs(math.hypot(*tc.state(800.0)[:2]) - 1.0) < 1e-9
    assert tc.log_norm(800.0) > 300.0
    assert abs(tc.log_norm(800.0) - tp.logrho(800.0)) < 1e-8


def test_cartesian_decay_and_growth_rates():
    # constant coefficients: explicit solutions e^{-x} along the decaying
    # direction and e^{+x} along the growing one
    fam = constant_family()
    win = dg.TruncationWindow(x_zero=0.5, x_inf=20.0, delta=1e-3, eps=1e-3)
    b1 = np.array([-1.0, 1.0]) / math.sqrt(2.0)
    c1 = dg.integrate_cartesian(fam, 0.0, win, b1)
    rate1 = (c1.log_norm(18.0) - c1.log_norm(1.0)) / 17.0
    assert math.isclose(rate1, -1.0, abs_tol=1e-6)
    b2 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    c2 = dg.integrate_cartesian(fam, 0.0, win, b2)
    rate2 = (c2.log_norm(18.0) - c2.log_norm(1.0)) / 17.0
    assert math.isclose(rate2, 1.0, abs_tol=1e-8)


def test_cartesian_rejects_zero_init(coulomb_minus, fast_window):
    with pytest.raises(ValueError):
        dg.integrate_cartesian(coulomb_minus, 0.1, fast_window, (0.0, 0.0))


# -- residual check ------------------------------------------------------------

def test_residual_constant_family():
    fam = constant_family()
    win = dg.TruncationWindow(x_zero=0.5, x_inf=10.0, delta=1e-3, eps=1e-3)
    traj = dg.integrate_prufer(fam, 0.0, win, 3.0 * math.pi / 4.0)
    assert dg.ode_residual(traj, fam, 0.0, 20) < 1e-7


def test_residual_zero_samples(coulomb_minus, zero_minus, fast_window):
    traj = dg.integrate_prufer(coulomb_minus, 0.2, fast_window,
                               zero_minus.theta_zero)
    assert dg.ode_residual(traj, coulomb_minus, 0.2, 0) == 0.0


def test_residual_eigenfunction_trajectory(coulomb_plus, zero_plus,
                                           ground_fast, fast_window):
    traj = dg.integrate_prufer(coulomb_plus, ground_fast.lam, fast_window,
                               zero_plus.theta_zero)
    assert dg.ode_residual(traj, coulomb_plus, ground_fast.lam, 40) < 1e-6
