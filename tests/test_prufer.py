"""Angle/amplitude integration and the raw Cartesian cross-check."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import diracgap as dg
from diracgap import prufer
from diracgap.model import polar_rates


def constant_family():
    return dg.CoefficientFamily(coeffs=lambda x: (-1.0, 0.0, 1.0),
                                mu_minus=-1.0, mu_plus=1.0, beta=1.0,
                                limit_zero=np.zeros((2, 2)))


def log_norm(traj, x):
    """log |z| of a Cartesian run at x, z = e^mu (u, v)."""
    u, v, mu, _ = traj.state(x)
    return mu + 0.5 * math.log(u * u + v * v)


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
        assert abs(traj.state(x)[0] - 3.0 * math.pi / 4.0) < 1e-6


def test_trajectory_monotone_x_and_finite_angle(coulomb_minus, zero_minus,
                                                fast_window):
    traj = dg.integrate_prufer(coulomb_minus, 0.3, fast_window,
                               zero_minus.theta_zero)
    # the run covers the window: both ends read, a point beyond x_inf does not
    assert traj.state(fast_window.x_zero)[0] == pytest.approx(
        zero_minus.theta_zero, abs=1e-12)
    assert traj.state(fast_window.x_inf) == pytest.approx(traj.end[0],
                                                          abs=1e-12)
    with pytest.raises(ValueError, match="outside the integrated span"):
        traj.state(1.01 * fast_window.x_inf)
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
    th = np.array([traj.state(x)[0] for x in xs])
    assert np.all(np.isfinite(th))
    # continuity: no jumps beyond what the dynamics allows on this grid
    assert np.max(np.abs(np.diff(th))) < 1.0


def test_invalid_direction_rejected(coulomb_minus, fast_window):
    with pytest.raises(ValueError):
        dg.integrate_prufer(coulomb_minus, 0.1, fast_window, 0.3, "sideways")


def test_empty_lam_array_rejected(coulomb_minus, fast_window):
    # named as such, before the table draws a row
    samples = dg.prufer.WindowSamples(coulomb_minus, fast_window)
    with pytest.raises(ValueError, match="lam is an empty array"):
        dg.integrate_prufer(coulomb_minus, np.array([]), fast_window, 0.3,
                            samples=samples)
    assert samples.drawn == 0


# -- the lane rule, on both integrators ------------------------------------------

def integrate(integrator, family, lam, window):
    """Either integrator from the start angle 0.3; returns (trajectory, the
    column of ``end`` and of ``state(x)`` that holds the angle)."""
    if integrator == "prufer":
        return dg.integrate_prufer(family, lam, window, 0.3), 0
    return dg.integrate_cartesian(family, lam, window,
                                  (math.cos(0.3), math.sin(0.3))), 3


@pytest.mark.parametrize("integrator", ["prufer", "cartesian"])
def test_float_lam_is_one_dense_run(integrator, coulomb_minus, fast_window):
    traj, col = integrate(integrator, coulomb_minus, 0.2, fast_window)
    assert traj.end.shape[0] == 1
    assert traj.stats.rtol == 1e-10
    assert traj.state(fast_window.x_inf)[col] == pytest.approx(
        traj.end[0, col], abs=1e-12)
    assert math.isfinite(traj.state(fast_window.x_mid)[col])


@pytest.mark.parametrize("integrator", ["prufer", "cartesian"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_array_lam_is_endpoint_only_lanes(integrator, n, coulomb_minus,
                                          fast_window):
    lams = np.linspace(0.2, 0.6, n)
    traj, col = integrate(integrator, coulomb_minus, lams, fast_window)
    assert traj.end.shape[0] == n
    if integrator == "prufer":
        # Magnus lanes keep rtol as given, count the mesh intervals they
        # cross as steps, and on a fresh table draw P at the three Gauss
        # points of each
        assert traj.stats.rtol == 1e-10
        assert traj.stats.nfev == 3 * traj.stats.steps > 0
    else:
        scale = math.sqrt(1 / n)
        assert traj.stats.rtol == pytest.approx(1e-10 * scale, rel=1e-15)
    # each lane ends where a float run of its lam ends, to tolerance
    for lam, lane_end in zip(lams.tolist(), traj.end[:, col].tolist()):
        one, _ = integrate(integrator, coulomb_minus, lam, fast_window)
        assert abs(lane_end - one.end[0, col]) < 1e-9


def test_dop853_runs_take_atol_from_rtol(monkeypatch, coulomb_minus,
                                         fast_window):
    # atol is rtol / 100, times the lane scale sqrt(1/L) after the division
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs["atol"])
        return solve_ivp(*args, **kwargs)

    # _run_segments imports solve_ivp from scipy.integrate when it runs
    monkeypatch.setattr(scipy.integrate, "solve_ivp", recording)
    dg.integrate_cartesian(coulomb_minus, 0.2, fast_window, (1.0, 0.0),
                           rtol=1e-11)
    assert seen and set(seen) == {1e-11 / 100}
    seen.clear()
    integrate("cartesian", coulomb_minus, np.array([0.2, 0.4]), fast_window)
    assert seen and set(seen) == {1e-10 / 100 * math.sqrt(0.5)}


@pytest.mark.parametrize("integrator", ["prufer", "cartesian"])
def test_lane_run_refuses_interior_values(integrator, coulomb_minus,
                                          fast_window):
    traj, _ = integrate(integrator, coulomb_minus, np.array([0.5, 0.6]),
                        fast_window)
    with pytest.raises(ValueError, match="endpoint-only"):
        traj.state(1.0)


@pytest.fixture(scope="module")
def anomalous_minus():
    """gamma = -0.5, k = -1 with mu_a = 0.3: beta = 2."""
    return dg.build_dirac_family(dg.DiracRadialParams(
        k=-1, mu_a=0.3, potential=dg.coulomb_potential(-0.5)))


def _run(integrator, family, window, direction, x_stop=None):
    """A float-lam run of either integrator at lam = 0.2 from the angle 0.3."""
    if integrator == "prufer":
        return dg.integrate_prufer(family, 0.2, window, 0.3, direction,
                                   x_stop=x_stop)
    return dg.integrate_cartesian(family, 0.2, window,
                                  (math.cos(0.3), math.sin(0.3)), direction,
                                  x_stop=x_stop)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("integrator", ["prufer", "cartesian"])
def test_dop853_runs_take_one_chart_rule(integrator, direction, coulomb_minus,
                                         anomalous_minus, fast_window):
    # x^(1-beta) below x = 1 when beta > 1, log x everywhere else, whichever
    # the direction and the integrator: a beta = 1 run is one log-x piece
    lo, hi = fast_window.x_zero, fast_window.x_inf
    traj = _run(integrator, coulomb_minus, fast_window, direction)
    assert [p[0] for p in traj._pieces] == [prufer._LOG]
    assert traj._pieces[0][2:] == (lo, hi)
    # beta = 2: s = 1/x up to 1, then log x; the pieces in integration order
    traj = _run(integrator, anomalous_minus, fast_window, direction)
    pieces = traj._pieces[::1 if direction == "forward" else -1]
    assert [p[2:] for p in pieces] == [(lo, 1.0), (1.0, hi)]
    assert pieces[0][0].to_s(0.25) == 4.0
    assert pieces[0][0].dx_ds(4.0) == pytest.approx(-0.25 ** 2, rel=1e-15)
    assert pieces[1][0] is prufer._LOG
    # a span on one side of x = 1 is one piece in that side's chart
    traj = _run(integrator, anomalous_minus, fast_window, "forward", 0.5)
    assert len(traj._pieces) == 1 and traj._pieces[0][0] is not prufer._LOG
    traj = _run(integrator, anomalous_minus, fast_window, "backward", 2.0)
    assert [p[0] for p in traj._pieces] == [prufer._LOG]


@pytest.mark.parametrize("beta_above_1", [False, True])
def test_window_sample_rows_take_the_chart_rule(beta_above_1, coulomb_minus,
                                                anomalous_minus, fast_window):
    # a row above 1 is drawn in log x: h = log(x_hi/x_lo), j = dx/ds = x at
    # its Gauss points; below 1 in the runs' chart there, log x or s = 1/x
    fam = anomalous_minus if beta_above_1 else coulomb_minus
    samples = dg.WindowSamples(fam, fast_window)
    log = (np.log, np.exp, np.exp)
    inverse = (lambda x: 1.0 / x, lambda s: 1.0 / s, lambda s: -1.0 / s ** 2)
    for x_lo, x_hi, (to_s, to_x, dx_ds) in ((2.0, 3.0, log), (
            0.25, 0.5, inverse if beta_above_1 else log)):
        row = samples._draw(np.array([x_lo]), np.array([x_hi]))[0]
        h = to_s(x_hi) - to_s(x_lo)
        assert row[0] == pytest.approx(h, rel=1e-14)
        sg = to_s(x_lo) + np.array(prufer._GAUSS) * h
        j, jp11, jp12, jp22 = np.reshape(row[1:], (3, 4)).T
        np.testing.assert_allclose(j, dx_ds(sg), rtol=1e-13)
        coeffs = np.array([fam.coeffs(x) for x in to_x(sg)]).T
        np.testing.assert_allclose((jp11, jp12, jp22), j * coeffs, rtol=1e-12)


@pytest.mark.parametrize("beta_above_1", [False, True])
def test_window_sample_rows_do_not_depend_on_the_batch(
        beta_above_1, coulomb_minus, anomalous_minus, fast_window):
    # a mesh drawn in one table call, and the same mesh drawn over several
    # calls with other span sets (forward spans to one x_stop, backward ones
    # from several starts) or one row at a time: the same rows, bit for bit,
    # as are the end rows of spans ending off a node (NaN marks the rows
    # past hi, which neither draws)
    fam = anomalous_minus if beta_above_1 else coulomb_minus
    lo, hi = fast_window.x_zero, fast_window.x_inf
    one = dg.WindowSamples(fam, fast_window)
    one.table(lo, 16, [lo], [hi])
    nodes, rows = one._meshes[lo, 16]
    several = dg.WindowSamples(fam, fast_window)
    for los, his in (([lo, lo], [0.3, 0.3]), ([2.5, 2.5], [7.7, 19.0]),
                     ([0.3] * 3, [1.0, 2.5, 60.0]), ([lo], [hi])):
        several.table(lo, 16, los, his)
    assert np.array_equal(several._meshes[lo, 16][0], nodes)
    assert np.array_equal(several._meshes[lo, 16][1], rows, equal_nan=True)
    held = np.flatnonzero(~np.isnan(rows[:, 0]))[::5]
    alone = np.vstack([one._draw(nodes[i:i + 1], nodes[i + 1:i + 2])
                       for i in held])
    assert held.size > 100 and np.array_equal(alone, rows[held])
    for e, row in several._ends.items():
        assert np.array_equal(one._draw(*np.transpose([e])), [row])


def test_step_matrices_are_scaled_exponentials():
    # every lane and step at once: exp(Omega) over cosh(r) where r^2 = a^2 +
    # bc > 0, exp(Omega) itself where r^2 <= 0 (r = 0 included), against expm
    omega = np.random.default_rng(3).normal(size=(3, 4, 25))
    omega[:, 0, :2] = [[0.0, 0.5], [0.0, 2.0], [0.0, -0.125]]    # r^2 = 0
    steps = prufer._steps(omega)
    assert steps.shape == (4, 4, 25)
    for (a, b, c), m in zip(omega.reshape(3, -1).T, steps.reshape(4, -1).T):
        q = a * a + b * c
        want = scipy.linalg.expm([[a, b], [c, -a]]) / (
            math.cosh(math.sqrt(q)) if q > 0.0 else 1.0)
        np.testing.assert_allclose(m.reshape(2, 2), want, rtol=1e-12,
                                   atol=1e-14)


def test_window_samples_take_one_coeffs_call_per_batch(coulomb_minus,
                                                       fast_window):
    # a table call draws its undrawn mesh rows in one coeffs call and its new
    # end rows in another, three points per row, and nothing when all are
    # drawn
    calls = []

    def coeffs(x, inner=coulomb_minus.coeffs):
        calls.append(np.size(x))
        return inner(x)

    samples = dg.WindowSamples(replace(coulomb_minus, coeffs=coeffs),
                               fast_window)
    lo = fast_window.x_zero

    def rows_held():
        mesh = samples._meshes.get((lo, 16), (None, np.empty((0, 13))))[1]
        return np.count_nonzero(~np.isnan(mesh[:, 0])) + len(samples._ends)

    for los, his in (([lo], [3.3]), ([2.5, 2.5], [7.7, 19.0]), ([lo], [250.0]),
                     ([lo, 0.2], [5.0, 5.0]), ([lo], [3.3])):
        del calls[:]
        held, drawn = rows_held(), samples.drawn
        samples.table(lo, 16, los, his)
        assert len(calls) <= 2
        assert sum(calls) == samples.drawn - drawn == 3 * (rows_held() - held)
    assert calls == []


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("integrator", ["prufer", "cartesian"])
def test_array_reads_equal_float_reads(integrator, direction, coulomb_minus,
                                       anomalous_minus, fast_window):
    # one interpolant call per piece reads what the float reads do: at the
    # run's ends, at x = 1 (where a beta > 1 run changes chart, so that its
    # two pieces are read), and within 1e-9 beyond either end, clamped into
    # the run
    lo, hi = fast_window.x_zero, fast_window.x_inf
    xs = np.random.default_rng(7).permutation(np.concatenate((
        [lo, lo * (1.0 - 5e-10), 1.0, math.nextafter(1.0, 0.0),
         fast_window.x_mid, hi, hi * (1.0 + 5e-10)],
        np.geomspace(lo, hi, 41))))
    for family, n_pieces in ((coulomb_minus, 1), (anomalous_minus, 2)):
        traj = _run(integrator, family, fast_window, direction)
        assert len(traj._pieces) == n_pieces
        rows = traj.state(xs)
        assert rows.shape == (traj.end.shape[1], xs.size)
        np.testing.assert_allclose(
            rows, np.array([traj.state(x) for x in xs]).T, rtol=1e-15,
            atol=0.0)
        with pytest.raises(ValueError, match="outside the integrated span"):
            traj.state(np.array([1.0, 1.01 * hi]))


def _loop_mesh(x_zero, n, x_hi, p):
    """Magnus mesh nodes as a loop builds them, one node per pass."""
    t0 = x_zero ** p
    m = math.ceil(2 * n * (1.0 - t0) / p) if x_zero < 1.0 else 0
    nodes = [x_zero]
    while nodes[-1] < x_hi:
        i, x = len(nodes), nodes[-1]
        nodes.append((t0 + (1.0 - t0) * i / m) ** (1.0 / p) if i < m
                     else 1.0 if i == m
                     else x + min(x / (2 * n), math.sqrt(x) / n, 8.0 / n))
    return np.array(nodes)


@pytest.mark.parametrize("beta_above_1", [False, True])
@pytest.mark.parametrize("x_zero", [1e-3, 1.78e-4])
@pytest.mark.parametrize("n", [16, 35])
def test_mesh_nodes_are_those_of_the_node_loop(n, x_zero, beta_above_1,
                                               coulomb_minus, anomalous_minus):
    # closed form below 1 and a cumulative sum of 8/n from x = 64 on give
    # the loop's nodes bit for bit, to 1e5 in one call or extended in several
    fam, p = (anomalous_minus, 0.125) if beta_above_1 else (coulomb_minus, 0.5)
    window = dg.TruncationWindow(x_zero=x_zero, x_inf=1e5, delta=2e-4,
                                 eps=1e-3)
    want = _loop_mesh(x_zero, n, 1e5, p)
    assert np.array_equal(
        dg.WindowSamples(fam, window)._mesh(x_zero, n, 1e5)[0], want)
    samples = dg.WindowSamples(fam, window)
    for x_hi in (0.01, 1.0, 3.0, 64.0, 64.5, 1e5):
        nodes = samples._mesh(x_zero, n, x_hi)[0]
        assert np.array_equal(nodes, want[:np.searchsorted(want, x_hi) + 1])


def _mesh_nodes(family, window, n=16):
    """Nodes of Magnus mesh n (16 at the default rtol) across the window."""
    return dg.WindowSamples(family, window)._mesh(window.x_zero, n,
                                                  window.x_inf)[0]


def test_lane_starts_on_and_beside_mesh_nodes(coulomb_minus, fast_window):
    # a fresh backward run whose lanes start on a node, one ulp above and
    # one ulp below another, and at x_inf: every row it reads is drawn once,
    # and a lane crosses one row per node in (x_stop, x_start] plus an end
    # row where x_start is off the mesh; the start on a node draws none
    nodes, x_stop = _mesh_nodes(coulomb_minus, fast_window), 3.0
    on, beside = nodes[-60], nodes[-30]
    starts = [on, math.nextafter(beside, math.inf),
              math.nextafter(beside, 0.0), fast_window.x_inf]
    samples = dg.WindowSamples(coulomb_minus, fast_window)
    traj = dg.integrate_prufer(coulomb_minus, np.full(4, 0.4), fast_window,
                               0.3, "backward", x_start=starts,
                               x_stop=x_stop, samples=samples)
    assert traj.stats.nfev == 3 * traj.stats.steps > 0
    assert all(hi != on for _, hi in samples._ends)
    for x_start in starts:
        fresh = dg.integrate_prufer(coulomb_minus, np.array([0.4]),
                                    fast_window, 0.3, "backward",
                                    x_start=x_start, x_stop=x_stop)
        crossed = np.count_nonzero((nodes > x_stop) & (nodes <= x_start))
        assert fresh.stats.steps == crossed + (x_start not in nodes)
        assert fresh.stats.nfev == 3 * fresh.stats.steps
        assert fresh.end[0, 0] == traj.end[starts.index(x_start), 0]


def test_lane_values_do_not_depend_on_what_the_table_holds(coulomb_minus,
                                                           fast_window):
    # nu_star of lanes on a fresh table, and on one that an n = 35 run
    # (rtol 1e-12) and a run across the whole window have already extended
    # and drawn: the same bits, from new end rows only (each lane's
    # backward start and the two ends at x_mid)
    lams = np.array([0.2, 0.5, 0.8])
    zero = dg.zero_data(coulomb_minus)
    fresh = dg.nu_star(coulomb_minus, lams, fast_window, zero)
    samples = dg.WindowSamples(coulomb_minus, fast_window)
    dg.integrate_prufer(coulomb_minus, lams, fast_window, 0.3, rtol=1e-12,
                        samples=samples)
    dg.integrate_prufer(coulomb_minus, lams, fast_window, 0.3, "backward",
                        samples=samples)
    drawn = samples.drawn
    extended = dg.nu_star(coulomb_minus, lams, fast_window, zero,
                          samples=samples)
    assert np.array_equal(extended, fresh)
    assert samples.drawn - drawn <= 3 * (lams.size + 2)


def test_eval_budget_counts_every_lane(monkeypatch, coulomb_minus,
                                       fast_window):
    # the budget is one of lane evaluations: a 3-lane run exhausts it in a
    # third of the RHS calls (one coeffs call each) of a 1-lane run
    monkeypatch.setattr(dg.prufer, "_EVAL_BUDGET", 300)
    calls = []

    def counting(x):
        calls.append(x)
        return coulomb_minus.coeffs(x)

    fam = replace(coulomb_minus, coeffs=counting)
    used = []
    for lam in (0.2, np.array([0.2, 0.3, 0.4])):
        calls.clear()
        with pytest.raises(dg.IntegrationError, match="budget"):
            dg.integrate_cartesian(fam, lam, fast_window, (1.0, 0.0))
        used.append(len(calls))
    assert used == [300, 100]


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
    tp = dg.integrate_prufer(fam, lam, win, zd.theta_zero, rtol=1e-11)
    tc = dg.integrate_cartesian(
        fam, lam, win, (math.cos(zd.theta_zero), math.sin(zd.theta_zero)),
        rtol=1e-11)
    xs = np.geomspace(win.x_zero, win.x_inf, 64)
    for x in xs:
        assert abs(tp.state(x)[0] - tc.state(x)[3]) < 1e-8
        # the integrated angle stays tied to the integrated components
        u, v, _, angle = tc.state(x)
        d = angle - math.atan2(v, u)
        assert abs((d + math.pi) % (2.0 * math.pi) - math.pi) < 1e-9


def test_amplitude_consistency(coulomb_minus, zero_minus):
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=400.0, delta=2e-4, eps=1e-3)
    tp = dg.integrate_prufer(coulomb_minus, 0.3, win, zero_minus.theta_zero)
    tc = dg.integrate_cartesian(
        coulomb_minus, 0.3, win,
        (math.cos(zero_minus.theta_zero), math.sin(zero_minus.theta_zero)))
    for x in np.geomspace(win.x_zero, win.x_inf, 64):
        assert abs(tp.state(x)[1] - log_norm(tc, x)) < 1e-8


@pytest.mark.parametrize("case", ["constant-family", "ground-state"])
def test_polar_and_cartesian_agree_on_exact_solutions(case, request):
    # the stationary angle of the constant diag(-1, 1) family at lam = 0,
    # and the ground-state eigenfunction on the fast window, forward up to
    # the record's splice point: beyond it the forward run of a decaying
    # solution turns to the growing one where each integrator's truncation
    # error sets, and the two part by up to 4e-7 in theta
    if case == "constant-family":
        fam, lam, theta0 = constant_family(), 0.0, 3.0 * math.pi / 4.0
        win = dg.TruncationWindow(x_zero=0.5, x_inf=10.0, delta=1e-3,
                                  eps=1e-3)
        x_stop = win.x_inf
    else:
        fam = request.getfixturevalue("coulomb_plus")
        record = request.getfixturevalue("ground_fast")
        lam, x_stop = record.lam, record.x_match
        theta0 = request.getfixturevalue("zero_plus").theta_zero
        win = request.getfixturevalue("fast_window")
    tp = dg.integrate_prufer(fam, lam, win, theta0, rtol=1e-11, x_stop=x_stop)
    tc = dg.integrate_cartesian(fam, lam, win,
                                (math.cos(theta0), math.sin(theta0)),
                                rtol=1e-11, x_stop=x_stop)
    for x in np.geomspace(win.x_zero, x_stop, 64):
        theta, logrho = tp.state(x)
        assert abs(theta - tc.state(x)[3]) < 1e-8
        assert abs(logrho - log_norm(tc, x)) < 1e-8


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
    assert log_norm(tc, 800.0) > 300.0
    assert abs(log_norm(tc, 800.0) - tp.state(800.0)[1]) < 1e-8


def test_cartesian_decay_and_growth_rates():
    # constant coefficients: explicit solutions e^{-x} along the decaying
    # direction and e^{+x} along the growing one
    fam = constant_family()
    win = dg.TruncationWindow(x_zero=0.5, x_inf=20.0, delta=1e-3, eps=1e-3)
    b1 = np.array([-1.0, 1.0]) / math.sqrt(2.0)
    c1 = dg.integrate_cartesian(fam, 0.0, win, b1)
    rate1 = (log_norm(c1, 18.0) - log_norm(c1, 1.0)) / 17.0
    assert math.isclose(rate1, -1.0, abs_tol=1e-6)
    b2 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    c2 = dg.integrate_cartesian(fam, 0.0, win, b2)
    rate2 = (log_norm(c2, 18.0) - log_norm(c2, 1.0)) / 17.0
    assert math.isclose(rate2, 1.0, abs_tol=1e-8)


def test_cartesian_rejects_zero_init(coulomb_minus, fast_window):
    with pytest.raises(ValueError):
        dg.integrate_cartesian(coulomb_minus, 0.1, fast_window, (0.0, 0.0))

