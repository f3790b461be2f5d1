"""Nonlinear shooting, Newton correction, branch continuation and indices."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline

import diracgap as dg
from diracgap.bifurcation import _corrector_lanes, _differences
from diracgap.spectrum import _matched, _nodal_index, _Splice


@pytest.fixture(scope="module")
def branch_short(coulomb_plus, zero_plus, seed_branch, branch_window,
                 soler_coupling):
    return dg.continue_branch(coulomb_plus, soler_coupling, seed_branch,
                              ds=0.001, max_steps=8, window=branch_window,
                              zero=zero_plus)


@pytest.fixture(scope="module")
def branch_a8(coulomb_plus, zero_plus, seed_branch, branch_window,
              soler_coupling):
    """The A8 branch (22 steps of 1e-3), with every solve_point call's
    b guess, outcome and shoot_nonlinear calls recorded."""
    calls = []
    solve = dg.bifurcation.solve_point
    shoot = dg.bifurcation.shoot_nonlinear

    def recording(*args, **kwargs):
        calls.append({"b_guess": args[4] if len(args) > 4 else None,
                      "shots": 0})
        try:
            return solve(*args, **kwargs)
        except Exception as exc:
            calls[-1]["error"] = exc
            raise

    def counting(*args, **kwargs):
        calls[-1]["shots"] += 1
        return shoot(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dg.bifurcation, "solve_point", recording)
        mp.setattr(dg.bifurcation, "shoot_nonlinear", counting)
        branch = dg.continue_branch(coulomb_plus, soler_coupling, seed_branch,
                                    ds=1e-3, max_steps=22,
                                    window=branch_window, zero=zero_plus)
    return branch, calls


def test_branch_takes_only_full_steps(branch_a8):
    # the log(b/a) predictor keeps every corrector call converging; the
    # float-b predictor failed 12 full steps here and halved them
    branch, calls = branch_a8
    assert len(branch.points) == 22
    for i, pt in enumerate(branch.points):
        assert abs(pt.a - 1e-3 * (i + 1)) < 1e-12
    assert [c.get("error") for c in calls] == [None] * 22


def test_branch_keeps_the_shot_budget(branch_a8):
    # one lane shot per Newton evaluation, the tangent predictor and the
    # dense shot that closes the solve keep the corrector within 4
    # shoot_nonlinear calls per accepted point
    branch, calls = branch_a8
    assert sum(c["shots"] for c in calls) <= 4 * len(branch.points)
    assert all("error" not in c for c in calls)


def test_branch_residual_is_that_of_a_one_lane_shot(
        branch_a8, coulomb_plus, zero_plus, branch_window, soler_coupling):
    # the reported residual comes from the dense shot that closed the
    # solve, from the point's own backward start, not from a lane
    for pt in branch_a8[0].points:
        shot = dg.shoot_nonlinear(coulomb_plus, soler_coupling, pt.lam, pt.a,
                                  pt.b, branch_window, log_b=pt.log_b,
                                  x_start=pt.x_start, zero=zero_plus)
        assert pt.residual == float(np.linalg.norm(shot.mismatch))


def test_every_a8_point_closes_on_its_dense_shot(
        branch_a8, coulomb_plus, zero_plus, branch_window, soler_coupling):
    # a point is accepted only where its own dense shot meets the
    # corrector's tolerance, not where a lane shot does
    for pt in branch_a8[0].points:
        shot = dg.shoot_nonlinear(coulomb_plus, soler_coupling, pt.lam, pt.a,
                                  pt.b, branch_window, log_b=pt.log_b,
                                  x_start=pt.x_start, zero=zero_plus)
        assert np.max(np.abs(shot.mismatch)) < 1e-9 * max(1.0, pt.a)


@pytest.mark.parametrize("x_inf", [250.0, 8659.6])
def test_branch_does_not_depend_on_the_window_end(x_inf, coulomb_plus,
                                                  zero_plus, soler_coupling):
    # the backward halves start where the tail has contracted, so the far
    # cutoff (8659.6 is the README window's) moves no point
    def first_points(x_end):
        win = dg.TruncationWindow(x_zero=1e-3, x_inf=x_end, delta=2e-4,
                                  eps=1e-3)
        scan = dg.scan_spectrum(coulomb_plus, np.linspace(0.5, 0.93, 9), win,
                                zero_plus)
        seed = dg.find_eigenvalue(coulomb_plus, 1, scan.brackets[0], 1e-9,
                                  window=win, zero=zero_plus)
        return dg.continue_branch(coulomb_plus, soler_coupling, seed,
                                  ds=1e-3, max_steps=3, window=win,
                                  zero=zero_plus).points

    near, far = first_points(60.0), first_points(x_inf)
    assert len(near) == len(far) == 3
    for p, q in zip(near, far):
        assert abs(p.lam - q.lam) < 1e-9
        assert abs(p.l2_norm - q.l2_norm) < 1e-8 * p.l2_norm


def test_defocusing_branch_moves_its_start_out(coulomb_plus, zero_plus,
                                               seed_branch, branch_window):
    # lam heads for mu_+ and the tail decays ever more slowly: every point,
    # the first included, is shot from at or beyond its own contraction
    # start and the previous point's, and solves the problem shot from x_inf
    coupling = dg.build_soler_coupling(lambda r: r * r / (1.0 + r ** 5),
                                       lambda s: -s, 1.0)
    branch = dg.continue_branch(coulomb_plus, coupling, seed_branch, ds=1e-3,
                                max_steps=8, window=branch_window,
                                zero=zero_plus)
    samples = dg.asymptotics.contraction_samples(coulomb_plus, branch_window)
    pts = branch.points
    assert len(pts) == 8
    starts = [p.x_start for p in pts]
    assert starts == sorted(starts) and starts[-1] > starts[0]
    for pt in pts:
        assert pt.x_start >= dg.asymptotics.contraction_start(samples, pt.lam)
    for prev, pt in zip(pts, pts[1:]):
        assert pt.x_start >= dg.asymptotics.contraction_start(samples, prev.lam)
    last = pts[-1]
    full = dg.solve_point(coulomb_plus, coupling, last.lam, last.a, 1.0,
                          window=branch_window, zero=zero_plus,
                          x_start=branch_window.x_inf)
    assert abs(full.lam - last.lam) < 1e-9


def test_a_prediction_outside_the_gap_leaves_the_backward_start(
        coulomb_plus, zero_plus, seed_branch, branch_window, soler_coupling,
        monkeypatch):
    # at the README config's fold the predictor gave lam = -15.29, where
    # kappa^2 < 0 far out and the contraction start is x_inf; x_s moved
    # there for every later attempt.  Such a prediction fails in solve_point
    # and is halved, with x_s where it was
    predict, solve = dg.bifurcation._predict, dg.bifurcation.solve_point
    starts = []

    def outside(*args):
        return np.array([-15.29, predict(*args)[1]])

    def recording(*args, **kwargs):
        starts.append(kwargs["x_start"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(dg.bifurcation, "_predict", outside)
    monkeypatch.setattr(dg.bifurcation, "solve_point", recording)
    branch = dg.continue_branch(coulomb_plus, soler_coupling, seed_branch,
                                ds=1e-3, max_steps=2, window=branch_window,
                                zero=zero_plus)
    assert len(branch.points) == 1 and branch.termination == "step-failure"
    x_s = branch.points[0].x_start
    assert x_s < branch_window.x_inf
    assert starts == [x_s] * 6


def test_predictor_is_scipys_cubic_hermite_to_the_bit():
    # the closed form against scipy's CubicHermiteSpline through the same two
    # nodes, at a inside the last interval and beyond it, where continuation
    # reads it; bit-identity keeps every branch point's predictor unchanged
    rng = np.random.default_rng(0)
    contraction = np.array([[0.5, 2.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    for _ in range(2000):
        a_n = np.cumsum(rng.uniform(1e-4, 0.1, 2))
        points = [SimpleNamespace(a=a, lam=rng.uniform(-1.0, 1.0),
                                  log_b=rng.normal(-20.0, 5.0), x_start=1.0,
                                  tangent=rng.normal(0.0, 100.0, 2))
                  for a in a_n.tolist()]
        a = float(a_n[0] + (a_n[1] - a_n[0]) * rng.uniform(0.0, 3.0))
        # wkb_decay from x_start to itself is 0: the nodes carry no shift
        y_n = [(p.lam, p.log_b - math.log(p.a)) for p in points]
        t_n = [(p.tangent[0], p.tangent[1] - 1.0 / p.a) for p in points]
        assert np.array_equal(
            dg.bifurcation._predict(contraction, points, a, 1.0),
            CubicHermiteSpline(a_n, y_n, t_n)(a))


# ground state on the branch window, its linear log(|b|/a) (b > 0), and the
# branch's lam ~ LAM0 - 480 F'(0) a^2 at small a
LAM0, LOG_RATIO0 = 0.865634525837297, -20.52901059794487


@st.composite
def near_branch(draw):
    # shots near the branch; further off, the forward or backward side
    # blows up before the midpoint
    a = draw(st.floats(1e-3, 5e-3))
    f_sign = draw(st.sampled_from([1.0, -1.0]))
    lam = LAM0 - f_sign * 480.0 * a * a + draw(st.floats(-1e-3, 1e-3))
    log_b = LOG_RATIO0 + math.log(a) + draw(st.floats(-0.2, 0.2))
    return lam, a, log_b, f_sign


@settings(max_examples=4, deadline=None)
@given(case=near_branch())
@example(case=(0.8131457239748687, 0.011, -30.506299220974903, 1.0))  # A8
@example(case=(0.8672802405081415, 0.001851640416205533, -27.00819391927069,
               -1.0))
def test_lane_shot_matches_one_lane_shots(case, coulomb_plus, zero_plus,
                                          branch_window):
    # the corrector's lane shot: every lane's midpoint values are those of
    # a one-lane shot, and each side's lane differences are the Jacobian
    # and the log a column
    lam, a, log_b, f_sign = case
    coupling = dg.build_soler_coupling(lambda r: r * r / (1.0 + r ** 5),
                                       lambda s: f_sign * s, 1.0)

    def shot(lams, log_bs, log_as):
        return dg.shoot_nonlinear(coulomb_plus, coupling, lams, a,
                                  math.exp(log_b), branch_window,
                                  log_b=log_bs, log_a=log_as, zero=zero_plus)

    q = np.array([lam, log_b, math.log(a)])
    lanes, steps = _corrector_lanes(q[:2], q[2])
    lane_shot = shot(*lanes.T)
    for i, lane in enumerate(lanes.tolist()):
        one = shot(*lane)
        for z_lane, z_one in ((lane_shot.z_fwd[i], one.z_fwd),
                              (lane_shot.z_bwd[i], one.z_bwd)):
            assert np.linalg.norm(z_lane - z_one) < 1e-8 * np.linalg.norm(z_one)
    jac = _differences(lane_shot, steps)[1]
    # q + e and q - e as two lanes of one shot: on separate shots each takes
    # its own steps, and their truncation noise over 2h reaches 2e-5 of the
    # column at h = 1e-6
    h = 1e-6
    for col in range(3):
        e = np.eye(3)[col] * h
        pair = shot(*np.array([q + e, q - e]).T).mismatch
        central = (pair[0] - pair[1]) / (2 * h)
        assert np.linalg.norm(jac[:, col] - central) \
            < 1e-5 * np.linalg.norm(central)


def test_jacobian_differences_each_side_on_its_own(coulomb_plus, zero_plus,
                                                   branch_window,
                                                   soler_coupling):
    # the first A8 point with log |b| lowered by 25: |z_bwd| / |z_fwd| is
    # 1.4e-11, and a difference of the lanes' mismatches loses the backward
    # change entirely; differenced on its own side, the log |b| column is
    # -dz_bwd/dlog|b| = -z_bwd
    a = 1e-3
    q = np.array([LAM0, LOG_RATIO0 + math.log(a) - 25.0])
    lanes, steps = _corrector_lanes(q, math.log(a))
    shot = dg.shoot_nonlinear(coulomb_plus, soler_coupling, lanes[:, 0], a,
                              math.exp(q[1]), branch_window,
                              log_b=lanes[:, 1], log_a=lanes[:, 2],
                              zero=zero_plus)
    assert np.linalg.norm(shot.z_bwd[0]) \
        < 1e-10 * np.linalg.norm(shot.z_fwd[0])
    assert np.all(shot.mismatch[2] == shot.mismatch[0])
    jac = _differences(shot, steps)[1]
    np.testing.assert_allclose(jac[:, 1], -shot.z_bwd[0], rtol=1e-6)


def test_branch_never_guesses_the_other_b_sign(branch_a8, coulomb_plus,
                                               zero_plus, seed_branch,
                                               branch_window):
    # the sign of b is the linear eigenfunction's; a float extrapolation of
    # b used to flip it, and the corrector freezes the sign of its guess
    _, sign = dg.linear_amplitude_ratio(coulomb_plus, seed_branch.lam,
                                        branch_window, zero=zero_plus)
    guesses = [c["b_guess"] for c in branch_a8[1] if c["b_guess"] is not None]
    assert guesses
    assert [math.copysign(1.0, b) for b in guesses] == [sign] * len(guesses)


def a8_first_shot(branch_a8, family, coupling, window, zero, rtol=1e-10):
    """The dense shot of the first A8 point, from its own backward start."""
    pt = branch_a8[0].points[0]
    return dg.shoot_nonlinear(family, coupling, pt.lam, pt.a, pt.b, window,
                              log_b=pt.log_b, x_start=pt.x_start, zero=zero,
                              rtol=rtol)


@pytest.mark.parametrize("integrator, max_nfev",
                         [("cartesian", 400), ("prufer", 380)])
def test_backward_half_is_one_log_x_run(integrator, max_nfev, branch_a8,
                                        coulomb_plus, zero_plus,
                                        branch_window, soler_coupling):
    # a backward half's needed step is proportional to x: in log x it is
    # one piece at a near-constant step, within 1e-9 of an rtol-1e-13 run
    # and within evaluation bounds that a run in x above 1 exceeds (691 and
    # 577 evaluations there, with every other step rejected)
    def half(rtol):
        if integrator == "cartesian":
            return a8_first_shot(branch_a8, coulomb_plus, soler_coupling,
                                 branch_window, zero_plus, rtol).bwd
        lam, x_s = branch_a8[0].points[0].lam, branch_a8[0].points[0].x_start
        theta_inf = dg.infinity_data(coulomb_plus.mu_minus,
                                     coulomb_plus.mu_plus, lam).theta_inf
        return dg.integrate_prufer(coulomb_plus, lam, branch_window,
                                   theta_inf, "backward", x_start=x_s,
                                   x_stop=branch_window.x_mid, rtol=rtol)

    traj, ref = half(1e-10), half(1e-13)
    assert len(traj._pieces) == 1
    assert traj.stats.nfev <= max_nfev
    assert np.linalg.norm(traj.end - ref.end) \
        <= 1e-9 * np.linalg.norm(ref.end)


def test_splice_array_reads_equal_float_reads(branch_a8, coulomb_plus,
                                              zero_plus, seed_branch,
                                              branch_window, soler_coupling):
    # the Cartesian splice of the first A8 point and the Prufer splice of
    # its seed, read once per half and once in the tail: the float reads'
    # values on both sides of x_match, at x_start, in the WKB tail beyond
    # it, and within 1e-9 below x_zero, clamped into the forward half
    shot = a8_first_shot(branch_a8, coulomb_plus, soler_coupling,
                         branch_window, zero_plus)
    samples = dg.WindowSamples(coulomb_plus, branch_window)
    lo, hi = branch_window.x_zero, branch_window.x_inf
    for splice in (_Splice(shot.lam, shot.fwd, shot.bwd, branch_window.x_mid,
                           shot.x_start, samples),
                   _matched(coulomb_plus, seed_branch.lam, branch_window,
                            zero_plus, 1e-10, seed_branch.x_match,
                            samples=samples)):
        m, s = splice.x_match, splice.x_start
        assert m < s < hi
        xs = np.random.default_rng(3).permutation(np.concatenate((
            [lo, lo * (1.0 - 5e-10), m, math.nextafter(m, hi), 1.0, s,
             math.nextafter(s, hi), hi], np.geomspace(lo, hi, 33))))
        reads = splice.at(xs)
        assert all(r.shape == xs.shape for r in reads)
        np.testing.assert_allclose(np.array(reads),
                                   np.array([splice.at(x) for x in xs]).T,
                                   rtol=1e-15, atol=0.0)


def test_trivial_shot_zero_mismatch(coulomb_plus, zero_plus, branch_window,
                                    soler_coupling):
    shot = dg.shoot_nonlinear(coulomb_plus, soler_coupling, 0.5, 0.0, 0.0,
                              branch_window, zero=zero_plus)
    np.testing.assert_array_equal(shot.mismatch, np.zeros(2))
    assert shot.rotation is None


def test_linear_eigenpair_small_mismatch(coulomb_plus, zero_plus, seed_branch,
                                         branch_window):
    # with the trivial coupling and the matched backward amplitude, the
    # midpoint mismatch is set by the eigenvalue accuracy, uniformly in a
    zc = dg.zero_coupling()
    lam = seed_branch.lam
    log_ratio, sign = dg.linear_amplitude_ratio(coulomb_plus, lam,
                                                branch_window, zero=zero_plus)
    ratio = math.exp(log_ratio)
    for a in (1e-3, 1e-2, 1e-1):
        shot = dg.shoot_nonlinear(coulomb_plus, zc, lam, a, sign * ratio * a,
                                  branch_window, zero=zero_plus)
        assert np.linalg.norm(shot.mismatch) / a < 1e-5


def test_soler_mismatch_cubic_scaling(coulomb_plus, zero_plus, seed_branch,
                                      branch_window, soler_coupling):
    lam = seed_branch.lam
    log_ratio, sign = dg.linear_amplitude_ratio(coulomb_plus, lam,
                                                branch_window, zero=zero_plus)
    ratio = math.exp(log_ratio)
    amps = np.array([1e-3, 3e-3, 1e-2])
    norms = []
    for a in amps:
        shot = dg.shoot_nonlinear(coulomb_plus, soler_coupling, lam, a,
                                  sign * ratio * a, branch_window,
                                  zero=zero_plus)
        norms.append(np.linalg.norm(shot.mismatch))
    slope = np.polyfit(np.log(amps), np.log(norms), 1)[0]
    assert 2.5 < slope < 3.5


def test_shot_sign_symmetry(coulomb_plus, zero_plus, seed_branch,
                            branch_window, soler_coupling):
    # the coupling is even in z, so negating both shooting amplitudes negates
    # the solution and the mismatch, and leaves the rotation unchanged
    lam = seed_branch.lam
    log_ratio, sign = dg.linear_amplitude_ratio(coulomb_plus, lam,
                                                branch_window, zero=zero_plus)
    a, b = 5e-3, sign * math.exp(log_ratio) * 5e-3
    s1 = dg.shoot_nonlinear(coulomb_plus, soler_coupling, lam, a, b,
                            branch_window, zero=zero_plus)
    s2 = dg.shoot_nonlinear(coulomb_plus, soler_coupling, lam, -a, -b,
                            branch_window, zero=zero_plus)
    np.testing.assert_allclose(s2.mismatch, -s1.mismatch, rtol=1e-8,
                               atol=1e-14)
    assert abs(s2.rotation - s1.rotation) < 1e-9


def angle_sweep(traj, xs):
    """Angle swept by a Cartesian run along xs, summed from the atan2 steps
    of its dense components (u, v), each of which must be below pi/2."""
    angles = [math.atan2(v, u) for u, v, _, _ in map(traj.state, xs)]
    steps = (np.diff(angles) + math.pi) % (2.0 * math.pi) - math.pi
    assert np.max(np.abs(steps)) < math.pi / 2.0
    return float(np.sum(steps))


@pytest.mark.parametrize("a_sign, b_sign", [(1, 1), (1, -1), (-1, 1),
                                            (-1, -1)])
@settings(max_examples=3, deadline=None)
@given(lam=st.floats(0.5, 0.97, exclude_min=True, exclude_max=True))
def test_rotation_is_the_dense_angle_sweep(a_sign, b_sign, lam, coulomb_plus,
                                           zero_plus, branch_window,
                                           soler_coupling):
    # j pi is the forward half's sweep from x_zero to x_mid plus the
    # backward half's from x_mid out to x_inf; here the sweeps are read
    # from the dense components, not from the integrated angle.  |a| = 1e-2
    # and |b| its linear match (at |a| = 0.1 some lam's runs blow up)
    log_ratio, _ = dg.linear_amplitude_ratio(coulomb_plus, lam, branch_window,
                                             zero=zero_plus)
    shot = dg.shoot_nonlinear(coulomb_plus, soler_coupling, lam, a_sign * 1e-2,
                              b_sign * math.exp(log_ratio) * 1e-2,
                              branch_window, log_b=log_ratio + math.log(1e-2),
                              zero=zero_plus)
    win = branch_window
    sweep = angle_sweep(shot.fwd, np.geomspace(win.x_zero, win.x_mid, 2001)) \
        + angle_sweep(shot.bwd, np.geomspace(win.x_mid, win.x_inf, 2001))
    assert abs(shot.rotation * math.pi - sweep) < 1e-8


def test_solve_point_converges_and_shifts_quadratically(
        coulomb_plus, zero_plus, seed_branch, branch_window, soler_coupling):
    lam0 = seed_branch.lam
    shifts = []
    for a in (2e-3, 4e-3):
        pt = dg.solve_point(coulomb_plus, soler_coupling, lam0, a,
                            window=branch_window, zero=zero_plus)
        assert pt.residual < 1e-9 * max(1.0, a)
        shifts.append(pt.lam - lam0)
    # doubling the amplitude quadruples the leading-order level shift
    assert 3.0 < shifts[1] / shifts[0] < 5.0


def test_solve_point_infeasible_lambda(coulomb_plus, zero_plus, branch_window,
                                       soler_coupling):
    with pytest.raises((dg.CorrectorError, ValueError)):
        dg.solve_point(coulomb_plus, soler_coupling, 1.5, 1e-3,
                       window=branch_window, zero=zero_plus)


def test_linear_coupling_point_recovers_eigenvalue(coulomb_plus, zero_plus,
                                                   seed_branch, branch_window):
    # trivial coupling: the corrector must stay at the linear eigenvalue
    zc = dg.zero_coupling()
    pt = dg.solve_point(coulomb_plus, zc, seed_branch.lam + 2e-6, 1e-3,
                        window=branch_window, zero=zero_plus)
    assert abs(pt.lam - seed_branch.lam) < 1e-7
    assert pt.residual < 1e-9


def test_branch_points_well_formed(branch_short, seed_branch):
    br = branch_short
    assert len(br.points) == 8
    assert br.termination == "max-steps"
    for pt in br.points:
        assert pt.residual < 1e-8
        assert -1.0 < pt.lam < 1.0
    amps = [p.a for p in br.points]
    assert all(b > a for a, b in zip(amps, amps[1:]))


def test_branch_stops_at_the_amplitude_budget(coulomb_plus, zero_plus,
                                              seed_branch, branch_window,
                                              soler_coupling):
    br = dg.continue_branch(coulomb_plus, soler_coupling, seed_branch,
                            ds=0.001, max_steps=22, a_max=0.002,
                            window=branch_window, zero=zero_plus)
    assert [p.a for p in br.points] == [0.001, 0.002]
    assert br.termination == "amplitude-budget"


def test_branch_index_constant(branch_short, seed_branch):
    assert branch_short.index_audit_ok
    assert all(p.index == seed_branch.nodal_index for p in branch_short.points)


@pytest.mark.parametrize("channel, level, negative_b", [
    (1, 2, True), (1, 3, False), (-1, 1, False), (-1, 2, True)])
def test_branch_from_an_excited_level_keeps_the_seed_index(
        channel, level, negative_b, branch_window, soler_coupling):
    # a half with a negative amplitude starts at its boundary angle minus
    # pi; with b < 0, j used to come out exactly 1 too large
    fam = dg.build_dirac_family(dg.DiracRadialParams(
        k=channel, mu_a=0.0, potential=dg.coulomb_potential(-0.5)))
    zd = dg.zero_data(fam)
    scan = dg.scan_spectrum(fam, np.linspace(0.5, 0.99, 9), branch_window, zd)
    seed = dg.find_eigenvalue(fam, level,
                              next(b for b in scan.brackets if b.k == level),
                              1e-9, window=branch_window, zero=zd)
    branch = dg.continue_branch(fam, soler_coupling, seed, ds=1e-3,
                                max_steps=3, window=branch_window, zero=zd)
    assert all((p.b < 0) == negative_b for p in branch.points)
    assert abs(branch.points[0].rotation - seed.rot) < 1e-3
    assert all(p.index == seed.nodal_index for p in branch.points)
    assert branch.index_audit_ok


def test_index_audit_reads_every_point(branch_short, seed_branch):
    # one point off the seed's index fails the audit, whatever its neighbours
    odd = replace(branch_short.points[3], index=seed_branch.nodal_index + 1)
    points = branch_short.points[:3] + (odd,) + branch_short.points[4:]
    assert not replace(branch_short, points=points).index_audit_ok
    assert branch_short.index_audit_ok


def test_branch_rotation_continuous_at_zero_amplitude(branch_short,
                                                      seed_branch):
    # j tends to the seed rotation number as the amplitude vanishes
    first = branch_short.points[0]
    assert abs(first.rotation - seed_branch.rot) < 1e-3


def test_branch_extrapolates_to_seed(branch_short, seed_branch):
    a = np.array([p.a for p in branch_short.points[:5]])
    lam = np.array([p.lam for p in branch_short.points[:5]])
    fit = np.polyfit(a ** 2, lam, 2)
    assert abs(fit[-1] - seed_branch.lam) < 1e-5


def test_branch_rejects_bad_seed(coulomb_plus, zero_plus, seed_branch,
                                 branch_window, soler_coupling):
    from dataclasses import replace
    bad = replace(seed_branch, residual=1.0)
    with pytest.raises(ValueError):
        dg.continue_branch(coulomb_plus, soler_coupling, bad, 0.001, 3,
                           window=branch_window, zero=zero_plus)


def test_linearized_index_matches_point(coulomb_plus, zero_plus, branch_short,
                                        branch_window, soler_coupling):
    # a solved point solves its own linearized equation, so re-shooting it
    # reproduces the rotation j it carries, and i is j's quadrant floor
    pt = branch_short.points[2]
    shot = dg.shoot_nonlinear(coulomb_plus, soler_coupling, pt.lam, pt.a,
                              pt.b, branch_window, x_start=pt.x_start,
                              zero=zero_plus)
    assert abs(shot.rotation - pt.rotation) < 1e-9
    assert pt.index == _nodal_index(pt.rotation, zero_plus.quadrant)[0]


def test_overflow_abort_reports_position(coulomb_plus, zero_plus,
                                         soler_coupling):
    # a huge backward amplitude on a long window overflows the true scale
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=600.0, delta=2e-4, eps=1e-3)
    with pytest.raises((dg.OverflowAbort, dg.IntegrationError)):
        dg.shoot_nonlinear(coulomb_plus, dg.zero_coupling(), 0.5, 1e-3, 1e80,
                           win, zero=zero_plus)


@pytest.mark.parametrize("a", [1e-2, 0.3])
def test_linear_point_l2_norm_matches_eigenfunction(coulomb_plus, zero_plus,
                                                    seed_branch, branch_window,
                                                    a):
    # with the trivial coupling a solved point is c times the normalized
    # eigenfunction on the same sample grid, so its L2 norm is |c|; its
    # residual meets the corrector's tolerance (a dense re-shot after the
    # lanes had converged reported 6.9e-9 at a = 0.3)
    pt = dg.solve_point(coulomb_plus, dg.zero_coupling(), seed_branch.lam, a,
                        window=branch_window, zero=zero_plus)
    assert pt.residual < 1e-9 * max(1.0, a)
    ef = dg.eigenfunction(coulomb_plus, seed_branch, 257, zero=zero_plus)
    np.testing.assert_array_equal(pt.x, ef.x)
    i = int(np.argmax(np.hypot(pt.u, pt.v)))
    c = pt.u[i] / ef.u[i] if abs(ef.u[i]) > abs(ef.v[i]) else pt.v[i] / ef.v[i]
    assert abs(pt.l2_norm - abs(c)) < 1e-7 * abs(c)


def test_branch_continues_where_the_backward_amplitude_underflows(
        coulomb_plus, zero_plus, soler_coupling):
    # on [1e-3, 1600] the linear amplitude ratio is about e^-788, below the
    # float range, so b only exists as its log; the continuation used to stop
    # with a math domain error here
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=1600.0, delta=2e-4, eps=1e-3)
    scan = dg.scan_spectrum(coulomb_plus, np.linspace(0.5, 0.93, 9), win,
                            zero_plus)
    bracket = next(b for b in scan.brackets if b.k == 1)
    seed = dg.find_eigenvalue(coulomb_plus, 1, bracket, 1e-9, window=win,
                              zero=zero_plus)
    log_ratio, _ = dg.linear_amplitude_ratio(coulomb_plus, seed.lam, win,
                                             zero=zero_plus)
    assert log_ratio < -745.0           # exp(log_ratio) underflows to 0
    branch = dg.continue_branch(coulomb_plus, soler_coupling, seed, ds=1e-3,
                                max_steps=2, window=win, zero=zero_plus)
    assert len(branch.points) == 2
    assert branch.index_audit_ok
    assert all(p.residual < 1e-8 for p in branch.points)
