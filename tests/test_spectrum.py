"""The matched angle functional, eigenvalue search, accumulation, eigenfunctions."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import diracgap as dg
from diracgap import spectrum
from diracgap.prufer import DEFAULT_RTOL
from conftest import cartesian_matched, sommerfeld


def test_nu_stationary_synthetic():
    # at lam = 0 both boundary angles are 3*pi/4, a fixed point of the
    # constant flow, so the matched value is pi + 3*pi/4 - 3*pi/4
    fam = dg.CoefficientFamily(coeffs=lambda x: (-1.0, 0.0, 1.0),
                               mu_minus=-1.0, mu_plus=1.0, beta=1.0,
                               limit_zero=np.zeros((2, 2)))
    win = dg.TruncationWindow(x_zero=0.5, x_inf=10.0, delta=1e-3, eps=1e-3)
    zd = dg.ZeroData(rate=1.0, flow_matrix=np.diag([-1.0, 1.0]),
                     theta_zero=3.0 * math.pi / 4.0, quadrant="second")
    val = dg.nu_star(fam, 0.0, win, zd)
    assert abs(val - math.pi) < 1e-6


def test_nu_non_decreasing_sample(coulomb_minus, zero_minus, fast_window):
    lo = dg.nu_star(coulomb_minus, 0.6, fast_window, zero_minus)
    hi = dg.nu_star(coulomb_minus, 0.7, fast_window, zero_minus)
    assert lo <= hi + 1e-9


def test_nu_star_shift_arithmetic(coulomb_plus, zero_plus, fast_window):
    # nu_star crosses k*pi at the k-th closed-form level
    ground = dg.nu_star(coulomb_plus, sommerfeld(0), fast_window, zero_plus)
    first = dg.nu_star(coulomb_plus, sommerfeld(1), fast_window, zero_plus)
    assert abs(ground - math.pi) < 1e-8
    assert abs(first - 2.0 * math.pi) < 1e-7


# -- scanning ------------------------------------------------------------------

def test_scan_empty_grid(coulomb_minus, fast_window):
    out = dg.scan_spectrum(coulomb_minus, [], fast_window)
    assert out.brackets == ()


def test_scan_rejects_grid_outside_gap(coulomb_minus, fast_window, zero_minus):
    with pytest.raises(ValueError):
        dg.scan_spectrum(coulomb_minus, [0.5, 1.5], fast_window, zero_minus)


def test_scan_free_family_no_brackets(free_family):
    zd = dg.zero_data(free_family)
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=500.0, delta=2e-4, eps=1e-3)
    out = dg.scan_spectrum(free_family, np.linspace(-0.6, 0.9, 9), win, zd)
    assert out.brackets == ()
    assert np.all(np.diff(out.values) >= -1e-7)


@settings(max_examples=12, deadline=None)
@given(gamma=st.floats(-0.7, -0.3), n_r=st.sampled_from([0, 1]),
       j=st.sampled_from([-1, 0, 1]))
@example(gamma=-0.5, n_r=0, j=1)
@example(gamma=-0.53125, n_r=0, j=-1)
def test_scan_point_on_or_beside_level_is_solved(gamma, n_r, j, fast_window):
    # a grid point on a level, or one ulp to either side, must neither drop
    # that level nor emit a bracket the root solver refuses
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=1, mu_a=0.0, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    level = sommerfeld(n_r, gamma)
    point = math.nextafter(level, level + j) if j else level
    out = dg.scan_spectrum(fam, [0.5, point, 0.99], fast_window, zd)
    inside = [n + 1 for n in range(64) if 0.5 < sommerfeld(n, gamma) < 0.99]
    assert [b.k for b in out.brackets] == inside
    br = next(b for b in out.brackets if b.k == n_r + 1)
    rec = dg.find_eigenvalue(fam, br.k, (br.lam_lo, br.lam_hi), 1e-9,
                             window=fast_window, zero=zd)
    assert abs(rec.lam - level) / level < 1e-8


@settings(max_examples=12, deadline=None)
@given(gamma=st.floats(-0.7, -0.3), j=st.sampled_from([-1, 0, 1]),
       end=st.sampled_from(["lower", "upper"]))
@example(gamma=-0.5, j=0, end="upper")
@example(gamma=-0.53125, j=0, end="lower")
@example(gamma=-0.6549583522840874, j=0, end="upper")
@example(gamma=-0.69, j=0, end="lower")
def test_grid_end_on_or_beside_level_is_solved(gamma, j, end, fast_window):
    # n_r = 0 only: that constant-phase level reads k*pi to rounding (the
    # last two examples read pi - 22 ulp and pi + 176 ulp), so a grid end on
    # it, or one ulp beside it, may land on either side of pi
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=1, mu_a=0.0, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    level = sommerfeld(0, gamma)
    point = math.nextafter(level, level + j) if j else level
    grid = [0.5, point] if end == "upper" else [point, 0.99]
    out = dg.scan_spectrum(fam, grid, fast_window, zd)
    above = [n + 1 for n in range(1, 64) if sommerfeld(n, gamma) < grid[1]]
    assert [b.k for b in out.brackets] == [1] + above
    br = out.brackets[0]
    rec = dg.find_eigenvalue(fam, br.k, (br.lam_lo, br.lam_hi), 1e-9,
                             window=fast_window, zero=zd)
    assert abs(rec.lam - level) / level < 1e-8


@settings(max_examples=10, deadline=None)
@given(gamma=st.floats(-0.7, -0.3), k=st.sampled_from([1, -1, 2, -2]),
       grid=st.lists(st.floats(-0.95, 0.98), min_size=2, max_size=30,
                     unique=True))
@example(gamma=-0.6219494004819421, k=2, grid=[0.5, 0.909360512093109])
@example(gamma=-0.4921875, k=1, grid=[0.0, 0.0625, 0.03125])
@example(gamma=-0.625, k=1, grid=[0.25, 0.875, 0.98])
@example(gamma=-0.6106, k=1, grid=[0.98, 0.0, -9.6e-185])
def test_lane_values_match_scalar_and_other_batches(gamma, k, grid,
                                                    fast_window):
    # one lane run per half must give every lane the matched value of
    # Cartesian halves at rtol 1e-13 from both ends, and a lane's value must
    # not depend on which lanes share its run: each lane is carried across
    # its own span of the mesh.  The last three examples failed one
    # assertion or the other on DOP853 lanes, whose step sequence, and
    # error, moved with the lanes sharing it
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=k, mu_a=0.0, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    lams = np.array(grid)
    lanes = dg.nu_star(fam, lams, fast_window, zd)
    assert lanes.shape == lams.shape
    for lam, value in zip(lams, lanes):
        scalar = cartesian_matched(fam, lam, fast_window, zd).nu_star_hat
        assert abs(value - scalar) < 1e-9
    other = dg.nu_star(fam, np.append(lams[::2], 0.0), fast_window, zd)
    assert np.array_equal(other[:-1], lanes[::2])


def test_scan_first_quadrant_channel_brackets(coulomb_minus, zero_minus):
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=2000.0, delta=2e-4, eps=1e-3)
    out = dg.scan_spectrum(coulomb_minus, np.linspace(0.9, 0.993, 20),
                           win, zero_minus)
    assert len(out.brackets) >= 3
    ks = [b.k for b in out.brackets]
    assert ks == sorted(ks)


def _record_nu_star_runs(monkeypatch):
    """Patch spectrum.nu_star to record the lam argument of every run."""
    calls, run = [], spectrum.nu_star
    monkeypatch.setattr(spectrum, "nu_star",
                        lambda *args, **kw: calls.append(args[1])
                        or run(*args, **kw))
    return calls


def test_scan_is_one_nu_star_run(oracle_pipeline, coulomb_plus, zero_plus,
                                 monkeypatch):
    # the A1 grid: one lane run, whatever the number of levels in a cell
    calls = _record_nu_star_runs(monkeypatch)
    grid = np.linspace(-0.9, 0.993, 30)
    out = dg.scan_spectrum(coulomb_plus, grid, oracle_pipeline["window"],
                           zero_plus)
    assert len(calls) == 1 and np.array_equal(calls[0], grid)
    assert out.brackets == oracle_pipeline["scan"].brackets


@settings(max_examples=5, deadline=None)
@given(gamma=st.floats(-0.7, -0.3), k=st.sampled_from([1, -1, 2, -2]),
       hi=st.floats(0.98, 0.99), t=st.floats(0.0, 0.999),
       s=st.one_of(st.none(), st.floats(0.0, 0.999)))
@example(gamma=-0.5, k=1, hi=0.99, t=0.95, s=0.5)
def test_cell_across_several_levels_brackets_each(gamma, k, hi, t, s,
                                                  fast_window):
    # the top cell reaches from t of the way up to its second-highest level;
    # a third grid point, when drawn, sits s of the way up to the top cell
    ladder = [sommerfeld(n_r, gamma, k) for n_r in range(0 if k > 0 else 1, 64)]
    inside = [lam for lam in ladder if lam < hi]
    assume(len(inside) >= 2)
    top_lo = t * inside[-2]
    grid = [top_lo, hi] if s is None else [s * top_lo, top_lo, hi]
    assume(len(set(grid)) == len(grid))
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=k, mu_a=0.0, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    out = dg.scan_spectrum(fam, grid, fast_window, zd)
    assert [b.k for b in out.brackets] == [
        n + 1 for n, lam in enumerate(ladder) if grid[0] < lam < grid[-1]]
    for br in out.brackets:
        rec = dg.find_eigenvalue(fam, br.k, br, 1e-9, window=fast_window,
                                 zero=zd)
        assert abs(rec.lam - ladder[br.k - 1]) < 1e-8
        assert rec.nodal_index == br.k - 1


# -- eigenvalues ---------------------------------------------------------------

def test_ground_state_against_closed_form(ground_fast):
    assert abs(ground_fast.lam - sommerfeld(0)) / sommerfeld(0) < 1e-9
    assert ground_fast.residual < 1e-9
    assert ground_fast.nodal_index == 0
    assert ground_fast.quadrant == "second"


def test_first_quadrant_channel_spectrum(coulomb_minus, zero_minus):
    # this channel starts at n_r = 1; its levels coincide with the
    # second-quadrant channel's excited levels (same closed form)
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=2000.0, delta=2e-4, eps=1e-3)
    out = dg.scan_spectrum(coulomb_minus, np.linspace(0.9, 0.99, 15),
                           win, zero_minus)
    recs = [dg.find_eigenvalue(coulomb_minus, b.k, (b.lam_lo, b.lam_hi), 1e-9,
                               window=win, zero=zero_minus)
            for b in out.brackets[:2]]
    for rec, n_r in zip(recs, (1, 2)):
        assert abs(rec.lam - sommerfeld(n_r)) / sommerfeld(n_r) < 1e-8
    # first-quadrant rotation interval: rot in (k-1, k)
    for rec in recs:
        assert rec.k - 1 < rec.rot < rec.k
        assert rec.nodal_index == rec.k - 1
        assert rec.residual < 1e-9


def test_a1_levels_take_at_most_six_matched_evaluations(records_plus):
    for rec in records_plus:
        assert 1 <= len(rec.history) <= 6
        assert (rec.lam, rec.residual) in [(lam, abs(f))
                                           for lam, f, _ in rec.history]


def test_a1_levels_from_pairs_take_at_most_four_matched_evaluations(
        records_plus):
    # a (lo, hi) pair is bracketed by one two-lane run, so the dense matched
    # runs are the Newton iterates alone, as from a scan bracket
    assert [len(rec.history) <= 4 for rec in records_plus] == [True] * 3


@pytest.mark.parametrize("lam", [0.0, sommerfeld(0) + 1e-4,
                                 sommerfeld(1) - 1e-4])
def test_sibling_lane_slope_matches_central_difference(coulomb_plus, zero_plus,
                                                       fast_window, lam):
    # the Newton slope: lam and a sibling lane 1e-7 above it on one run
    delta = 1e-7 * max(1.0, abs(lam))
    value, sibling = dg.nu_star(coulomb_plus, np.array([lam, lam + delta]),
                                fast_window, zero_plus)
    slope = (sibling - value) / delta
    h = 1e-6
    lo, hi = dg.nu_star(coulomb_plus, np.array([lam - h, lam + h]),
                        fast_window, zero_plus)
    diff = (hi - lo) / (2 * h)
    assert abs(slope - diff) / diff < 1e-5


@settings(max_examples=8, deadline=None)
@given(gamma=st.floats(-0.8, -0.2), k=st.sampled_from([1, -1, 2, -2]),
       lam=st.floats(-0.9, 0.995), x_inf=st.floats(300.0, 1.5e4),
       mu_a=st.just(0.0))
@example(gamma=-0.5, k=1, lam=0.9, x_inf=2000.0, mu_a=0.2)
@example(gamma=-0.59375, k=-1, lam=-0.125, x_inf=1003.0, mu_a=0.0)
@example(gamma=-0.78125, k=1, lam=0.995, x_inf=2974.0, mu_a=0.0)
def test_contraction_start_matches_full_window(gamma, k, lam, x_inf, mu_a):
    # the backward half started at x_c instead of x_inf: its start error
    # reaches x_mid damped by e^-36, far below the integrator's error.  The
    # run from x_inf is a lane on the same mesh: a DOP853 run at rtol 1e-13
    # was itself up to 1.8e-11 off on these windows (the last two examples,
    # where the mesh at rtol 1e-13 lies within 2.1e-13 of one at 1e-17)
    fam = dg.build_dirac_family(dg.DiracRadialParams(
        k=k, mu_a=mu_a, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=x_inf, delta=2e-4, eps=1e-3)
    samples = spectrum.WindowSamples(fam, win)
    x_c = dg.asymptotics.contraction_start(samples.contraction, lam)
    assert win.x_mid < x_c <= win.x_inf
    value = dg.nu_star(fam, lam, win, zd, rtol=1e-13, samples=samples)
    theta_inf = dg.infinity_data(-1.0, 1.0, lam).theta_inf
    fwd, bwd, _ = spectrum._halves(fam, np.array([lam]), win, zd.theta_zero,
                                   [theta_inf], [win.x_inf], 1e-13,
                                   samples=samples)
    assert abs(value - (math.pi + fwd.end[0, 0] - bwd.end[0, 0])) < 1e-11


@settings(max_examples=8, deadline=None)
@given(gamma=st.floats(-0.8, -0.2), k=st.sampled_from([1, -1, 2, -2]),
       lam=st.floats(-0.9, 0.995), mu_a=st.just(0.0))
@example(gamma=-0.5, k=1, lam=0.0, mu_a=0.0)
@example(gamma=-0.2, k=2, lam=0.2, mu_a=0.3)
@example(gamma=-0.7683565815631189, k=-2, lam=0.9654, mu_a=0.0)
def test_match_point_lies_where_the_backward_half_has_contracted(
        gamma, k, lam, mu_a, fast_window):
    # spliced at match_point, the backward half from its contraction start
    # reads what one from x_inf reads.  The first two examples have no well,
    # and kappa^2 falls up to x_c: the point lies just below x_c, and a run
    # from there would arrive damped by about e^-2.5 only (1e-3 and 6e-3 in
    # nu_star), so the start moves out until int kappa dx >= 18 from it
    fam = dg.build_dirac_family(dg.DiracRadialParams(
        k=k, mu_a=mu_a, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    samples = spectrum.WindowSamples(fam, fast_window)
    x = dg.asymptotics.match_point(samples.contraction, lam)
    value = dg.nu_star(fam, lam, fast_window, zd, rtol=1e-13,
                       samples=samples, x_match=x)
    full = cartesian_matched(fam, lam, fast_window, zd, x).nu_star_hat
    assert abs(value - full) < 1e-11


@settings(max_examples=8, deadline=None)
@given(gamma=st.floats(-0.8, -0.2), k=st.sampled_from([1, -1, 2, -2]),
       lam=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       x_inf=st.sampled_from([250.0, 2000.0]),
       mu_a=st.sampled_from([0.0, 0.2, 0.3]))
@example(gamma=-0.3772523236649738, k=2, lam=-0.15836939478340994,
         x_inf=250.0, mu_a=0.0)
@example(gamma=-0.2394491088314139, k=-2, lam=-0.11895500924256108,
         x_inf=2000.0, mu_a=0.3)
@example(gamma=-0.5, k=1, lam=1.0 - 1e-9, x_inf=250.0, mu_a=0.2)
@example(gamma=-0.75, k=-1, lam=0.0, x_inf=250.0, mu_a=0.2)
def test_magnus_lanes_match_the_dense_path(gamma, k, lam, x_inf, mu_a):
    # lane nu_star on the Magnus meshes against Cartesian halves at rtol
    # 1e-13, both spliced at match_point: within 5e-9 on the default
    # mesh, and within 1e-10 on the tightened one, whose read ends a root
    # solve; mu_a > 0 puts the left part in the x^(1 - beta) chart.  The
    # first two examples read 1.8e-9 and 1.8e-11 off, near the largest of
    # 190 drawn cases; the last, a weak origin limit (0.15), read 1.4e-7 off
    # on nodes uniform in sqrt(x), as the log chart's are
    fam = dg.build_dirac_family(dg.DiracRadialParams(
        k=k, mu_a=mu_a, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=x_inf, delta=2e-4, eps=1e-3)
    samples = spectrum.WindowSamples(fam, win)
    x = dg.asymptotics.match_point(samples.contraction, lam)
    full = cartesian_matched(fam, lam, win, zd, x).nu_star_hat
    for rtol, bound in ((DEFAULT_RTOL, 5e-9), (1e-2 * DEFAULT_RTOL, 1e-10)):
        value = dg.nu_star(fam, lam, win, zd, rtol=rtol, samples=samples,
                           x_match=x)
        assert abs(value - full) < bound


def test_contraction_start_past_the_window(coulomb_plus):
    # at lam = 0.999 the turning point lies near x = 500, beyond x_inf
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=60.0, delta=2e-4, eps=1e-3)
    samples = dg.asymptotics.contraction_samples(coulomb_plus, win)
    assert dg.asymptotics.contraction_start(samples, 0.999) == 60.0


@pytest.mark.parametrize("x_from", [None, 3.0, 40.0])
@pytest.mark.parametrize("mu_a", [0.0, 0.3])
def test_contraction_starts_of_all_lanes_in_one_pass(mu_a, x_from):
    # an array of lam gives each lane the start of one float lam, bit for
    # bit, and of the per-lam rule it replaces: from the lane's last turning
    # point or x_from, the first sample where wkb_decay reaches 18.  Near
    # mu_plus the decay never builds up and the start is x_inf
    fam = dg.build_dirac_family(dg.DiracRadialParams(
        k=1, mu_a=mu_a, potential=dg.coulomb_potential(-0.5)))
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=250.0, delta=2e-4, eps=1e-3)
    samples = dg.asymptotics.contraction_samples(fam, win)
    xs, p11, p12, p22 = samples

    def per_lam(lam):
        turning = np.flatnonzero(p12 * p12 - (lam - p11) * (lam - p22) <= 0.0)
        start = max(turning[-1] if turning.size else 0,
                    np.searchsorted(xs, x_from or xs[0]))
        reached = np.flatnonzero(dg.asymptotics.wkb_decay(
            samples, lam, xs[start], xs[start:]) >= 18.0)
        return float(xs[start + reached[0]] if reached.size else xs[-1])

    lams = np.concatenate((np.linspace(-0.99, 0.99, 23),
                           [0.866, 0.9999, 1.0 - 1e-9]))
    starts = dg.asymptotics.contraction_start(samples, lams, x_from)
    assert starts.shape == lams.shape
    floats = [dg.asymptotics.contraction_start(samples, lam, x_from)
              for lam in lams.tolist()]
    assert all(type(x) is float for x in floats)
    assert starts.tolist() == floats == [per_lam(lam) for lam in lams.tolist()]
    assert starts[-2] == starts[-1] == win.x_inf > starts[0]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_returned_level_meets_tol_at_tight_tolerances(level):
    # the residual is read at tightened tolerances: at the caller's ones the
    # value at the second level here is about 3.5e-9 off (slope ~ 8.6e3)
    fam = dg.build_dirac_family(dg.DiracRadialParams(
        k=2, mu_a=0.0, potential=dg.coulomb_potential(-0.6219494004819421)))
    zd = dg.zero_data(fam)
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=250.0, delta=2e-4, eps=1e-3)
    scan = dg.scan_spectrum(fam, np.linspace(0.5, 0.99, 12), win, zd)
    br = scan.brackets[level - 1]
    rec = dg.find_eigenvalue(fam, br.k, br, 1e-9, window=win, zero=zd)
    ref = cartesian_matched(fam, rec.lam, win, zd, rec.x_match).nu_star_hat
    assert abs(ref - br.k * math.pi) <= 1e-9


# inputs on which the secant/bisection root solve ran into its noise floor
# and raised ConvergenceError: Dirac k = 2, n_r = 1 (level 2)
@pytest.mark.parametrize("gamma, bracket, x_inf", [
    (-0.7121863196942128,
     (0.9705422679099147 - 9.25e-8, 0.9705422679099147 + 3.24e-7),
     1226.7908292491109),
    (-0.683523887725851, (0.9699805561020441, 0.9731349214640846),
     1224.7851624503678),
])
def test_noise_floor_refusals_solve(gamma, bracket, x_inf):
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=2, mu_a=0.0, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    sel = dg.select_truncation(fam, bracket, zero=zd)
    win = dg.TruncationWindow(x_zero=sel.x_zero, x_inf=x_inf,
                              delta=sel.delta, eps=sel.eps)
    rec = dg.find_eigenvalue(fam, 2, bracket, 1e-9, window=win, zero=zd)
    assert abs(rec.lam - sommerfeld(1, gamma, k=2)) < 1e-8
    assert rec.nodal_index == 1


@pytest.mark.parametrize("gamma", [-0.4, -0.3])
def test_k_minus_two_levels_near_the_gap_edge_solve(gamma, fast_window):
    # levels above 0.99: spliced at x_mid, nu_star is a step of height pi
    # too narrow for the tightened reads, and these solves ended in
    # ConvergenceError; at the bottom of the well the functional is smooth
    fam = dg.build_dirac_family(dg.DiracRadialParams(
        k=-2, mu_a=0.0, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    scan = dg.scan_spectrum(fam, np.linspace(0.3, 0.996, 10), fast_window, zd)
    assert scan.brackets
    for br in scan.brackets:
        rec = dg.find_eigenvalue(fam, br.k, br, 1e-9, window=fast_window,
                                 zero=zd)
        exact = sommerfeld(rec.k, gamma, k=-2)
        assert abs(rec.lam - exact) / exact < 1e-10
        assert rec.nodal_index == rec.k - 1


@pytest.mark.parametrize("gamma, k", [(-0.5, 1), (-0.725, -1)])
def test_tabulated_coulomb_levels_solve(gamma, k, fast_window):
    # tabulated gamma/x, as in test_closed_form_rot_matches_a_dense_run: an
    # end of the bracket read at the caller's tolerances lay on the wrong
    # side of the tightened root, and the solve stalled (residual 5.6e-9 and
    # 3.0e-8) until ConvergenceError, unless the bracket went back to the
    # scan's when the tolerances were tightened
    xs = np.geomspace(1e-7, 1e7, 600)
    pot = dg.tabulated_potential(xs, gamma / xs, gamma, 1.0, gamma, 1.0)
    fam = dg.build_dirac_family(dg.DiracRadialParams(k=k, mu_a=0.0,
                                                     potential=pot))
    zd = dg.zero_data(fam)
    scan = dg.scan_spectrum(fam, np.linspace(0.3, 0.98, 8), fast_window, zd)
    assert scan.brackets
    for br in scan.brackets[:3]:
        rec = dg.find_eigenvalue(fam, br.k, br, 1e-9, window=fast_window,
                                 zero=zd)
        assert rec.residual < 1e-9
        n_r = rec.k - 1 if k > 0 else rec.k
        assert abs(rec.lam - sommerfeld(n_r, gamma, k)) < 1e-6


# -- the gap coordinate u = (lam - c)/kappa of the root solve -------------------

# resolves every level drawn below to a residual under 1e-10 at the closed
# form; fast_window leaves up to 6.8e-8 (|k| = 1, gamma = -0.7, x_zero) and
# 1.9e-4 (n_r = 3, gamma = -0.3, x_inf), so an end on the closed-form level
# need not bracket the level of that window
LADDER_WINDOW = dg.TruncationWindow(x_zero=1e-5, x_inf=1000.0, delta=2e-4,
                                    eps=1e-3)


def _edges_and_interior():
    edges = [math.nextafter(-1.0, 0.0), math.nextafter(1.0, 0.0)]
    return edges + np.linspace(-1.0, 1.0, 2001)[1:-1].tolist()


def test_gap_point_inverts_gap_coordinate():
    for lam in _edges_and_interior():
        u = dg.asymptotics.gap_coordinate(-1.0, 1.0, lam)
        back = dg.asymptotics.gap_point(-1.0, 1.0, u)
        assert abs(back - lam) <= 4.0 * math.ulp(lam), lam


def test_gap_coordinate_increases_strictly():
    lams = np.sort(_edges_and_interior())
    us = [dg.asymptotics.gap_coordinate(-1.0, 1.0, lam) for lam in lams]
    assert np.all(np.diff(us) > 0.0)


def test_gap_point_stays_in_the_gap_for_huge_u():
    # hypot keeps u/hypot(1, u) finite where u*u overflows (|u| > 1.3e154,
    # where sqrt(1 + u*u) would send lam to the centre); beyond |u| ~ 1e8
    # lam rounds onto an edge, which the root solve's strict bracket test
    # refuses, and it never leaves the closed gap
    mags = [1.0, 1e3, 1e7, 1e8, 1e16, 1e154, 1e155, 1e200, 1e300]
    for sign in (1.0, -1.0):
        lams = [dg.asymptotics.gap_point(-1.0, 1.0, sign * m) for m in mags]
        assert all(-1.0 <= lam <= 1.0 for lam in lams)
        assert all(-1.0 < lam < 1.0 for lam in lams[:3])
        assert abs(lams[-1]) == 1.0
        assert np.all(sign * np.diff(lams) >= 0.0)


@pytest.mark.parametrize("k", [1, -1])
def test_coulomb_ladder_is_evenly_spaced_in_u(k):
    # E = (1 + gamma^2/(n_r + s)^2)^(-1/2) has u = (n_r + s)/|gamma|
    gamma, s = -0.5, math.sqrt(1.0 - 0.25)
    n_rs = range(1 if k < 0 else 0, 7)
    us = [dg.asymptotics.gap_coordinate(-1.0, 1.0, sommerfeld(n, gamma, k))
          for n in n_rs]
    assert np.all(np.abs(np.diff(us) - 1.0 / abs(gamma)) < 1e-12)
    assert abs(us[0] - (n_rs[0] + s) / abs(gamma)) < 1e-12


# survey seed 1 (perfbench/workloads.py), problems 1, 10, 14 and 15: wide
# brackets whose level sits near the gap edge, where Newton steps in lam
# overshot the bracket or crept in from its steep side (10, 9, 8 and 10
# iterates); in u the ladder is evenly spaced
@pytest.mark.parametrize("gamma, k, pair, x_inf, iterates", [
    (-0.511911481657748, -1, (0.804931, 0.964836), 1893.301448270767, 8),
    (-0.7603611716139367, 2, (0.813442, 0.958268), 1367.339164303637, 5),
    (-0.5068417868777676, 2, (0.711018, 0.978709), 1107.5291649472301, 5),
    (-0.7683565815631189, -2, (0.856602, 0.971897), 1164.4090068105074, 8),
])
def test_wide_survey_brackets_solve_in_few_iterates(gamma, k, pair, x_inf,
                                                    iterates):
    fam = dg.build_dirac_family(dg.DiracRadialParams(
        k=k, mu_a=0.0, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    win = dg.TruncationWindow(x_zero=1.7782794100389227e-4, x_inf=x_inf,
                              delta=2e-4, eps=1e-3)
    rec = dg.find_eigenvalue(fam, 1, pair, 1e-9, window=win, zero=zd)
    assert abs(rec.lam - sommerfeld(0 if k > 0 else 1, gamma, k)) < 1e-8
    assert rec.nodal_index == rec.k - 1
    assert len(rec.history) <= iterates


@settings(max_examples=10, deadline=None)
@given(gamma=st.floats(-0.7, -0.3), k=st.sampled_from([1, -1, 2, -2]),
       n=st.sampled_from([0, 1, 2, 3]), t_lo=st.floats(0.0, 0.99),
       t_hi=st.floats(0.0, 0.99), end=st.sampled_from(["lo", "hi", None]),
       j=st.sampled_from([-1, 0, 1]))
@example(gamma=-0.5, k=-1, n=0, t_lo=0.99, t_hi=0.99, end=None, j=0)
@example(gamma=-0.5, k=1, n=1, t_lo=0.5, t_hi=0.5, end="lo", j=0)
@example(gamma=-0.5, k=2, n=2, t_lo=0.5, t_hi=0.5, end="hi", j=1)
@example(gamma=-0.7, k=-2, n=0, t_lo=0.3, t_hi=0.5, end="lo", j=-1)
def test_wide_brackets_solve_to_the_level(gamma, k, n, t_lo, t_hi, end, j):
    # (lo, hi) anywhere between the level's neighbours (0 below the lowest
    # one), an end on the closed-form level or one ulp beside it; n_r <= 3.
    # In the last example lo, one ulp below the level, read 1.9e-5 above
    # k*pi at x_mid, and the bracket was refused until that end was read
    # again as an iterate
    assume(n + (k < 0) <= 3)
    ladder = [sommerfeld(n_r, gamma, k) for n_r in range(0 if k > 0 else 1, 5)]
    below, level, above = ([0.0] + ladder)[n:n + 3]
    lo, hi = level - t_lo * (level - below), level + t_hi * (above - level)
    if end is not None:
        on = math.nextafter(level, level + j) if j else level
        lo, hi = (on, hi) if end == "lo" else (lo, on)
    assume(lo < hi)
    fam = dg.build_dirac_family(dg.DiracRadialParams(
        k=k, mu_a=0.0, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    rec = dg.find_eigenvalue(fam, n + 1, (lo, hi), 1e-9, window=LADDER_WINDOW,
                             zero=zd)
    assert abs(rec.lam - level) < 1e-8
    assert rec.nodal_index == n


def test_root_solve_stops_at_the_residual_floor(coulomb_plus, zero_plus,
                                                fast_window, monkeypatch):
    # a tol below nu_star's rounding: the tightened read of levels 2 and 3
    # cannot get below 2.7e-15 and 8.9e-15, and the solve stops when it
    # would read that lam again, instead of running 80 iterations
    scan = dg.scan_spectrum(coulomb_plus, np.linspace(0.5, 0.99, 12),
                            fast_window, zero_plus)
    calls = _record_nu_star_runs(monkeypatch)
    for br in scan.brackets[1:3]:
        del calls[:]
        with pytest.raises(spectrum.ConvergenceError, match="floor"):
            dg.find_eigenvalue(coulomb_plus, br.k, br, 1e-16,
                               window=fast_window, zero=zero_plus)
        assert len(calls) < 40


def test_ground_state_solves_above_the_origin_region(coulomb_plus, zero_plus,
                                                     monkeypatch):
    # x_zero = 2.0 lies above the origin's asymptotic region, and beside the
    # constant-phase ground state nu_star moves by about 2e-9 per ulp of
    # lam; the solve still lands on its closed form sqrt(3)/2
    win = dg.TruncationWindow(x_zero=2.0, x_inf=250.0, delta=2e-4, eps=1e-3)
    br = dg.scan_spectrum(coulomb_plus, np.linspace(0.5, 0.93, 9), win,
                          zero_plus).brackets[0]
    calls = _record_nu_star_runs(monkeypatch)
    rec = dg.find_eigenvalue(coulomb_plus, br.k, br, 1e-9, window=win,
                             zero=zero_plus)
    assert abs(rec.lam - math.sqrt(3.0) / 2.0) <= 2.0 * math.ulp(rec.lam)
    assert len(calls) < 40


def test_eigenfunction_matches_where_the_level_was_solved():
    # survey seed 1, problem 15 (perfbench/workloads.py): at x_mid = 0.455
    # nu_star rises by 1.25e5 per unit lam and at x_match = 4.46 by 52, so
    # a level 4e-11 off, inside the survey's residual tolerance 1e-8 at
    # x_match, read a mismatch of 5.65e-6 at x_mid
    gamma, lo, hi = -0.7683565815631189, 0.16483477552913628, 0.9718966094716067
    fam = dg.build_dirac_family(dg.DiracRadialParams(
        k=-2, mu_a=0.0, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    win = dg.select_truncation(fam, (lo, hi), zero=zd,
                               x_inf=1164.4090068105074)
    scan = dg.scan_spectrum(fam, np.linspace(lo, hi, 8), win, zd)
    rec = dg.find_eigenvalue(fam, 1, scan.brackets[0], 1e-8, window=win,
                             zero=zd)
    assert abs(rec.lam - sommerfeld(1, gamma, k=-2)) < 1e-10
    assert win.x_mid < rec.x_match
    for shift in (0.0, 4e-11, -4e-11):
        moved = replace(rec, lam=rec.lam + shift)
        assert abs(dg.nu_star(fam, moved.lam, win, zd, x_match=rec.x_match)
                   - math.pi) < 1e-8
        ef = dg.eigenfunction(fam, moved, 64, zero=zd)
        assert abs(ef.norm_check - 1.0) < 1e-6


def _off_the_ladder(gamma, k, lam):
    return all(abs(lam - sommerfeld(n, gamma, k)) >= 1e-6 for n in range(64))


@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(-0.8, -0.2), k=st.sampled_from([1, -1, 2, -2]),
       lam=st.floats(0.0, 0.99, exclude_min=True, exclude_max=True))
@example(gamma=-0.7683565815631189, k=-2, lam=0.9650)
@example(gamma=-0.7683565815631189, k=-2, lam=0.9655)
def test_level_count_does_not_depend_on_the_splice_point(gamma, k, lam,
                                                          fast_window):
    # theta_fwd - theta_bwd meets a multiple of pi only at an eigenvalue, so
    # off a level floor(nu_star/pi) is the same at x_mid and at match_point:
    # the scan's values, spliced at x_mid, stay valid for the root solve
    assume(_off_the_ladder(gamma, k, lam))
    fam = dg.build_dirac_family(dg.DiracRadialParams(
        k=k, mu_a=0.0, potential=dg.coulomb_potential(gamma)))
    zd = dg.zero_data(fam)
    samples = spectrum.WindowSamples(fam, fast_window)
    x = dg.asymptotics.match_point(samples.contraction, lam)
    at_mid = dg.nu_star(fam, lam, fast_window, zd, samples=samples)
    at_match = dg.nu_star(fam, lam, fast_window, zd, samples=samples,
                          x_match=x)
    assert math.floor(at_mid / math.pi) == math.floor(at_match / math.pi)


def test_second_quadrant_rotation_intervals(records_plus):
    for rec in records_plus:
        assert rec.k - 1.5 < rec.rot < rec.k - 0.5
        assert rec.nodal_index == rec.k - 1


def test_rotation_numbers_derived_values(records_plus, zero_plus):
    # rot = (k pi - gap_angle(lam_k) - theta_zero)/pi, a consequence of the
    # level condition; independent arithmetic check against the records
    for rec in records_plus:
        gap = math.atan(math.sqrt((1.0 + rec.lam) / (1.0 - rec.lam)))
        expected = rec.k - (gap + zero_plus.theta_zero) / math.pi
        assert abs(rec.rot - expected) < 1e-6


@settings(max_examples=5, deadline=None)
@given(gamma=st.floats(-0.8, -0.2), k=st.sampled_from([1, -1, 2, -2]),
       mu_a=st.just(0.0), tabulated=st.just(False))
@example(gamma=-0.5, k=1, mu_a=0.2, tabulated=False)
@example(gamma=-0.5, k=1, mu_a=0.0, tabulated=True)
def test_closed_form_rot_matches_a_dense_run(gamma, k, mu_a, tabulated,
                                             fast_window):
    # the record's rot comes from the last iterate alone; Cartesian halves
    # at rtol 1e-13, spliced where that iterate was read, must read the same
    # rotation number.  Levels up to 0.98: spliced at x_mid, a k = -2
    # level's tightened reads above it differed by up to 8e-9 in rot
    if tabulated:
        xs = np.geomspace(1e-7, 1e7, 600)
        pot = dg.tabulated_potential(xs, gamma / xs, gamma, 1.0, gamma, 1.0)
    else:
        pot = dg.coulomb_potential(gamma)
    fam = dg.build_dirac_family(dg.DiracRadialParams(k=k, mu_a=mu_a,
                                                     potential=pot))
    zd = dg.zero_data(fam)
    scan = dg.scan_spectrum(fam, np.linspace(0.3, 0.98, 8), fast_window, zd)
    assume(scan.brackets)
    for br in scan.brackets[:2]:
        rec = dg.find_eigenvalue(fam, br.k, br, 1e-9, window=fast_window,
                                 zero=zd)
        info = cartesian_matched(fam, rec.lam, fast_window, zd, rec.x_match)
        theta_inf = dg.infinity_data(fam.mu_minus, fam.mu_plus,
                                     rec.lam).theta_inf
        dense = (info.nu_star_hat - math.pi + theta_inf
                 - zd.theta_zero) / math.pi
        assert abs(rec.rot - dense) < 1e-9
        if mu_a == 0.0:     # the level is the ladder's rec.k-th
            n_r = rec.k - 1 if k > 0 else rec.k
            assert abs(rec.lam - sommerfeld(n_r, gamma, k)) < 1e-6
        assert rec.nodal_index == rec.k - 1
        # a nonzero mu_a makes the origin degenerate (theta_zero = pi/2):
        # rot = k - 1/2 - gap_angle/pi then nears k - 1 as the level nears
        # the gap edge, 0.04 away at lam = 0.969
        shifted = rec.rot + 0.5 if rec.quadrant == "second" else rec.rot
        margin = 0.02 if rec.quadrant == "degenerate" else 0.1
        assert abs(shifted - round(shifted)) >= margin


# -- work counts: P(x) evaluated through a counting family ---------------------

def _counting(family):
    """The family with a coeffs that records every x, each x of an array
    too, as the benchmark's coefficient counter wraps it."""
    seen = []

    def coeffs(x, inner=family.coeffs):
        seen.extend(np.ravel(x).tolist())
        return inner(x)

    return replace(family, coeffs=coeffs), seen


def test_select_truncation_evaluates_p_once_per_point(coulomb_plus, zero_plus):
    # the README config: the cone tests evaluate P once per point for every
    # lam sample and angle, and no point twice
    fam, seen = _counting(coulomb_plus)
    win = dg.select_truncation(fam, (0.5, 0.995), zero=zero_plus)
    assert (repr(win.x_zero), repr(win.x_inf)) == ("0.00017782794100389227",
                                                   "8659.643233600653")
    assert len(seen) == len(set(seen))


def test_select_truncation_leaves_a_given_end_unexamined(coulomb_plus,
                                                        zero_plus):
    # a given x_inf is taken as it is: no closeness run or cone walk past
    # x = 1, and the origin is selected as without it
    fam, seen = _counting(coulomb_plus)
    win = dg.select_truncation(fam, (0.5, 0.995), zero=zero_plus, x_inf=250.0)
    assert (win.x_zero, win.x_inf) == (0.00017782794100389227, 250.0)
    assert seen and max(seen) <= 1.0
    # the cone at infinity reaches pi/2 at lam = 0.999999: with x_inf given
    # that end is not tested and cannot reject the window
    dg.select_truncation(fam, (0.5, 0.999999), zero=zero_plus, x_inf=250.0)
    assert max(seen) <= 1.0
    with pytest.raises(dg.CrossedCutoffError):
        dg.select_truncation(fam, (0.5, 0.995), zero=zero_plus, x_inf=1e-5)


def test_select_truncation_with_both_cutoffs_evaluates_nothing(coulomb_plus):
    fam, seen = _counting(coulomb_plus)
    win = dg.select_truncation(fam, (0.5, 0.995), x_zero=1e-3, x_inf=250.0)
    assert (win.x_zero, win.x_inf, win.delta) == (1e-3, 250.0, 2e-4)
    assert seen == []


def test_root_solve_samples_the_contraction_grid_once(
        coulomb_plus, zero_plus, fast_window, monkeypatch):
    # every P(x) of a solve from a scan Bracket is an integrator RHS call,
    # but for one contraction_samples grid shared by all its iterates
    fam, seen = _counting(coulomb_plus)
    scan = dg.scan_spectrum(fam, np.linspace(0.5, 0.93, 4), fast_window,
                            zero_plus)
    runs, inner = [], spectrum.integrate_prufer

    def integrate_prufer(*args, **kwargs):
        runs.append(inner(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(spectrum, "integrate_prufer", integrate_prufer)
    del seen[:]
    rec = dg.find_eigenvalue(fam, scan.brackets[0].k, scan.brackets[0],
                             window=fast_window, zero=zero_plus)
    grid = dg.asymptotics.contraction_samples(coulomb_plus, fast_window)
    assert len(runs) == 2 * len(rec.history)
    assert len(seen) == sum(r.stats.nfev for r in runs) + grid.shape[1]


def test_records_do_not_depend_on_a_shared_table(coulomb_plus, zero_plus,
                                                 fast_window):
    # one WindowSamples handed to the scan and every solve, as the CLI does,
    # or one built by each call: the same values and records, bit for bit,
    # from fewer P samples
    fam, seen = _counting(coulomb_plus)
    grid = np.linspace(0.5, 0.99, 12)

    def solve(samples):
        del seen[:]
        scan = dg.scan_spectrum(fam, grid, fast_window, zero_plus,
                                samples=samples)
        return scan.values, [
            dg.find_eigenvalue(fam, br.k, br, window=fast_window,
                               zero=zero_plus, samples=samples)
            for br in scan.brackets], len(seen)

    values, records, n_own = solve(None)
    shared = solve(spectrum.WindowSamples(fam, fast_window))
    assert len(records) == 3
    assert np.array_equal(shared[0], values) and shared[1] == records
    assert shared[2] < 0.5 * n_own


def test_match_point_evaluates_nothing_and_lies_below_the_start(
        coulomb_plus, zero_plus):
    # the splice point is read off the contraction samples alone, and lies
    # in [x_mid, x_c) so that the backward half reaches it
    win = dg.TruncationWindow(x_zero=1e-3, x_inf=2000.0, delta=2e-4, eps=1e-3)
    fam, seen = _counting(coulomb_plus)
    samples = dg.asymptotics.contraction_samples(fam, win)
    del seen[:]
    lams = (-0.9, 0.0, 0.5, 0.8, 0.97, 0.99)
    points = [dg.asymptotics.match_point(samples, lam) for lam in lams]
    assert seen == []
    starts = [dg.asymptotics.contraction_start(samples, lam) for lam in lams]
    for x, x_c in zip(points, starts):
        assert win.x_mid <= x < x_c
    # kappa^2 = 1 - (lam + 0.5/x)^2 + 1/x^2 falls all the way to x_c for
    # lam <= 0, and for lam > 0 is least at x = 1.5/lam (a well, 1 - 4
    # lam^2/3 < 0, above the ground state sqrt(3)/2); the point lies within
    # one sample spacing, a factor 10^(1/32), of that
    for x, x_c in zip(points[:2], starts[:2]):
        assert x == samples[0][samples[0] < x_c][-1]
    for lam, x in zip(lams[2:], points[2:]):
        assert abs(math.log10(x * lam / 1.5)) <= 1.0 / 32.0
    # with the least below x_mid, the first sample: x_mid itself
    wide = replace(win, x_zero=1e-2)
    samples = dg.asymptotics.contraction_samples(coulomb_plus, wide)
    assert dg.asymptotics.match_point(samples, 0.866) == wide.x_mid


def test_bracket_invalid_raises(coulomb_plus, zero_plus, fast_window):
    with pytest.raises(dg.BracketError):
        dg.find_eigenvalue(coulomb_plus, 1, (0.2, 0.5), 1e-9,
                           window=fast_window, zero=zero_plus)


def test_distinct_levels_distinct_rotations(records_plus):
    rots = [r.rot for r in records_plus]
    assert all(b - a > 0.5 for a, b in zip(rots, rots[1:]))
    nods = [r.nodal_index for r in records_plus]
    assert np.all(np.diff(nods) == 1)


def test_window_robustness(coulomb_plus, zero_plus, ground_fast, fast_window):
    # doubling the right cutoff and halving the left one must not move the
    # eigenvalue beyond solver tolerance
    big = dg.TruncationWindow(x_zero=fast_window.x_zero / 2.0,
                              x_inf=fast_window.x_inf * 2.0,
                              delta=fast_window.delta, eps=fast_window.eps)
    lam = ground_fast.lam
    rec = dg.find_eigenvalue(coulomb_plus, ground_fast.k,
                             (lam - 1e-5, lam + 1e-5), 1e-9,
                             window=big, zero=zero_plus)
    assert abs(rec.lam - lam) < 1e-8


def test_decay_fit_fields(ground_eigenfunction):
    d = ground_eigenfunction.decay
    assert math.isclose(d.expected_inf, -0.5, abs_tol=1e-12)
    assert math.isclose(d.expected_zero, math.sqrt(0.75), abs_tol=1e-12)
    assert d.rel_err_inf < 0.02
    assert d.rel_err_zero < 0.02


# -- accumulation ---------------------------------------------------------------

def test_accumulation_coulomb_upper(coulomb_plus):
    v = dg.detect_accumulation(coulomb_plus, "upper", [1e2, 1e3, 1e4])
    assert v.verdict == "accumulating"
    assert v.monotonicity_ok
    assert all(g >= 2.0 * math.pi for g in v.growth)


def test_accumulation_free_finite(free_family):
    v = dg.detect_accumulation(free_family, "upper")
    assert v.verdict == "finite"
    assert v.variation_last_decades < 1e-2


def test_accumulation_lower_edge_not_accumulating(coulomb_plus):
    v = dg.detect_accumulation(coulomb_plus, "lower", [1e2, 1e3, 1e4])
    assert v.endpoint == "lower"
    assert v.verdict != "accumulating"
    assert not v.monotonicity_ok


def test_accumulation_rejects_unknown_endpoint(coulomb_plus):
    with pytest.raises(ValueError):
        dg.detect_accumulation(coulomb_plus, "sideways")


@pytest.mark.parametrize("endpoint", ["upper", "lower"])
def test_accumulation_needs_two_decades_above_x_zero(coulomb_plus, endpoint,
                                                     monkeypatch):
    # the settling test reads the two decades below the last schedule point;
    # a shorter schedule is a crossing, refused before any integration
    monkeypatch.setattr(spectrum, "integrate_prufer", None)
    with pytest.raises(dg.CrossedCutoffError, match="within two decades of"):
        dg.detect_accumulation(coulomb_plus, endpoint, [0.005, 0.01])
    with pytest.raises(dg.CrossedCutoffError, match="within two decades of"):
        dg.detect_accumulation(coulomb_plus, endpoint, [1.0], x_zero=0.011)


# -- eigenfunction reconstruction ------------------------------------------------

@pytest.fixture(scope="module")
def ground_eigenfunction(coulomb_plus, zero_plus, ground_fast):
    return dg.eigenfunction(coulomb_plus, ground_fast, 400, zero=zero_plus)


def test_eigenfunction_normalized(ground_eigenfunction):
    assert abs(ground_eigenfunction.norm_check - 1.0) < 1e-6


def test_eigenfunction_samples_continuous(ground_eigenfunction):
    ef = ground_eigenfunction
    r = np.hypot(ef.u, ef.v)
    assert np.all(np.isfinite(r))
    # no sign glitch at the splice: neighbouring samples stay close
    jumps = np.hypot(np.diff(ef.u), np.diff(ef.v))
    assert np.max(jumps) < 0.2 * np.max(r)


def test_eigenfunction_decay_exponents(ground_eigenfunction):
    d = ground_eigenfunction.decay
    # moderate window: the Coulomb tail correction to the slope is ~2 percent
    assert abs(d.exponent_inf - (-0.5)) / 0.5 < 0.03
    assert abs(d.exponent_zero - math.sqrt(0.75)) / math.sqrt(0.75) < 0.03


def test_eigenfunction_quadrature_mass_inside_window(ground_eigenfunction):
    assert 0.999 < ground_eigenfunction.norm_window <= 1.0 + 1e-9


def _sign_changes(w):
    s = np.sign(w[w != 0.0])        # the far samples underflow to 0
    return int(np.count_nonzero(s[1:] != s[:-1]))


def test_nodal_index_counts_the_eigenfunction_zeros(readme_levels,
                                                    coulomb_plus, zero_plus,
                                                    fast_window):
    # the index from the floor rule is the number of sign changes of v over
    # the eigenfunction's samples; u has as many for a second-quadrant origin
    # angle (k > 0 at mu_a = 0) and one more under the first-quadrant
    # convention (k < 0 at mu_a = 0, and the degenerate angle at mu_a > 0,
    # where beta = 2, runs change chart at x = 1 and _l2_mass takes the head
    # by Gauss-Laguerre)
    _, samples, records = readme_levels
    cases = [(coulomb_plus, zero_plus, rec, samples) for rec in records]
    assert len(cases) == 5
    counts = []
    for mu_a, gamma in ((0.0, -0.5), (0.2, -0.5), (0.2, -0.3), (0.3, -0.5),
                        (0.3, -0.3)):
        for k in (1, -1, 2, -2):
            fam = dg.build_dirac_family(dg.DiracRadialParams(
                k=k, mu_a=mu_a, potential=dg.coulomb_potential(gamma)))
            zd = dg.zero_data(fam)
            scan = dg.scan_spectrum(fam, np.linspace(0.5, 0.99, 12),
                                    fast_window, zd)
            counts.append(len(scan.brackets))
            cases += [(fam, zd, dg.find_eigenvalue(fam, br.k, br,
                                                   window=fast_window,
                                                   zero=zd), None)
                      for br in scan.brackets]
    # at gamma = -0.3, k = -2 no level lies in [0.5, 0.99]
    assert counts == [3, 2, 2, 1] * 2 + [2, 1, 1, 0] + [3, 2, 2, 1, 2, 1, 1, 0]
    assert sum(fam.beta > 1.0 for fam, *_ in cases) == 24
    for fam, zd, rec, samples in cases:
        ef = dg.eigenfunction(fam, rec, 1024, zero=zd, samples=samples)
        assert _sign_changes(ef.v) == rec.nodal_index
        assert _sign_changes(ef.u) == (rec.nodal_index
                                       + (zd.quadrant != "second"))
        assert abs(ef.norm_check - 1.0) < 1e-6


def test_eigenfunction_matches_a_full_window_reference(readme_levels,
                                                       coulomb_plus,
                                                       zero_plus):
    # the README levels, and level 1 of the README config at mu_a = 0.3
    # (the x^(1-beta) chart below 1), against Cartesian halves from both
    # ends at rtol 1e-13, normalized by the same quadrature: the Magnus
    # halves, the backward one from the contraction start with the WKB tail
    # beyond it, read within 1e-8.  On DOP853 halves and their interpolant
    # the mu_a = 0.3 level read 1.35e-8 off
    window, samples, records = readme_levels
    cases = [(coulomb_plus, zero_plus, samples, rec) for rec in records]
    fam = dg.build_dirac_family(dg.DiracRadialParams(
        k=1, mu_a=0.3, potential=dg.coulomb_potential(-0.5)))
    zd = dg.zero_data(fam)
    win = dg.select_truncation(fam, (0.5, 0.995), zero=zd)
    table = dg.WindowSamples(fam, win)
    scan = dg.scan_spectrum(fam, np.linspace(0.5, 0.995, 12), win, zd,
                            samples=table)
    level_1 = next(br for br in scan.brackets if br.k == 1)
    cases.append((fam, zd, table, dg.find_eigenvalue(
        fam, 1, level_1, 1e-9, window=win, zero=zd, samples=table)))
    for fam, zd, table, rec in cases:
        ef = dg.eigenfunction(fam, rec, zero=zd, samples=table)
        ref = cartesian_matched(fam, rec.lam, rec.window, zd, rec.x_match)
        log_norm, _ = spectrum._l2_mass(fam, zd, rec.window, ref)
        _, u, v = ref.sample(rec.window, 512, -log_norm)
        assert np.max(np.abs(ef.u - u)) < 1e-8
        assert np.max(np.abs(ef.v - v)) < 1e-8


def test_eigenfunction_rejects_non_eigenvalue(coulomb_plus, zero_plus,
                                              ground_fast):
    bogus = replace(ground_fast, lam=ground_fast.lam + 1e-4)
    with pytest.raises(dg.AngleMismatchError):
        dg.eigenfunction(coulomb_plus, bogus, 64, zero=zero_plus)


def test_anomalous_moment_family_has_gap_eigenvalue():
    # the regularized strong-coupling family is fully solvable end to end
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=1.0, potential=dg.coulomb_potential(-2.0)))
    zd = dg.zero_data(fam)
    win = dg.TruncationWindow(x_zero=2e-3, x_inf=300.0, delta=2e-4, eps=1e-3)
    out = dg.scan_spectrum(fam, np.linspace(-0.9, 0.9, 25), win, zd)
    assert out.brackets, "expected at least one gap level"
    br = out.brackets[0]
    rec = dg.find_eigenvalue(fam, br.k, (br.lam_lo, br.lam_hi), 1e-9,
                             window=win, zero=zd)
    assert rec.residual < 1e-9
    assert "degenerate-origin-angle" in rec.flags
