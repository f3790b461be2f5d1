"""Nonlinear gap solutions by two-sided shooting and amplitude continuation.

The nonlinear system J z' + P(x) z = lam z + S(x, z) z is solved as a singular
two-point boundary value problem on the truncation window: shoot forward from
x_zero along the origin boundary direction with amplitude a, backward from
x_s along the decaying direction with amplitude b, and drive the midpoint
mismatch to zero with a damped Newton corrector in (lam, log |b|) at fixed a.
Since S vanishes with z and solutions decay at both ends, the linear boundary
directions remain the right asymptotic data; the truncation window controls
the approximation.  x_s is the branch's contraction start: S is negligible
in the tail, so a start error there is damped by e^-36 on the way in, as
for the linear angle (asymptotics.contraction_start); b is taken at x_s.

Branches are continued in the left amplitude a (near bifurcation from a simple
eigenvalue the branch is a graph over the amplitude), with a tangent
predictor for lam and log(|b|/a) and step halving on corrector failure.  The
backward amplitude is carried in one form, log |b| with the branch's sign:
the sign is fixed by the linear eigenfunction and never predicted, so no
extrapolation can flip it.  Every accepted point carries the rotation number
j of the solution's own angle sweep, the integer index i obtained from j by
the quadrant floor rule, and the solver audits that i stays equal to the seed
eigenvalue's index along the branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .asymptotics import (TruncationWindow, ZeroData, contraction_start,
                          infinity_data, wkb_decay, zero_data)
from .model import CoefficientFamily, NonlinearCoupling
from .prufer import (DEFAULT_RTOL, IntegrationError, Trajectory, WindowSamples,
                     integrate_cartesian)
# unused here, kept because perfbench/tracing.py traces this module attribute
from .prufer import integrate_prufer  # noqa: F401
from .spectrum import (EigenvalueRecord, _l2_mass, _matched, _nodal_index,
                       _Splice)


class CorrectorError(RuntimeError):
    """Newton corrector failed to converge or met a singular Jacobian."""


def linear_amplitude_ratio(family: CoefficientFamily, lam: float,
                           window: TruncationWindow, *,
                           zero: Optional[ZeroData] = None,
                           x_start: Optional[float] = None,
                           rtol: float = DEFAULT_RTOL) -> tuple:
    """(log ratio, sign) of backward to forward shooting amplitude for the
    linear flow at lam: matching midpoint magnitudes requires
    b = sign * exp(log_ratio) * a, with sign -1 when the matched angles differ
    by an odd multiple of pi, b taken at x_start (x_inf when None), where
    the backward half starts.  On a wide window the ratio at x_inf lies
    below the float range (e^-788 on [1e-3, 1600]).
    """
    zero = zero or zero_data(family)
    splice = _matched(family, lam, window, zero, rtol, window.x_mid,
                      x_start=window.x_inf if x_start is None else x_start)
    return splice.offset, -1.0 if splice.turns % 2 else 1.0


@dataclass
class ShootResult:
    """Midpoint values of one forward/backward nonlinear shot.

    z_fwd and z_bwd are the two sides' values at x_mid in true amplitude,
    mismatch is z_fwd - z_bwd, and log_b is log |b|, b being the amplitude
    at x_start, where the backward half starts.  rotation is the angle sweep
    of the solution on [x_zero, x_start] divided by pi (None when a side is
    identically zero).  fwd and bwd are the two halves' Trajectory runs,
    None for a zero side; a dense shot's state(x) there is (u, v, mu,
    theta), the true value being e^mu (u, v).  A lane shot holds one row per
    lane in lam, log_b, z_fwd, z_bwd and rotation.
    """

    lam: object
    a: float
    b: float
    log_b: object
    x_start: float
    z_fwd: np.ndarray
    z_bwd: np.ndarray
    rotation: object
    fwd: Optional[Trajectory] = field(repr=False, default=None)
    bwd: Optional[Trajectory] = field(repr=False, default=None)

    @property
    def mismatch(self) -> np.ndarray:
        return self.z_fwd - self.z_bwd


def shoot_nonlinear(family: CoefficientFamily, coupling: NonlinearCoupling,
                    lam, a: float, b: float,
                    window: TruncationWindow, *,
                    log_b=None, log_a=None,
                    x_start: Optional[float] = None,
                    zero: Optional[ZeroData] = None,
                    rtol: float = DEFAULT_RTOL) -> ShootResult:
    """Integrate the full nonlinear system from both ends to the midpoint.

    a and b are the signed shooting amplitudes, b at x_start (x_inf when
    None), where the backward half starts; log_a and log_b, if given, are
    log |a| and log |b|, exact where b underflows.  The true amplitude is
    meaningful here; if it overflows the representable range the run aborts
    with OverflowAbort naming the last x reached.  a = b = 0 returns the
    exact zero mismatch of the trivial solution.

    lam, log_a and log_b may be arrays, one entry per lane, that share the
    signs of a and b: each half is then one endpoint-only lane run of
    integrate_cartesian over the distinct (lam, log amplitude) pairs of its
    side.  A scalar lam is one dense lane, whose trajectories answer
    anywhere in their half.
    """
    zero = zero or zero_data(family)
    x_start = window.x_inf if x_start is None else x_start
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    theta_inf = np.array([infinity_data(family.mu_minus, family.mu_plus,
                                        lane).theta_inf for lane in lams.tolist()])

    def side(amp, log_amp, thetas, win, direction):
        # (trajectory, log |amp|, value at x_mid, angle at x_mid), one row of
        # the last two per lane; zero amp is the zero side
        if amp == 0.0 and log_amp is None:
            return None, -math.inf, np.zeros((lams.size, 2)), None
        sgn = math.copysign(1.0, amp)
        log_amp = math.log(abs(amp)) if log_amp is None else log_amp
        pairs, first, lane = np.unique(
            np.column_stack((lams, np.broadcast_to(log_amp, lams.shape))),
            axis=0, return_index=True, return_inverse=True)
        traj = integrate_cartesian(
            family, pairs[:, 0] if np.ndim(lam) else float(lams[0]), win,
            [(sgn * math.cos(t), sgn * math.sin(t)) for t in thetas[first]],
            direction, coupling=coupling, rtol=rtol, x_stop=window.x_mid,
            log_scale_init=pairs[:, 1])
        u, v, ls, angle = traj.end[lane.reshape(-1)].T
        return traj, log_amp, np.stack((u, v), axis=1) * np.exp(ls)[:, None], \
            angle

    fwd, _, zf, th_f = side(a, log_a, np.full(lams.size, zero.theta_zero),
                            window, "forward")
    bwd, log_b, zb, th_b = side(b, log_b, theta_inf,
                                replace(window, x_inf=x_start), "backward")
    rotation = None
    if fwd is not None and bwd is not None:
        # forward piece plus the backward piece's increment from the
        # midpoint out to x_start; a half with a negative amplitude starts
        # at the angle of -(cos t, sin t), t - pi for its boundary angle t
        start_b = theta_inf - math.pi * (math.copysign(1.0, b) < 0)
        start_f = zero.theta_zero - math.pi * (math.copysign(1.0, a) < 0)
        rotation = (start_b - start_f + th_f - th_b) / math.pi
    if np.ndim(lam) == 0:
        zf, zb = zf[0], zb[0]
        rotation = None if rotation is None else float(rotation[0])
    return ShootResult(lam=lam, a=a, b=b, log_b=log_b, x_start=x_start,
                       z_fwd=zf, z_bwd=zb, rotation=rotation, fwd=fwd, bwd=bwd)


# ---------------------------------------------------------------------------
# Branch points and the Newton corrector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchPoint:
    lam: float
    a: float                    # left shooting amplitude
    b: float                    # right shooting amplitude (signed) at x_start
    log_b: float                # log |b|, kept where b underflows
    x_start: float              # where the backward half starts
    tangent: np.ndarray = field(repr=False)     # d(lam, log |b|)/da
    x: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    l2_norm: float
    rotation: float             # j, the solution's own rotation number
    index: int                  # i, conserved along the branch
    residual: float


def _point_from_shot(family, zero, window, shot: ShootResult, tangent,
                     samples: WindowSamples) -> BranchPoint:
    splice = _Splice(shot.lam, shot.fwd, shot.bwd, window.x_mid,
                     shot.x_start, samples)
    xs, us, vs = splice.sample(window, 257)
    rot = shot.rotation
    return BranchPoint(lam=shot.lam, a=shot.a, b=shot.b, log_b=shot.log_b,
                       x_start=shot.x_start, tangent=tangent, x=xs, u=us, v=vs,
                       l2_norm=math.exp(_l2_mass(family, zero, window,
                                                 splice)[0]),
                       rotation=rot, index=_nodal_index(rot, zero.quadrant)[0],
                       residual=float(np.linalg.norm(shot.mismatch)))


def _corrector_lanes(p: np.ndarray, log_a: float) -> tuple:
    """Rows (lam, log |b|, log a) of the corrector's lane shot at p, each
    after the first moved by its step in one column, and the steps, of
    sqrt(machine epsilon) size: the lanes share their integrator steps, so
    the noise in their differences is roundoff alone."""
    steps = 1e-8 * np.array([max(1.0, abs(p[0])), 1.0, 1.0])
    return np.append(p, log_a) + np.eye(4, 3, -1) * steps, steps


def _differences(shot: ShootResult, steps: np.ndarray) -> tuple:
    """Lane 0's mismatch and the lanes' forward-difference columns, each side
    differenced on its own: a mismatch difference loses |z_bwd| << |z_fwd|."""
    dz_fwd = shot.z_fwd[1:] - shot.z_fwd[0]
    dz_bwd = shot.z_bwd[1:] - shot.z_bwd[0]
    return shot.mismatch[0], (dz_fwd - dz_bwd).T / steps


def solve_point(family: CoefficientFamily, coupling: NonlinearCoupling,
                lam_guess: float, a_target: float,
                b_guess: Optional[float] = None, *,
                log_b: Optional[float] = None,
                window: TruncationWindow,
                zero: Optional[ZeroData] = None,
                x_start: Optional[float] = None,
                samples: Optional[WindowSamples] = None,
                rtol: float = DEFAULT_RTOL) -> BranchPoint:
    """Newton-correct one nonlinear solution near the supplied guess.

    The unknowns are p = (lam, log |b|) at fixed left amplitude a_target, b
    being the amplitude at x_start, where the backward half starts (if None,
    the contraction start at lam_guess on ``samples``, the window's
    WindowSamples, a new one if None), moved out to an accepted iterate's
    own (log |b| carried by the WKB tail, asymptotics.wkb_decay).  log_b
    is the start for log |b|, and b_guess gives the sign of b, which is
    frozen (the backward direction flips sign for odd rotation offsets);
    without log_b, the linear amplitude ratio at lam_guess supplies both.

    Each evaluation at p is one lane shot (shoot_nonlinear) of p and of p
    or log a moved by 1e-8 (lam by 1e-8 * max(1, |lam|)): each half runs
    three lanes on one step sequence, so the truncation noise is common to
    them, and each half's lane differences give the Jacobian J and the
    log a column.  A damped step is halved until it lowers max |mismatch|,
    at most four times.  Once the lane mismatch is below tol =
    1e-9 * max(1, a), or Newton's rate r_k^3 / r_(k-1)^2 predicts it below
    tol / 10, p + dp is shot as one dense lane, which closes the solve if
    its own |mismatch|, the point's residual, is below tol (after lanes
    below tol, the next step is a chord step on it), and gives the point's
    samples, norm and rotation; the last J gives its tangent
    d(lam, log |b|)/da = -J^-1 dm/da.  A failed shot, a step out of the gap
    or the amplitude range, a singular Jacobian, a step that cannot be
    damped or 25 steps without a close raise CorrectorError.
    """
    zero = zero or zero_data(family)
    if a_target <= 0.0:
        raise ValueError("amplitude target must be positive")
    samples = samples or WindowSamples(family, window)
    contraction = samples.contraction
    x_start = x_start or contraction_start(contraction, lam_guess)
    if log_b is None:
        # the linear eigenfunction fixes both the scale and the sign of the
        # backward amplitude; anything else is hopeless as a Newton start
        log_ratio, b_sign = linear_amplitude_ratio(
            family, lam_guess, window, zero=zero, x_start=x_start, rtol=rtol)
        log_b = log_ratio + math.log(a_target)
    else:
        b_sign = math.copysign(1.0, b_guess)
    log_a = math.log(a_target)
    tol = 1e-9 * max(1.0, a_target)
    gap_margin = 1e-9 * (family.mu_plus - family.mu_minus)

    def shoot(lam, log_abs_b, log_abs_a=log_a):
        # scalars shoot one dense lane, arrays shoot lanes; b is lane 0's
        try:
            return shoot_nonlinear(
                family, coupling, lam, a_target,
                b_sign * math.exp(np.ravel(log_abs_b)[0]), window,
                log_b=log_abs_b, log_a=log_abs_a, x_start=x_start, zero=zero,
                rtol=rtol)
        except IntegrationError as exc:      # OverflowAbort included
            raise CorrectorError(f"shot failed: {exc}") from exc

    def evaluate(p):
        # the mismatch at p, its Jacobian and log a column, from one shot
        lanes, steps = _corrector_lanes(p, log_a)
        # b may underflow, but not exceed e^700 or move that far from its guess
        if lanes[:, 1].max() > 700.0 or abs(p[1] - log_b) > 700.0:
            raise CorrectorError("corrector step left the representable "
                                 "amplitude range")
        for lam in lanes[:, 0].tolist():
            if not (family.mu_minus + gap_margin < lam
                    < family.mu_plus - gap_margin):
                raise CorrectorError(f"lam = {lam:.6g} left the spectral gap")
        r, cols = _differences(shoot(*lanes.T), steps)
        return r, cols[:, :2], cols[:, 2]

    def moved_out(p):
        nonlocal x_start
        x_c = contraction_start(contraction, p[0])
        if x_c <= x_start:
            return False
        p[1] -= wkb_decay(contraction, p[0], x_start, x_c)
        x_start = x_c
        return True

    p = np.array([lam_guess, log_b])
    r, jac, m_log_a = evaluate(p)
    norms = [float(np.max(np.abs(r)))]
    for _ in range(25):
        try:
            dp = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise CorrectorError(
                f"singular corrector Jacobian (cond ~ {np.linalg.cond(jac):.3g})"
            ) from exc
        if norms[-1] < tol or (len(norms) > 1
                               and norms[-1] ** 3 < 0.1 * tol * norms[-2] ** 2):
            shot = shoot(*(p + dp))
            if float(np.linalg.norm(shot.mismatch)) < tol \
                    and contraction_start(contraction, shot.lam) <= x_start:
                tangent = -np.linalg.solve(jac, m_log_a) / a_target
                return _point_from_shot(family, zero, window, shot, tangent,
                                        samples)
            if norms[-1] < tol:
                # lanes within tol, the dense lane not (or below its start)
                p, r = p + dp, shot.mismatch
                if moved_out(p):
                    r, jac, m_log_a = evaluate(p)
                continue
        # damped update: accepted only where it lowers the mismatch
        scale = 1.0
        for _ in range(5):
            try:
                r_new, jac_new, m_new = evaluate(p + scale * dp)
                if float(np.max(np.abs(r_new))) < norms[-1]:
                    break
            except CorrectorError:
                pass
            scale *= 0.5
        else:
            raise CorrectorError("corrector step could not reduce the mismatch")
        p = p + scale * dp
        r, jac, m_log_a = (evaluate(p) if moved_out(p)
                           else (r_new, jac_new, m_new))
        norms.append(float(np.max(np.abs(r))))
    raise CorrectorError(
        f"no convergence in 25 iterations (final mismatch {norms[-1]:.3g}, "
        f"tolerance {tol:.3g})")


# ---------------------------------------------------------------------------
# Branch continuation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    seed: EigenvalueRecord
    points: tuple
    termination: str            # why continue_branch stopped (its docstring)

    @property
    def index_audit_ok(self) -> bool:
        """Every point's index i is the seed's nodal index."""
        return all(p.index == self.seed.nodal_index for p in self.points)


def _predict(contraction: np.ndarray, points: tuple, a: float,
             x_start: float) -> np.ndarray:
    """(lam, log(|b|/a)) at a, b measured at x_start: the cubic Hermite
    through the last two points and their tangents, or an Euler step from a
    single point.  Each point's log |b| and its slope are first carried from
    its own start out to x_start by the WKB decay of the linear tail
    (asymptotics.wkb_decay; its lam derivative by a central difference)."""
    nodes = []
    for pt in points:
        h = 1e-6 * max(1.0, abs(pt.lam))
        shift = wkb_decay(contraction, [pt.lam, pt.lam - h, pt.lam + h],
                          pt.x_start, x_start)
        dlam, dlog_b = pt.tangent
        nodes.append((pt.a, (pt.lam, pt.log_b - shift[0] - math.log(pt.a)),
                      (dlam, dlog_b - 1.0 / pt.a
                       - dlam * (shift[2] - shift[1]) / (2.0 * h))))
    a_n, y_n, t_n = map(np.array, zip(*nodes))
    s = a - a_n[0]
    if len(nodes) == 1:
        return y_n[0] + s * t_n[0]
    # CubicHermiteSpline's PPoly coefficients and summation order, to the bit
    da = a_n[1] - a_n[0]
    slope = (y_n[1] - y_n[0]) / da
    c = (t_n[0] + t_n[1] - 2 * slope) / da
    return (y_n[0] + t_n[0] * s + ((slope - t_n[0]) / da - c) * (s * s)
            + c / da * (s * s * s))


def continue_branch(family: CoefficientFamily, coupling: NonlinearCoupling,
                    seed: EigenvalueRecord, ds: float, max_steps: int, *,
                    a_max: float = 10.0,
                    window: Optional[TruncationWindow] = None,
                    zero: Optional[ZeroData] = None,
                    samples: Optional[WindowSamples] = None,
                    rtol: float = DEFAULT_RTOL) -> Branch:
    """March a solution branch away from a linear eigenvalue in amplitude.

    Starts at left amplitude ds and grows it by ds per accepted step, with up
    to four step halvings on corrector failure.  The first step starts from
    the linear amplitude ratio at the seed (solve_point), later ones from
    _predict's tangent predictor; b keeps the seed's sign.  The backward
    halves start at x_s, the contraction start at the seed lam on
    ``samples`` (as for solve_point), moved out to that of a point or of a
    predicted lam in the gap further out (defocusing branches heading for
    mu_+); a prediction outside the gap fails in solve_point, x_s unmoved.
    Terminates when lam comes within 1e-6 of a gap edge ("gap-edge-reached"),
    when a reaches a_max ("amplitude-budget"), after max_steps points
    ("max-steps"), or on persistent corrector failure ("step-failure").
    Branch.index_audit_ok audits each point's index i against the seed's
    nodal index.
    """
    if ds <= 0.0:
        raise ValueError("continuation step ds must be positive")
    if seed.residual > 1e-6:
        raise ValueError("seed eigenvalue residual too large for continuation")
    window = window or seed.window
    zero = zero or zero_data(family)
    samples = samples or WindowSamples(family, window)
    contraction = samples.contraction
    x_s = contraction_start(contraction, seed.lam)

    points = []
    termination = "max-steps"
    edge_tol = 1e-6
    a = 0.0
    while len(points) < max_steps:
        ds_local = ds
        accepted = None
        for _ in range(5):          # initial try plus four halvings
            a_try = a + ds_local
            lam_pred, b_guess, log_b = seed.lam, None, None
            if points:
                lam_pred = _predict(contraction, points[-2:], a_try, x_s)[0]
                if family.mu_minus < lam_pred < family.mu_plus:
                    x_s = max(x_s, contraction_start(contraction, lam_pred))
                lam_pred, r_pred = _predict(contraction, points[-2:], a_try,
                                            x_s)
                b_guess, log_b = points[-1].b, math.log(a_try) + r_pred
            try:
                accepted = solve_point(family, coupling, lam_pred, a_try,
                                       b_guess, log_b=log_b, window=window,
                                       zero=zero, x_start=x_s,
                                       samples=samples, rtol=rtol)
                break
            except CorrectorError:
                ds_local *= 0.5
        if accepted is None:
            termination = "step-failure"
            break
        points.append(accepted)
        x_s, a = accepted.x_start, accepted.a
        if accepted.lam >= family.mu_plus - edge_tol \
                or accepted.lam <= family.mu_minus + edge_tol:
            termination = "gap-edge-reached"
            break
        if a >= a_max:
            termination = "amplitude-budget"
            break

    return Branch(seed=seed, points=tuple(points), termination=termination)
