"""Nonlinear gap solutions by two-sided shooting and amplitude continuation.

The nonlinear system J z' + P(x) z = lam z + S(x, z) z is solved as a singular
two-point boundary value problem on the truncation window: shoot forward from
x_zero along the origin boundary direction with amplitude a, backward from
x_inf along the decaying direction with amplitude b, and drive the midpoint
mismatch to zero with a damped Newton corrector in (lam, b) at fixed a.
Since S vanishes with z and solutions decay at both ends, the linear boundary
directions remain the right asymptotic data; the truncation window controls
the approximation.

Branches are continued in the left amplitude a (near bifurcation from a simple
eigenvalue the branch is a graph over the amplitude), with a secant predictor
for lam and log(|b|/a) and step halving on corrector failure.  The backward
amplitude is carried in one form, log |b| with the branch's sign: the sign is
fixed by the linear eigenfunction and never predicted, so no extrapolation
can flip it.  Every accepted point carries the rotation number j of the
solution's own angle sweep, the integer index i obtained from j by the
quadrant floor rule, and the solver audits that i stays equal to the seed
eigenvalue's index along the branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .asymptotics import TruncationWindow, ZeroData, infinity_data, zero_data
from .model import CoefficientFamily, NonlinearCoupling
from .prufer import (DEFAULT_ATOL, DEFAULT_RTOL, IntegrationError, Trajectory,
                     integrate_cartesian)
# unused here, kept because perfbench/tracing.py traces this module attribute
from .prufer import integrate_prufer  # noqa: F401
from .spectrum import EigenvalueRecord, _l2_mass, _matched, _nodal_index


class CorrectorError(RuntimeError):
    """Newton corrector failed to converge or met a singular Jacobian."""


def linear_amplitude_ratio(family: CoefficientFamily, lam: float,
                           window: TruncationWindow, *,
                           zero: Optional[ZeroData] = None,
                           rtol: float = DEFAULT_RTOL,
                           atol: float = DEFAULT_ATOL) -> tuple:
    """(log ratio, sign) of backward to forward shooting amplitude for the
    linear flow at lam: matching midpoint magnitudes requires
    b = sign * exp(log_ratio) * a, with sign -1 when the matched angles differ
    by an odd multiple of pi.  On a wide window the ratio itself lies below
    the float range (e^-788 on [1e-3, 1600]).
    """
    zero = zero or zero_data(family)
    info = _matched(family, lam, window, zero, rtol, atol)
    return info.offset, -1.0 if info.turns % 2 else 1.0


@dataclass
class ShootResult:
    """Midpoint values of one forward/backward nonlinear shot.

    z_fwd and z_bwd are the two sides' values at x_mid in true amplitude,
    mismatch is z_fwd - z_bwd, and log_b is log |b|.  rotation is the angle
    sweep of the composite solution across the window divided by pi (None
    when a side is identically zero).  fwd and bwd are the two halves'
    Trajectory runs, None for a zero side; a dense shot's state(x) there is
    (u, v, mu, theta), the true value being e^mu (u, v).  A lane shot holds
    one row per lane in lam, log_b, z_fwd, z_bwd and rotation.
    """

    lam: object
    a: float
    b: float
    log_b: object
    x_mid: float
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
                    log_b=None,
                    zero: Optional[ZeroData] = None,
                    rtol: float = DEFAULT_RTOL,
                    atol: float = DEFAULT_ATOL) -> ShootResult:
    """Integrate the full nonlinear system from both ends to the midpoint.

    a and b are the signed shooting amplitudes; log_b, if given, is log |b|,
    which stays exact where b underflows (wide windows).  The true amplitude
    is meaningful here; if it overflows the representable range the run
    aborts with OverflowAbort naming the last x reached.  a = b = 0 returns
    the exact zero mismatch of the trivial solution.

    lam and log_b may be arrays, one entry per lane, that share a and the
    sign of b: each half is then one endpoint-only lane run of
    integrate_cartesian, and the forward half integrates each distinct lam
    once, since its start does not depend on b.  A scalar lam is one dense
    lane, whose trajectories answer anywhere in their half.
    """
    zero = zero or zero_data(family)
    x_mid = window.x_mid
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    theta_inf = np.array([infinity_data(family.mu_minus, family.mu_plus,
                                        lane).theta_inf
                          for lane in lams.tolist()])
    lam_fwd, fwd_lane = np.unique(lams, return_inverse=True)

    def side(side_lams, amp, log_amp, thetas, direction):
        # (trajectory, log |amp|, value at x_mid, angle at x_mid), one row of
        # the last two per lane; zero amp is the zero side
        if amp == 0.0 and log_amp is None:
            return None, -math.inf, np.zeros((side_lams.size, 2)), None
        sgn = math.copysign(1.0, amp)
        log_amp = math.log(abs(amp)) if log_amp is None else log_amp
        traj = integrate_cartesian(
            family, side_lams if np.ndim(lam) else float(side_lams[0]), window,
            [(sgn * math.cos(t), sgn * math.sin(t)) for t in thetas],
            direction, coupling=coupling, rtol=rtol, atol=atol, x_stop=x_mid,
            log_scale_init=log_amp)
        u, v, ls, angle = traj.end.T
        return traj, log_amp, np.stack((u, v), axis=1) * np.exp(ls)[:, None], \
            angle

    fwd, _, zf, th_f = side(lam_fwd, a, None, [zero.theta_zero], "forward")
    bwd, log_b, zb, th_b = side(lams, b, log_b, theta_inf.tolist(), "backward")
    zf = zf[fwd_lane]
    rotation = None
    if fwd is not None and bwd is not None:
        # forward piece plus the backward piece's increment from the
        # midpoint out to x_inf; a half with a negative amplitude starts at
        # the angle of -(cos t, sin t), t - pi for its boundary angle t
        start_b = theta_inf - math.pi * (math.copysign(1.0, b) < 0)
        start_f = zero.theta_zero - math.pi * (math.copysign(1.0, a) < 0)
        rotation = (start_b - start_f + th_f[fwd_lane] - th_b) / math.pi
    if np.ndim(lam) == 0:
        zf, zb = zf[0], zb[0]
        rotation = None if rotation is None else float(rotation[0])
    return ShootResult(lam=lam, a=a, b=b, log_b=log_b, x_mid=x_mid,
                       z_fwd=zf, z_bwd=zb, rotation=rotation, fwd=fwd,
                       bwd=bwd)


# ---------------------------------------------------------------------------
# Branch points and the Newton corrector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchPoint:
    lam: float
    a: float                    # left shooting amplitude
    b: float                    # right shooting amplitude (signed)
    log_b: float                # log |b|, kept where b underflows
    x: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    l2_norm: float
    rotation: float             # j, the solution's own rotation number
    index: int                  # i, conserved along the branch
    residual: float


def _point_from_shot(family, zero, window, shot: ShootResult) -> BranchPoint:
    xs = np.geomspace(window.x_zero, window.x_inf, 257)
    us = np.empty(xs.size)
    vs = np.empty(xs.size)
    for i, x in enumerate(xs):
        u, v, ls, _ = (shot.fwd if x <= shot.x_mid else shot.bwd).state(x)
        s = math.exp(ls)
        us[i], vs[i] = s * u, s * v

    def log_norm(x):
        u, v, ls, _ = (shot.fwd if x <= shot.x_mid else shot.bwd).state(x)
        return ls + 0.5 * math.log(u * u + v * v)

    lmax, mass, tail, head = _l2_mass(family, zero, window, shot.lam, log_norm)
    l2 = math.exp(lmax) * math.sqrt(mass + tail + head)

    rot = shot.rotation
    idx = _nodal_index(rot, zero.quadrant)[0]
    return BranchPoint(lam=shot.lam, a=shot.a, b=shot.b, log_b=shot.log_b,
                       x=xs, u=us, v=vs,
                       l2_norm=l2, rotation=rot, index=idx,
                       residual=float(np.linalg.norm(shot.mismatch)))


def _corrector_lanes(p: np.ndarray) -> tuple:
    """Rows (lam, log |b|) of the corrector's lane shot at p, and the steps:
    p, p + dlam e_1 and p + dlog|b| e_2 give the mismatch and its two
    forward-difference columns.  The steps are sqrt(machine epsilon) in
    size, the usual choice where noise is roundoff alone: the lanes share
    their integrator steps, so the truncation noise is common to them."""
    steps = 1e-8 * np.array([max(1.0, abs(p[0])), 1.0])
    return p + np.vstack((np.zeros(2), np.diag(steps))), steps


def solve_point(family: CoefficientFamily, coupling: NonlinearCoupling,
                lam_guess: float, a_target: float,
                b_guess: Optional[float] = None, *,
                log_b: Optional[float] = None,
                window: TruncationWindow,
                zero: Optional[ZeroData] = None,
                rtol: float = DEFAULT_RTOL,
                atol: float = DEFAULT_ATOL) -> BranchPoint:
    """Newton-correct one nonlinear solution near the supplied guess.

    The unknowns are p = (lam, log |b|) at fixed left amplitude a_target.
    log_b is the start for log |b|, and b_guess gives the sign of b, which is
    frozen (the backward direction flips sign for odd rotation offsets);
    without log_b, the linear amplitude ratio at lam_guess supplies both.
    The mismatch is driven below 1e-9 * max(1, a) in at most 25 steps.

    Each evaluation at p is one lane shot (shoot_nonlinear) of p, p + dlam
    and p + dlog|b|, with dlam = 1e-8 * max(1, |lam|) and dlog|b| = 1e-8:
    the forward half runs two lanes on one step sequence, the backward half
    three, and the lanes' differences are the Jacobian's forward-difference
    columns.  The lanes share their steps, so the integrator's truncation
    noise is common to them and drops out of the differences; their
    tolerances are scaled so that no lane gets a looser bound than a
    one-lane shot.  A damped step is halved until it lowers max |mismatch|,
    at most four times, and an accepted trial brings its own Jacobian.  The
    converged p is shot once more as one dense lane, which gives the
    point's samples, norm, rotation and residual.  A failed shot, a step out
    of the gap or the amplitude range, a singular Jacobian or a step that
    cannot be damped raises CorrectorError.
    """
    zero = zero or zero_data(family)
    if a_target <= 0.0:
        raise ValueError("amplitude target must be positive")
    if log_b is None:
        # the linear eigenfunction fixes both the scale and the sign of the
        # backward amplitude; anything else is hopeless as a Newton start
        log_ratio, b_sign = linear_amplitude_ratio(
            family, lam_guess, window, zero=zero, rtol=rtol, atol=atol)
        log_b = log_ratio + math.log(a_target)
    else:
        b_sign = math.copysign(1.0, b_guess)
    tol = 1e-9 * max(1.0, a_target)
    gap_margin = 1e-9 * (family.mu_plus - family.mu_minus)

    def shoot(lam, log_abs_b):
        # scalars shoot one dense lane, arrays shoot lanes; b is lane 0's
        try:
            return shoot_nonlinear(
                family, coupling, lam, a_target,
                b_sign * math.exp(np.ravel(log_abs_b)[0]), window,
                log_b=log_abs_b, zero=zero, rtol=rtol, atol=atol)
        except IntegrationError as exc:      # OverflowAbort included
            raise CorrectorError(f"shot failed: {exc}") from exc

    def evaluate(p):
        # the mismatch at p and its Jacobian, from one lane shot
        lanes, steps = _corrector_lanes(p)
        # b may underflow, but not exceed e^700 or move that far from its guess
        if lanes[:, 1].max() > 700.0 or abs(p[1] - log_b) > 700.0:
            raise CorrectorError("corrector step left the representable "
                                 "amplitude range")
        for lam in lanes[:, 0].tolist():
            if not (family.mu_minus + gap_margin < lam
                    < family.mu_plus - gap_margin):
                raise CorrectorError(f"lam = {lam:.6g} left the spectral gap")
        m = shoot(lanes[:, 0], lanes[:, 1]).mismatch
        return m[0], (m[1:] - m[0]).T / steps

    p = np.array([lam_guess, log_b])
    r, jac = evaluate(p)
    for _ in range(25):
        base = float(np.max(np.abs(r)))
        if base < tol:
            break
        try:
            dp = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise CorrectorError(
                f"singular corrector Jacobian (cond ~ {np.linalg.cond(jac):.3g})"
            ) from exc
        # damped update: accepted only where it lowers the mismatch
        scale = 1.0
        for _ in range(5):
            try:
                r_new, jac_new = evaluate(p + scale * dp)
                if float(np.max(np.abs(r_new))) < base:
                    break
            except CorrectorError:
                pass
            scale *= 0.5
        else:
            raise CorrectorError("corrector step could not reduce the mismatch")
        p = p + scale * dp
        r, jac = r_new, jac_new
    if float(np.max(np.abs(r))) >= tol:
        raise CorrectorError(
            "no convergence in 25 iterations "
            f"(final mismatch {float(np.max(np.abs(r))):.3g}, tolerance {tol:.3g})")
    return _point_from_shot(family, zero, window, shoot(p[0], p[1]))


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


def continue_branch(family: CoefficientFamily, coupling: NonlinearCoupling,
                    seed: EigenvalueRecord, ds: float, max_steps: int, *,
                    a_max: float = 10.0,
                    window: Optional[TruncationWindow] = None,
                    zero: Optional[ZeroData] = None,
                    rtol: float = DEFAULT_RTOL,
                    atol: float = DEFAULT_ATOL) -> Branch:
    """March a solution branch away from a linear eigenvalue in amplitude.

    Starts at left amplitude ds and grows it by ds per accepted step, with a
    secant predictor for (lam, log(b/a)) and up to four step halvings on
    corrector failure.  The first step starts from the linear amplitude
    ratio (solve_point), one accepted point holds lam and log(b/a), and two
    extrapolate both along the secant through the last two points; b keeps
    the seed's sign.  Terminates when lam comes within 1e-6 of a gap edge
    ("gap-edge-reached"), when a reaches a_max ("amplitude-budget"), after
    max_steps points ("max-steps"), or on persistent corrector failure
    ("step-failure").  Branch.index_audit_ok audits each point's index i
    against the seed's nodal index.
    """
    if ds <= 0.0:
        raise ValueError("continuation step ds must be positive")
    if seed.residual > 1e-6:
        raise ValueError("seed eigenvalue residual too large for continuation")
    window = window or seed.window
    zero = zero or zero_data(family)

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
                # r = log(|b|/a) is smooth in a where b itself falls fast
                p2 = points[-1]
                r2 = p2.log_b - math.log(p2.a)
                lam_pred, b_guess, r_pred = p2.lam, p2.b, r2
                if len(points) >= 2:
                    p1 = points[-2]
                    w = (a_try - p2.a) / (p2.a - p1.a)
                    lam_pred += w * (p2.lam - p1.lam)
                    r_pred += w * (r2 - (p1.log_b - math.log(p1.a)))
                log_b = math.log(a_try) + r_pred
            try:
                accepted = solve_point(family, coupling, lam_pred, a_try,
                                       b_guess, log_b=log_b, window=window,
                                       zero=zero, rtol=rtol, atol=atol)
                break
            except CorrectorError:
                ds_local *= 0.5
        if accepted is None:
            termination = "step-failure"
            break
        points.append(accepted)
        a = accepted.a
        if accepted.lam >= family.mu_plus - edge_tol \
                or accepted.lam <= family.mu_minus + edge_tol:
            termination = "gap-edge-reached"
            break
        if a >= a_max:
            termination = "amplitude-budget"
            break

    return Branch(seed=seed, points=tuple(points), termination=termination)
