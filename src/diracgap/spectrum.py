"""Gap eigenvalues, rotation numbers and accumulation for the linear operator.

For lam inside the gap, let theta(x, lam) be the continuously unwrapped angle
of the solution that decays into the origin, started from the boundary angle
theta_zero.  Its limit at infinity, nu(lam), lands on the decaying-direction
branch exactly at eigenvalues.  The shifted functional

    nu_star(lam) = nu(lam) + arctan sqrt((lam - mu_minus)/(mu_plus - lam))

is continuous and strictly increasing on the gap, and lam_k is the eigenvalue
with nu_star(lam_k) = k*pi.  The rotation number of the eigenfunction is
(nu(lam_k) - theta_zero)/pi, and the nodal index follows from it by the
quadrant-dependent floor rule.

Numerically nu_star is evaluated in its matched form

    nu_star(lam) = pi + theta_fwd(x) - theta_bwd(x),

with the forward trajectory started at theta_zero on x_zero and the backward
one started on the decaying direction theta_inf (theta_inf plus the gap
angle is pi), spliced at x.  It has the roots and monotonicity of the limit
functional and stays well conditioned at a root, where shooting from one end
only would turn into a numerical staircase.  One routine (_halves)
integrates the two halves, on Magnus lanes of lam for nu_star and on a
float for the dense _matched behind the eigenfunction and the nonlinear
seed.  A lane's only tolerance is rtol, which sets its Magnus mesh, and its
value depends on its lam alone, not on the other lanes or on whether the
window's WindowSamples is handed in; the CLI hands one to the scan and to
every root solve.  A scan bracket carries its end values, for the root
solve's sign test and first step.

theta_fwd - theta_bwd meets a multiple of pi only at an eigenvalue, so
neither floor(nu_star/pi) off a level nor the root depends on x; the
conditioning does.  Where the eigenfunction is exponentially small (x_mid,
near the gap edge) nu_star is a step of height pi in lam and a root solve
bisects, so the scan splices at x_mid but the root solve, and then the
eigenfunction, at match_point, the bottom of the well (Pryce 1993).

The backward half need not start at x_inf: on the way in a start error
shrinks by e^(-2 int kappa dx), kappa the local decay rate, so _halves
starts it on theta_inf where that factor reaches e^-36 for its own lam
(asymptotics.contraction_start, on the window's contraction samples), and
beyond that start a dense solution is its WKB tail (_Splice).

find_eigenvalue runs nu_star on two lanes, lam and lam + delta with
delta = 1e-7 max(1, |lam|), on one mesh, and their forward difference is
the Newton slope.  At the default rtol a value can be off by more than
the residual tolerance (up to 2e-9), so a residual ends the solve only
when read at rtol tightened a hundredfold, on the denser mesh it maps to
(2e-11).  That read also gives the rotation number, as
nu = nu_star - pi + theta_inf, with no further run.
Its steps are taken in u = (lam - c)/kappa_inf(lam), c the gap centre: the
Coulomb ladder accumulating at mu_plus is evenly spaced in u, at
(n_r + s)/|gamma|, and nu_star there is close to linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .asymptotics import (CrossedCutoffError, TruncationWindow, ZeroData,
                          contraction_start, gap_coordinate, gap_point,
                          infinity_data, match_point, select_truncation,
                          wkb_decay, zero_data)
from .model import CoefficientFamily, mirror_family
from .prufer import DEFAULT_RTOL, Trajectory, WindowSamples, integrate_prufer


class BracketError(ValueError):
    """The supplied interval does not bracket the requested level crossing."""


class ConvergenceError(RuntimeError):
    """Root iteration exhausted without meeting the residual tolerance."""


class MonotonicityError(RuntimeError):
    """nu_star decreased beyond tolerance on a scan grid (window too small)."""


class AngleMismatchError(RuntimeError):
    """Forward and backward angles disagree at the matching point."""


# ---------------------------------------------------------------------------
# The angle functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Splice:
    """A solution that decays into both ends, read anywhere on the window.

    ``fwd`` runs from x_zero and ``bwd`` from x_start, both to x_match, as
    dense runs of either integrator.  at(x) is (angle, log amplitude): the
    forward half up to x_match, the backward half, moved by turns * pi and
    offset to meet the forward one, up to x_start, and beyond it the start
    state decayed by the WKB tail (asymptotics.wkb_decay).
    """

    lam: float
    fwd: Trajectory
    bwd: Trajectory
    x_match: float
    x_start: float
    samples: WindowSamples
    turns: int = 0              # round((theta_f - theta_b) / pi) at x_match
    offset: float = 0.0         # log rho_f - log rho_b at x_match
    nu_star_hat: float = math.nan   # pi + theta_f - theta_b there (angles)

    def at(self, x) -> tuple:
        """Floats for a float x, arrays of its shape for an array, each
        half (Trajectory.state) and the tail read once."""
        xs = np.asarray(x, dtype=float).reshape(-1)
        bwd, far = xs > self.x_match, xs > self.x_start
        out = np.empty((2, xs.size))
        for half, mine in ((self.fwd, ~bwd), (self.bwd, bwd)):
            row = half.state(np.minimum(xs[mine], self.x_start))
            if len(row) == 4:       # (u, v, mu, theta) of integrate_cartesian
                u, v, mu, _ = row
                row = np.arctan2(v, u), mu + 0.5 * np.log(u * u + v * v)
            out[:, mine] = row
        out[:, bwd] += [[self.turns * math.pi], [self.offset]]
        out[1, far] -= wkb_decay(self.samples.contraction, self.lam,
                                 self.x_start, xs[far])
        out = out.reshape((2,) + np.shape(x))
        return tuple(out.tolist() if np.ndim(x) == 0 else out)

    def sample(self, window, n: int, log_shift: float = 0.0) -> tuple:
        """(x, u, v) on n log-spaced points, amplitudes times e^log_shift."""
        xs = np.geomspace(window.x_zero, window.x_inf, n)
        angle, log_amp = self.at(xs)
        r = np.exp(log_amp + log_shift)
        return xs, r * np.cos(angle), r * np.sin(angle)


def _halves(family, lam, window, theta_zero, theta_inf, x_start, rtol,
            x_match=None, samples=None):
    """(fwd, bwd, x_start): theta_zero forward from x_zero and theta_inf
    backward from x_start, both to x_match (x_mid when None), dense for a
    float lam, lanes for an array.  A backward half starts, unless x_start
    names its start (shared, or one per lane), at its lam's contraction
    start above x_match on ``samples`` (a new WindowSamples if None)."""
    x_stop = window.x_mid if x_match is None else x_match
    samples = samples or WindowSamples(family, window)
    if x_start is None:
        x_start = contraction_start(samples.contraction, lam, x_stop)
    fwd = integrate_prufer(family, lam, window, theta_zero, "forward",
                           rtol=rtol, x_stop=x_stop, samples=samples)
    bwd = integrate_prufer(family, lam, window, theta_inf, "backward",
                           rtol=rtol, x_start=x_start, x_stop=x_stop,
                           samples=samples)
    return fwd, bwd, x_start


def _matched(family, lam, window, zero, rtol, x_match=None, *,
             x_start=None, samples=None) -> _Splice:
    """The dense halves at a float lam spliced at x_match (x_mid when None),
    the backward one from x_start (_halves' start rule when None)."""
    x_match = window.x_mid if x_match is None else x_match
    samples = samples or WindowSamples(family, window)
    theta_inf = infinity_data(family.mu_minus, family.mu_plus, lam).theta_inf
    fwd, bwd, x_start = _halves(family, lam, window, zero.theta_zero,
                                theta_inf, x_start, rtol, x_match, samples)
    (th_f, lr_f), (th_b, lr_b) = fwd.end[0].tolist(), bwd.end[0].tolist()
    # theta_inf plus the gap angle is pi, so the shifted functional simplifies
    return _Splice(lam=lam, fwd=fwd, bwd=bwd, x_match=x_match,
                   x_start=x_start, samples=samples,
                   turns=round((th_f - th_b) / math.pi), offset=lr_f - lr_b,
                   nu_star_hat=math.pi + th_f - th_b)


def nu_star(family: CoefficientFamily, lam, window: TruncationWindow,
            zero: Optional[ZeroData] = None, *, rtol: float = DEFAULT_RTOL,
            samples: Optional[WindowSamples] = None,
            x_match: Optional[float] = None):
    """Matched value of nu_star, strictly increasing across the gap.

    ``lam`` is a float or an array, integrated as one endpoint-only lane per
    value (a float too); the result has its shape.  The halves meet at
    ``x_match`` (x_mid when None), below each lane's backward start, its
    own contraction start, on rtol's Magnus mesh.  ``samples`` (the
    window's WindowSamples, a new one if None) does not change a value.
    """
    zero = zero or zero_data(family)
    lams = np.asarray(lam, dtype=float)
    theta_inf = [infinity_data(family.mu_minus, family.mu_plus, l).theta_inf
                 for l in lams.flat]
    fwd, bwd, _ = _halves(family, lams.reshape(-1), window, zero.theta_zero,
                          theta_inf, None, rtol, x_match, samples)
    # theta_inf plus the gap angle is pi, as in _matched
    values = (math.pi + fwd.end[:, 0] - bwd.end[:, 0]).reshape(lams.shape)
    return float(values) if values.ndim == 0 else values


# ---------------------------------------------------------------------------
# Spectrum scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bracket:
    k: int
    lam_lo: float
    lam_hi: float
    value_lo: float             # nu_star at the ends, as the scan read them
    value_hi: float


@dataclass(frozen=True)
class ScanResult:
    lambdas: np.ndarray
    values: np.ndarray
    brackets: tuple
    max_decrease: float          # largest observed monotonicity defect


def scan_spectrum(family: CoefficientFamily, lam_grid: Sequence[float],
                  window: TruncationWindow,
                  zero: Optional[ZeroData] = None, *,
                  rtol: float = DEFAULT_RTOL,
                  samples: Optional[WindowSamples] = None) -> ScanResult:
    """Evaluate nu_star on a grid and bracket every crossing of k*pi.

    The grid is one lane run on rtol's mesh.  nu_star is strictly
    increasing, so a cell (lam_i, lam_i+1) crosses each level k*pi at most
    once, and a cell that crosses several is the Bracket of each of them,
    with the end values read there; find_eigenvalue isolates the level.
    Brackets come out sorted by (lam_lo, k).  The values must be
    non-decreasing up to integration noise; a decrease beyond 1e-7 raises
    MonotonicityError (the window is too small for the lam range).  The
    grid is closed at both ends: a level whose value at a grid end is k*pi
    to within 1024 ulp is bracketed by the end cell, on whichever side
    rounding put it.
    """
    lams = np.sort(np.asarray(list(lam_grid), dtype=float))
    if lams.size == 0:
        return ScanResult(lambdas=lams, values=np.array([]), brackets=(),
                          max_decrease=0.0)
    if not (family.mu_minus < lams[0] and lams[-1] < family.mu_plus):
        raise ValueError("scan grid must lie inside the open gap")
    values = nu_star(family, lams, window, zero, rtol=rtol, samples=samples)
    diffs = np.diff(values)
    max_dec = float(-diffs.min()) if diffs.size and diffs.min() < 0 else 0.0
    if max_dec > 1e-7:
        raise MonotonicityError(
            f"nu_star decreased by {max_dec:.3g} on the scan grid; "
            "enlarge the truncation window")

    def on_level(v):
        # integration rounding alone moves the value at a constant-phase level
        # (the Coulomb ground state) by up to about 200 ulp of pi
        k_pi = round(v / math.pi) * math.pi
        return abs(v - k_pi) <= 1024.0 * math.ulp(k_pi)

    def crossings(vlo, vhi, closed_lo, closed_hi):
        lo_k = math.floor(vlo / math.pi) + 1
        hi_k = math.floor(vhi / math.pi)
        if closed_lo and on_level(vlo):
            lo_k = min(lo_k, round(vlo / math.pi))
        if closed_hi and on_level(vhi):
            hi_k = max(hi_k, round(vhi / math.pi))
        return range(lo_k, hi_k + 1)

    ls, vs, last = lams.tolist(), values.tolist(), lams.size - 2
    brackets = [Bracket(k, ls[i], ls[i + 1], vs[i], vs[i + 1])
                for i in range(last + 1)
                for k in crossings(vs[i], vs[i + 1], i == 0, i == last)]
    return ScanResult(lambdas=lams, values=values, brackets=tuple(brackets),
                      max_decrease=max_dec)


# ---------------------------------------------------------------------------
# Eigenvalue records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenvalueRecord:
    k: int                      # level index: nu_star(lam) = k*pi
    lam: float
    rot: float                  # rotation number of the eigenfunction
    nodal_index: int
    residual: float             # |nu_star(lam) - k*pi| at the returned lam
    window: TruncationWindow
    x_match: float              # splice point at which residual was read
    quadrant: str
    flags: tuple = ()
    # (lam, nu_star(lam) - k*pi, rtol in force), one per two-lane iterate
    history: tuple = ()


def _nodal_index(rot: float, quadrant: str) -> tuple:
    """Floor rule by quadrant; flags rot at a breakpoint, a degenerate origin."""
    shifted = rot + 0.5 if quadrant == "second" else rot
    return math.floor(shifted), (
        ("nodal-index-at-breakpoint",) * (abs(shifted - round(shifted)) < 1e-9)
        + ("degenerate-origin-angle",) * (quadrant == "degenerate"))


def find_eigenvalue(family: CoefficientFamily, k: int, bracket,
                    tol: float = 1e-9, *, window: TruncationWindow,
                    zero: Optional[ZeroData] = None,
                    rtol: float = DEFAULT_RTOL,
                    samples: Optional[WindowSamples] = None
                    ) -> EigenvalueRecord:
    """Solve nu_star(lam) = k*pi inside a bracket by safeguarded Newton in u.

    ``bracket`` is a scan Bracket, whose carried end values give the sign
    test and a first secant step, or a (lo, hi) pair, which one two-lane
    nu_star run turns into such a Bracket.  An end with residual below tol
    is solved where it is; otherwise the bracket must straddle the level
    (monotonicity makes the root unique), and its end nearer to the level
    is read again as an iterate before it is refused.  Each iterate is one
    two-lane nu_star run spliced at match_point(lam), a sibling lane giving
    the slope (module docstring).  The secant, Newton and bisection steps
    are taken in u = gap_coordinate(lam), the Newton slope by the chain rule
    dnu*/du = dnu*/dlam kappa^3/h^2 (h the gap's half width), and mapped
    back by gap_point; a step not strictly inside the current lam bracket,
    or a slope that is not finite and positive, gives way to the midpoint
    in u, and every evaluation shrinks the bracket by its residual's sign.
    rtol (the Magnus mesh) is tightened a hundredfold, and the bracket reset
    to the given one, for the iterate after a lam step below 1e-6 or in a
    lam interval below 1e-9 (relative to max(1, |lam|)); a residual below
    tol ends the solve only when read at it.  An iterate at a lam already
    read at it, or 80 steps above tol, raise ConvergenceError: the
    message names a residual floor, or, for a residual above 1e4 rtol, a
    jump of nu_star across the closed bracket that the window does not
    resolve.  The record, rot included, comes from the iterates.
    """
    zero = zero or zero_data(family)
    samples = samples or WindowSamples(family, window)
    if not isinstance(bracket, Bracket):
        ends = np.array(bracket, dtype=float)
        bracket = Bracket(k, *ends.tolist(), *nu_star(
            family, ends, window, zero, rtol=rtol, samples=samples).tolist())
    a, b = bracket.lam_lo, bracket.lam_hi
    if not a < b:
        raise BracketError("bracket must be an increasing interval")
    target = k * math.pi
    gap = family.mu_minus, family.mu_plus
    half = 0.5 * (family.mu_plus - family.mu_minus)
    history, tight = [], False

    def g(lam):
        # a tightened read depends on lam alone: a second one cannot move.
        # Its noise is ~1e3 tightened rtol; 1e6 of them (1e4 rtol) is a jump
        floor = [abs(f) for l, f, r in history if l == lam and r < rtol]
        if tight and floor:
            read = f"residual {floor[0]:.3g} at lam = {lam!r}"
            raise ConvergenceError(
                f"nu_star jumps across the closed bracket [{a!r}, {b!r}]: "
                f"{read}; the window does not resolve the level"
                if floor[0] > 1e4 * rtol else
                f"residual floor reached: {read} above tolerance {tol:g}")
        scale = 1e-2 if tight else 1.0
        delta = 1e-7 * max(1.0, abs(lam))
        if lam + delta >= family.mu_plus:
            delta = -delta
        value, sibling = nu_star(family, np.array([lam, lam + delta]), window,
                                 zero, rtol=rtol * scale, samples=samples,
                                 x_match=match_point(samples.contraction,
                                                     lam)).tolist()
        f = value - target
        history.append((lam, f, rtol * scale))
        return f, (sibling - value) / delta

    fa, fb = bracket.value_lo - target, bracket.value_hi - target
    # an end may sit on the level: at a constant-phase eigenfunction (the
    # Coulomb ground state) the matched value is k*pi to rounding, and the
    # scan brackets a level on a grid end with the end cell
    lam, f = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    slope = None
    if abs(f) >= tol and not (fa <= 0.0 <= fb):
        # read at x_mid, an end beside the level may be off by far more than tol
        tight = True
        f, slope = g(lam)
        fa, fb = (f, fb) if lam == a else (fa, f)
        if abs(f) >= tol and not (fa <= 0.0 <= fb):
            raise BracketError(
                f"nu_star - {k}*pi has the same sign at both bracket ends "
                f"({fa:.3g}, {fb:.3g})")

    for _ in range(80):
        if abs(f) < tol:
            if tight:
                break
            # read at the caller's tolerances, a residual below tol may be
            # integration error: confirm it at the tightened ones
            tight, a, b = True, bracket.lam_lo, bracket.lam_hi
            f, slope = g(lam)
            continue
        ua, ub = gap_coordinate(*gap, a), gap_coordinate(*gap, b)
        if slope is None:           # secant step on the bracket's end values
            step = ua - fa * (ub - ua) / (fb - fa)
        else:                       # dnu*/du = dnu*/dlam kappa^3 / h^2
            kappa = infinity_data(*gap, lam).decay_rate
            step = gap_coordinate(*gap, lam) - f * half ** 2 / (
                slope * kappa ** 3) if 0.0 < slope < math.inf else math.nan
        lam_new = gap_point(*gap, step)
        if not a < lam_new < b:     # bisection in u
            lam_new = gap_point(*gap, 0.5 * (ua + ub))
        # after a step this short the next iterate is next to the root; an
        # end read at the caller's tolerances may lie on its wrong side
        if not tight and (abs(lam_new - lam) < 1e-6 * max(1.0, abs(lam))
                          or b - a < 1e-9 * max(1.0, abs(b))):
            tight, a, b = True, bracket.lam_lo, bracket.lam_hi
        lam, (f, slope) = lam_new, g(lam_new)
        a, b = (lam, b) if f < 0.0 else (a, lam)
    else:
        if abs(f) >= tol:
            raise ConvergenceError(
                f"residual {abs(f):.3g} above tolerance {tol:g} "
                "after 80 iterations")

    theta_inf = infinity_data(family.mu_minus, family.mu_plus, lam).theta_inf
    rot = (theta_inf - math.pi + target + f - zero.theta_zero) / math.pi
    nodal, flags = _nodal_index(rot, zero.quadrant)
    return EigenvalueRecord(k=k, lam=lam, rot=rot, nodal_index=nodal,
                            residual=abs(f), window=window,
                            x_match=match_point(samples.contraction, lam),
                            quadrant=zero.quadrant, flags=flags,
                            history=tuple(history))


# ---------------------------------------------------------------------------
# Accumulation at the gap edges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AccumulationVerdict:
    endpoint: str                       # "upper" | "lower"
    verdict: str                        # "accumulating" | "finite" | "inconclusive"
    samples: tuple                      # (X, theta(X)) pairs on the schedule
    growth: tuple                       # angle increments between schedule points
    monotonicity_ok: bool               # p11 < mu_minus beyond the first X
    variation_last_decades: float
    x_zero: float                       # left cutoff used (reproducibility)
    detail: str = ""


def detect_accumulation(family: CoefficientFamily, endpoint: str = "upper",
                        x_schedule: Optional[Sequence[float]] = None, *,
                        rtol: float = DEFAULT_RTOL,
                        x_zero: Optional[float] = None) -> AccumulationVerdict:
    """Probe eigenvalue accumulation at a gap edge from the edge-angle growth.

    Integrates the boundary-angle trajectory at lam equal to the edge value out
    to each X in the schedule.  Unbounded angle growth (at least 2*pi between
    consecutive schedule points) combined with p11 < mu_minus beyond the first
    X yields "accumulating"; an angle that settles (per-decade variation below
    1e-2 over the last two decades) yields "finite"; anything else is
    "inconclusive".  The two regimes are orders of magnitude apart (creep to a
    limit vs. at least a full turn per decade), so the settling bound needs no
    tuning.  The lower edge is handled by the mirror substitution
    that swaps the components and negates the spectrum.  A schedule point
    below the origin cutoff, or a last one within two decades of it, raises
    CrossedCutoffError before any integration.
    """
    if endpoint not in ("upper", "lower"):
        raise ValueError("endpoint must be 'upper' or 'lower'")
    if endpoint == "lower":
        out = detect_accumulation(mirror_family(family), "upper", x_schedule,
                                  rtol=rtol, x_zero=x_zero)
        return replace(out, endpoint="lower")

    schedule = sorted(x_schedule) if x_schedule else [1e2, 1e3, 1e4, 1e5]
    zero = zero_data(family)
    mid = 0.5 * (family.mu_minus + family.mu_plus)
    span = 0.1 * (family.mu_plus - family.mu_minus)
    window = select_truncation(family, (mid - span, mid + span), zero=zero,
                               x_zero=x_zero, x_inf=schedule[-1])
    if schedule[0] < window.x_zero:
        raise CrossedCutoffError(f"schedule point {schedule[0]!r} below the "
                                 f"origin cutoff {window.x_zero!r}")
    if schedule[-1] < 100.0 * window.x_zero:    # the settling test reads there
        raise CrossedCutoffError(f"last schedule point {schedule[-1]!r} within "
                                 f"two decades of the origin cutoff {window.x_zero!r}")
    lam_edge = family.mu_plus
    traj = integrate_prufer(family, lam_edge, window, zero.theta_zero,
                            "forward", rtol=rtol)
    lo, hi = schedule[-1] / 10.0, schedule[-1]
    theta = traj.state(np.append(schedule, np.geomspace(
        (lo / 10.0, lo), (lo, hi), 48).T))[0]
    thetas = theta[:len(schedule)].tolist()
    growth = tuple(thetas[i + 1] - thetas[i] for i in range(len(thetas) - 1))

    probe_xs = np.geomspace(schedule[0], schedule[-1], 64)
    mono_ok = bool(np.all(family.coeffs(probe_xs)[0] < family.mu_minus))

    # settling is judged per decade: a bounded angle may still creep like 1/x,
    # so the two final decades are measured separately
    variation = float(np.ptp(theta[len(schedule):].reshape(2, -1), 1).max())

    if growth and all(gv >= 2.0 * math.pi for gv in growth) and mono_ok:
        verdict = "accumulating"
        detail = "angle grows by >= 2*pi per schedule step and p11 stays below mu_minus"
    elif variation < 1e-2:
        verdict = "finite"
        detail = f"angle varies by {variation:.3g} over the last two decades"
    else:
        verdict = "inconclusive"
        detail = (f"growth {tuple(round(gv, 3) for gv in growth)}, "
                  f"variation {variation:.3g}, monotonicity {mono_ok}")

    return AccumulationVerdict(endpoint="upper", verdict=verdict,
                               samples=tuple(zip(schedule, thetas)),
                               growth=growth, monotonicity_ok=mono_ok,
                               variation_last_decades=variation,
                               x_zero=window.x_zero, detail=detail)


# ---------------------------------------------------------------------------
# Eigenfunction reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    exponent_inf: float
    expected_inf: float
    rel_err_inf: float
    exponent_zero: float
    expected_zero: float
    rel_err_zero: float


def _decay_fit(family, zero, splice: _Splice, window) -> DecayFit:
    """Least-squares slopes of the log amplitude over the window's last
    decade, in x, and its first, in the left chart.  Where x_start lies
    below x_inf / 10 the far slope is that of the WKB tail, -kappa(x)."""
    xs = np.geomspace(window.x_inf / 10.0, window.x_inf, 48)
    x0 = np.geomspace(window.x_zero, window.x_zero * 10.0, 48)
    lr_inf, lr_zero = np.split(splice.at(np.concatenate((xs, x0)))[1], 2)
    slope_inf = float(np.polyfit(xs, lr_inf, 1)[0])
    expected_inf = -infinity_data(family.mu_minus, family.mu_plus,
                                  splice.lam).decay_rate
    s0 = np.log(x0) if family.beta == 1.0 else x0 ** (1.0 - family.beta)
    slope_zero = float(np.polyfit(s0, lr_zero, 1)[0])
    expected_zero = zero.rate if family.beta == 1.0 else -zero.rate
    return DecayFit(
        exponent_inf=slope_inf, expected_inf=expected_inf,
        rel_err_inf=abs(slope_inf - expected_inf) / abs(expected_inf),
        exponent_zero=slope_zero, expected_zero=expected_zero,
        rel_err_zero=abs(slope_zero - expected_zero) / abs(expected_zero))


@dataclass(frozen=True)
class Eigenfunction:
    record: EigenvalueRecord
    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    norm_window: float          # L2 mass inside the window after normalization
    norm_check: float           # window quadrature re-checked at the seams
    decay: DecayFit


def _gauss_log_segments(x_lo: float, x_hi: float):
    """Gauss-Legendre nodes/weights in log x, 48 per decade."""
    t_lo, t_hi = math.log(x_lo), math.log(x_hi)
    edges = np.linspace(t_lo, t_hi, max(1, math.ceil(
        (t_hi - t_lo) / math.log(10.0))) + 1)[:, None]
    half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[:-1] + edges[1:])
    base_x, base_w = np.polynomial.legendre.leggauss(48)
    xs = np.exp(half * base_x + mid).ravel()
    return xs, (half * base_w).ravel() * xs       # dx = x dt


def _l2_mass(family: CoefficientFamily, zero: ZeroData,
             window: TruncationWindow, splice: _Splice) -> tuple:
    """(log of the L2 norm, share of the squared mass inside the window) of
    the splice's amplitude: Gauss-Legendre quadrature over the window,
    relative to the peak at its nodes, plus the masses beyond x_inf and
    below x_zero from the linear decay rates at lam, the head for beta > 1
    by 32-node Gauss-Laguerre in s = 2 rate (x^(1-beta) - x_zero^(1-beta))."""
    gx, gw = _gauss_log_segments(window.x_zero, window.x_inf)
    lr = splice.at(np.append(gx, (window.x_inf, window.x_zero)))[1]
    (lr_inf, lr_start), lr_nodes = lr[-2:].tolist(), lr[:-2]
    peak = float(lr_nodes.max())
    inside = float(np.sum(gw * np.exp(2.0 * (lr_nodes - peak))))

    idata = infinity_data(family.mu_minus, family.mu_plus, splice.lam)
    tail = math.exp(2.0 * (lr_inf - peak)) / (2.0 * idata.decay_rate)
    x0, rate = window.x_zero, zero.rate
    if family.beta == 1.0:
        head = math.exp(2.0 * (lr_start - peak)) * x0 / (2.0 * rate + 1.0)
    else:
        m, t0 = family.beta - 1.0, 2.0 * rate * x0 ** (1.0 - family.beta)
        s, w = np.polynomial.laguerre.laggauss(32)
        head = math.exp(2.0 * (lr_start - peak)) * x0 / (m * t0) * float(
            np.sum(w * (1.0 + s / t0) ** (-1.0 - 1.0 / m)))
    total = inside + tail + head
    return peak + 0.5 * math.log(total), inside / total


def eigenfunction(family: CoefficientFamily, record: EigenvalueRecord,
                  n_samples: int = 512, *, zero: Optional[ZeroData] = None,
                  samples: Optional[WindowSamples] = None,
                  rtol: float = DEFAULT_RTOL) -> Eigenfunction:
    """Reconstruct and L2-normalize the eigenfunction by two-sided integration.

    The dense _matched halves at record.lam, the backward one from its
    contraction start on ``samples`` (the window's WindowSamples, a new one
    if None, with the same result), are spliced at record.x_match, where
    the level was solved; an angle mismatch (mod pi) beyond 1e-6 there
    means lam is not an eigenvalue to tolerance.  Beyond the backward start
    the amplitude is the WKB tail.  The eigenfunction is normalized by
    _l2_mass and sampled on a log grid, and the same run gives the
    least-squares decay exponents (_decay_fit).  norm_check re-checks the
    window quadrature only (_gauss_log_segments split at the splice's seams):
    the masses beyond the cutoffs enter both terms alike, so errors cancel.
    """
    window = record.window
    zero = zero or zero_data(family)
    splice = _matched(family, record.lam, window, zero, rtol, record.x_match,
                      samples=samples)
    # theta_fwd - theta_bwd - turns * pi at x_match
    mism = splice.nu_star_hat - math.pi * (splice.turns + 1)
    if abs(mism) > 1e-6:
        raise AngleMismatchError(
            f"angle mismatch {mism:.3g} at x = {record.x_match:.3g}; "
            "lam is not an eigenvalue to tolerance")

    # normalization, overflow-safe relative to the amplitude peak
    log_norm, inside = _l2_mass(family, zero, window, splice)
    xs, us, vs = splice.sample(window, n_samples, -log_norm)

    cuts = sorted({window.x_zero, splice.x_match, splice.x_start,
                   window.x_inf})
    gx, gw = np.hstack([_gauss_log_segments(*s) for s in zip(cuts, cuts[1:])])
    check = float(np.sum(gw * np.exp(2.0 * (splice.at(gx)[1] - log_norm))))
    return Eigenfunction(record=record, x=xs, u=us, v=vs, norm_window=inside,
                         norm_check=check + 1.0 - inside,
                         decay=_decay_fit(family, zero, splice, window))
