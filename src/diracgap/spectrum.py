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
integrates the two halves, on lanes of lam for nu_star and on a float for
the dense _matched.  In lanes a value moves slightly with the other lanes
of its run, so a scan bracket carries the end values it was bracketed on,
and the root solve takes its sign test and first step from them.

theta_fwd - theta_bwd meets a multiple of pi only at an eigenvalue, so
neither floor(nu_star/pi) off a level nor the root depends on x; the
conditioning does.  Where the eigenfunction is exponentially small (x_mid,
near the gap edge) nu_star is a step of height pi in lam and a root solve
bisects, so the scan splices at x_mid but the root solve, and then the
eigenfunction, at match_point, the bottom of the well (Pryce 1993).

The backward half of nu_star need not start at x_inf: on the way in a
start error shrinks by e^(-2 int kappa dx), kappa the local decay rate, so
it starts on theta_inf where that factor reaches e^-36
(asymptotics.contraction_start, on P sampled once per scan or root solve);
_matched starts it at x_inf.

find_eigenvalue runs nu_star on two lanes, lam and lam + delta with
delta = 1e-7 max(1, |lam|).  Both lanes share one step sequence, so their
forward difference is the Newton slope, free of the step-control noise that
differencing two separate runs would carry.  At the default tolerances a
value can be off by more than the residual tolerance where the slope is
large (3.5e-9 at a slope of 8.6e3), so a residual ends the solve only when
read at tolerances tightened a hundredfold.  That read also gives the
rotation number, as nu = nu_star - pi + theta_inf, with no further run.
Its steps are taken in u = (lam - c)/kappa_inf(lam), c the gap centre: the
Coulomb ladder accumulating at mu_plus is evenly spaced in u, at
(n_r + s)/|gamma|, and nu_star there is close to linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .asymptotics import (CrossedCutoffError, TruncationWindow, ZeroData,
                          contraction_samples, contraction_start,
                          gap_coordinate, gap_point, infinity_data,
                          match_point, select_truncation, zero_data)
from .model import CoefficientFamily, mirror_family
from .prufer import (DEFAULT_ATOL, DEFAULT_RTOL, PruferTrajectory,
                     integrate_prufer)


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

@dataclass
class _MatchInfo:
    """The two halves at lam, spliced where the forward half ends.

    turns = round((theta_f - theta_b) / pi) and offset = log rho_f - log rho_b
    there; ``theta`` and ``logrho`` answer on the whole window, the
    backward half shifted by them to meet the forward one.
    """

    lam: float
    nu_star_hat: float          # two-sided value of nu_star
    fwd: PruferTrajectory
    bwd: PruferTrajectory
    turns: int
    offset: float

    def theta(self, x: float) -> float:
        return (self.fwd.theta(x) if x <= self.fwd.x_end
                else self.bwd.theta(x) + self.turns * math.pi)

    def logrho(self, x: float) -> float:
        return (self.fwd.logrho(x) if x <= self.fwd.x_end
                else self.bwd.logrho(x) + self.offset)


def _halves(family, lam, window, theta_zero, theta_inf, x_start, rtol, atol,
            x_match=None):
    """theta_zero forward from x_zero and theta_inf backward from x_start, both
    to x_match (x_mid when None): dense for a float lam, lanes for an array."""
    x_stop = window.x_mid if x_match is None else x_match
    fwd = integrate_prufer(family, lam, window, theta_zero, "forward",
                           rtol=rtol, atol=atol, x_stop=x_stop)
    bwd = integrate_prufer(family, lam, replace(window, x_inf=x_start),
                           theta_inf, "backward", rtol=rtol, atol=atol,
                           x_stop=x_stop)
    return fwd, bwd


def _matched(family, lam, window, zero, rtol, atol, x_match=None):
    theta_inf = infinity_data(family.mu_minus, family.mu_plus, lam).theta_inf
    fwd, bwd = _halves(family, lam, window, zero.theta_zero, theta_inf,
                       window.x_inf, rtol, atol, x_match)
    (th_f, lr_f), (th_b, lr_b) = fwd.end[0].tolist(), bwd.end[0].tolist()
    # theta_inf plus the gap angle is pi, so the shifted functional simplifies
    return _MatchInfo(lam=lam, nu_star_hat=math.pi + th_f - th_b,
                      fwd=fwd, bwd=bwd,
                      turns=round((th_f - th_b) / math.pi),
                      offset=lr_f - lr_b)


def nu_star(family: CoefficientFamily, lam, window: TruncationWindow,
            zero: Optional[ZeroData] = None, *, rtol: float = DEFAULT_RTOL,
            atol: float = DEFAULT_ATOL, samples: Optional[np.ndarray] = None,
            x_match: Optional[float] = None):
    """Matched value of nu_star, strictly increasing across the gap.

    ``lam`` is a float or an array, integrated as one endpoint-only lane per
    value (a float too); the result has its shape.  The halves meet at
    ``x_match`` (x_mid when None), below the backward half's start, the
    lanes' contraction start on ``samples`` (contraction_samples if None).
    """
    zero = zero or zero_data(family)
    if samples is None:
        samples = contraction_samples(family, window)
    lams = np.asarray(lam, dtype=float)
    theta_inf = [infinity_data(family.mu_minus, family.mu_plus, l).theta_inf
                 for l in lams.flat]
    fwd, bwd = _halves(family, lams.reshape(-1), window, zero.theta_zero,
                       theta_inf, contraction_start(samples, lams, x_match),
                       rtol, atol, x_match)
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
                  rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL
                  ) -> ScanResult:
    """Evaluate nu_star on a grid and bracket every crossing of k*pi.

    The grid is one lane run, and so is each subdivision depth (breadth
    first); every Bracket carries the end values it was bracketed on.  The
    values must be non-decreasing up to integration noise; a decrease beyond
    1e-7 raises MonotonicityError (it signals that the window is
    too small for the requested lam range).  Cells containing more than one
    crossing are subdivided until each bracket isolates a single level.  The
    grid is closed at both ends: a level whose value at a grid end is k*pi to
    within 1024 ulp is bracketed by the end cell, on whichever side rounding
    put it.
    """
    lams = np.sort(np.asarray(list(lam_grid), dtype=float))
    if lams.size == 0:
        return ScanResult(lambdas=lams, values=np.array([]), brackets=(),
                          max_decrease=0.0)
    if not (family.mu_minus < lams[0] and lams[-1] < family.mu_plus):
        raise ValueError("scan grid must lie inside the open gap")
    zero = zero or zero_data(family)
    samples = contraction_samples(family, window)

    def val(lam):
        return nu_star(family, lam, window, zero, rtol=rtol, atol=atol,
                       samples=samples)

    values = val(lams)
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
        return list(range(lo_k, hi_k + 1))

    # cells (lam_lo, lam_hi, value_lo, value_hi, closed_lo, closed_hi)
    ls, vs = lams.tolist(), values.tolist()
    cells = [(ls[i], ls[i + 1], vs[i], vs[i + 1], i == 0, i == len(ls) - 2)
             for i in range(len(ls) - 1)]
    brackets = []
    for depth in range(13):
        split = []
        for cell in cells:
            ks = crossings(*cell[2:])
            if len(ks) == 1 or (ks and depth == 12):
                brackets += [Bracket(k, *cell[:4]) for k in ks]
            elif ks:
                split.append(cell)
        if not split:
            break
        mids = [0.5 * (c[0] + c[1]) for c in split]
        cells = []
        for (llo, lhi, vlo, vhi, c_lo, c_hi), lmid, vmid in zip(
                split, mids, val(np.array(mids)).tolist()):
            cells += [(llo, lmid, vlo, vmid, c_lo, False),
                      (lmid, lhi, vmid, vhi, False, c_hi)]
    brackets.sort(key=lambda b: (b.lam_lo, b.k))
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
                    rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL
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
    Integrator tolerances are tightened a hundredfold, and the bracket reset
    to the given one, for the iterate after a lam step below 1e-6 or in a
    lam interval below 1e-9 (relative to max(1, |lam|)); a residual below
    tol ends the solve only when read at them, and 80 steps above tol raise
    ConvergenceError.  The record, rot included, comes from the iterates.
    """
    zero = zero or zero_data(family)
    samples = contraction_samples(family, window)
    if not isinstance(bracket, Bracket):
        ends = np.array(bracket, dtype=float)
        bracket = Bracket(k, *ends.tolist(), *nu_star(
            family, ends, window, zero, rtol=rtol, atol=atol,
            samples=samples).tolist())
    a, b = bracket.lam_lo, bracket.lam_hi
    if not a < b:
        raise BracketError("bracket must be an increasing interval")
    target = k * math.pi
    gap = family.mu_minus, family.mu_plus
    half = 0.5 * (family.mu_plus - family.mu_minus)
    history, tight = [], False

    def g(lam):
        scale = 1e-2 if tight else 1.0
        delta = 1e-7 * max(1.0, abs(lam))
        if lam + delta >= family.mu_plus:
            delta = -delta
        value, sibling = nu_star(family, np.array([lam, lam + delta]), window,
                                 zero, rtol=rtol * scale, atol=atol * scale,
                                 samples=samples,
                                 x_match=match_point(samples, lam)).tolist()
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
                            x_match=match_point(samples, lam),
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
                        atol: float = DEFAULT_ATOL,
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
    below the origin cutoff raises CrossedCutoffError before any integration.
    """
    if endpoint not in ("upper", "lower"):
        raise ValueError("endpoint must be 'upper' or 'lower'")
    if endpoint == "lower":
        out = detect_accumulation(mirror_family(family), "upper", x_schedule,
                                  rtol=rtol, atol=atol, x_zero=x_zero)
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
    lam_edge = family.mu_plus
    traj = integrate_prufer(family, lam_edge, window, zero.theta_zero,
                            "forward", rtol=rtol, atol=atol)
    thetas = [traj.theta(x) for x in schedule]
    growth = tuple(thetas[i + 1] - thetas[i] for i in range(len(thetas) - 1))

    probe_xs = np.geomspace(schedule[0], schedule[-1], 64)
    mono_ok = all(family.coeffs(x)[0] < family.mu_minus for x in probe_xs)

    # settling is judged per decade: a bounded angle may still creep like 1/x,
    # so the two final decades are measured separately
    variation = max(float(np.ptp([traj.theta(x)
                                  for x in np.geomspace(hi / 10.0, hi, 48)]))
                    for hi in (schedule[-1] / 10.0, schedule[-1]))

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


def _decay_fit(family, zero, info: _MatchInfo, window) -> DecayFit:
    # amplitude slope at infinity over the last decade of the window
    xs = np.geomspace(window.x_inf / 10.0, window.x_inf, 48)
    slope_inf = float(np.polyfit(xs, [info.logrho(x) for x in xs], 1)[0])
    expected_inf = -infinity_data(family.mu_minus, family.mu_plus,
                                  info.lam).decay_rate
    # amplitude slope at the origin over the first decade, in the left chart
    x0 = np.geomspace(window.x_zero, window.x_zero * 10.0, 48)
    s0 = np.log(x0) if family.beta == 1.0 else x0 ** (1.0 - family.beta)
    slope_zero = float(np.polyfit(s0, [info.logrho(x) for x in x0], 1)[0])
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
    norm_check: float           # independent quadrature of the total L2 mass
    decay: DecayFit


def _gauss_log_segments(x_lo: float, x_hi: float):
    """Gauss-Legendre nodes/weights in log x, 48 per decade."""
    t_lo, t_hi = math.log(x_lo), math.log(x_hi)
    n_seg = max(1, int(math.ceil((t_hi - t_lo) / math.log(10.0))))
    base_x, base_w = np.polynomial.legendre.leggauss(48)
    xs, ws = [], []
    edges = np.linspace(t_lo, t_hi, n_seg + 1)
    for i in range(n_seg):
        a, b = edges[i], edges[i + 1]
        t = 0.5 * (b - a) * base_x + 0.5 * (a + b)
        w = 0.5 * (b - a) * base_w
        xs.append(np.exp(t))
        ws.append(w * np.exp(t))       # dx = x dt
    return np.concatenate(xs), np.concatenate(ws)


def _l2_mass(family: CoefficientFamily, zero: ZeroData,
             window: TruncationWindow, lam: float, log_amp) -> tuple:
    """Squared L2 mass of e^log_amp(x), relative to its peak on the window.

    Returns (peak, inside, tail, head): peak is the largest log_amp at the
    quadrature nodes, inside the Gauss-Legendre quadrature of
    e^(2 (log_amp - peak)) over the window, tail and head the closed-form
    masses beyond x_inf and below x_zero from the linear decay rates at lam.
    The total mass is e^(2 peak) (inside + tail + head).
    """
    gx, gw = _gauss_log_segments(window.x_zero, window.x_inf)
    lr_nodes = np.array([log_amp(x) for x in gx])
    peak = float(lr_nodes.max())
    mass_window = float(np.sum(gw * np.exp(2.0 * (lr_nodes - peak))))

    idata = infinity_data(family.mu_minus, family.mu_plus, lam)
    tail = math.exp(2.0 * (log_amp(window.x_inf) - peak)) \
        / (2.0 * idata.decay_rate)
    x0 = window.x_zero
    lr_start, rate = log_amp(x0), zero.rate
    if family.beta == 1.0:
        head = math.exp(2.0 * (lr_start - peak)) * x0 / (2.0 * rate + 1.0)
    else:
        head_int, _ = quad(
            lambda x: math.exp(-2.0 * rate * (x ** (1.0 - family.beta)
                                              - x0 ** (1.0 - family.beta))),
            0.0, x0)
        head = math.exp(2.0 * (lr_start - peak)) * head_int
    return peak, mass_window, tail, head


def eigenfunction(family: CoefficientFamily, record: EigenvalueRecord,
                  n_samples: int = 512, *, zero: Optional[ZeroData] = None,
                  rtol: float = DEFAULT_RTOL,
                  atol: float = DEFAULT_ATOL) -> Eigenfunction:
    """Reconstruct and L2-normalize the eigenfunction by two-sided integration.

    Angle trajectories are run forward from x_zero and backward from x_inf and
    matched at record.x_match, where the level was solved; a mismatch (mod
    pi) beyond 1e-6 there means lam is not an eigenvalue to tolerance.
    Amplitudes are spliced by matching the log-amplitude there, normalized by
    quadrature over the window plus closed-form tail and head corrections from
    the known decay exponents, and sampled on a log grid.  The same run gives
    the least-squares decay exponents of the amplitude over the last decade of
    the window and the first.
    """
    window = record.window
    zero = zero or zero_data(family)
    info = _matched(family, record.lam, window, zero, rtol, atol,
                    record.x_match)
    # theta_fwd - theta_bwd - turns * pi at x_match
    mism = info.nu_star_hat - math.pi * (info.turns + 1)
    if abs(mism) > 1e-6:
        raise AngleMismatchError(
            f"angle mismatch {mism:.3g} at x = {record.x_match:.3g}; "
            "lam is not an eigenvalue to tolerance")

    # normalization, overflow-safe relative to the amplitude peak
    lr_max, mass_window, tail, head = _l2_mass(family, zero, window,
                                               record.lam, info.logrho)
    total = mass_window + tail + head
    lr_shift = -(lr_max + 0.5 * math.log(total))

    xs = np.geomspace(window.x_zero, window.x_inf, n_samples)
    us = np.empty(n_samples)
    vs = np.empty(n_samples)
    for i, x in enumerate(xs):
        th = info.theta(x)
        r = math.exp(info.logrho(x) + lr_shift)
        us[i] = r * math.cos(th)
        vs[i] = r * math.sin(th)

    # independent re-check of the normalization with adaptive quadrature
    def density(x):
        return math.exp(2.0 * (info.logrho(x) + lr_shift))

    seams = [window.x_zero, min(1.0, window.x_inf)] if window.x_zero < 1.0 else [window.x_zero]
    seams += list(np.geomspace(max(1.0, window.x_zero), window.x_inf, 6)[1:]) \
        if window.x_inf > 1.0 else []
    seams = sorted(set(seams))
    check = sum(quad(density, aa, bb, limit=200)[0]
                for aa, bb in zip(seams[:-1], seams[1:]))
    check += (tail + head) * math.exp(2.0 * lr_max + 2.0 * lr_shift)

    return Eigenfunction(record=record, x=xs, u=us, v=vs,
                         norm_window=mass_window * math.exp(2.0 * lr_max + 2.0 * lr_shift),
                         norm_check=check, decay=_decay_fit(family, zero, info, window))
