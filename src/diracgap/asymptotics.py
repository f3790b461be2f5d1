"""Endpoint eigen-directions, boundary angles and truncation windows.

At both ends of the half-line the system z' = J^{-1}(lam Id - P(x)) z is an
integrable perturbation of a constant-coefficient system.  At infinity the
frozen matrix J^{-1}(lam Id - diag(mu_minus, mu_plus)) has one decaying and
one growing direction for lam inside the gap; at the origin the matrix
J^{-1} * limit_zero (scaled by 1/(beta-1) for beta > 1, after the taming
change of variables) plays the same role.  Square-integrable solutions
approach the decaying direction, which fixes the boundary angle of the polar
coordinate at each end.  The truncation window [x_zero, x_inf] is chosen so
that beyond the cutoffs the coefficients are within delta of their limits and
the angular vector field pins trajectories to within the cone margin eps of
the boundary angle.  Inside the window, where the decay rate has built up,
the backward angle flow has contracted onto the decaying direction, which
lets a backward run start there instead of at x_inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import CoefficientFamily, classify_zero_endpoint, polar_rates


class NoWindowError(RuntimeError):
    """No truncation window satisfies the requested closeness bound."""


class CrossedCutoffError(ValueError):
    """A given cutoff lies on the far side of the other cutoff."""


def gap_angle(mu_minus: float, mu_plus: float, lam: float) -> float:
    """arctan sqrt((lam - mu_minus) / (mu_plus - lam)), in (0, pi/2)."""
    return math.atan(math.sqrt((lam - mu_minus) / (mu_plus - lam)))


@dataclass(frozen=True)
class InfinityData:
    """Eigen-structure of the frozen system at infinity for one lam in the gap.

    decay_rate is sqrt((mu_plus - lam)(lam - mu_minus)); the decaying
    direction is the eigenvector of J^{-1}(lam Id - diag(mu-, mu+)) for
    -decay_rate, and theta_inf, its polar angle, lies in (pi/2, pi) and
    equals pi minus the gap angle.
    """

    decay_rate: float
    theta_inf: float


def infinity_data(mu_minus: float, mu_plus: float, lam: float) -> InfinityData:
    """Decay rate and boundary angle at infinity."""
    if not (mu_minus < lam < mu_plus):
        raise ValueError(f"lam = {lam} outside the open gap ({mu_minus}, {mu_plus})")
    return InfinityData(
        decay_rate=math.sqrt((mu_plus - lam) * (lam - mu_minus)),
        theta_inf=math.pi - gap_angle(mu_minus, mu_plus, lam))


def gap_coordinate(mu_minus: float, mu_plus: float, lam: float) -> float:
    """u = (lam - c)/decay_rate, c the gap centre; gap_point inverts it."""
    c = 0.5 * (mu_minus + mu_plus)
    return (lam - c) / infinity_data(mu_minus, mu_plus, lam).decay_rate


def gap_point(mu_minus: float, mu_plus: float, u: float) -> float:
    """c + h u/hypot(1, u), h the gap's half width: finite for any finite u."""
    c, h = 0.5 * (mu_minus + mu_plus), 0.5 * (mu_plus - mu_minus)
    return c + h * u / math.hypot(1.0, u)


@dataclass(frozen=True)
class ZeroData:
    """Eigen-structure of the origin flow matrix; independent of lam.

    flow_matrix is J^{-1} * limit_zero, scaled by 1/(beta - 1) when beta > 1.
    theta_zero, in [0, pi), is the polar angle of its eigenvector for the
    negative eigenvalue -rate (the direction along which solutions vanish
    into the origin).  quadrant records which index convention applies
    downstream; theta_zero in {0, pi/2} (within 1e-9) is "degenerate" and
    handled with the first-quadrant convention.
    """

    rate: float                 # positive eigenvalue of flow_matrix
    flow_matrix: np.ndarray
    theta_zero: float
    quadrant: str               # "first" | "second" | "degenerate"


def _eigvec_tracefree(c: np.ndarray, sigma: float) -> np.ndarray:
    """Eigenvector of the trace-free 2x2 matrix c for eigenvalue sigma."""
    w1 = np.array([c[0, 1], sigma - c[0, 0]])
    w2 = np.array([sigma - c[1, 1], c[1, 0]])
    w = w1 if np.linalg.norm(w1) >= np.linalg.norm(w2) else w2
    n = np.linalg.norm(w)
    if n == 0.0:
        raise ValueError("degenerate eigenproblem for the origin flow matrix")
    return w / n


def zero_data(family: CoefficientFamily) -> ZeroData:
    """Flow matrix, rate and boundary angle at an admissible origin."""
    cls = classify_zero_endpoint(family)
    if not cls.admissible:
        raise ValueError("origin endpoint is not admissible: " + cls.note)
    l = family.limit_zero
    c = np.array([[-l[1, 0], -l[1, 1]], [l[0, 0], l[0, 1]]])   # J^{-1} @ limit
    rate = math.sqrt(-cls.det_limit)
    if family.beta > 1.0:
        c = c / (family.beta - 1.0)
        rate = rate / (family.beta - 1.0)
    w1 = _eigvec_tracefree(c, -rate)
    # sign-fix the direction into the closed upper half plane
    if w1[1] < 0.0 or (w1[1] == 0.0 and w1[0] < 0.0):
        w1 = -w1
    theta = math.atan2(w1[1], w1[0]) % math.pi
    if min(abs(theta), abs(theta - math.pi / 2.0),
           abs(theta - math.pi)) < 1e-9:
        quadrant = "degenerate"
    else:
        quadrant = "first" if theta < math.pi / 2.0 else "second"
    return ZeroData(rate=rate, flow_matrix=c, theta_zero=theta,
                    quadrant=quadrant)


@dataclass(frozen=True)
class TruncationWindow:
    """Computational interval [x_zero, x_inf] with the bounds that chose it."""

    x_zero: float
    x_inf: float
    delta: float
    eps: float

    def __post_init__(self):
        if not 0.0 < self.x_zero < self.x_inf:
            raise ValueError("window cutoffs must satisfy 0 < x_zero < x_inf")

    @property
    def x_mid(self) -> float:
        return math.sqrt(self.x_zero * self.x_inf)


def select_truncation(
    family: CoefficientFamily,
    lam_range: tuple,
    delta: Optional[float] = None,
    eps: float = 1e-3,
    *,
    zero: Optional[ZeroData] = None,
    x_zero: Optional[float] = None,
    x_inf: Optional[float] = None,
) -> TruncationWindow:
    """Choose cutoffs by coefficient closeness, then confirm by the cone test.

    One rule serves both ends.  It walks 16 points per decade outward from
    x = 1 (to 1e-8 and to 1e8) and takes the innermost point past which
    every sample has |x^beta P(x) - limit| (origin) or |P(x) - limit|
    (infinity) below delta.  The cone test then samples the angular field at
    the boundary angles +- eps over 32 log-spaced points in the decade past
    the cutoff, for lam at both ends and the middle of lam_range, and
    requires the outward sign pattern that pins trajectories near the
    boundary angle; while it fails, the cutoff moves one point outward.  The
    origin cone test needs boundary data, so it is skipped (closeness only)
    when the family has no admissible origin and no ``zero`` data is passed
    in.  A given ``x_zero`` or ``x_inf`` is taken as it is and its end is not
    examined; one that crosses the other cutoff raises CrossedCutoffError.
    """
    lo, hi = lam_range
    if not (family.mu_minus < lo <= hi < family.mu_plus):
        raise ValueError("lam_range must lie strictly inside the gap")
    if delta is None:
        delta = 1e-4 * (family.mu_plus - family.mu_minus)
    # P once per distinct x (x = 1 and the cone decades' ends recur)
    family = replace(family, coeffs=functools.cache(family.coeffs))
    lam_samples = (lo, 0.5 * (lo + hi), hi)
    given = (x_zero, x_inf) != (None, None)

    def cutoff(sign: int, remainder_norm, angles) -> float:
        # sign is +1 at infinity and -1 at the origin; no angles, no cone test
        name, at, inward, outward = (
            ("infinity", "infinity", "below", "up") if sign > 0
            else ("origin", "the origin", "above", "down"))
        grid = np.logspace(-8.0, 8.0, 257)[128::sign]    # x = 1 outward
        far = np.flatnonzero([not remainder_norm(x) < delta for x in grid])
        i = far[-1] + 1 if far.size else 0
        if i == grid.size:
            raise NoWindowError(f"{name} closeness {delta:g} unattainable "
                                f"{inward} x = {grid[-1]:g}")
        if angles is None:
            return float(grid[i])
        # a cone at infinity that reaches down to pi/2 fails at every cutoff
        walk = grid[i:] if sign < 0 or min(angles) - eps > math.pi / 2.0 else ()
        for x in walk:
            t = math.log10(x)
            # sign * theta' < 0 at angle - eps and > 0 at angle + eps at
            # every point (the outer loop) for every lam sample and its angle
            if all(sign * polar_rates(*p, lam, th - eps)[0] < 0.0
                   < sign * polar_rates(*p, lam, th + eps)[0]
                   for p in map(family.coeffs,
                                np.logspace(*sorted((t, t + sign)), 32))
                   for lam, th in zip(lam_samples, angles)):
                return float(x)
        raise NoWindowError(f"cone test at {at} fails {outward} to the grid end")

    if x_zero is None:
        if zero is None and classify_zero_endpoint(family).admissible:
            zero = zero_data(family)
        x_zero = cutoff(-1, family.remainder_zero_norm,
                        None if zero is None else [zero.theta_zero] * 3)
    if x_inf is None:
        x_inf = cutoff(1, family.remainder_inf_norm,
                       [math.pi - gap_angle(family.mu_minus, family.mu_plus,
                                            lam) for lam in lam_samples])
    if given and not x_zero < x_inf:
        raise CrossedCutoffError(f"window {x_zero!r} .. {x_inf!r}")
    return TruncationWindow(x_zero=x_zero, x_inf=x_inf, delta=delta, eps=eps)


def contraction_samples(family: CoefficientFamily,
                        window: TruncationWindow) -> np.ndarray:
    """Rows x, p11, p12, p22 at 32 points per decade on [x_mid, x_inf]."""
    x_mid, x_inf = window.x_mid, window.x_inf
    xs = np.geomspace(x_mid, x_inf,
                      int(math.ceil(32.0 * math.log10(x_inf / x_mid))) + 1)
    return np.vstack((xs, np.array([family.coeffs(x) for x in xs]).T))


def decay_integral(samples: np.ndarray, lams) -> tuple:
    """(kappa^2, int kappa dx from the first sample) on the
    contraction_samples by the trapezoid rule, one row per lane, kappa being
    0 where kappa^2 <= 0; e^-(its increment) is the WKB decay of the tail."""
    xs, p11, p12, p22 = samples
    lam = np.reshape(lams, (-1, 1))
    kappa2 = p12 * p12 - (lam - p11) * (lam - p22)
    kappa = np.sqrt(np.maximum(kappa2, 0.0))
    return kappa2, np.cumsum(np.concatenate(
        (np.zeros((lam.shape[0], 1)),
         0.5 * (kappa[:, 1:] + kappa[:, :-1]) * np.diff(xs)), axis=1), axis=1)


def contraction_start(samples: np.ndarray, lam: float, x_from=None) -> float:
    """Where a backward angle run from theta_inf at lam may start instead of
    x_inf.

    At a fixed point of the angle flow theta' the linearized rate is
    -+2 kappa, with kappa^2 = p12^2 - (lam - p11)(lam - p22) the local decay
    rate; past a point with int kappa dx >= 18 a backward run from a start
    error of O(0.1) reaches the points below damped by e^-36.  The
    decay_integral is counted from the last turning point (kappa^2 <= 0) or
    from x_from (x_mid when None), whichever is further out; the result is
    the first point that reaches 18, and x_inf when none does.
    """
    xs = samples[0]
    (kappa2,), (integral,) = decay_integral(samples, lam)
    turning = np.flatnonzero(kappa2 <= 0.0)
    start = max(turning[-1] if turning.size else 0,
                np.searchsorted(xs, x_from or xs[0]))
    reached = np.flatnonzero(integral[start:] >= integral[start] + 18.0)
    return float(xs[start + reached[0]] if reached.size else xs[-1])


def match_point(samples: np.ndarray, lam: float) -> float:
    """Where the matched halves at lam meet: the sample below lam's
    contraction_start where kappa^2 is least, the bottom of the classically
    allowed well (kappa^2 < 0) or its nearest approach when there is none.
    An eigenfunction at lam is large there, and exponentially small at x_mid
    near the gap edge.  A backward half stopped here starts at
    contraction_start(samples, lam, x_from=this point)."""
    xs, p11, p12, p22 = samples[:, samples[0] < contraction_start(samples, lam)]
    return float(xs[np.argmin(p12 * p12 - (lam - p11) * (lam - p22))])
