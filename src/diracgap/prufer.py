"""Angle/amplitude and raw Cartesian integration of the planar system.

In polar coordinates u = rho cos(theta), v = rho sin(theta) the system
J z' + P(x) z = lam z decouples into

    theta'   = (lam - p11) cos^2 - 2 p12 cos sin + (lam - p22) sin^2
    logrho'  = p12 (cos^2 - sin^2) + (p22 - p11) sin cos

One winding rule holds on both integration paths: the angle is integrated as
an ODE component, never rebuilt from atan2 branch fixing, so the winding
count is exact.  Near the origin the coefficients blow up like x^-beta; the
left part of the window is therefore integrated in a transformed variable,
log x for beta = 1 and x^(1-beta) for beta > 1, in which the flow is
asymptotically autonomous.  The module picks the chart automatically.

The Cartesian path integrates z' = J^{-1}(lam Id - P + S) z in the exactly
scaled variables z = e^mu w, with w kept at unit size and mu carrying the log
of the true amplitude, and carries the polar angle of w as a fourth
component; it serves as an independent cross-check of the polar formulation
(w is integrated in components, and its angle rate is formed from them) and
as the engine for the nonlinear shooting solver.  Each path has one entry
point, and both follow one lane rule (_lanes): a float lam is one dense run,
an array of lam is endpoint-only lanes, one vector ODE on one step sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .asymptotics import TruncationWindow
from .model import CoefficientFamily, NonlinearCoupling, polar_rates

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
_OVERFLOW_LOG = 100.0 * math.log(10.0)     # abort bound for coupled runs
_EVAL_BUDGET = 150_000                     # RHS evaluations per Cartesian run


class IntegrationError(RuntimeError):
    """Step-size underflow or tolerance failure; carries the last x reached."""

    def __init__(self, message: str, x_reached: float):
        super().__init__(f"{message} (last x reached: {x_reached:g})")
        self.x_reached = x_reached


class OverflowAbort(IntegrationError):
    """True amplitude left the representable range in a coupled run."""


# ---------------------------------------------------------------------------
# Charts, window segmentation and the integration loop
# ---------------------------------------------------------------------------

class _Chart(NamedTuple):
    """Monotone reparametrization x = x(s) of part of the window."""

    to_s: Callable[[float], float]
    to_x: Callable[[float], float]
    dx_ds: Callable[[float], float]


_IDENTITY = _Chart(lambda x: x, lambda s: s, lambda s: 1.0)
_LOG = _Chart(math.log, math.exp, math.exp)


def _power_chart(beta: float) -> _Chart:
    """s = x^(1-beta) for beta > 1; s is decreasing in x."""

    def to_x(s):
        return s ** (1.0 / (1.0 - beta))

    return _Chart(lambda x: x ** (1.0 - beta), to_x,
                  lambda s: to_x(s) ** beta / (1.0 - beta))


def _segments(window: TruncationWindow, beta: float, direction: str,
              x_stop: Optional[float]) -> list:
    """Ordered (chart, x_from, x_to) pieces covering the requested span."""
    if direction == "forward":
        a, b = window.x_zero, window.x_inf if x_stop is None else x_stop
    elif direction == "backward":
        a, b = window.x_inf, window.x_zero if x_stop is None else x_stop
    else:
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    if not (window.x_zero <= min(a, b) and max(a, b) <= window.x_inf) or a == b:
        raise ValueError("integration span must be a nontrivial part of the window")

    left_chart = _LOG if beta == 1.0 else _power_chart(beta)
    lo, hi = min(a, b), max(a, b)
    pieces = []
    if lo < 1.0:
        pieces.append((left_chart, lo, min(hi, 1.0)))
    if hi > 1.0:
        pieces.append((_IDENTITY, max(lo, 1.0), hi))
    if direction == "backward":
        pieces = [(c, x1, x0) for (c, x0, x1) in reversed(pieces)]
    return pieces


@dataclass
class _Piece:
    chart: _Chart
    sol: object                # scipy OdeSolution in the chart variable
    x_lo: float
    x_hi: float


def _locate(pieces: list, x: float) -> _Piece:
    for p in pieces:
        if p.x_lo - 1e-300 <= x <= p.x_hi * (1.0 + 1e-12) + 1e-300:
            return p
    # tolerate roundoff just outside the covered span
    ends = [(min(abs(x - p.x_lo), abs(x - p.x_hi)), p) for p in pieces]
    dist, p = min(ends, key=lambda t: t[0])
    if dist <= 1e-9 * max(1.0, abs(x)):
        return p
    raise ValueError(f"x = {x:g} outside the integrated span")


def _state_at(pieces: list, x: float) -> np.ndarray:
    p = _locate(pieces, x)
    if p.sol is None:
        raise ValueError("an endpoint-only lane run has no interior values; "
                         "integrate a float lam for dense output")
    return p.sol(p.chart.to_s(min(max(x, p.x_lo), p.x_hi)))


def _lanes(lam, n_one: int) -> tuple:
    """The lane rule of both integrators: (lams, dense, tolerance scale).

    A float lam is one dense run; an array of N (one included) is N
    endpoint-only lanes.  DOP853's error norm is an RMS over components, so
    lanes scale rtol and atol by sqrt(n_one/N), where a dense run has as
    many components as n_one lanes: no lane gets a looser bound than it.
    """
    dense = np.ndim(lam) == 0
    lams = np.atleast_1d(np.asarray(lam, dtype=float)).reshape(-1)
    return lams, dense, 1.0 if dense else math.sqrt(n_one / lams.size)


@dataclass
class IntegratorStats:
    steps: int
    nfev: int
    rtol: float
    atol: float


def _run_segments(rhs_in_x: Callable, y0, segments: list, rtol: float,
                  atol: float, events: Optional[list] = None,
                  dense: bool = True) -> tuple:
    """Integrate over ordered chart segments.

    Returns (pieces, stats, x_event, y_end): x_event is the x at which a
    terminal event stopped the run, or None when the whole span was covered,
    and y_end the solver's final state.  Without ``dense`` the pieces carry no
    interpolant (scipy's step sequence is the same either way).
    """
    pieces = []
    y = np.array(y0, dtype=float)
    nfev = 0
    steps = 0
    x_event = None
    for chart, x_from, x_to in segments:

        def rhs(s, yy, _c=chart):
            j = _c.dx_ds(s)
            dy = rhs_in_x(_c.to_x(s), yy)
            return dy * j if isinstance(dy, np.ndarray) else [d * j for d in dy]

        res = solve_ivp(rhs, (chart.to_s(x_from), chart.to_s(x_to)), y,
                        method="DOP853", rtol=rtol, atol=atol,
                        dense_output=dense, events=events)
        if res.status == -1:
            raise IntegrationError(res.message, chart.to_x(res.t[-1]))
        nfev += res.nfev
        steps += len(res.t) - 1
        y = res.y[:, -1]
        if res.status == 1:
            x_event = chart.to_x(res.t[-1])
            break
        pieces.append(_Piece(chart=chart, sol=res.sol,
                             x_lo=min(x_from, x_to), x_hi=max(x_from, x_to)))
    stats = IntegratorStats(steps=steps, nfev=nfev, rtol=rtol, atol=atol)
    return pieces, stats, x_event, y


# ---------------------------------------------------------------------------
# Angle/log-amplitude trajectories
# ---------------------------------------------------------------------------

@dataclass
class PruferTrajectory:
    """Continuously unwrapped angle trajectory over (part of) a window.

    ``end`` holds the solver's final state, one row per lane: (theta,
    log rho) for a float lam, theta for an array.  A float lam's ``theta``
    and ``logrho`` answer at any x in the integrated span.  Immutable after
    construction (fields are never reassigned), so instances can be shared
    across threads.
    """

    x_start: float
    x_end: float
    stats: IntegratorStats
    end: np.ndarray = field(repr=False)
    _pieces: list = field(repr=False)

    def _eval(self, x: float) -> tuple:
        y = _state_at(self._pieces, x)
        return float(y[0]), float(y[1])

    def theta(self, x: float) -> float:
        return self._eval(x)[0]

    def logrho(self, x: float) -> float:
        return self._eval(x)[1]


def integrate_prufer(
    family: CoefficientFamily,
    lam,
    window: TruncationWindow,
    theta_init,
    direction: str = "forward",
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    x_stop: Optional[float] = None,
) -> PruferTrajectory:
    """Integrate the angle across the window with adaptive embedded RK.

    ``direction`` chooses the starting end and ``x_stop`` truncates the run
    at an interior point (the matched halves).  A float lam integrates
    (theta, log rho), log rho starting at 0, and keeps DOP853's dense output.
    An array of N lam integrates theta alone from theta_init (shared, or one
    per lane) as N endpoint-only lanes (_lanes: rtol and atol scaled by
    sqrt(2/N)); one ``coeffs(x)`` call per RHS evaluation serves every lane.
    """
    if not np.all(np.isfinite(theta_init)):
        raise ValueError("theta_init must be finite")
    lams, dense, scale = _lanes(lam, 2)
    coeffs = family.coeffs

    if dense:
        def rhs_in_x(x, y):
            p11, p12, p22 = coeffs(x)
            return polar_rates(p11, p12, p22, lam, y[0])
        y0 = (theta_init, 0.0)
    else:
        def rhs_in_x(x, th):
            # the theta' of polar_rates, per lane
            p11, p12, p22 = coeffs(x)
            ct = np.cos(th)
            st = np.sin(th)
            return (lams - p11) * ct * ct - 2.0 * p12 * ct * st \
                + (lams - p22) * st * st
        y0 = np.broadcast_to(theta_init, lams.shape)
    segs = _segments(window, family.beta, direction, x_stop)
    pieces, stats, _, y_end = _run_segments(
        rhs_in_x, y0, segs, rtol * scale, atol * scale, dense=dense)
    return PruferTrajectory(x_start=segs[0][1], x_end=segs[-1][2],
                            stats=stats, end=y_end.reshape(lams.size, -1),
                            _pieces=pieces)


# ---------------------------------------------------------------------------
# Cartesian trajectories in scaled variables
# ---------------------------------------------------------------------------

@dataclass
class CartesianTrajectory:
    """Cartesian trajectory z = e^mu w with its integrated polar angle.

    ``end`` holds the solver's final state (u, v, mu, theta), one row per
    lane.  A float lam's run keeps DOP853's dense output: ``state(x)``
    returns (u, v, mu), the solution value being e^mu * (u, v) with
    (u, v) = w of unit size; ``angle(x)`` is the polar angle of w,
    integrated as the fourth state component from the initial direction, so
    its winding is exact; and ``log_norm(x)`` is the log of the true
    solution norm.  Immutable after construction (fields are never
    reassigned), so instances can be shared across threads.
    """

    window: TruncationWindow
    stats: IntegratorStats
    end: np.ndarray = field(repr=False)
    _pieces: list = field(repr=False)

    def state(self, x: float) -> tuple:
        y = _state_at(self._pieces, x)
        return float(y[0]), float(y[1]), float(y[2])

    def log_norm(self, x: float) -> float:
        u, v, ls = self.state(x)
        return ls + 0.5 * math.log(u * u + v * v)

    def angle(self, x: float) -> float:
        return float(_state_at(self._pieces, x)[3])


def integrate_cartesian(
    family: CoefficientFamily,
    lam,
    window: TruncationWindow,
    z_init,
    direction: str = "forward",
    *,
    coupling: Optional[NonlinearCoupling] = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    x_stop: Optional[float] = None,
    log_scale_init=0.0,
) -> CartesianTrajectory:
    """Integrate z' = J^{-1}(lam Id - P + S) z as z = e^mu w, where

        w' = A(x, e^mu w) w - rho w,   mu' = rho,   rho = <w, A w> / <w, w>,

    an exact reformulation that keeps w of unit size over arbitrarily many
    amplitude decades while mu carries the true amplitude; the run starts at
    e^log_scale_init * z_init.  The polar angle of w is integrated alongside,
    theta' = (u (Aw)_2 - v (Aw)_1) / <w, w> (the rho terms cancel), from the
    angle of z_init.  S is zero without a ``coupling``; with one it is
    evaluated at the true z, and the run aborts with OverflowAbort when the
    true amplitude of any lane leaves the representable range.  A run that
    exhausts the evaluation budget (a near-blowup trajectory) raises
    IntegrationError.

    A float lam is one dense run.  An array of L lam is L endpoint-only
    lanes (_lanes: rtol and atol scaled by sqrt(1/L)), against which z_init
    (shape (2,) or (L, 2)) and log_scale_init broadcast: one ``coeffs(x)``
    call per RHS evaluation serves every lane, ``coupling.entries`` is
    called once per lane, and each lane's arithmetic is that of a float
    run.
    """
    lams, dense, scale = _lanes(lam, 1)
    z0 = np.broadcast_to(np.asarray(z_init, dtype=float), lams.shape + (2,))
    logs = np.broadcast_to(np.asarray(log_scale_init, dtype=float), lams.shape)
    if not np.all(np.any(z0, axis=1)):
        raise ValueError("z_init must be nonzero")
    lam_list = lams.tolist()
    coeffs = family.coeffs
    entries = coupling.entries if coupling is not None else None
    used = [0]

    def rhs_in_x(x, y):
        # fail fast on near-blowup trajectories instead of letting the step
        # control chase the spike indefinitely
        used[0] += 1
        if used[0] > _EVAL_BUDGET:
            raise IntegrationError("integration work budget exceeded "
                                   "(near-blowup trajectory)", x)
        p11, p12, p22 = coeffs(x)
        ys = y.tolist()
        dy = []
        for i, lam in enumerate(lam_list):
            u, v, mu = ys[4 * i:4 * i + 3]
            m11, m12, m22 = lam - p11, -p12, lam - p22
            if entries is not None:
                # clamped so that trial stages overshooting the overflow
                # bound cannot push the coupling argument into inf/nan
                scale = 0.0 if mu <= -700.0 else math.exp(min(mu, 150.0))
                s11, s12, s22 = entries(x, scale * u, scale * v)
                m11, m12, m22 = m11 + s11, m12 + s12, m22 + s22
            a1 = -m12 * u - m22 * v
            a2 = m11 * u + m12 * v
            n2 = u * u + v * v
            rho = (u * a1 + v * a2) / n2
            dy += (a1 - rho * u, a2 - rho * v, rho, (u * a2 - v * a1) / n2)
        return dy

    events = None
    if coupling is not None:
        def overflow(s, y):
            ys = y.tolist()
            return max(mu + 0.5 * math.log(u * u + v * v)
                       for u, v, mu in zip(ys[0::4], ys[1::4], ys[2::4])) \
                - _OVERFLOW_LOG
        overflow.terminal = True
        events = [overflow]

    y0 = []
    for (z1, z2), ls in zip(z0.tolist(), logs.tolist()):
        n0 = math.hypot(z1, z2)
        y0 += (z1 / n0, z2 / n0, ls + math.log(n0), math.atan2(z2, z1))
    pieces, stats, x_event, y_end = _run_segments(
        rhs_in_x, y0, _segments(window, family.beta, direction, x_stop),
        rtol * scale, atol * scale, events, dense=dense)
    if x_event is not None:
        raise OverflowAbort(
            "amplitude exceeded the representable range; shrink the "
            "window or the shooting scales", x_event)
    return CartesianTrajectory(window=window, stats=stats,
                               end=y_end.reshape(lams.size, 4),
                               _pieces=pieces)


# ---------------------------------------------------------------------------
# Residual check
# ---------------------------------------------------------------------------

def ode_residual(trajectory: PruferTrajectory, family: CoefficientFamily,
                 lam: float, sample_count: int) -> float:
    """Max relative defect of the reconstructed solution in the raw system.

    Rebuilds z from the polar data at log-spaced interior samples, forms the
    derivative by fourth-order central differences of the dense output, and
    compares against J^{-1}(lam Id - P) z.  Amplitudes are measured relative
    to the sample point, so the reconstruction never overflows.
    """
    if sample_count <= 0:
        return 0.0
    lo = min(trajectory.x_start, trajectory.x_end)
    hi = max(trajectory.x_start, trajectory.x_end)
    xs = np.logspace(math.log10(lo) + 0.02 * (math.log10(hi) - math.log10(lo)),
                     math.log10(hi) - 0.02 * (math.log10(hi) - math.log10(lo)),
                     sample_count)
    worst = 0.0
    for x in xs:
        # relative step near the singular end, absolute cap where the
        # solution scale is exponential in x
        h = min(1e-3 * x, 0.05)
        th0, lr0 = trajectory._eval(x)

        def zval(xx):
            th, lr = trajectory._eval(xx)
            r = math.exp(lr - lr0)
            return np.array([r * math.cos(th), r * math.sin(th)])

        zm2, zm1, zp1, zp2 = zval(x - 2 * h), zval(x - h), zval(x + h), zval(x + 2 * h)
        dz = (zm2 - 8.0 * zm1 + 8.0 * zp1 - zp2) / (12.0 * h)
        z = zval(x)
        p11, p12, p22 = family.coeffs(x)
        rhs = np.array([p12 * z[0] - (lam - p22) * z[1],
                        (lam - p11) * z[0] - p12 * z[1]])
        denom = max(np.linalg.norm(dz), np.linalg.norm(rhs), 1e-300)
        worst = max(worst, float(np.linalg.norm(dz - rhs)) / denom)
    return worst
