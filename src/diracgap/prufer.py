"""Angle/amplitude and raw Cartesian integration of the planar system.

In polar coordinates u = rho cos(theta), v = rho sin(theta) the system
J z' + P(x) z = lam z decouples into

    theta'   = (lam - p11) cos^2 - 2 p12 cos sin + (lam - p22) sin^2
    logrho'  = p12 (cos^2 - sin^2) + (p22 - p11) sin cos

The winding count is exact on every path: a dense run integrates the angle
as an ODE component, and a lane run sums the atan2 increments of steps that
turn the solution by less than pi.  Near the origin the coefficients blow up
like x^-beta.  Every run, DOP853 or Magnus, in either direction, takes one
chart s: x^(1-beta) below x = 1 when beta > 1, log x elsewhere.  In s the
flow is asymptotically autonomous at the origin, and above 1 a step in s
spans a length of x proportional to x, as the step a run needs grows.

The Cartesian path integrates z' = J^{-1}(lam Id - P + S) z in the exactly
scaled variables z = e^mu w, with w kept at unit size and mu carrying the log
of the true amplitude, and carries the polar angle of w as a fourth
component; it serves as an independent cross-check of the polar formulation
(w is integrated in components, and its angle rate is formed from them) and
as the engine for the nonlinear shooting solver.  Both integrators
return one Trajectory type, whose state(x) reads the dense state row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .asymptotics import TruncationWindow, contraction_samples
from .model import CoefficientFamily, NonlinearCoupling, polar_rates

DEFAULT_RTOL = 1e-10
_OVERFLOW_LOG = 100.0 * math.log(10.0)     # abort bound for coupled runs
_EVAL_BUDGET = 150_000                     # lane RHS calls per Cartesian run


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


_LOG = _Chart(math.log, math.exp, math.exp)


def _origin_chart(beta: float) -> _Chart:
    """The chart below x = 1: log x for beta = 1, else s = x^(1-beta),
    decreasing in x."""
    if beta == 1.0:
        return _LOG

    def to_x(s):
        return s ** (1.0 / (1.0 - beta))

    return _Chart(lambda x: x ** (1.0 - beta), to_x,
                  lambda s: to_x(s) ** beta / (1.0 - beta))


def _segments(window: TruncationWindow, beta: float, direction: str,
              x_stop: Optional[float]) -> list:
    """Ordered (chart, x_from, x_to) pieces covering the requested span:
    _origin_chart below x = 1, log x above; ``direction`` only orders them."""
    if direction == "forward":
        a, b = window.x_zero, window.x_inf if x_stop is None else x_stop
    elif direction == "backward":
        a, b = window.x_inf, window.x_zero if x_stop is None else x_stop
    else:
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    lo, hi = sorted((a, b))
    if not window.x_zero <= lo < hi <= window.x_inf:
        raise ValueError("integration span must be a nontrivial part of the window")
    origin = _origin_chart(beta)
    cut = lo if origin is _LOG else min(max(lo, 1.0), hi)
    pieces = [p for p in ((origin, lo, cut), (_LOG, cut, hi)) if p[1] < p[2]]
    if direction == "backward":
        pieces = [(c, x1, x0) for (c, x0, x1) in reversed(pieces)]
    return pieces


@dataclass
class IntegratorStats:
    """Steps, RHS calls and rtol of one run (Magnus lanes: mesh rows and P
    draws; Cartesian lanes: the scaled rtol, _run_segments)."""

    steps: int
    nfev: int
    rtol: float


@dataclass
class Trajectory:
    """One run of either integrator over (part of) a window.

    ``end`` holds the solver's final state, one row per lane, and
    ``state(x)`` the dense state row at any x in the run of a float lam:
    (theta, log rho) from integrate_prufer, (u, v, mu, theta) from
    integrate_cartesian.  A lane run has no interior values.  Immutable
    after construction (fields are never reassigned), so instances can be
    shared across threads.
    """

    stats: IntegratorStats
    end: np.ndarray = field(repr=False)
    _pieces: list = field(repr=False)     # (chart, dense output, x_lo, x_hi)

    def state(self, x) -> tuple:
        """The state row at x, read in the first piece (in integration
        order) that holds x with 1e-12 relative slack, or else in the one
        whose end lies within 1e-9 relative of x, at x clamped into it: a
        tuple of floats for a float x, for an array of n points an array of
        shape (components, n), each piece's interpolant called once."""
        if self._pieces[0][1] is None:
            raise ValueError("an endpoint-only lane run has no interior "
                             "values; integrate a float lam for dense output")
        xs = np.asarray(x, dtype=float).reshape(-1)
        lo, hi = np.array([p[2:] for p in self._pieces]).T[..., None]
        gap = np.maximum(0.0, np.maximum(lo - 1e-300 - xs,
                                         xs - hi * (1.0 + 1e-12) - 1e-300))
        far = gap.min(axis=0) > 1e-9 * np.maximum(1.0, abs(xs))
        if far.any():
            raise ValueError(f"x = {xs[far][0]:g} outside the integrated span")
        rows, which = np.empty((len(self.end[0]), xs.size)), gap.argmin(0)
        for i, (chart, sol, x_lo, x_hi) in enumerate(self._pieces):
            if (which == i).any():
                rows[:, which == i] = sol([chart.to_s(v) for v in np.clip(
                    xs[which == i], x_lo, x_hi).tolist()])
        return tuple(rows[:, 0].tolist()) if np.ndim(x) == 0 else rows


def _run_segments(rhs_in_x: Callable, y0, segments: list, rtol: float,
                  scale: float = 1.0, events: Optional[list] = None,
                  dense: bool = True) -> tuple:
    """Integrate over ordered chart segments with DOP853 at rtol * scale
    and atol = (rtol / 100) * scale, the one tolerance rule of every dense
    and Cartesian run; scale is sqrt(1/L) for L lanes, applied after the
    division, so that at the default rtol atol is 1e-12 * scale to the bit.

    Returns (pieces, stats, x_event, y_end): x_event is the x at which a
    terminal event stopped the run, or None when the whole span was covered,
    and y_end the solver's final state.  Without ``dense`` the pieces carry no
    interpolant (scipy's step sequence is the same either way).
    """
    from scipy.integrate import solve_ivp
    rtol, atol = rtol * scale, rtol / 100.0 * scale
    pieces = []
    y = np.array(y0, dtype=float)
    nfev = 0
    steps = 0
    x_event = None
    for chart, x_from, x_to in segments:

        def rhs(s, yy, _c=chart):
            j = _c.dx_ds(s)
            return [d * j for d in rhs_in_x(_c.to_x(s), yy)]

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
        pieces.append((chart, res.sol, min(x_from, x_to), max(x_from, x_to)))
    stats = IntegratorStats(steps=steps, nfev=nfev, rtol=rtol)
    return pieces, stats, x_event, y


# ---------------------------------------------------------------------------
# Angle/log-amplitude integration
# ---------------------------------------------------------------------------

def integrate_prufer(
    family: CoefficientFamily,
    lam,
    window: TruncationWindow,
    theta_init,
    direction: str = "forward",
    *,
    rtol: float = DEFAULT_RTOL,
    x_start=None,
    x_stop: Optional[float] = None,
    samples: Optional["WindowSamples"] = None,
) -> Trajectory:
    """Integrate the angle across the window.

    ``direction`` chooses the starting end, ``x_start`` moves the start off
    it and ``x_stop`` truncates the run at an interior point (the matched
    halves).  A float lam integrates (theta, log rho), log rho starting at
    0, with adaptive DOP853 and keeps its dense output.  An array is theta
    lanes from theta_init and x_start (shared, or one per lane) on Magnus
    mesh n = ceil(16 (1e-10/rtol)^(1/6)) of ``samples`` (a new
    WindowSamples if None): the spans share x_stop, so one slice of the
    mesh plus end rows holds all their rows; each lane turns across its own
    in a float loop (_turn), so no lane depends on another; stats then has
    the rows as steps and the draws as nfev.
    """
    if not np.all(np.isfinite(theta_init)):
        raise ValueError("theta_init must be finite")
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    d = 1 if direction == "forward" else -1
    ends = (window.x_zero, window.x_inf)[::d]
    if np.ndim(lam) == 0:
        if x_start is not None:
            window = replace(window, **{"x_inf" if d < 0 else "x_zero": x_start})
        pieces, stats, _, y_end = _run_segments(
            lambda x, y: polar_rates(*family.coeffs(x), lam, y[0]),
            (theta_init, 0.0),
            _segments(window, family.beta, direction, x_stop), rtol)
        return Trajectory(stats, y_end.reshape(1, -1), pieces)

    lams = np.asarray(lam, dtype=float).reshape(-1)
    if lams.size == 0:
        raise ValueError("lam is an empty array; give at least one value")
    samples = samples or WindowSamples(family, window)
    starts, span = np.unique(np.broadcast_to(
        ends[0] if x_start is None else x_start, lams.shape), return_inverse=True)
    los, his = (starts, np.full(starts.shape, ends[1] if x_stop is None
                                else x_stop))[::d]
    if not window.x_zero <= los[0] <= los[-1] < his[0] <= his[-1] <= window.x_inf:
        raise ValueError("integration span must be a nontrivial part of the window")
    drawn, (rows, cols) = samples.drawn, samples.table(window.x_zero, math.ceil(
        16.0 * (1e-10 / rtol) ** (1.0 / 6.0)), los.tolist(), his.tolist())
    omega = d * _magnus(rows, lams)
    thetas = [_turn(theta, *omega[:, lane, cols[u][::d]].tolist())
              for lane, (theta, u) in enumerate(zip(np.broadcast_to(
                  theta_init, lams.shape).tolist(), span.tolist()))]
    return Trajectory(IntegratorStats(len(rows), samples.drawn - drawn, rtol),
                      np.array(thetas).reshape(-1, 1),
                      [(None, None, los[0].item(), his[-1].item())])


_GAUSS = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)


class WindowSamples:
    """P(x) sampled once per window, for every lane run on it.

    ``contraction`` is the window's contraction_samples, drawn when first
    read.  Magnus mesh n depends on x_zero and n alone: nodes uniform in x^p
    up to 1 (2n per unit of log x at 1; p = 1/2 in the log chart, 1/8 in the
    x^(1-beta) one, where a step's error grows toward 0), then steps
    min(x/(2n), sqrt(x)/n, 8/n), the cap bounding a far step's error, which
    grows like h^7 |P'|.  A row samples an interval once in the runs' chart
    s (_origin_chart up to 1, log x above): h, its length in s, and (j,
    j p11, j p12, j p22), j = dx/ds, at its Gauss-Legendre points; ``drawn``
    counts them.  A mesh is a node array to the furthest span end yet asked
    for and a row array, NaN where not drawn; only the end rows of spans
    ending off a node are kept by (x_lo, x_hi).  Nothing is kept beyond the
    object.
    """

    def __init__(self, family: CoefficientFamily, window: TruncationWindow):
        self.family, self._window, self.drawn = family, window, 0
        self._meshes, self._ends = {}, {}
        self._origin = _origin_chart(family.beta)

    @functools.cached_property
    def contraction(self) -> np.ndarray:
        return contraction_samples(self.family, self._window)

    def table(self, x_zero: float, n: int, los: list, his: list) -> tuple:
        """(rows, cols) of spans [los[i], his[i]] nested about one shared
        end on mesh (x_zero, n): the mesh slice they cross, its undrawn rows
        drawn in one batch, then their end rows; cols[i] indexes span i's."""
        nodes, rows = self._mesh(x_zero, n, max(his))
        first = np.searchsorted(nodes, los).tolist()            # node >= lo
        last = (np.searchsorted(nodes, his, "right") - 1).tolist()  # <= hi
        k0, k1 = min(first), max(min(first), *last)
        todo = k0 + np.flatnonzero(np.isnan(rows[k0:k1, 0]))
        rows[todo] = np.reshape([self._draw(*e) for e in zip(
            nodes[todo].tolist(), nodes[todo + 1].tolist())], (-1, 13))
        ends, cols = {}, []
        for lo, hi, a, b in zip(los, his, first, last):
            x0, x1 = nodes[[a, b]].tolist() if a <= b else (hi, hi)
            head, tail = ([ends.setdefault(e, k1 - k0 + len(ends))]
                          if e[0] < e[1] else [] for e in ((lo, x0), (x1, hi)))
            cols.append(np.concatenate((head, np.arange(a, max(a, b)) - k0,
                                        tail)).astype(int))
        for e in ends.keys() - self._ends.keys():
            self._ends[e] = self._draw(*e)
        return np.concatenate((rows[k0:k1], np.reshape(
            [self._ends[e] for e in ends], (-1, 13)))), cols

    def _mesh(self, x_zero: float, n: int, x_hi: float) -> tuple:
        nodes, rows = self._meshes.get((x_zero, n), (np.array([x_zero]),
                                                     np.empty((0, 13))))
        if nodes[-1] < x_hi:
            p = 0.5 if self._origin is _LOG else 0.125
            t0 = x_zero ** p
            m = math.ceil(2 * n * (1.0 - t0) / p) if x_zero < 1.0 else 0
            new = [nodes[-1].item()]
            while new[-1] < x_hi:
                i, x = nodes.size + len(new) - 1, new[-1]
                new.append((t0 + (1.0 - t0) * i / m) ** (1.0 / p) if i < m
                           else 1.0 if i == m
                           else x + min(x / (2 * n), math.sqrt(x) / n, 8.0 / n))
            nodes = np.append(nodes, new[1:])
            rows = np.append(rows, np.full((len(new) - 1, 13), np.nan), axis=0)
            self._meshes[x_zero, n] = nodes, rows
        return nodes, rows

    def _draw(self, x_lo: float, x_hi: float) -> list:
        chart = self._origin if x_hi <= 1.0 else _LOG
        s, h = chart.to_s(x_lo), chart.to_s(x_hi) - chart.to_s(x_lo)
        self.drawn += 3
        row = [h]
        for g in _GAUSS:
            j = chart.dx_ds(s + g * h)
            p11, p12, p22 = self.family.coeffs(chart.to_x(s + g * h))
            row += (j, j * p11, j * p12, j * p22)
        return row


def _magnus(rows: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Sixth-order Magnus exponents (Blanes, Casas & Ros 2000) of A = j [[p12,
    p22 - lam], [lam - p11, -p12]], as (a, b, c) = [[a, b], [c, -a]] of shape
    (3, lanes, intervals)."""
    def bracket(x, y):
        return np.array((x[1] * y[2] - y[1] * x[2],
                         2.0 * (x[0] * y[1] - y[0] * x[1]),
                         2.0 * (y[0] * x[2] - x[0] * y[2])))

    lam, h = np.reshape(lams, (-1, 1)), rows[:, 0]
    a1, a2, a3 = (np.array(np.broadcast_arrays(jp12, jp22 - lam * j,
                                               lam * j - jp11))
                  for j, jp11, jp12, jp22 in rows[:, 1:].reshape(-1, 3, 4)
                  .transpose(1, 2, 0))
    alpha1 = h * a2
    alpha2 = (math.sqrt(15.0) / 3.0) * h * (a3 - a1)
    alpha3 = (10.0 / 3.0) * h * (a3 - 2.0 * a2 + a1)
    c1 = bracket(alpha1, alpha2)
    c2 = bracket(alpha1, 2.0 * alpha3 + c1) / -60.0
    return alpha1 + alpha3 / 12.0 \
        + bracket(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0


def _turn(theta: float, a: list, b: list, c: list) -> float:
    """theta across the steps exp(Omega), Omega = [[a, b], [c, -a]], by the
    atan2 increments between unit vectors; exp(Omega) over cosh(r), so as not
    to overflow, is Id + tanh(r)/r Omega, r^2 = a^2 + bc (cos, sin if < 0)."""
    u, v = math.cos(theta), math.sin(theta)
    for a, b, c in zip(a, b, c):
        q = a * a + b * c
        r = math.sqrt(abs(q))
        ch, sh = (((1.0, math.tanh(r) / r) if q > 0.0 else
                   (math.cos(r), math.sin(r) / r)) if r else (1.0, 1.0))
        u2 = (ch + sh * a) * u + sh * b * v
        v2 = sh * c * u + (ch - sh * a) * v
        theta += math.atan2(u * v2 - v * u2, u * u2 + v * v2)
        r = math.hypot(u2, v2)
        u, v = u2 / r, v2 / r
    return theta


# ---------------------------------------------------------------------------
# Cartesian integration in scaled variables
# ---------------------------------------------------------------------------

def integrate_cartesian(
    family: CoefficientFamily,
    lam,
    window: TruncationWindow,
    z_init,
    direction: str = "forward",
    *,
    coupling: Optional[NonlinearCoupling] = None,
    rtol: float = DEFAULT_RTOL,
    x_stop: Optional[float] = None,
    log_scale_init=0.0,
) -> Trajectory:
    """Integrate z' = J^{-1}(lam Id - P + S) z as z = e^mu w, where

        w' = A(x, e^mu w) w - rho w,   mu' = rho,   rho = <w, A w> / <w, w>,

    an exact reformulation that keeps w of unit size over arbitrarily many
    amplitude decades while mu carries the true amplitude; the run starts at
    e^log_scale_init * z_init.  The polar angle of w is integrated alongside,
    theta' = (u (Aw)_2 - v (Aw)_1) / <w, w> (the rho terms cancel), from the
    angle of z_init.  S is zero without a ``coupling``; with one it is
    evaluated at the true z, and the run aborts with OverflowAbort when the
    true amplitude of any lane leaves the representable range.  A run that
    exhausts the evaluation budget of 150,000 lane RHS evaluations (a
    near-blowup trajectory; an L-lane RHS call counts L) raises
    IntegrationError.

    A float lam is one dense run.  An array of L lam is L endpoint-only
    lanes on one DOP853 step sequence, its tolerances scaled by sqrt(1/L)
    since its error norm is an RMS over components, against which z_init
    (shape (2,) or (L, 2)) and log_scale_init broadcast: one ``coeffs(x)``
    call per RHS evaluation serves every lane, ``coupling.entries`` is
    called once per lane, and each lane's arithmetic is that of a float
    run.
    """
    dense = np.ndim(lam) == 0
    lams = np.atleast_1d(np.asarray(lam, dtype=float)).reshape(-1)
    scale = 1.0 if dense else math.sqrt(1.0 / lams.size)
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
        # control chase the spike indefinitely; each lane counts
        used[0] += len(lam_list)
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
        rtol, scale, events, dense=dense)
    if x_event is not None:
        raise OverflowAbort(
            "amplitude exceeded the representable range; shrink the "
            "window or the shooting scales", x_event)
    return Trajectory(stats, y_end.reshape(lams.size, 4), pieces)
