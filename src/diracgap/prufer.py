"""Angle/amplitude and raw Cartesian integration of the planar system.

J z' + P(x) z = lam z is integrated two ways.  integrate_prufer carries the
angle theta and log amplitude log rho of z = rho (cos theta, sin theta) on
sixth-order Magnus steps over the meshes of WindowSamples; the winding count
is exact, since each step turns the solution by less than pi and adds its
atan2 increment.  Near the origin the coefficients blow up like x^-beta.
Every run, Magnus or DOP853, in either direction, takes one chart s:
x^(1-beta) below x = 1 when beta > 1, log x elsewhere.  In s the flow is
asymptotically autonomous at the origin, and above 1 a step in s spans a
length of x proportional to x, as the step a run needs grows.

The Cartesian path integrates z' = J^{-1}(lam Id - P + S) z with DOP853,
the package's own loop with scipy's steps to the bit, in the exactly scaled
variables z = e^mu w, w kept at unit size and mu carrying the log of the
true amplitude, and carries the polar angle of w as a fourth component; it
serves as an independent cross-check of the angle (w is integrated in
components, and its angle rate is formed from them) and as the engine for
the nonlinear shooting solver.  Both integrators return one Trajectory
type, whose state(x) reads the dense state row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .asymptotics import TruncationWindow, contraction_samples
from .model import CoefficientFamily, NonlinearCoupling

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
_NPLOG = _Chart(np.log, np.exp, np.exp)       # _LOG on arrays


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
    draws; Cartesian runs: scipy's counts, the scaled rtol, _run_segments)."""

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
    _pieces: list = field(repr=False)     # (chart, read(x array), x_lo, x_hi)

    def state(self, x) -> tuple:
        """The state row at x, read in the first piece (in integration
        order) that holds x with 1e-12 relative slack, or else in the one
        whose end lies within 1e-9 relative of x, at x clamped into it: a
        tuple of floats for a float x, for an array of n points an array of
        shape (components, n), each piece's reader called once."""
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
        for i, (_, read, x_lo, x_hi) in enumerate(self._pieces):
            if (which == i).any():
                rows[:, which == i] = read(np.clip(xs[which == i], x_lo, x_hi))
        return tuple(rows[:, 0].tolist()) if np.ndim(x) == 0 else rows


def _run_segments(rhs_in_x: Callable, y0, segments: list, rtol: float,
                  scale: float = 1.0, check: Optional[Callable] = None,
                  dense: bool = True) -> tuple:
    """Integrate y' = rhs_in_x(x, j, y), j = dx/ds, over ordered chart
    segments with _dop853 at rtol * scale (at least 100 eps, as in scipy)
    and atol = (rtol / 100) * scale, the one tolerance rule of every
    Cartesian run (scale is sqrt(1/L) for L lanes, applied after the
    division); check(x, y) runs at every accepted step's end.  Returns
    (pieces, stats, y_end), a piece's reader reading its steps' dense
    output on an x array (None without ``dense``).  A step below 10 ulp
    raises IntegrationError at the last x reached."""
    rtol, atol = rtol * scale, rtol / 100.0 * scale
    pieces, y, nfev, steps = [], np.array(y0, dtype=float), 0, 0
    for chart, x_from, x_to in segments:

        def fun(s, yy, _c=chart):
            nonlocal nfev
            nfev += 1
            x = math.exp(s) if _c is _LOG else _c.to_x(s)
            return rhs_in_x(x, x if _c is _LOG else _c.dx_ds(s), yy)

        s, s_end = chart.to_s(x_from), chart.to_s(x_to)
        ts, y_olds, fs = [s], [], []
        for s, y, y_old, f in _dop853(fun, s, s_end, y, max(
                rtol, 100 * np.finfo(float).eps), atol, dense):
            ts.append(s)
            if dense:
                y_olds.append(y_old), fs.append(f)
            if check is not None:
                check(chart.to_x(s), y)
        if s != s_end:
            raise IntegrationError("required step size is less than the "
                                   "spacing between numbers", chart.to_x(s))
        steps += len(ts) - 1
        read = functools.partial(_read_dense, chart, np.array(ts), np.array(
            y_olds), np.array(fs)) if dense else None
        pieces.append((chart, read, min(x_from, x_to), max(x_from, x_to)))
    return pieces, IntegratorStats(steps=steps, nfev=nfev, rtol=rtol), y


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10) as scipy 1.17
# tabulates it, shortest round-trip literals: A's rows 1-15 below the
# diagonal, C, E3, E5 and D's four rows; B is A[12, :12].
_TABLEAU = [float(v) for v in """\
.05260015195876773 .0197250569845379 .0591751709536137 .02958758547680685 0
.08876275643042054 .2413651341592667 0 -.8845494793282861 .924834003261792
.037037037037037035 0 0 .17082860872947386 .12546768756682242 .037109375 0 0
.17025221101954405 .06021653898045596 -.017578125 .03709200011850479 0 0
.17038392571223998 .10726203044637328 -.015319437748624402 .008273789163814023
.6241109587160757 0 0 -3.3608926294469414 -.868219346841726 27.59209969944671
20.154067550477894 -43.48988418106996 .47766253643826434 0 0
-2.4881146199716677 -.590290826836843 21.230051448181193 15.279233632882423
-33.28821096898486 -.020331201708508627 -.9371424300859873 0 0
5.186372428844064 1.0914373489967295 -8.149787010746927 -18.52006565999696
22.739487099350505 2.4936055526796523 -3.0467644718982196 2.273310147516538 0 0
-10.53449546673725 -2.0008720582248625 -17.9589318631188 27.94888452941996
-2.8589982771350235 -8.87285693353063 12.360567175794303 .6433927460157636
.054293734116568765 0 0 0 0 4.450312892752409 1.8915178993145003
-5.801203960010585 .3111643669578199 -.1521609496625161 .20136540080403034
.04471061572777259 .056167502283047954 0 0 0 0 0 .25350021021662483
-.2462390374708025 -.12419142326381637 .15329179827876568 .00820105229563469
.007567897660545699 -.008298 .03183464816350214 0 0 0 0 .028300909672366776
.053541988307438566 -.05492374857139099 0 0 -.00010834732869724932
.0003825710908356584 -.00034046500868740456 .1413124436746325
-.42889630158379194 0 0 0 0 -4.697621415361164 7.683421196062599
4.06898981839711 .3567271874552811 0 0 0 -.0013990241651590145
2.9475147891527724 -9.15095847217987 0 .05260015195876773 .0789002279381516
.1183503419072274 .2816496580927726 .3333333333333333 .25 .3076923076923077
.6512820512820513 .6 .8571428571428571 1 1 .1 .2 .7777777777777778
-.18980075407240762 0 0 0 0 4.450312892752409 1.8915178993145003
-5.801203960010585 -.4226823213237919 -.1521609496625161 .20136540080403034
.02265179219836082 0 .01312004499419488 0 0 0 0 -1.2251564463762044
-.4957589496572502 1.6643771824549864 -.35032884874997366 .3341791187130175
.08192320648511571 -.022355307863886294 0 -8.428938276109013 0 0 0 0
.5667149535193777 -3.0689499459498917 2.38466765651207 2.117034582445028
-.871391583777973 2.2404374302607883 .6315787787694688 -.08899033645133331
18.148505520854727 -9.194632392478356 -4.436036387594894 10.427508642579134 0 0
0 0 242.28349177525817 165.20045171727028 -374.5467547226902
-22.113666853125306 7.733432668472264 -30.674084731089398 -9.332130526430229
15.697238121770845 -31.139403219565178 -9.35292435884448 35.81684148639408
19.985053242002433 0 0 0 0 -387.0373087493518 -189.17813819516758
527.8081592054236 -11.57390253995963 6.8812326946963 -1.0006050966910838
.7777137798053443 -2.778205752353508 -60.19669523126412 84.32040550667716
11.99229113618279 -25.69393346270375 0 0 0 0 -154.18974869023643
-231.5293791760455 357.6391179106141 93.40532418362432 -37.45832313645163
104.0996495089623 29.8402934266605 -43.53345659001114 96.32455395918828
-39.17726167561544 -149.72683625798564""".split()]
_A = np.zeros((16, 16))
_A[np.tril_indices(16, -1)] = _TABLEAU[:120]
_C, _E3, _E5, _D = np.split(np.array(_TABLEAU[120:]), [16, 29, 42])
_B, _D = _A[12, :12], _D.reshape(4, 16)


def _dop853(fun: Callable, s: float, s_end: float, y: np.ndarray,
            rtol: float, atol: float, dense: bool):
    """Step y' = fun(s, y) (a list) toward s_end with DOP853 as scipy 1.17's
    solve_ivp does, operation for operation: select_initial_step, the stage
    sums, the err5/err3 norm, the controller (safety 0.9, factors 0.2 and
    10, no growth after a rejection) and the dense output's extra stages.
    Yields (s, y, y_old, F) at each accepted step, F the 7 rows of its
    interpolant (None without ``dense``); stops below a step of 10 ulp."""
    if not np.isfinite(y).all():
        raise ValueError("all components of the initial state must be finite")
    direction = 1.0 if s_end > s else -1.0
    K, F = np.empty((16, y.size)), None
    K[0] = fun(s, y)
    # stage i: its c, the stages before it as columns and its row of A
    stages = [(c, K[:i].T, _A[i, :i]) for i, c in enumerate(_C.tolist())]
    scale, n = atol + np.abs(y) * rtol, y.size ** 0.5
    d0, d1 = (np.linalg.norm(v / scale) / n for v in (y, K[0]))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1,
             abs(s_end - s))
    f1 = fun(s + h0 * direction, y + h0 * direction * K[0])
    d2 = np.linalg.norm((f1 - K[0]) / scale) / n / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 \
        else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, abs(s_end - s))
    while s != s_end:
        min_step = 10 * abs(math.nextafter(s, direction * math.inf) - s)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                return
            s_new = s + h_abs * direction
            s_new = s_end if direction * (s_new - s_end) > 0 else s_new
            h, h_abs = s_new - s, abs(s_new - s)
            for i, (c, k, a) in enumerate(stages[1:12], 1):
                K[i] = fun(s + c * h, y + np.dot(k, a) * h)
            y_new = y + h * np.dot(K[:12].T, _B)
            K[12] = fun(s + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5, e3 = (math.sqrt(e.dot(e)) ** 2 for e in (
                np.dot(K[:13].T, b) / scale for b in (_E5, _E3)))
            error = 0.0 if e5 == 0 and e3 == 0 else \
                abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * y.size)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs, rejected = h_abs * max(0.2, 0.9 * error ** -0.125), True
        if dense:
            for i, (c, k, a) in enumerate(stages[13:], 13):
                K[i] = fun(s + c * h, y + np.dot(k, a) * h)
            dy = y_new - y
            F = np.vstack((dy, h * K[0] - dy, 2 * dy - h * (K[12] + K[0]),
                           h * np.dot(_D, K)))
        K[0] = K[12]
        s, y, y_old = s_new, y_new, y
        yield s, y, y_old, F


def _read_dense(chart: _Chart, ts: np.ndarray, y_old: np.ndarray,
                F: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The states (components, len(xs)) at xs of a _dop853 run with step
    ends ts, read as scipy's OdeSolution and Dop853DenseOutput read them."""
    s = np.array([chart.to_s(v) for v in xs.tolist()])
    d = 1.0 if ts[-1] >= ts[0] else -1.0
    k = np.clip(np.searchsorted(d * ts, d * s) - 1, 0, len(ts) - 2)
    x = ((s - ts[k]) / (ts[k + 1] - ts[k]))[:, None]
    y = np.zeros((s.size, F.shape[2]))
    for i in range(7):
        y += F[k, 6 - i]
        y *= x if i % 2 == 0 else 1 - x
    return (y + y_old[k]).T


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
    """Integrate the angle across the window on Magnus lanes.

    ``direction`` chooses the starting end, ``x_start`` moves the start off
    it and ``x_stop`` truncates the run at an interior point (the matched
    halves).  Each lam is a theta lane from theta_init and x_start (shared,
    or one per lane) on Magnus mesh n = ceil(16 (1e-10/rtol)^(1/6)) of
    ``samples`` (a new WindowSamples if None): the spans share x_stop, so
    one slice of the mesh plus end rows holds all their rows; each lane
    turns across its own in a float loop (_turn), so no lane depends on
    another; stats has the rows as steps and the draws as nfev.  An array
    lam is endpoint-only.  A float lam is one lane, below x = 1 on the mesh
    of rtol / 100 (rtol's reads 1e-7 off near the origin), that ends on
    (theta, log rho), log rho summed from 0 over its steps; state(x) takes
    one partial Magnus step to each x from the node before it in run order.
    """
    if not np.all(np.isfinite(theta_init)):
        raise ValueError("theta_init must be finite")
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    d = 1 if direction == "forward" else -1
    ends = (window.x_zero, window.x_inf)[::d]
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
    n, n_origin = (math.ceil(16.0 * (1e-10 / r) ** (1.0 / 6.0))
                   for r in (rtol, rtol / 100.0))
    drawn, (lo, hi) = samples.drawn, (los[0].item(), his[0].item())
    if np.ndim(lam):
        rows, cols = samples.table(window.x_zero, n, los.tolist(), his.tolist())
    else:
        cut = min(max(lo, 1.0), hi)
        nodes, rows = (np.concatenate(part) for part in zip(*(
            samples.span(window.x_zero, m, x0, x1) for m, x0, x1 in (
                (n_origin, lo, cut), (n, cut, hi)) if x0 < x1)))
        nodes, cols = np.unique(nodes), [np.arange(len(rows))]
    omega = d * _magnus(rows, lams)
    steps = _steps(omega)
    thetas = [_turn(theta, *steps[:, lane, cols[u][::d]].tolist())
              for lane, (theta, u) in enumerate(zip(np.broadcast_to(
                  theta_init, lams.shape).tolist(), span.tolist()))]
    stats = IntegratorStats(len(rows), samples.drawn - drawn, rtol)
    if np.ndim(lam):
        return Trajectory(stats, np.array([t[-1:] for t in thetas]),
                          [(None, None, lo, his[-1].item())])
    theta, omega = np.array(thetas[0]), omega[:, 0, ::d]   # in run order
    log_rho = np.cumsum(np.append(0.0, _advance(omega, theta[:-1])[1]))
    at = theta[::d], log_rho[::d]                           # in x order

    def read(xs):
        k = np.searchsorted(nodes, xs, "right" if d > 0 else "left") - (d > 0)
        step = d * _magnus(samples._draw(*(nodes[k], xs)[::d]), lams)[:, 0]
        return np.add([a[k] for a in at], _advance(step, at[0][k]))

    x_span = replace(window, **{("x_zero", "x_inf")[d < 0]: starts[0].item()})
    return Trajectory(stats, np.array([[theta[-1], log_rho[-1]]]), [
        (chart, read, min(a, b), max(a, b))
        for chart, a, b in _segments(x_span, family.beta, direction, x_stop)])


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
    ending off a node are kept by (x_lo, x_hi).  Rows are drawn with one
    coeffs call per batch.  Nothing is kept beyond the object.
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
        if todo.size:
            rows[todo] = self._draw(nodes[todo], nodes[todo + 1])
        ends, cols = {}, []
        for lo, hi, a, b in zip(los, his, first, last):
            x0, x1 = nodes[[a, b]].tolist() if a <= b else (hi, hi)
            head, tail = ([ends.setdefault(e, k1 - k0 + len(ends))]
                          if e[0] < e[1] else [] for e in ((lo, x0), (x1, hi)))
            cols.append(np.concatenate((head, np.arange(a, max(a, b)) - k0,
                                        tail)).astype(int))
        new = [e for e in ends if e not in self._ends]
        if new:
            self._ends.update(zip(new, self._draw(*np.transpose(new))))
        return np.concatenate((rows[k0:k1], np.reshape(
            [self._ends[e] for e in ends], (-1, 13)))), cols

    def span(self, x_zero: float, n: int, lo: float, hi: float) -> tuple:
        """table's rows of one span [lo, hi], in x order, after its nodes."""
        rows, (cols,) = self.table(x_zero, n, [lo], [hi])
        mesh = self._meshes[x_zero, n][0]
        return np.r_[lo, mesh[(mesh > lo) & (mesh < hi)], hi], rows[cols]

    def _mesh(self, x_zero: float, n: int, x_hi: float) -> tuple:
        nodes, rows = self._meshes.get((x_zero, n), (np.array([x_zero]),
                                                     np.empty((0, 13))))
        if nodes[-1] < x_hi:
            p = 0.5 if self._origin is _LOG else 0.125
            t0 = x_zero ** p
            m = math.ceil(2 * n * (1.0 - t0) / p) if x_zero < 1.0 else 0
            # node i < m in closed form, node m at 1, each further one a step
            # on; from x = 64 on the step is 8/n, and cumsum adds in order
            new = [nodes[-1].item()] + [(t0 + (1.0 - t0) * i / m) ** (1.0 / p)
                   for i in range(nodes.size, m)] + [1.0] * (nodes.size <= m)
            new = new[:np.searchsorted(new, x_hi) + 1]
            while new[-1] < min(x_hi, 64.0):
                new.append(new[-1] + min(new[-1] / (2 * n),
                                         math.sqrt(new[-1]) / n, 8.0 / n))
            far = np.cumsum([new[-1]] + [8.0 / n] * math.ceil(
                (x_hi - new[-1]) * n / 8.0 + 2.0))
            nodes = np.concatenate((nodes, new[1:], far[1:np.searchsorted(
                far, x_hi) + 1]))
            rows = np.append(rows, np.full((nodes.size - 1 - len(rows), 13),
                                           np.nan), axis=0)
            self._meshes[x_zero, n] = nodes, rows
        return nodes, rows

    def _draw(self, x_lo: np.ndarray, x_hi: np.ndarray) -> np.ndarray:
        """The rows of intervals [x_lo, x_hi] (arrays), from one coeffs call;
        each chart reads its own rows only, so exp never sees a power s."""
        h, (xs, js) = np.empty(x_lo.size), np.empty((2, 3, x_lo.size))
        below = _NPLOG if self._origin is _LOG else self._origin
        for chart, mine in ((below, x_hi <= 1.0), (_NPLOG, x_hi > 1.0)):
            s = chart.to_s(x_lo[mine])
            h[mine] = chart.to_s(x_hi[mine]) - s
            sg = s + np.reshape(_GAUSS, (3, 1)) * h[mine]
            xs[:, mine], js[:, mine] = chart.to_x(sg), chart.dx_ds(sg)
        p11, p12, p22 = self.family.coeffs(xs)
        self.drawn += xs.size
        return np.column_stack((h, np.transpose(
            [js, js * p11, js * p12, js * p22]).reshape(-1, 12)))


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


def _steps(omega: np.ndarray) -> np.ndarray:
    """exp(Omega) over cosh(r), so as not to overflow, for every Omega =
    [[a, b], [c, -a]] of omega: Id + tanh(r)/r Omega, r^2 = a^2 + bc (cos,
    sin if < 0), as its entries (m11, m12, m21, m22)."""
    a, b, c = omega
    q = a * a + b * c
    r = np.sqrt(abs(q))
    ch = np.where(q > 0.0, 1.0, np.cos(r))
    sh = np.divide(np.where(q > 0.0, np.tanh(r), np.sin(r)), r,
                   out=np.ones_like(r), where=r > 0.0)
    return np.array((ch + sh * a, sh * b, sh * c, ch - sh * a))


def _turn(theta: float, *steps: list) -> list:
    """theta at every node across the _steps (m11, m12, m21, m22), by the
    atan2 increments between unit vectors."""
    u, v = math.cos(theta), math.sin(theta)
    thetas = [theta]
    for m11, m12, m21, m22 in zip(*steps):
        u2 = m11 * u + m12 * v
        v2 = m21 * u + m22 * v
        theta += math.atan2(u * v2 - v * u2, u * u2 + v * v2)
        thetas.append(theta)
        r = math.hypot(u2, v2)
        u, v = u2 / r, v2 / r
    return thetas


def _advance(omega: np.ndarray, theta: np.ndarray) -> tuple:
    """The (theta, log rho) increments of unit vectors at angles theta
    across exp(Omega), one Omega per theta: the atan2 one, and log |M w|
    for M of _steps plus log cosh r where r^2 > 0."""
    m11, m12, m21, m22 = _steps(omega)
    a, b, c = omega
    u, v = np.cos(theta), np.sin(theta)
    u2, v2 = m11 * u + m12 * v, m21 * u + m22 * v
    r = np.sqrt(np.maximum(a * a + b * c, 0.0))
    return (np.arctan2(u * v2 - v * u2, u * u2 + v * v2), np.log(
        np.hypot(u2, v2)) + np.logaddexp(r, -r) - math.log(2.0))


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
    evaluated at the true z, and the run aborts with OverflowAbort at the
    end of the accepted step where the true amplitude of any lane reaches
    1e100.  A run that exhausts the evaluation budget of 150,000 lane RHS
    evaluations (a near-blowup trajectory; an L-lane RHS call counts L)
    raises IntegrationError.

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

    def rhs_in_x(x, j, y):
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
            dy += ((a1 - rho * u) * j, (a2 - rho * v) * j, rho * j,
                   (u * a2 - v * a1) / n2 * j)
        return dy

    def overflow(x, y):
        ys = y.tolist()
        if max(mu + 0.5 * math.log(u * u + v * v) for u, v, mu in zip(
                ys[0::4], ys[1::4], ys[2::4])) >= _OVERFLOW_LOG:
            raise OverflowAbort("amplitude exceeded the representable range;"
                                " shrink the window or the shooting scales", x)

    y0 = []
    for (z1, z2), ls in zip(z0.tolist(), logs.tolist()):
        n0 = math.hypot(z1, z2)
        y0 += (z1 / n0, z2 / n0, ls + math.log(n0), math.atan2(z2, z1))
    pieces, stats, y_end = _run_segments(
        rhs_in_x, y0, _segments(window, family.beta, direction, x_stop),
        rtol, scale, overflow if coupling is not None else None, dense)
    return Trajectory(stats, y_end.reshape(lams.size, 4), pieces)
