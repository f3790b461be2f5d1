"""Coefficient families for singular planar Dirac systems on the half-line.

The linear operator acts as tau z = J z' + P(x) z on (0, infinity), with J the
standard symplectic matrix and P(x) a continuous symmetric 2x2 matrix.  This
module builds P for the radial Dirac operator (angular number k, anomalous
moment mu_a, and an electrostatic potential given as V and V' with declared
endpoint powers), classifies the singularity at the origin, verifies the
admissibility hypotheses numerically, and constructs the nonlinear
self-couplings S(x, z) used by the bifurcation solver.

Admissibility in short: P(x) tends to diag(mu_minus, mu_plus) at infinity with
an integrable remainder, x^beta P(x) tends to a limit matrix at the origin with
an integrable weighted remainder, and that limit matrix has determinant below
-1/4 (beta = 1) or below 0 (beta > 1).  The determinant condition is what makes
the origin limit point, so that boundary data there is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class MissingDerivativeError(ValueError):
    """The potential cannot supply V' but the construction needs it."""


class CouplingRejectedError(ValueError):
    """Nonlinear coupling fails the envelope boundedness/decay conditions."""


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSpec:
    """Electrostatic potential V, V' and its declared endpoint powers.

    ``v`` evaluates V and ``dv``, when supplied, V'.  The admissibility
    hypotheses are stated in the leading terms V ~ gamma_zero / x^alpha_zero
    near 0 and V ~ gamma_inf / x^alpha_inf near infinity, and in the
    remainder of V beyond its leading term at the origin.
    """

    gamma_zero: float
    alpha_zero: float
    gamma_inf: float
    alpha_inf: float
    v: Callable[[float], float]
    dv: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.alpha_zero <= 0 or self.alpha_inf <= 0:
            raise ValueError("endpoint exponents must be positive")

    def remainder_at_zero(self, x: float) -> float:
        """V(x) - gamma_zero * x**(-alpha_zero), the remainder near the origin."""
        return self.v(x) - self.gamma_zero * x ** (-self.alpha_zero)

    def d_remainder_at_zero(self, x: float) -> float:
        return self.dv(x) + self.alpha_zero * self.gamma_zero * x ** (-self.alpha_zero - 1.0)


def coulomb_potential(gamma: float) -> PotentialSpec:
    """V(x) = gamma / x, with no remainder at either end."""
    return PotentialSpec(gamma, 1.0, gamma, 1.0,
                         v=lambda x: gamma * x ** (-1.0),
                         dv=lambda x: -1.0 * gamma * x ** (-2.0))


def tabulated_potential(
    x: Sequence[float],
    v: Sequence[float],
    gamma_zero: float,
    alpha_zero: float,
    gamma_inf: float,
    alpha_inf: float,
) -> PotentialSpec:
    """Cubic-spline interpolant on a log-x grid with declared endpoint powers.

    Outside the tabulated range the declared leading terms continue the
    potential.  The abscissae must be strictly increasing and positive.  V
    and V' take a float or an array, an element's value the same either way.
    """
    from scipy.interpolate import CubicSpline
    xs = np.asarray(x, dtype=float)
    vs = np.asarray(v, dtype=float)
    if xs.ndim != 1 or xs.shape != vs.shape or xs.size < 4:
        raise ValueError("tabulated potential needs matching 1-d arrays, >= 4 points")
    if np.any(xs <= 0.0) or np.any(np.diff(xs) <= 0.0):
        raise ValueError("tabulated abscissae must be positive and strictly increasing")
    logx = np.log(xs)
    spline = CubicSpline(logx, vs)
    dspline = spline.derivative()
    lo, hi = xs[0], xs[-1]

    def v_eval(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < lo, gamma_zero * t ** (-alpha_zero), np.where(
            t > hi, gamma_inf * t ** (-alpha_inf),
            spline(np.log(np.clip(t, lo, hi)))))[()]

    def dv_eval(t):
        t = np.asarray(t, dtype=float)
        c = np.clip(t, lo, hi)
        return np.where(
            t < lo, -alpha_zero * gamma_zero * t ** (-alpha_zero - 1.0),
            np.where(t > hi, -alpha_inf * gamma_inf * t ** (-alpha_inf - 1.0),
                     dspline(np.log(c)) / c))[()]

    return PotentialSpec(gamma_zero, alpha_zero, gamma_inf, alpha_inf,
                         v_eval, dv_eval)


def tabulated_potential_from_csv(path, gamma_zero, alpha_zero, gamma_inf, alpha_inf):
    """Read a two-column CSV (x, V(x)), skipping blank and '#' lines; only the
    first remaining line may be a header, a later malformed one raises."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [s for s in map(str.strip, fh) if s and not s.startswith("#")]
    rows = []
    for i, line in enumerate(lines):
        parts = line.replace(",", " ").split()
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except (ValueError, IndexError):
            if i:           # only line 0 may be a header
                raise ValueError(f"malformed table row: {line!r}")
    if len(rows) < 4:
        raise ValueError("potential table needs at least 4 rows")
    xs, vs = zip(*rows)
    return tabulated_potential(xs, vs, gamma_zero, alpha_zero, gamma_inf, alpha_inf)


# ---------------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiracRadialParams:
    """Radial Dirac data: angular number k != 0, anomalous moment, potential."""

    k: int
    mu_a: float
    potential: PotentialSpec

    def __post_init__(self):
        if self.k == 0:
            raise ValueError("angular quantum number k must be nonzero")


@dataclass(frozen=True)
class CoefficientFamily:
    """Symmetric coefficient matrix P(x) together with its endpoint data.

    ``coeffs(x)`` returns the triple (p11, p12, p22), so the matrix is
    symmetric by construction; x is a float or an ndarray, and the entries
    broadcast to its shape, so that one call samples a batch of points.
    ``limit_zero`` is the limit of x**beta * P(x) at the origin, and the
    limit at infinity is diag(mu_minus, mu_plus).  Evaluators are pure, so a
    family may be shared read-only across concurrent computations.
    """

    coeffs: Callable[[float], tuple]
    mu_minus: float
    mu_plus: float
    beta: float
    limit_zero: np.ndarray
    q_zero: float = 2.0
    q_inf: float = 2.0
    dirac: Optional[DiracRadialParams] = None

    def __post_init__(self):
        if not self.mu_minus < self.mu_plus:
            raise ValueError("gap edges must satisfy mu_minus < mu_plus")
        if self.beta < 1.0:
            raise ValueError("singularity exponent beta must be >= 1")
        if min(self.q_zero, self.q_inf) < 1.0:
            raise ValueError("integrability exponents must be >= 1")
        object.__setattr__(self, "limit_zero",
                           np.array(self.limit_zero, dtype=float))

    def remainder_zero(self, x: float) -> np.ndarray:
        """x**beta * P(x) - limit_zero."""
        w = x ** self.beta
        p11, p12, p22 = self.coeffs(x)
        l = self.limit_zero
        return np.array([[w * p11 - l[0, 0], w * p12 - l[0, 1]],
                         [w * p12 - l[1, 0], w * p22 - l[1, 1]]])

    def remainder_inf(self, x: float) -> np.ndarray:
        p11, p12, p22 = self.coeffs(x)
        return np.array([[p11 - self.mu_minus, p12], [p12, p22 - self.mu_plus]])

    def remainder_zero_norm(self, x: float) -> float:
        return _norm2(*self.remainder_zero(x).ravel().tolist())

    def remainder_inf_norm(self, x: float) -> float:
        return _norm2(*self.remainder_inf(x).ravel().tolist())


def _norm2(a: float, b: float, c: float, d: float) -> float:
    """Spectral norm of [[a, b], [c, d]]: (|(a+d, b-c)| + |(a-d, b+c)|) / 2."""
    return 0.5 * (math.hypot(a + d, b - c) + math.hypot(a - d, b + c))


def polar_rates(p11: float, p12: float, p22: float, lam: float,
                theta: float) -> tuple:
    """Polar rates (theta', (log rho)') of J z' + P z = lam z at angle theta,
    for z = rho (cos theta, sin theta)."""
    ct = math.cos(theta)
    st = math.sin(theta)
    dtheta = (lam - p11) * ct * ct - 2.0 * p12 * ct * st + (lam - p22) * st * st
    dlogrho = p12 * (ct * ct - st * st) + (p22 - p11) * st * ct
    return dtheta, dlogrho


def build_dirac_family(params: DiracRadialParams) -> CoefficientFamily:
    """Radial Dirac coefficient matrix for the given potential, k and mu_a.

    Entries: p11 = -1 + V, p12 = -k/x - mu_a V', p22 = 1 + V.  The gap edges
    are -1 and 1.  Without an anomalous moment the origin data is beta = 1 and
    limit matrix [[gamma0, -k], [-k, gamma0]]; with mu_a != 0 the derivative
    coupling regularises the origin, beta = alpha0 + 1 and the limit matrix is
    purely off-diagonal with entry mu_a * alpha0 * gamma0.
    """
    pot = params.potential
    k = float(params.k)
    mu_a = params.mu_a
    if mu_a != 0.0 and pot.dv is None:
        raise MissingDerivativeError(
            "anomalous moment coupling needs the potential derivative")

    if mu_a == 0.0:
        def coeffs(x: float, _k=k, _v=pot.v) -> tuple:
            v = _v(x)
            off = -_k / x
            return (-1.0 + v, off, 1.0 + v)
        beta = 1.0
        limit = np.array([[pot.gamma_zero, -k], [-k, pot.gamma_zero]])
        q_zero = 2.0
    else:
        def coeffs(x: float, _k=k, _a=mu_a, _v=pot.v, _dv=pot.dv) -> tuple:
            v = _v(x)
            off = -_k / x - _a * _dv(x)
            return (-1.0 + v, off, 1.0 + v)
        beta = pot.alpha_zero + 1.0
        c = mu_a * pot.alpha_zero * pot.gamma_zero
        limit = np.array([[0.0, c], [c, 0.0]])
        q_zero = max(2.0, pot.alpha_zero + 1.0)

    q_inf = 1.0 + 1.0 / pot.alpha_inf
    return CoefficientFamily(coeffs=coeffs, mu_minus=-1.0, mu_plus=1.0,
                             beta=beta, limit_zero=limit, q_zero=q_zero,
                             q_inf=q_inf, dirac=params)


def mirror_family(family: CoefficientFamily) -> CoefficientFamily:
    """Family with the spectrum reflected through zero.

    The substitution (u, v) -> (v, u), lam -> -lam turns solutions of the
    original system into solutions of the system with coefficient matrix
    [[-p22, -p12], [-p12, -p11]].  The gap edges become (-mu_plus, -mu_minus),
    so statements about the upper edge of the mirrored family translate to the
    lower edge of the original one.
    """
    base = family.coeffs

    def coeffs(x: float) -> tuple:
        p11, p12, p22 = base(x)
        return (-p22, -p12, -p11)

    l = family.limit_zero
    limit = np.array([[-l[1, 1], -l[0, 1]], [-l[1, 0], -l[0, 0]]])
    return CoefficientFamily(coeffs=coeffs, mu_minus=-family.mu_plus,
                             mu_plus=-family.mu_minus, beta=family.beta,
                             limit_zero=limit, q_zero=family.q_zero,
                             q_inf=family.q_inf)


# ---------------------------------------------------------------------------
# Origin classification and hypothesis verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroClassification:
    """Origin singularity data and the admissibility verdict."""

    det_limit: float
    bound: float
    admissible: bool
    note: str


def classify_zero_endpoint(family: CoefficientFamily) -> ZeroClassification:
    """Decide whether the origin is strongly enough singular to be limit point.

    Admissible means det(limit_zero) < -1/4 for beta = 1, or < 0 for beta > 1.
    An admissible origin pins the boundary data there to the single decaying
    direction (the operator has a unique self-adjoint realization), which is
    what the whole angle machinery downstream relies on.  Inadmissible input
    is a reported outcome, not an error.
    """
    det = float(np.linalg.det(family.limit_zero))
    bound, text = (-0.25, "-1/4") if family.beta == 1.0 else (0.0, "0")
    admissible = det < bound
    if admissible:
        note = (f"det {det:.6g} < {text}: origin is limit point, boundary "
                "direction there is unique")
    else:
        note = (f"det {det:.6g} >= {text}: origin classification fails, "
                "boundary data at zero would not be unique")
    return ZeroClassification(det_limit=det, bound=bound,
                              admissible=admissible, note=note)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple
    passed: bool

    def failed_names(self) -> list:
        return [c.name for c in self.checks if not c.passed]


def _decade_maxima(xs: np.ndarray, vals: np.ndarray) -> list:
    """Max of |vals| per decade of xs (xs ascending)."""
    out = []
    exps = np.floor(np.log10(xs) + 1e-12).astype(int)
    for e in range(exps.min(), exps.max() + 1):
        mask = exps == e
        if mask.any():
            out.append(float(np.max(np.abs(vals[mask]))))
    return out


def _fit_log_slope(xs: np.ndarray, vals: np.ndarray) -> tuple:
    """Least-squares fit of log|vals| ~ c + s*log(xs); returns (s, c)."""
    mask = np.abs(vals) > 1e-300
    if mask.sum() < 3:
        return 0.0, -math.inf
    s, c = np.polyfit(np.log(xs[mask]), np.log(np.abs(vals[mask])), 1)
    return float(s), float(c)


def validate_hypotheses(family: CoefficientFamily) -> HypothesisReport:
    """Numerically verify the admissibility hypotheses on a sampling grid.

    One rule checks each end, with the measured quantity reported.  The
    remainder there (|x**beta P(x) - limit_zero| at the origin,
    |P(x) - diag(mu_minus, mu_plus)| at infinity) must be small over the
    outermost decade and no larger than two decades inward; and the integral
    of x**weight * remainder**q must be finite: a trapezoid sum plus a
    power-law piece beyond the outermost sample, fitted on the outermost
    decade (weight -beta, q = q_zero at the origin; weight 0, q = q_inf at
    infinity).  The determinant condition at the origin and, for radial
    Dirac input, the potential endpoint conditions follow.  These are
    sampled surrogates for hypotheses the theory assumes rather than proves.
    """
    xs = np.logspace(-6.0, 6.0, 289)        # 24 points per decade

    def end(sign, grid, remainder_norm, scale, q, weight) -> tuple:
        # sign is -1 at the origin and +1 at infinity; returns the limit and
        # the integral check of that end
        at, what, decade, piece, trend = (
            ("infinity", "P - diag(mu-, mu+)", "largest", "tail", "decay")
            if sign > 0 else
            ("origin", "x^beta P - limit", "smallest", "head", "growth"))
        r = np.array([remainder_norm(x) for x in grid])
        dec = _decade_maxima(grid, r)[::sign]       # outermost decade last
        limit = CheckResult(
            f"{at}-limit",
            dec[-1] < 1e-2 * scale and dec[-1] <= dec[max(-3, -len(dec))] + 1e-300,
            dec[-1], 1e-2 * scale, f"max |{what}| over the {decade} decade")
        partial = float(np.trapezoid(grid ** weight * r ** q * grid, np.log(grid)))
        outer = grid[-1] if sign > 0 else grid[0]
        near = (grid / outer) ** sign >= 0.1        # the outermost decade
        s, c = _fit_log_slope(grid[near], r[near])
        e = weight + s * q          # the integrand grows like x^e out there
        g = -sign * (e + 1.0)       # the piece beyond is finite iff g > 0
        if dec[-1] < 1e-13:
            rest, ok = 0.0, True
        elif g > 0.0:
            rest, ok = math.exp(c * q) * outer ** (e + 1.0) / g, True
        else:
            rest, ok = math.inf, False
        integral = CheckResult(
            f"{at}-integral", ok and math.isfinite(partial + rest),
            partial + rest, math.inf,
            f"quadrature {partial:.3g} + extrapolated {piece} {rest:.3g}, "
            f"fitted {trend} exponent {-sign * s:.3g}")
        return limit, integral

    left = xs[xs <= 1.0]
    limit0, integral0 = end(-1, left, family.remainder_zero_norm,
                            1.0 + float(np.linalg.norm(family.limit_zero, 2)),
                            family.q_zero, -family.beta)
    limit_inf, integral_inf = end(
        1, xs[xs >= 1.0], family.remainder_inf_norm,
        1.0 + max(abs(family.mu_minus), abs(family.mu_plus)), family.q_inf, 0.0)
    cls = classify_zero_endpoint(family)
    checks = [limit0, limit_inf, integral_inf, integral0,
              CheckResult("origin-determinant", cls.admissible, cls.det_limit,
                          cls.bound, cls.note)]
    if family.dirac is not None:
        checks.extend(_potential_checks(family.dirac, left))
    return HypothesisReport(checks=tuple(checks),
                            passed=all(c.passed for c in checks))


def _potential_checks(params: DiracRadialParams, left: np.ndarray) -> list:
    # gamma0's bound at the origin is origin-determinant's (det(limit_zero))
    pot = params.potential
    thr = max(1e-6, 1e-3 * (1.0 + abs(pot.gamma_zero)))

    def vanishes(name, p, f, label) -> CheckResult:
        # max |x^p f(x)| over the smallest decade of left
        small = _decade_maxima(left, np.array([abs(x ** p * f(x)) for x in left]))[0]
        return CheckResult(name, small < thr, small, thr,
                           f"{label} must vanish at the origin")

    if params.mu_a == 0.0:
        return [CheckResult("potential-origin-exponent",
                            abs(pot.alpha_zero - 1.0) < 1e-12,
                            pot.alpha_zero, 1.0,
                            "mu_a = 0 requires a Coulomb-order origin exponent"),
                vanishes("potential-origin-remainder", 1.0,
                         pot.remainder_at_zero, "x * remainder")]
    return [vanishes("potential-origin-remainder", pot.alpha_zero,
                     pot.remainder_at_zero, "x^alpha0 * remainder"),
            vanishes("potential-origin-remainder-derivative",
                     pot.alpha_zero + 1.0, pot.d_remainder_at_zero,
                     "x^(alpha0+1) * remainder'")]


# ---------------------------------------------------------------------------
# Nonlinear couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearCoupling:
    """Symmetric matrix coupling S(x, z).

    ``entries(x, u, v)`` returns the scalar triple (s11, s12, s22) at the true
    solution value z = (u, v).  The envelope conditions on S (bounded near the
    origin, decaying at infinity, vanishing at z = 0) are checked where a
    coupling is built, see build_soler_coupling.
    """

    entries: Callable[[float, float, float], tuple]


def zero_coupling() -> NonlinearCoupling:
    """The trivial coupling S = 0 (turns the solver into the linear problem)."""
    return NonlinearCoupling(entries=lambda x, u, v: (0.0, 0.0, 0.0))


def build_soler_coupling(
    gamma: Callable[[float], float],
    f: Callable[[float], float],
    lipschitz_bound: float,
    angular_constant: float = 4.0 * math.pi,
) -> NonlinearCoupling:
    """Self-coupling S(r, z) = gamma(r) F((u^2 - v^2) / (c r^2)) diag(1, -1).

    c is the angular normalization constant (4*pi by default, the config's
    [coupling] constant); ``entries`` captures it, and the returned record
    keeps no copy.  Requires |F(s)| <= C|s| with C = lipschitz_bound, gamma continuous;
    the induced envelope alpha(r) = C*gamma(r)/(c r^2) must be bounded near
    the origin (gamma = O(r^2)) and decay at infinity, and r^2 gamma(r) must
    vanish at infinity.  Violations raise CouplingRejectedError.
    """
    if lipschitz_bound < 0.0:
        raise ValueError("lipschitz_bound must not be negative")
    c = angular_constant

    def alpha(r: float) -> float:
        return lipschitz_bound * abs(gamma(r)) / (c * r * r)

    rs = np.logspace(-8, 8, 16 * 17)
    avals = np.array([alpha(r) for r in rs])
    if not np.all(np.isfinite(avals)):
        raise CouplingRejectedError("envelope is not finite on the sampled grid")
    head = rs <= rs[0] * 10.0
    slope0, _ = _fit_log_slope(rs[head], avals[head])
    if np.max(avals[head]) > 1e-12 and slope0 < -0.05:
        raise CouplingRejectedError(
            f"envelope grows like r^{slope0:.2f} near the origin "
            "(coupling weight is not O(r^2) there)")
    peak = float(np.max(avals))
    if peak > 0.0 and avals[-1] > 1e-3 * peak:
        raise CouplingRejectedError("envelope does not decay at infinity")
    r2g = np.array([rs[i] ** 2 * abs(gamma(rs[i])) for i in range(rs.size)
                    if rs[i] >= 1.0])
    if r2g.size and np.max(r2g) > 0.0 and r2g[-1] > 1e-3 * np.max(r2g):
        raise CouplingRejectedError("r^2 * gamma(r) does not vanish at infinity")

    def entries(x: float, u: float, v: float) -> tuple:
        s = gamma(x) * f((u * u - v * v) / (c * x * x))
        return (s, 0.0, -s)

    return NonlinearCoupling(entries=entries)
