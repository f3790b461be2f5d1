"""Seeded inputs, set-up and checked execution for the two workloads.

Every workload is a closed loop: one thread runs one problem at a time, and a
problem is one generated family's task.  A seed fixes a list of
``LIST_SIZE`` problems; a run makes whole passes over it, so a faster
program repeats the same mix instead of drawing new inputs.  The list is a
balanced design (``_strata``), so two seeds differ only by the draws inside
each stratum.

Sizes are cut down from the paper-scale pipelines so that one problem takes
a few seconds and a run holds several of them (see README.md).
"""

from __future__ import annotations

import contextlib
import math
import random
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import diracgap.bifurcation
import diracgap.cli
import diracgap.model
import diracgap.spectrum
from diracgap.asymptotics import TruncationWindow, zero_data

import oracle

WORKLOADS = ("survey", "branch")
LIST_SIZE = {"survey": 16, "branch": 16}   # one full design (_strata)
TOL = 1e-9                      # residual tolerance: the CLI default, A8
SURVEY_TOL = 1e-8               # below it valid levels are refused (README)
LEVEL_REL_ERR = 1e-8            # A1 bound
KS = (1, -1, 2, -2)
GAMMA_RANGE = (-0.8, -0.2)
SURVEY_X_INF = (1e3, 2e3)       # user-set far cutoffs
SURVEY_TOP = (0.95, 0.98)       # lambda_max; above, valid levels are refused (README)
BRANCH_GAMMA_RANGE = (-0.65, -0.4)
BRANCH_WINDOW = (1e-3, 60.0)
BRANCH_DS = 1e-3
BRANCH_STEPS = 6
BRANCH_RESIDUAL = 1e-8          # A8 bounds
BRANCH_EXTRAP_ERR = 1e-5


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _gf4_mul(a: int, b: int) -> int:
    """Multiplication in GF(4) = {0, 1, x, x + 1} encoded as 0..3."""
    out = 0
    for bit in (0, 1):
        if b >> bit & 1:
            out ^= a << bit
    return out ^ 0b111 if out & 0b100 else out       # reduce by x^2 + x + 1


def _strata(i: int) -> tuple:
    """Strata of problem i for three input dimensions.

    Problem i sits in row i // 4 and column i % 4 of three mutually
    orthogonal 4x4 Latin squares, L_a(r, c) = a*r + c over GF(4).  So every
    block of four covers each stratum of each dimension once, and a full list
    of sixteen pairs each stratum of one dimension with each of another once.
    """
    r, c = (i // 4) % 4, i % 4
    return tuple(_gf4_mul(a, r) ^ c for a in (1, 2, 3))


def _in_stratum(rng: random.Random, lo: float, hi: float, stratum: int) -> float:
    return lo + (hi - lo) * (stratum + rng.random()) / 4.0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int) -> list:
    """The seeded problem list: plain data, no package objects."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    draw = _survey_input if workload == "survey" else _branch_input
    return [draw(rng, i) for i in range(LIST_SIZE[workload])]


def _survey_input(rng: random.Random, i: int) -> dict:
    # no anomalous moment: one such problem takes longer than a run (README)
    s_gamma, s_top, s_points = _strata(i)
    return {"gamma": _in_stratum(rng, *GAMMA_RANGE, s_gamma), "k": KS[i % 4],
            "lambda_min": rng.uniform(-0.9, 0.3),
            "lambda_max": _in_stratum(rng, *SURVEY_TOP, s_top),
            "lambda_points": int(_in_stratum(rng, 6, 13, s_points)),
            "x_inf": _log_uniform(rng, *SURVEY_X_INF)}


def _branch_input(rng: random.Random, i: int) -> dict:
    # both signs of F in every block: F = +sigma focusing, -sigma defocusing
    s_gamma, s_scale, s_power = _strata(i)
    return {"gamma": _in_stratum(rng, *BRANCH_GAMMA_RANGE, s_gamma), "k": 1,
            "gamma_scale": _in_stratum(rng, 0.75, 1.25, s_scale),
            "gamma_power": _in_stratum(rng, 4.5, 5.5, s_power),
            "f_sign": 1.0 if i % 2 == 0 else -1.0}


# ---------------------------------------------------------------------------
# Set-up: families built, validated and given their origin data
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    index: int
    inputs: dict
    family: object
    zero: object
    coupling: object = None


def prepare(workload: str, inputs: list, counter, tracer=None) -> list:
    """Build, validate_hypotheses and zero_data every family of the list;
    the families handed on count their coefficient evaluations."""
    out = []
    for i, inp in enumerate(inputs):
        params = diracgap.model.DiracRadialParams(
            k=inp["k"], mu_a=0.0,
            potential=diracgap.model.coulomb_potential(inp["gamma"]))
        family = diracgap.model.build_dirac_family(params)
        with tracer.span("model.validate_hypotheses") if tracer \
                else contextlib.nullcontext():
            report = diracgap.model.validate_hypotheses(family)
        if not report.passed:
            raise ValueError(f"problem {i}: generated family fails "
                             f"{report.failed_names()}")
        zero = zero_data(family)
        coupling = None
        if workload == "branch":
            s, p, sign = inp["gamma_scale"], inp["gamma_power"], inp["f_sign"]
            coupling = diracgap.model.build_soler_coupling(
                lambda r, s=s, p=p: s * r * r / (1.0 + r ** p),
                lambda x, sign=sign: sign * x, 1.0)
        out.append(Prepared(index=i, inputs=inp,
                            family=counter.wrap_family(family), zero=zero,
                            coupling=coupling))
    return out


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    results: int = 0            # levels (survey) or branch points (branch)
    levels: int = 0             # eigenvalues returned by find_eigenvalue
    points: int = 0             # accepted branch points
    max_rel_err: float = 0.0    # worst level error against the ladder
    failure: Optional[str] = None
    wrong: bool = False         # a delivered result contradicts its check
    seconds: float = 0.0        # wall time, set by the runner
    coeff_evals: int = 0        # P(x) points, set by the runner
    detail: dict = field(default_factory=dict)


class CheckFailed(Exception):
    """A delivered result is wrong: off the ladder, missing, or off A8."""


class Refused(Exception):
    """The program declined to deliver: non-zero exit or too few points."""


def run_problem(workload: str, prob: Prepared, workdir: Path) -> Outcome:
    """Run one problem and check it; a failure is recorded, never raised."""
    out = Outcome()
    try:
        with warnings.catch_warnings():
            # overflow in a Soler shot is handled by the solver itself
            warnings.simplefilter("ignore", RuntimeWarning)
            (_survey if workload == "survey" else _branch)(prob, workdir, out)
    except Exception as exc:    # a failing problem is reported, the run goes on
        out.failure = f"{type(exc).__name__}: {exc}"
        out.detail["traceback"] = traceback.format_exc()
        out.wrong = isinstance(exc, CheckFailed)
        out.results = 0
    return out


def _check_level(out: Outcome, gamma: float, k: int, index: int, lam: float,
                 nodal: int) -> None:
    n_r = index - 1 if k > 0 else index
    exact = oracle.energy(gamma, k, n_r)
    err = abs(lam - exact) / exact
    out.max_rel_err = max(out.max_rel_err, err)
    if err > LEVEL_REL_ERR:
        raise CheckFailed(f"level {index}: {lam!r} is {err:.2e} off the ladder")
    if nodal != index - 1:
        raise CheckFailed(f"level {index}: nodal index {nodal}, expected {index - 1}")


def survey_config(inp: dict, tol: Optional[float]) -> str:
    """A ``diracgap spectrum`` config; ``tol=None`` keeps the CLI default."""
    text = ("[problem]\nkind = pure-coulomb\n"
            f"gamma = {inp['gamma']!r}\nk = {inp['k']}\nmu_a = 0.0\n"
            "[numerics]\n"
            f"lambda_min = {inp['lambda_min']!r}\n"
            f"lambda_max = {inp['lambda_max']!r}\n"
            f"lambda_points = {inp['lambda_points']}\nx_inf = {inp['x_inf']!r}\n")
    return text if tol is None else text + f"tol = {tol!r}\n"


def _survey(prob: Prepared, workdir: Path, out: Outcome) -> None:
    inp = prob.inputs
    run_dir = workdir / f"survey-{prob.index}"
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg = run_dir / "run.cfg"
    cfg.write_text(survey_config(inp, SURVEY_TOL))
    rc = diracgap.cli.main(["spectrum", "--config", str(cfg),
                            "--out", str(run_dir), "--quiet"])
    if rc != 0:
        raise Refused(f"diracgap spectrum exited with {rc}")
    lines = [l for l in (run_dir / "spectrum.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    cols = lines[0].split(",")
    rows = [dict(zip(cols, l.split(","))) for l in lines[1:]]
    got = {int(r["k"]): (float(r["lambda"]), int(r["nodal_index"]),
                         float(r["residual"])) for r in rows}
    out.levels = len(rows)
    if len(got) != len(rows):
        raise CheckFailed("a level index appears twice")
    for idx, (_, _, res) in got.items():
        if not res <= SURVEY_TOL:
            raise CheckFailed(f"level {idx}: residual {res:.3g} above {SURVEY_TOL:g}")
    want = oracle.ladder(inp["gamma"], inp["k"], inp["lambda_min"],
                         inp["lambda_max"])
    if set(got) != set(want):
        raise CheckFailed(f"levels {sorted(got)}, ladder has {sorted(want)}")
    for idx, (lam, nodal, _) in got.items():
        _check_level(out, inp["gamma"], inp["k"], idx, lam, nodal)
    out.results = len(rows)


def _branch(prob: Prepared, workdir: Path, out: Outcome) -> None:
    inp, fam, zero = prob.inputs, prob.family, prob.zero
    spectrum, bifurcation = diracgap.spectrum, diracgap.bifurcation
    window = TruncationWindow(x_zero=BRANCH_WINDOW[0], x_inf=BRANCH_WINDOW[1],
                              delta=2e-4, eps=1e-3)
    scan = spectrum.scan_spectrum(fam, np.linspace(0.5, 0.93, 9), window, zero)
    if not scan.brackets or scan.brackets[0].k != 1:
        raise CheckFailed("the scan did not bracket the ground state first")
    br = scan.brackets[0]
    seed = spectrum.find_eigenvalue(fam, 1, (br.lam_lo, br.lam_hi), TOL,
                                    window=window, zero=zero)
    out.levels = 1
    _check_level(out, inp["gamma"], 1, 1, seed.lam, seed.nodal_index)
    branch = bifurcation.continue_branch(fam, prob.coupling, seed, ds=BRANCH_DS,
                                         max_steps=BRANCH_STEPS, window=window,
                                         zero=zero)
    pts = branch.points
    out.points = len(pts)
    out.detail = {"termination": branch.termination, "points": len(pts)}
    if len(pts) < BRANCH_STEPS:
        raise Refused(f"{len(pts)} of {BRANCH_STEPS} points "
                      f"({branch.termination})")
    worst = max(p.residual for p in pts)
    if not worst < BRANCH_RESIDUAL:
        raise CheckFailed(f"branch residual {worst:.2e}")
    if not (branch.index_audit_ok
            and all(p.index == seed.nodal_index for p in pts)):
        raise CheckFailed("index audit failed")
    # A8 fits a quadratic in a^2; drawn couplings bend the branch more, and
    # a quadratic over six points then misses by about 1e-5 on a correct
    # branch, so the fit is cubic (README)
    head = pts[:6]
    lam0 = np.polyfit(np.array([p.a for p in head]) ** 2,
                      np.array([p.lam for p in head]), 3)[-1]
    if not abs(lam0 - seed.lam) < BRANCH_EXTRAP_ERR:
        raise CheckFailed("zero-amplitude extrapolation off by "
                          f"{abs(lam0 - seed.lam):.2e}")
    out.results = len(pts)
