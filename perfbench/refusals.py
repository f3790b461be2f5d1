"""Fixed reproducers of valid Coulomb levels the root solver refuses.

``find_eigenvalue`` raises ``ConvergenceError`` on some valid levels at the
default residual tolerance 1e-9 (ROADMAP item 3; README, Findings).  The
workloads' input ranges keep these cases out, so that a run does not fail;
this module keeps them measured instead.  ``run_all`` runs every reproducer
and says which are still refused; the traced run reports their number as
``spectrum.known_refusals``, and a fix of the root solver moves it to 0.
"""

from __future__ import annotations

from pathlib import Path

import diracgap.cli
import diracgap.model
import diracgap.spectrum
from diracgap.asymptotics import TruncationWindow, zero_data

import oracle
import workloads

# diracgap spectrum at the CLI default tol (1e-9); each exits with 2
SPECTRUM = (
    {"gamma": -0.5010827306727869, "k": 2,
     "lambda_min": 0.10047078332120007, "lambda_max": 0.9860875603533783,
     "lambda_points": 6, "x_inf": 1007.8694275462444},
    {"gamma": -0.6526068864430071, "k": -1,
     "lambda_min": -0.48543104450646296, "lambda_max": 0.9760306274826734,
     "lambda_points": 10, "x_inf": 1255.0646364720142},
)

# find_eigenvalue on one ladder level from a given bracket at tol 1e-9;
# x_zero comes from select_truncation over the bracket
SOLVE = (
    # a bracket of a few 1e-7 around the level at 0.9705422679099147
    {"gamma": -0.7121863196942128, "k": 2, "n_r": 1,
     "bracket": (0.9705422679099147 - 9.25e-8, 0.9705422679099147 + 3.24e-7),
     "x_inf": 1226.7908292491109},
    # a scan-wide bracket around the level at 0.9729650087097007
    {"gamma": -0.683523887725851, "k": 2, "n_r": 1,
     "bracket": (0.9699805561020441, 0.9731349214640846),
     "x_inf": 1224.7851624503678},
)


def spectrum_refused(case: dict, workdir: Path) -> bool:
    """True when ``diracgap spectrum`` rejects the run (exit code 2)."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "refusal.cfg"
    cfg.write_text(workloads.survey_config(case, tol=None))
    rc = diracgap.cli.main(["spectrum", "--config", str(cfg),
                            "--out", str(workdir), "--quiet"])
    return rc == diracgap.cli.EXIT_REJECTED


def solve_refused(case: dict) -> bool:
    """True when ``find_eigenvalue`` raises ``ConvergenceError``."""
    gamma, k, n_r = case["gamma"], case["k"], case["n_r"]
    family = diracgap.model.build_dirac_family(diracgap.model.DiracRadialParams(
        k=k, mu_a=0.0, potential=diracgap.model.coulomb_potential(gamma)))
    zero = zero_data(family)
    lo, hi = case["bracket"]
    sel = diracgap.spectrum.select_truncation(family, (lo, hi), zero=zero)
    window = TruncationWindow(x_zero=sel.x_zero, x_inf=case["x_inf"],
                              delta=sel.delta, eps=sel.eps)
    try:
        diracgap.spectrum.find_eigenvalue(family, oracle.level_index(k, n_r),
                                          (lo, hi), 1e-9, window=window,
                                          zero=zero)
    except diracgap.spectrum.ConvergenceError:
        return True
    return False


def run_all(workdir: Path) -> list:
    """[(name, refused)] for every reproducer, in a fixed order."""
    out = [(f"spectrum gamma={c['gamma']:.4f} k={c['k']}",
            spectrum_refused(c, workdir / f"refusal-{i}"))
           for i, c in enumerate(SPECTRUM)]
    out += [(f"find_eigenvalue gamma={c['gamma']:.4f} k={c['k']} n_r={c['n_r']}",
             solve_refused(c)) for c in SOLVE]
    return out
