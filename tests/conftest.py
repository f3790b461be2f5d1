"""Shared fixtures: the attractive Coulomb test families and their spectra.

The closed-form oracle for the Dirac-Coulomb gap eigenvalues is

    E(n_r) = (1 + (gamma / (n_r + sqrt(k^2 - gamma^2)))^2) ** -0.5

For gamma = -0.5 and |k| = 1 the channel with the second-quadrant origin
angle (k = +1 in this matrix convention, the physical s-wave channel) carries
the full ladder n_r = 0, 1, 2, ..., while the first-quadrant channel (k = -1)
carries n_r = 1, 2, ....  Expensive artifacts (windows, scans, records) are
session-scoped.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import diracgap as dg


def sommerfeld(n_r: int, gamma: float = -0.5, k: int = 1) -> float:
    """Closed-form Dirac-Coulomb gap eigenvalue, independent of the solver."""
    s = math.sqrt(k * k - gamma * gamma)
    return (1.0 + (gamma / (n_r + s)) ** 2) ** -0.5


GAMMA = -0.5


@pytest.fixture(scope="session")
def coulomb_plus():
    """Channel carrying the n_r = 0 ground state (second-quadrant origin angle)."""
    return dg.build_dirac_family(
        dg.DiracRadialParams(k=+1, mu_a=0.0, potential=dg.coulomb_potential(GAMMA)))


@pytest.fixture(scope="session")
def coulomb_minus():
    """First-quadrant channel (spectrum starts at n_r = 1)."""
    return dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=0.0, potential=dg.coulomb_potential(GAMMA)))


@pytest.fixture(scope="session")
def free_family():
    return dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=0.0, potential=dg.coulomb_potential(0.0)))


@pytest.fixture(scope="session")
def zero_plus(coulomb_plus):
    return dg.zero_data(coulomb_plus)


@pytest.fixture(scope="session")
def zero_minus(coulomb_minus):
    return dg.zero_data(coulomb_minus)


@pytest.fixture(scope="session")
def fast_window():
    """Hand-set moderate window.

    Its truncation bias grows toward the gap edges: at the closed-form level,
    spliced at match_point and read at rtol 1e-12, nu_star is 1.9e-4 off k*pi
    for gamma = -0.3, k = 2, n_r = 3 (lam = 0.9982, the x_inf end) and up to
    6.8e-8 for |k| = 1 at gamma = -0.7 (the x_zero end); on [1e-5, 1000] the
    same levels read under 1e-10.
    """
    return dg.TruncationWindow(x_zero=1e-3, x_inf=250.0, delta=2e-4, eps=1e-3)


@pytest.fixture(scope="session")
def branch_window():
    """Short window for nonlinear continuation.

    Its truncation bias, measured at the gamma = -0.5 levels solved to tol
    1e-9: the ground state is at the closed form (9.9e-13 off), the second
    level 2.8e-11 off, and the k = 1 level 3 2.4e-6 off (0.98512343 against
    0.98512105), its tail decaying only like e^(-0.17 x).
    """
    return dg.TruncationWindow(x_zero=1e-3, x_inf=60.0, delta=2e-4, eps=1e-3)


@pytest.fixture(scope="session")
def oracle_pipeline(coulomb_plus, zero_plus):
    """Timed end-to-end run: window selection, scan, three lowest records."""
    import time
    t0 = time.perf_counter()
    window = dg.select_truncation(coulomb_plus, (-0.9, 0.995), zero=zero_plus)
    scan = dg.scan_spectrum(coulomb_plus, np.linspace(-0.9, 0.993, 30),
                            window, zero_plus)
    recs = []
    for br in scan.brackets[:3]:
        recs.append(dg.find_eigenvalue(coulomb_plus, br.k,
                                       (br.lam_lo, br.lam_hi), 1e-9,
                                       window=window, zero=zero_plus))
    elapsed = time.perf_counter() - t0
    return {"window": window, "scan": scan, "records": recs,
            "elapsed": elapsed}


@pytest.fixture(scope="session")
def records_plus(oracle_pipeline):
    """Three lowest eigenvalue records of the oracle channel, default window."""
    return oracle_pipeline["records"]


@pytest.fixture(scope="session")
def ground_fast(coulomb_plus, zero_plus, fast_window):
    """Ground-state record solved on the fast window (for cheap unit tests)."""
    scan = dg.scan_spectrum(coulomb_plus, np.linspace(0.5, 0.93, 9),
                            fast_window, zero_plus)
    br = scan.brackets[0]
    return dg.find_eigenvalue(coulomb_plus, br.k, (br.lam_lo, br.lam_hi),
                              1e-9, window=fast_window, zero=zero_plus)


@pytest.fixture(scope="session")
def seed_branch(coulomb_plus, zero_plus, branch_window):
    """Ground-state seed on the branch window."""
    scan = dg.scan_spectrum(coulomb_plus, np.linspace(0.5, 0.93, 9),
                            branch_window, zero_plus)
    br = scan.brackets[0]
    return dg.find_eigenvalue(coulomb_plus, br.k, (br.lam_lo, br.lam_hi),
                              1e-9, window=branch_window, zero=zero_plus)


@pytest.fixture(scope="session")
def readme_levels(coulomb_plus, zero_plus):
    """The README config's five levels, solved as the CLI solves them: its
    selected window [1.78e-4, 8659.6], 12 grid points, one WindowSamples.
    Returns (window, samples, records)."""
    window = dg.select_truncation(coulomb_plus, (0.5, 0.995), zero=zero_plus)
    samples = dg.WindowSamples(coulomb_plus, window)
    scan = dg.scan_spectrum(coulomb_plus, np.linspace(0.5, 0.995, 12), window,
                            zero_plus, samples=samples)
    return window, samples, [
        dg.find_eigenvalue(coulomb_plus, br.k, br, 1e-9, window=window,
                           zero=zero_plus, samples=samples)
        for br in scan.brackets]


@pytest.fixture(scope="session")
def soler_coupling():
    return dg.build_soler_coupling(lambda r: r * r / (1.0 + r ** 5),
                                   lambda s: s, 1.0)
