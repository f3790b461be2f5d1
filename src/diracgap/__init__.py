"""Spectral-gap eigenvalue and bifurcation toolkit for radial Dirac systems.

Computes gap eigenvalues, rotation numbers and nodal indices of the singular
system J z' + P(x) z = lam z on the open half-line by oscillation theory of
the phase-plane angle, detects eigenvalue accumulation at the gap edges, and
continues branches of nontrivial solutions of the nonlinear system
J z' + P(x) z = lam z + S(x, z) z from the linear eigenvalues.
"""

from .asymptotics import (CrossedCutoffError, InfinityData, NoWindowError,
                          TruncationWindow, ZeroData, infinity_data,
                          select_truncation, zero_data)
from .bifurcation import (Branch, BranchPoint, CorrectorError, ShootResult,
                          continue_branch, linear_amplitude_ratio,
                          shoot_nonlinear, solve_point)
from .model import (CheckResult, CoefficientFamily, CouplingRejectedError,
                    DiracRadialParams, HypothesisReport, MissingDerivativeError,
                    NonlinearCoupling, PotentialSpec, ZeroClassification,
                    build_dirac_family, build_soler_coupling,
                    classify_zero_endpoint, coulomb_potential, mirror_family,
                    tabulated_potential, tabulated_potential_from_csv,
                    validate_hypotheses, zero_coupling)
from .prufer import (IntegrationError, OverflowAbort, WindowSamples,
                     integrate_cartesian, integrate_prufer)
from .spectrum import (AccumulationVerdict, AngleMismatchError, Bracket,
                       BracketError, ConvergenceError, DecayFit,
                       EigenvalueRecord, Eigenfunction, MonotonicityError,
                       ScanResult, detect_accumulation, eigenfunction,
                       find_eigenvalue, nu_star, scan_spectrum)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
