"""Closed-form Dirac-Coulomb ladder, written independently of the solver.

For V = gamma/x, angular number k and no anomalous moment the gap eigenvalues
are

    E(n_r) = (1 + (gamma / (n_r + sqrt(k^2 - gamma^2)))^2) ** -0.5.

Channel rule of this matrix convention: the k > 0 channel carries n_r = 0, 1,
2, ... and the k < 0 channel n_r = 1, 2, ....  The solver's level index (the
k with nu_star(lam) = k*pi) is n_r + 1 for k > 0 and n_r for k < 0, and the
nodal index is the level index minus 1.
"""

from __future__ import annotations

import math

# A1's frozen 7-digit values: gamma = -0.5, k = +1, n_r = 0, 1, 2
A1_FROZEN = (0.8660254, 0.9659258, 0.9851200)


def energy(gamma: float, k: int, n_r: int) -> float:
    s = math.sqrt(k * k - gamma * gamma)
    return (1.0 + (gamma / (n_r + s)) ** 2) ** -0.5


def first_n_r(k: int) -> int:
    return 0 if k > 0 else 1


def level_index(k: int, n_r: int) -> int:
    return n_r + 1 if k > 0 else n_r


def ladder(gamma: float, k: int, lam_lo: float, lam_hi: float) -> dict:
    """{level index: E} for every level strictly inside (lam_lo, lam_hi)."""
    out = {}
    n_r = first_n_r(k)
    while True:
        e = energy(gamma, k, n_r)
        if e >= lam_hi:
            return out
        if e > lam_lo:
            out[level_index(k, n_r)] = e
        n_r += 1


def self_check() -> None:
    """Raise if the ladder does not reproduce A1's frozen values to 2e-6."""
    for n_r, frozen in enumerate(A1_FROZEN):
        got = energy(-0.5, 1, n_r)
        if abs(got - frozen) > 2e-6:
            raise AssertionError(
                f"oracle E({n_r}) = {got!r} is not A1's {frozen} within 2e-6")
    # the README example: five k = +1 levels in [0.5, 0.995], four for k = -1
    if sorted(ladder(-0.5, 1, 0.5, 0.995)) != [1, 2, 3, 4, 5] \
            or sorted(ladder(-0.5, -1, 0.5, 0.995)) != [1, 2, 3, 4]:
        raise AssertionError("oracle channel rule disagrees with the README")
