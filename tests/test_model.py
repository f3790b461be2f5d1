"""Coefficient family construction, origin classification, hypothesis checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracgap as dg


def test_dirac_matrix_at_unit_radius():
    # direct substitution oracle: V(1) = -0.5, off-diagonal -k/1
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=0.0, potential=dg.coulomb_potential(-0.5)))
    assert fam.coeffs(1.0) == (-1.5, 1.0, 0.5)


def test_matrix_tends_to_gap_diagonal():
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=3, mu_a=0.0, potential=dg.coulomb_potential(-0.4)))
    np.testing.assert_allclose(fam.coeffs(1e9), (-1.0, 0.0, 1.0), atol=1e-8)


def test_anomalous_moment_origin_limit():
    # k=-1, gamma0=-2, alpha0=1, mu_a=1: beta = 2, off-diagonal limit -2
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=1.0, potential=dg.coulomb_potential(-2.0)))
    assert fam.beta == 2.0
    np.testing.assert_allclose(fam.limit_zero, [[0.0, -2.0], [-2.0, 0.0]])


def test_symmetry_bit_identical():
    # the assembled remainder matrices the hypothesis checks measure
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=2, mu_a=0.5, potential=dg.coulomb_potential(-0.3)))
    for x in np.geomspace(1e-6, 1e6, 25):
        for m in (fam.remainder_zero(x), fam.remainder_inf(x)):
            assert m[0, 1] == m[1, 0]


_ENTRY = st.floats(-1e6, 1e6, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(p=st.tuples(_ENTRY, _ENTRY, _ENTRY),
       limit=st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY),
       x=st.floats(1e-3, 1e3), beta=st.sampled_from([1.0, 1.5, 3.0]))
def test_remainder_norms_match_the_svd(p, limit, x, beta):
    # the closed-form spectral norms against numpy's SVD, within a few ulp
    # of the matrix scale (1e-300 absolute where an entry underflows); the
    # limit need not be symmetric, so neither need the origin remainder
    fam = dg.CoefficientFamily(coeffs=lambda _: p, mu_minus=-1.0,
                               mu_plus=1.0, beta=beta,
                               limit_zero=np.reshape(limit, (2, 2)))
    for m, norm in ((fam.remainder_zero(x), fam.remainder_zero_norm(x)),
                    (fam.remainder_inf(x), fam.remainder_inf_norm(x))):
        svd = np.linalg.norm(m, 2)
        assert abs(norm - svd) <= 8 * np.finfo(float).eps * svd + 1e-300


def test_remainder_zero_offdiagonal_vanishes_without_moment():
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=0.0, potential=dg.coulomb_potential(-0.5)))
    for x in np.geomspace(1e-6, 1.0, 20):
        r0 = fam.remainder_zero(x)
        assert abs(r0[0, 1]) <= 4 * np.finfo(float).eps
        assert abs(r0[1, 0]) <= 4 * np.finfo(float).eps


def test_k_zero_rejected():
    with pytest.raises(ValueError):
        dg.DiracRadialParams(k=0, mu_a=0.0, potential=dg.coulomb_potential(-0.5))


def test_missing_derivative_rejected():
    pot = dg.PotentialSpec(-0.5, 1.0, -0.5, 1.0, v=lambda x: -0.5 / x)
    dg.build_dirac_family(dg.DiracRadialParams(k=1, mu_a=0.0, potential=pot))
    with pytest.raises(dg.MissingDerivativeError):
        dg.build_dirac_family(dg.DiracRadialParams(k=1, mu_a=1.0, potential=pot))


# -- origin classification ---------------------------------------------------

def test_classify_coulomb_admissible():
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=0.0, potential=dg.coulomb_potential(-0.5)))
    cls = dg.classify_zero_endpoint(fam)
    # 2x2 determinant by hand: gamma0^2 - k^2 = -0.75
    assert math.isclose(cls.det_limit, -0.75)
    assert cls.admissible


def test_classify_boundary_case_inadmissible():
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=0.0, potential=dg.coulomb_potential(-1.0)))
    cls = dg.classify_zero_endpoint(fam)
    assert math.isclose(cls.det_limit, 0.0, abs_tol=1e-15)
    assert not cls.admissible


def test_classify_regularized_strong_coupling():
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=1.0, potential=dg.coulomb_potential(-2.0)))
    cls = dg.classify_zero_endpoint(fam)
    assert math.isclose(cls.det_limit, -4.0)
    assert cls.admissible


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(-0.95, -0.05), k=st.integers(1, 4))
def test_classification_invariant_under_k_sign(gamma, k):
    pot = dg.coulomb_potential(gamma)
    a = dg.classify_zero_endpoint(dg.build_dirac_family(
        dg.DiracRadialParams(k=k, mu_a=0.0, potential=pot)))
    b = dg.classify_zero_endpoint(dg.build_dirac_family(
        dg.DiracRadialParams(k=-k, mu_a=0.0, potential=pot)))
    assert a.det_limit == b.det_limit
    assert a.admissible == b.admissible


# -- hypothesis validation ---------------------------------------------------

def test_validate_coulomb_passes():
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=0.0, potential=dg.coulomb_potential(-0.5)))
    report = dg.validate_hypotheses(fam)
    assert report.passed, report.failed_names()


def test_validate_zero_potential_passes():
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=0.0, potential=dg.coulomb_potential(0.0)))
    report = dg.validate_hypotheses(fam)
    assert report.passed, report.failed_names()


def test_validate_coupling_bound_fails():
    # 0.9801 > k^2 - 1/4 = 0.75
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=0.0, potential=dg.coulomb_potential(-0.99)))
    report = dg.validate_hypotheses(fam)
    names = report.failed_names()
    assert "potential-coupling-bound" in names
    check = {c.name: c for c in report.checks}["potential-coupling-bound"]
    assert math.isclose(check.measured, 0.9801)
    assert math.isclose(check.threshold, 0.75)


def test_validate_anomalous_family_passes():
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=1.0, potential=dg.coulomb_potential(-2.0)))
    report = dg.validate_hypotheses(fam)
    assert report.passed, report.failed_names()


def _readme_origin(e):
    # the README origin (gamma = -0.5, k = 1) with e(x) added off the diagonal
    return dg.CoefficientFamily(
        coeffs=lambda x: (-1.0 - 0.5 / x, -1.0 / x + e(x), 1.0 - 0.5 / x),
        mu_minus=-1.0, mu_plus=1.0, beta=1.0,
        limit_zero=[[-0.5, -1.0], [-1.0, -0.5]])


def test_validate_slow_decay_fails_only_infinity_integral():
    # |e|^2 ~ 0.09/x is not integrable at infinity, but e -> 0
    report = dg.validate_hypotheses(_readme_origin(lambda x: 0.3 * x ** -0.5))
    assert report.failed_names() == ["infinity-integral"]
    check = {c.name: c for c in report.checks}["infinity-integral"]
    assert check.measured == math.inf
    assert "extrapolated tail inf" in check.detail


def test_validate_offset_at_infinity_fails_limit_and_integral():
    report = dg.validate_hypotheses(_readme_origin(lambda x: 0.1))
    assert report.failed_names() == ["infinity-limit", "infinity-integral"]
    check = {c.name: c for c in report.checks}["infinity-limit"]
    assert math.isclose(check.measured, 0.0999995, rel_tol=1e-6)
    assert check.threshold == 0.02


def test_validate_readme_origin_passes_every_check():
    report = dg.validate_hypotheses(_readme_origin(lambda x: 0.0))
    assert report.passed, report.failed_names()


ENDS = ["origin-limit", "infinity-limit", "infinity-integral",
        "origin-integral", "origin-determinant"]


@pytest.mark.parametrize("mu_a, gamma, potential_checks", [
    (0.0, -0.5, ["potential-origin-exponent", "potential-origin-remainder",
                 "potential-coupling-bound"]),
    (1.0, -2.0, ["potential-coupling-nonzero", "potential-origin-remainder",
                 "potential-origin-remainder-derivative"]),
])
def test_report_row_order(mu_a, gamma, potential_checks):
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=mu_a, potential=dg.coulomb_potential(gamma)))
    names = [c.name for c in dg.validate_hypotheses(fam).checks]
    assert names == ENDS + potential_checks


# -- tabulated potentials ----------------------------------------------------

def test_tabulated_matches_coulomb():
    xs = np.geomspace(1e-7, 1e7, 600)
    vs = -0.5 / xs
    pot = dg.tabulated_potential(xs, vs, -0.5, 1.0, -0.5, 1.0)
    for x in (1e-3, 0.1, 1.0, 7.0, 1e3):
        assert math.isclose(pot.v(x), -0.5 / x, rel_tol=1e-6)
        assert math.isclose(pot.dv(x), 0.5 / x ** 2, rel_tol=1e-4)


def test_tabulated_csv_roundtrip(tmp_path):
    path = tmp_path / "pot.csv"
    xs = np.geomspace(1e-6, 1e6, 200)
    with open(path, "w") as fh:
        fh.write("x,V\n")
        for x in xs:
            fh.write(f"{float(x)!r},{float(-0.25 / x)!r}\n")
    pot = dg.tabulated_potential_from_csv(path, -0.25, 1.0, -0.25, 1.0)
    assert math.isclose(pot.v(2.0), -0.125, rel_tol=1e-5)
    fam = dg.build_dirac_family(dg.DiracRadialParams(k=1, mu_a=0.0, potential=pot))
    assert dg.classify_zero_endpoint(fam).admissible


def test_tabulated_csv_takes_one_header_row_only(tmp_path):
    # a second non-numeric line is a malformed row, not another header
    path = tmp_path / "pot.csv"
    rows = "".join(f"{x!r},{-0.25 / x!r}\n" for x in (0.01, 0.1, 1.0, 10.0, 100.0))
    path.write_text("x,V\nunits,hartree\n" + rows)
    with pytest.raises(ValueError, match="malformed table row: 'units,hartree'"):
        dg.tabulated_potential_from_csv(path, -0.25, 1.0, -0.25, 1.0)


def test_tabulated_rejects_unsorted():
    with pytest.raises(ValueError):
        dg.tabulated_potential([1.0, 0.5, 2.0, 3.0], [0, 0, 0, 0],
                               -0.5, 1.0, -0.5, 1.0)


# -- nonlinear couplings -----------------------------------------------------

def test_soler_coupling_accepted():
    coup = dg.build_soler_coupling(lambda r: r * r / (1.0 + r ** 5),
                                   lambda s: s, 1.0)
    # S_11(r, (1, 0)) = 1/(4 pi (1 + r^5)): bounded, decaying
    assert math.isclose(coup.entries(1e-6, 1.0, 0.0)[0], 1.0 / (4.0 * math.pi),
                        rel_tol=1e-4)
    assert coup.entries(100.0, 1.0, 0.0)[0] < 1e-9


def test_soler_zero_input_gives_zero_matrix():
    coup = dg.build_soler_coupling(lambda r: r * r / (1.0 + r ** 5),
                                   lambda s: s, 1.0)
    for r in (1e-3, 1.0, 50.0):
        assert coup.entries(r, 0.0, 0.0) == (0.0, 0.0, 0.0)


def test_soler_envelope_unbounded_rejected():
    with pytest.raises(dg.CouplingRejectedError):
        dg.build_soler_coupling(lambda r: 1.0 / (1.0 + r * r), lambda s: s, 1.0)


def test_soler_diagonal_antisymmetry():
    coup = dg.build_soler_coupling(lambda r: r * r / (1.0 + r ** 5),
                                   lambda s: s, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = float(rng.uniform(0.01, 20.0))
        u, v = rng.normal(size=2)
        s11, s12, s22 = coup.entries(r, u, v)
        assert s11 == -s22
        assert s12 == 0.0


def test_soler_envelope_dominates_entries():
    def gamma(r):
        return r * r / (1.0 + r ** 5)

    coup = dg.build_soler_coupling(gamma, lambda s: s, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = float(rng.uniform(1e-3, 1e3))
        u, v = rng.normal(size=2) * 3.0
        s11, s12, s22 = coup.entries(r, u, v)
        # envelope alpha(r) = C |gamma(r)| / (c r^2) times eta(z) = |u^2 - v^2|
        alpha = abs(gamma(r)) / (4.0 * math.pi * r * r)
        bound = alpha * abs(u * u - v * v)
        assert abs(s11) <= bound * (1.0 + 1e-12)
        assert abs(s22) <= bound * (1.0 + 1e-12)


# -- mirror transform --------------------------------------------------------

def test_mirror_family_swaps_gap_and_preserves_determinant():
    fam = dg.build_dirac_family(
        dg.DiracRadialParams(k=-1, mu_a=0.0, potential=dg.coulomb_potential(-0.5)))
    mir = dg.mirror_family(fam)
    assert (mir.mu_minus, mir.mu_plus) == (-fam.mu_plus, -fam.mu_minus)
    assert math.isclose(np.linalg.det(mir.limit_zero),
                        np.linalg.det(fam.limit_zero))
    # mirrored coefficients: (-p22, -p12, -p11)
    p11, p12, p22 = fam.coeffs(0.7)
    m11, m12, m22 = mir.coeffs(0.7)
    assert (m11, m12, m22) == (-p22, -p12, -p11)
