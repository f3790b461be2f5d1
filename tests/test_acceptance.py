"""Acceptance suite: every criterion at its stated tolerance, one line each.

The closed-form oracle for the attractive Coulomb family (gamma = -0.5,
|k| = 1) is the relativistic bound-state formula

    E(n_r) = (1 + (gamma / (n_r + sqrt(k^2 - gamma^2)))^2) ** -0.5

computed independently of the solver.  The full ladder n_r = 0, 1, 2, ...
lives in the channel whose origin boundary angle is second-quadrant (k = +1
in this matrix convention, the physical s-wave channel); the first-quadrant
channel k = -1 carries n_r >= 1.  A criterion line prints as
"A<n> PASS|FAIL <detail>".

One sub-assertion is expected to fail and is marked strict-xfail: the ground
state's rotation number.  The n_r = 0 eigenfunction has a constant phase
direction (its origin and infinity boundary angles coincide at 1.8325957), so
its rotation number is exactly 0, and in the first-quadrant channel the
lowest state (0.9659258) has rotation 0.45834; the quoted 0.5 presumes a
pairing of the 0.8660254 level with the pi/12 origin angle that the angle
flow does not realize.
"""

import math
import time

import numpy as np
import pytest

import diracgap as dg
from diracgap import cli
from conftest import sommerfeld

# frozen oracle values, n_r = 0, 1, 2 (7-digit roundings of the closed form)
ORACLE = (0.8660254, 0.9659258, 0.9851200)


def report(name, ok, detail):
    line = f"{name} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return ok


def test_a1_sommerfeld_oracle(oracle_pipeline):
    recs = oracle_pipeline["records"]
    elapsed = oracle_pipeline["elapsed"]
    assert len(recs) == 3
    worst = 0.0
    for rec, frozen, n_r in zip(recs, ORACLE, range(3)):
        # the quoted 7-digit strings round the closed form to ~1e-6
        exact = sommerfeld(n_r)
        assert math.isclose(exact, frozen, abs_tol=2e-6)
        assert abs(rec.lam - exact) / exact < 1e-8
        worst = max(worst, abs(rec.lam - frozen) / frozen)
    ok = worst < 1e-5 and elapsed < 60.0
    assert report("A1", ok,
                  f"lowest levels {[round(r.lam, 7) for r in recs]} vs "
                  f"{list(ORACLE)}, worst rel err {worst:.2e}, "
                  f"runtime {elapsed:.1f}s (< 60s)")


def test_a2_rotation_and_nodal_structure(records_plus):
    rots = [r.rot for r in records_plus]
    nodal = [r.nodal_index for r in records_plus]
    increasing = all(b > a for a, b in zip(rots, rots[1:]))
    consecutive = all(b - a == 1 for a, b in zip(nodal, nodal[1:]))
    ok = increasing and consecutive
    assert report("A2", ok,
                  f"rotation numbers {[round(r, 5) for r in rots]} strictly "
                  f"increasing: {increasing}; nodal indices {nodal} "
                  f"consecutive: {consecutive}")


@pytest.mark.xfail(strict=True,
                   reason="the n_r = 0 eigenfunction has constant phase "
                          "direction, so its rotation number is exactly 0; "
                          "no channel of this family realizes 0.5 "
                          "(see the module docstring)")
def test_a2_ground_rotation_half(records_plus):
    rot = records_plus[0].rot
    ok = abs(rot - 0.5) < 1e-4
    assert report("A2-ground-rot", ok,
                  f"rot(ground) = {rot:.6f}, quoted value 0.5 within 1e-4")


def test_a3_monotonicity(coulomb_plus, zero_plus):
    window = dg.select_truncation(coulomb_plus, (-0.9, 0.999), zero=zero_plus)
    grid = np.linspace(-0.9, 0.999, 50)
    out = dg.scan_spectrum(coulomb_plus, grid, window, zero_plus)
    ok = out.max_decrease <= 10.0 * 1e-8
    assert report("A3", ok,
                  f"shifted angle functional on a 50-point grid: largest "
                  f"decrease {out.max_decrease:.2e} (allowed 1e-7), "
                  f"{len(out.brackets)} level crossings bracketed")


def test_a4_formulation_equivalence():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(20260811 + seed)
        gamma = float(rng.uniform(-0.8, -0.2))
        k = int(rng.choice([-2, -1, 1, 2]))
        lam = float(rng.uniform(-0.5, 0.9))
        fam = dg.build_dirac_family(dg.DiracRadialParams(
            k=k, mu_a=0.0, potential=dg.coulomb_potential(gamma)))
        zd = dg.zero_data(fam)
        win = dg.TruncationWindow(x_zero=1e-3, x_inf=400.0, delta=2e-4,
                                  eps=1e-3)
        tp = dg.integrate_prufer(fam, lam, win, zd.theta_zero, rtol=1e-11)
        tc = dg.integrate_cartesian(
            fam, lam, win, (math.cos(zd.theta_zero), math.sin(zd.theta_zero)),
            rtol=1e-11)
        for x in np.geomspace(win.x_zero, win.x_inf, 64):
            worst = max(worst, abs(tp.state(x)[0] - tc.state(x)[3]))
    ok = worst < 1e-8
    assert report("A4", ok,
                  f"polar vs Cartesian unwrapped angle, 5 random families, "
                  f"64 points each: worst difference {worst:.2e} (< 1e-8)")


def test_a5_decay_exponents_and_normalization(coulomb_plus, zero_plus,
                                              records_plus):
    ground = records_plus[0]
    ef = dg.eigenfunction(coulomb_plus, ground, 400, zero=zero_plus)
    decay = ef.decay
    err_inf = abs(decay.exponent_inf - (-0.5)) / 0.5
    err_zero = abs(decay.exponent_zero - 0.8660254) / 0.8660254
    norm_err = abs(ef.norm_check - 1.0)
    ok = err_inf < 0.02 and err_zero < 0.02 and norm_err < 1e-6
    assert report("A5", ok,
                  f"ground-state decay slopes {decay.exponent_inf:.5f} "
                  f"(expect -0.5, rel err {err_inf:.1e}) and "
                  f"{decay.exponent_zero:.5f} (expect +0.8660254, rel err "
                  f"{err_zero:.1e}); independent normalization check off by "
                  f"{norm_err:.1e}")


def test_a6_accumulation(coulomb_plus, zero_plus, free_family):
    upper = dg.detect_accumulation(coulomb_plus, "upper")
    free = dg.detect_accumulation(free_family, "upper")
    window = dg.select_truncation(coulomb_plus, (0.9805, 0.9983),
                                  zero=zero_plus)
    scan = dg.scan_spectrum(coulomb_plus, np.linspace(0.9805, 0.9983, 40),
                            window, zero_plus)
    recs = [dg.find_eigenvalue(coulomb_plus, b.k, (b.lam_lo, b.lam_hi), 1e-9,
                               window=window, zero=zero_plus)
            for b in scan.brackets]
    high = [r for r in recs if r.lam > 0.98]
    close = all(
        min(abs(r.lam - sommerfeld(n)) for n in range(2, 10)) < 1e-5
        for r in high)
    ok = (upper.verdict == "accumulating" and free.verdict == "finite"
          and len(high) >= 5 and close)
    assert report("A6", ok,
                  f"upper-edge verdict '{upper.verdict}', free-field verdict "
                  f"'{free.verdict}', {len(high)} levels above 0.98 "
                  f"(all on the closed-form ladder: {close})")


def test_a7_hypothesis_gate(tmp_path):
    base = ("[problem]\nkind = pure-coulomb\ngamma = {gamma}\nk = -1\n"
            "mu_a = {mu_a}\n")
    results = {}
    for name, gamma, mu_a in (("supercritical", -0.99, 0.0),
                              ("critical", -1.0, 0.0),
                              ("regularized", -2.0, 1.0)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(base.format(gamma=gamma, mu_a=mu_a))
        results[name] = cli.main(["check", "--config", str(path),
                                  "--out", str(tmp_path / name), "--quiet"])
    ok = (results["supercritical"] == 2 and results["critical"] == 2
          and results["regularized"] == 0)
    assert report("A7", ok,
                  f"exit codes: gamma=-0.99 -> {results['supercritical']} "
                  f"(want 2), gamma=-1.0 -> {results['critical']} (want 2), "
                  f"anomalous gamma=-2 -> {results['regularized']} (want 0)")


def test_a8_branch_invariance(coulomb_plus, zero_plus, branch_window,
                              soler_coupling):
    t0 = time.perf_counter()
    scan = dg.scan_spectrum(coulomb_plus, np.linspace(0.5, 0.93, 9),
                            branch_window, zero_plus)
    br = scan.brackets[0]
    seed = dg.find_eigenvalue(coulomb_plus, br.k, (br.lam_lo, br.lam_hi),
                              1e-9, window=branch_window, zero=zero_plus)
    branch = dg.continue_branch(coulomb_plus, soler_coupling, seed,
                                ds=0.001, max_steps=22, window=branch_window,
                                zero=zero_plus)
    elapsed = time.perf_counter() - t0
    n = len(branch.points)
    res_ok = all(p.residual < 1e-8 for p in branch.points)
    idx_ok = branch.index_audit_ok and all(
        p.index == seed.nodal_index for p in branch.points)
    a2 = np.array([p.a for p in branch.points[:6]]) ** 2
    lam = np.array([p.lam for p in branch.points[:6]])
    lam0 = np.polyfit(a2, lam, 2)[-1]
    extrap_err = abs(lam0 - seed.lam)
    ok = (n >= 20 and res_ok and idx_ok and extrap_err < 1e-5
          and elapsed < 300.0)
    assert report("A8", ok,
                  f"{n} branch points (>= 20), index constant at "
                  f"{seed.nodal_index}: {idx_ok}, max residual "
                  f"{max(p.residual for p in branch.points):.1e} (< 1e-8), "
                  f"zero-amplitude extrapolation off by {extrap_err:.1e} "
                  f"(< 1e-5), runtime {elapsed:.0f}s (< 300s)")


def test_a9_window_robustness(coulomb_plus, zero_plus, oracle_pipeline):
    window = oracle_pipeline["window"]
    big = dg.TruncationWindow(x_zero=window.x_zero / 2.0,
                              x_inf=window.x_inf * 2.0,
                              delta=window.delta, eps=window.eps)
    worst = 0.0
    for rec in oracle_pipeline["records"]:
        moved = dg.find_eigenvalue(coulomb_plus, rec.k,
                                   (rec.lam - 1e-5, rec.lam + 1e-5), 1e-9,
                                   window=big, zero=zero_plus)
        worst = max(worst, abs(moved.lam - rec.lam))
    ok = worst < 1e-6
    assert report("A9", ok,
                  f"halving x_zero and doubling x_inf moves the levels by at "
                  f"most {worst:.2e} (< 1e-6)")
