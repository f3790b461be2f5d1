"""Pin the tracer to hand counts of the A1 and A8 problems; check determinism.

    python3 perfbench/pin_counts.py

Run from the root of a source checkout.  The expected counts were taken by
hand on the commit that introduced the benchmark; an algorithmic change to
the package moves them on purpose, and this script then reports which count
moved.  It also checks that a seed always gives the same inputs, that
another seed gives other inputs, and that two traced runs of the same
problem give identical work counts.  Exit code 0 when everything matches.

Last, it runs the known refusals of valid problems that the workloads' input
ranges leave out (``refusals.py``) and reports whether each still occurs;
these lines do not change the exit code (the traced run counts them as
``spectrum.known_refusals``).
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import shutil                                             # noqa: E402

import numpy as np                                        # noqa: E402

import diracgap.bifurcation                              # noqa: E402
import diracgap.cli                                      # noqa: E402
import diracgap.model                                    # noqa: E402
import diracgap.spectrum                                 # noqa: E402
from diracgap.asymptotics import TruncationWindow, zero_data  # noqa: E402

import refusals                                          # noqa: E402
import tracing                                           # noqa: E402
import workloads                                         # noqa: E402

WORK = HERE.parent / ".perfbench" / "pin-work"

A1_EXPECTED = {"scan_evals": 34, "matched_evals": [8, 19, 15],
               "coeff_evals": 2_017_822}
A8_EXPECTED = {"shots": 523, "corrector_accepted": 22, "corrector_failed": 12,
               "coeff_evals": 890_394}


def _coulomb(counter):
    family = diracgap.model.build_dirac_family(diracgap.model.DiracRadialParams(
        k=1, mu_a=0.0, potential=diracgap.model.coulomb_potential(-0.5)))
    return counter.wrap_family(family), zero_data(family)


def _top(spans, name):
    return [i for i, s in enumerate(spans) if s.parent is None and s.name == name]


def a1_counts() -> dict:
    """Window over (-0.9, 0.995), 30-point scan on [-0.9, 0.993], 3 levels."""
    spectrum = diracgap.spectrum
    counter, tracer = tracing.CoeffCounter(), tracing.Tracer()
    family, zero = _coulomb(counter)
    with tracer.install():
        window = spectrum.select_truncation(family, (-0.9, 0.995), zero=zero)
        scan = spectrum.scan_spectrum(family, np.linspace(-0.9, 0.993, 30),
                                      window, zero)
        for br in scan.brackets[:3]:
            spectrum.find_eigenvalue(family, br.k, (br.lam_lo, br.lam_hi), 1e-9,
                                     window=window, zero=zero)
    sp, below = tracer.spans, tracing.count_below
    scan_i = _top(sp, "spectrum.scan_spectrum")[0]
    return {"scan_evals": below(sp, scan_i, "spectrum.nu_star"),
            "matched_evals": [below(sp, i, "spectrum.integrate_prufer") // 2
                              for i in _top(sp, "spectrum.find_eigenvalue")],
            "coeff_evals": counter.n}


def a8_counts() -> dict:
    """Ground-state seed on [1e-3, 60], 22-step Soler branch, ds = 1e-3."""
    spectrum = diracgap.spectrum
    counter, tracer = tracing.CoeffCounter(), tracing.Tracer()
    family, zero = _coulomb(counter)
    window = TruncationWindow(x_zero=1e-3, x_inf=60.0, delta=2e-4, eps=1e-3)
    coupling = diracgap.model.build_soler_coupling(
        lambda r: r * r / (1.0 + r ** 5), lambda s: s, 1.0)
    with tracer.install(), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        scan = spectrum.scan_spectrum(family, np.linspace(0.5, 0.93, 9),
                                      window, zero)
        br = scan.brackets[0]
        seed = spectrum.find_eigenvalue(family, br.k, (br.lam_lo, br.lam_hi),
                                        1e-9, window=window, zero=zero)
        diracgap.bifurcation.continue_branch(family, coupling, seed, ds=1e-3,
                                             max_steps=22, window=window,
                                             zero=zero)
    corr = [s for s in tracer.spans if s.name == "bifurcation.solve_point"]
    failed = sum(1 for s in corr if s.error == "CorrectorError")
    return {"shots": sum(1 for s in tracer.spans
                         if s.name == "bifurcation.shoot_nonlinear"),
            "corrector_accepted": len(corr) - failed,
            "corrector_failed": failed,
            "coeff_evals": counter.n}


def traced_counts(workload: str, seed: int) -> dict:
    """Count-valued layer metrics of the first problem of a seeded list."""
    counter, tracer = tracing.CoeffCounter(), tracing.Tracer()
    prepared = workloads.prepare(workload, workloads.make_inputs(workload, seed)[:1],
                                 counter)
    with tracing.counting_cli(counter), tracer.install():
        out = workloads.run_problem(workload, prepared[0], WORK)
    if out.failure:
        raise RuntimeError(f"{workload} problem 0 failed: {out.failure}")
    layers = tracing.layer_metrics(tracer.spans, out.levels, out.points)
    counts = {k: v for k, v in layers.items() if isinstance(v, int)}
    counts["model.coeff_evals"] = counter.n
    return counts


def main() -> int:
    ok = True

    def report(name, got, want):
        nonlocal ok
        ok &= got == want
        print(f"{'PASS' if got == want else 'FAIL'} {name}: {got} (expected {want})")

    for w in workloads.WORKLOADS:
        same = workloads.make_inputs(w, 1) == workloads.make_inputs(w, 1)
        other = workloads.make_inputs(w, 1) != workloads.make_inputs(w, 2)
        report(f"{w} inputs: seed repeats, other seed differs", same and other, True)
    for w in workloads.WORKLOADS:
        report(f"{w} traced counts repeat", traced_counts(w, 1) == traced_counts(w, 1),
               True)
    for key, value in a1_counts().items():
        report(f"A1 {key}", value, A1_EXPECTED[key])
    for key, value in a8_counts().items():
        report(f"A8 {key}", value, A8_EXPECTED[key])
    for name, refused in refusals.run_all(WORK):
        print(f"KNOWN REFUSAL {'still occurs' if refused else 'gone'}: {name}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
