"""The benchmark's outside-in hooks still find what they patch.

perfbench/tracing.py traces module attributes and counts coefficient
evaluations by swapping ``cli.build_dirac_family``; a refactor that renames
a traced attribute or bypasses one of them would silently break the traced
benchmark or zero its counts.  These checks import the tracer as it is.
"""

import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from diracgap import cli, spectrum

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_attributes_resolve(tracing):
    for module, attr in tracing.TRACED:
        name = f"{module.__name__}.{attr}"
        assert callable(getattr(module, attr, None)), name


def test_benchmark_and_readme_configs_load(tracing, tmp_path):
    # load_config rejects keys it does not read, so the configs the benchmark
    # writes (survey problems and refusal reproducers, with and without tol)
    # and the README's example must stay inside the schema
    workloads = importlib.import_module("workloads")
    refusals = importlib.import_module("refusals")
    cases = workloads.make_inputs("survey", 11) + list(refusals.SPECTRUM)
    for i, inp in enumerate(cases):
        for tol in (None, workloads.SURVEY_TOL):
            path = tmp_path / f"survey-{i}.cfg"
            path.write_text(workloads.survey_config(inp, tol))
            assert cli.load_config(path).x_inf_override == inp["x_inf"]
    readme = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    path = tmp_path / "readme.cfg"
    path.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    assert cli.load_config(path).coupling_spec is not None


def test_tracer_installs_and_restores(tracing):
    before = [getattr(module, attr) for module, attr in tracing.TRACED]
    with tracing.Tracer().install():
        pass
    assert [getattr(module, attr) for module, attr in tracing.TRACED] == before


def test_cli_spectrum_is_counted_and_traced(tracing, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[problem]\nkind = pure-coulomb\ngamma = -0.5\nk = 1\n"
                   "[numerics]\nlambda_min = 0.5\nlambda_max = 0.93\n"
                   "lambda_points = 4\nx_zero = 1e-3\nx_inf = 60.0\n")
    counter, tracer = tracing.CoeffCounter(), tracing.Tracer()
    lams_in_scan = []
    with tracing.counting_cli(counter), tracer.install():
        traced_nu_star = spectrum.nu_star

        def nu_star(family, lam, *args, **kwargs):
            # one vector call evaluates many lam values: count the values
            if any(tracer.spans[i].name == "spectrum.scan_spectrum"
                   for i in tracer._stack):
                lams_in_scan.append(np.size(lam))
            return traced_nu_star(family, lam, *args, **kwargs)

        with tracing.patched([(spectrum, "nu_star", nu_star)]):
            code = cli.main(["spectrum", "--config", str(cfg),
                             "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert counter.n > 0
    names = {s.name for s in tracer.spans}
    assert {"cli.build_dirac_family", "spectrum.scan_spectrum",
            "spectrum.find_eigenvalue", "spectrum.integrate_prufer"} <= names
    # the scan must reach the traced nu_star, or spectrum.scan_evals reads 0
    scan_span = next(i for i, s in enumerate(tracer.spans)
                     if s.name == "spectrum.scan_spectrum")
    assert tracing.count_below(tracer.spans, scan_span, "spectrum.nu_star") >= 1
    assert sum(lams_in_scan) >= 4


def test_root_solve_integrations_are_traced(tracing, coulomb_plus,
                                            zero_plus, fast_window):
    # every integration passes through spectrum.integrate_prufer: a solve
    # from a scan Bracket makes two halves per two-lane iterate and no other
    # run, or the prufer.* metrics and spectrum.matched_evals_per_level miss
    # the root solve
    scan = spectrum.scan_spectrum(coulomb_plus, np.linspace(0.5, 0.93, 4),
                                  fast_window, zero_plus)
    bracket = scan.brackets[0]
    tracer = tracing.Tracer()
    with tracer.install():
        record = spectrum.find_eigenvalue(coulomb_plus, bracket.k, bracket,
                                          window=fast_window, zero=zero_plus)
    assert tracing.count_below(tracer.spans, 0, "spectrum.integrate_prufer") \
        == 2 * len(record.history)


def test_cli_branch_shots_are_traced(tracing, tmp_path):
    # the shot spans read their integrator work off the Cartesian
    # trajectories, or prufer.cartesian_nfev reads 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[problem]\nkind = pure-coulomb\ngamma = -0.5\nk = 1\n"
                   "[numerics]\nlambda_min = 0.5\nlambda_max = 0.93\n"
                   "lambda_points = 4\nx_zero = 1e-3\nx_inf = 60.0\n"
                   "[branch]\nseed_k = 1\nds = 0.001\nmax_steps = 2\n"
                   "[coupling]\nkind = soler\n")
    tracer = tracing.Tracer()
    with tracer.install():
        code = cli.main(["branch", "--config", str(cfg),
                         "--out", str(tmp_path), "--quiet"])
    assert code == 0
    shots = [s for s in tracer.spans if s.name == "bifurcation.shoot_nonlinear"
             and s.error is None]
    assert shots and all(s.nfev > 0 for s in shots)
