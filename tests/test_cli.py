"""Config ingestion, command dispatch, persistence and exit codes."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diracgap import cli

COULOMB_BASE = """
[problem]
kind = pure-coulomb
gamma = -0.5
k = 1
mu_a = 0.0

[numerics]
lambda_min = 0.5
lambda_max = 0.93
lambda_points = 8
x_zero = 1e-3
x_inf = 250.0
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# -- parsing and validation -----------------------------------------------------

def test_parse_reports_line_numbers(tmp_path):
    path = write(tmp_path, "[problem]\nkind pure-coulomb\n")
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(path)
    assert any("line 2" in e for e in err.value.errors)


def test_key_outside_section_rejected(tmp_path):
    path = write(tmp_path, "k = 1\n[problem]\nkind = pure-coulomb\n")
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(path)
    assert any("outside any" in e for e in err.value.errors)


def test_missing_required_keys_collected(tmp_path):
    path = write(tmp_path, "[problem]\nkind = pure-coulomb\n")
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(path)
    joined = " ".join(err.value.errors)
    assert "gamma" in joined and "k:" in joined


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, COULOMB_BASE + "\n[mystery]\nx = 1\n")
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(path)
    assert any("mystery" in e for e in err.value.errors)


def test_grid_outside_gap_rejected(tmp_path):
    bad = COULOMB_BASE.replace("lambda_max = 0.93", "lambda_max = 1.25")
    path = write(tmp_path, bad)
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)


@pytest.mark.parametrize("old, new, line", [("k = 1", "k = yes", 5),
                                           ("gamma = -0.5", "gamma = on", 4)])
def test_boolean_words_rejected(tmp_path, old, new, line):
    # no schema key is boolean, so yes/on are not read as 1
    path = write(tmp_path, COULOMB_BASE.replace(old, new))
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(path)
    assert any(f"line {line}" in e for e in err.value.errors)


def test_config_loads_with_defaults(tmp_path):
    path = write(tmp_path, COULOMB_BASE)
    cfg = cli.load_config(path)
    assert cfg.params.k == 1
    assert cfg.rtol == 1e-10
    assert cfg.lam_grid.size == 8
    assert len(cfg.config_hash) == 16


def test_out_dir_precedence(tmp_path, monkeypatch):
    path = write(tmp_path, COULOMB_BASE + "\n[output]\ndir = cfgdir\n")
    cfg = cli.load_config(path)
    assert cfg.out_dir.name == "cfgdir"
    monkeypatch.setenv("DIRACGAP_OUT", "envdir")
    cfg = cli.load_config(path)
    assert cfg.out_dir.name == "envdir"
    cfg = cli.load_config(path, out_override="flagdir")
    assert cfg.out_dir.name == "flagdir"


def test_string_values_keep_inner_spaces(tmp_path, monkeypatch):
    # a path value is the text after '=', not a list of words
    monkeypatch.delenv("DIRACGAP_OUT", raising=False)
    folder = tmp_path / "my tables"
    folder.mkdir()
    table = folder / "coulomb v.csv"
    xs = np.geomspace(1e-7, 1e7, 60)
    table.write_text("".join(f"{x!r},{-0.5 / x!r}\n" for x in xs.tolist()))
    cfg = COULOMB_BASE.replace("kind = pure-coulomb\ngamma = -0.5",
                               f"kind = tabulated\ntable = {table}\n"
                               "gamma0 = -0.5\nalpha0 = 1.0\n"
                               "gamma_inf = -0.5\nalpha_inf = 1.0")
    loaded = cli.load_config(write(tmp_path, cfg + "\n[output]\n"
                                   "dir = my out  # comment\n"))
    assert loaded.out_dir == Path("my out")
    x = xs[20]                  # a table node: the spline reproduces it
    assert math.isclose(loaded.params.potential.v(x), -0.5 / x, rel_tol=1e-9)


@pytest.mark.parametrize("line, out_dir", [
    ("dir = runs#2", "runs#2"),
    ("dir = my out  # comment", "my out"),
    ("dir = tabbed\t# comment", "tabbed"),
])
def test_hash_starts_a_comment_only_after_whitespace(tmp_path, monkeypatch,
                                                     line, out_dir):
    # a '#' inside a word is part of the value; cutting every line at its
    # first '#' loaded runs#2 as runs, and output went elsewhere
    monkeypatch.delenv("DIRACGAP_OUT", raising=False)
    cfg = COULOMB_BASE + "\n# a whole-line comment\n[output]\n" + line + "\n"
    assert cli.load_config(write(tmp_path, cfg)).out_dir == Path(out_dir)


# -- exit codes -------------------------------------------------------------------

def test_check_accepts_coulomb(tmp_path, capsys):
    path = write(tmp_path, COULOMB_BASE)
    code = cli.main(["check", "--config", str(path), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "check_report.csv").exists()


def test_check_rejects_supercritical_coupling(tmp_path):
    cfg = COULOMB_BASE.replace("gamma = -0.5", "gamma = -0.99")
    path = write(tmp_path, cfg.replace("k = 1", "k = -1"))
    code = cli.main(["check", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2


def test_check_accepts_zero_coupling(tmp_path):
    # f_scale = 0 is F = 0, the linear problem, and its envelope is admissible
    cfg = COULOMB_BASE + "\n[coupling]\nkind = soler\nf_scale = 0.0\n"
    path = write(tmp_path, cfg)
    code = cli.main(["check", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 0
    text = (tmp_path / "check_report.csv").read_text()
    assert "coupling-envelope,True" in text


def test_check_accepts_anomalous_strong_coupling(tmp_path):
    cfg = COULOMB_BASE.replace("gamma = -0.5", "gamma = -2.0")
    cfg = cfg.replace("mu_a = 0.0", "mu_a = 1.0").replace("k = 1", "k = -1")
    path = write(tmp_path, cfg)
    code = cli.main(["check", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 0


@pytest.mark.parametrize("gamma, k, mu_a, admissible", [
    (-0.5, 1, 0.0, True),
    (-0.99, -1, 0.0, False),    # gamma0^2 above k^2 - 1/4
    (-2.0, -1, 1.0, True),
    (0.0, 1, 0.3, False),       # mu_a != 0 with gamma0 = 0
])
def test_check_states_the_origin_verdict_once(tmp_path, gamma, k, mu_a,
                                              admissible):
    # origin-determinant is the one admissibility row: no potential-coupling
    # row restates it, and it agrees with the admissible= header
    cfg = COULOMB_BASE.replace("gamma = -0.5", f"gamma = {gamma}")
    cfg = cfg.replace("k = 1", f"k = {k}").replace("mu_a = 0.0", f"mu_a = {mu_a}")
    code = cli.main(["check", "--config", str(write(tmp_path, cfg)), "--out",
                     str(tmp_path), "--quiet"])
    assert code == (0 if admissible else 2)
    text = (tmp_path / "check_report.csv").read_text()
    assert f"# admissible={admissible}\n" in text
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")]
    assert not [r for r in rows if r[0].startswith("potential-coupling")]
    assert [r[1] for r in rows if r[0] == "origin-determinant"] == [
        str(admissible)]


def test_malformed_config_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "problem\nkind =\n")
    code = cli.main(["check", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, line", [
    ("x_zero = 1e-3", "x_zero = 0.0", 12),
    ("x_zero = 1e-3", "x_zero = 300.0", 13),
    ("x_zero = 1e-3\nx_inf = 250.0", "x_inf = 1e-5", 12),
])
def test_bad_window_override_is_usage_error(tmp_path, capsys, old, new, line):
    path = write(tmp_path, COULOMB_BASE.replace(old, new))
    code = cli.main(["spectrum", "--config", str(path), "--out",
                     str(tmp_path), "--quiet"])
    assert code == 1
    assert f"line {line}" in capsys.readouterr().err


def test_unknown_key_is_usage_error(tmp_path, capsys):
    # a misspelt key used to leave the default lambda_max = 0.999 in force
    path = write(tmp_path, COULOMB_BASE.replace("lambda_max", "lamda_max"))
    code = cli.main(["spectrum", "--config", str(path), "--out",
                     str(tmp_path), "--quiet"])
    assert code == 1
    assert "line 10: [numerics] lamda_max: unknown key" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path):
    code = cli.main(["check", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1


SOLER = "\n[coupling]\nkind = soler\n"


@pytest.mark.parametrize("command, extra, bad", [
    ("spectrum", "\n[spectrum]\nk = abc\n", "k = abc"),
    ("spectrum", "\n[spectrum]\nk = 1.5\n", "k = 1.5"),
    ("spectrum", "\n[spectrum]\nk = 1 2.7\n", "k = 1 2.7"),
    ("spectrum", "rtol = -1e-10\n", "rtol = -1e-10"),
    ("spectrum", "atol = 1e-12\n", "atol = 1e-12"),
    ("spectrum", "tol = 0\n", "tol = 0"),
    ("spectrum", "delta = inf\n", "delta = inf"),
    ("spectrum", "lambda_points = 1\n", "lambda_points = 1"),
    ("eigenfunction", "\n[eigenfunction]\nk = 1\nsamples = 0\n", "samples = 0"),
    ("accumulation", "\n[accumulation]\nschedule = -5 10\n", "schedule = -5 10"),
    ("branch", "\n[branch]\nseed_k = 1\nds = -0.001\n" + SOLER, "ds = -0.001"),
    ("branch", "\n[branch]\nseed_k = 1\nmax_steps = 0\n" + SOLER,
     "max_steps = 0"),
    ("branch", "\n[branch]\nseed_k = 1\n" + SOLER + "constant = 0\n",
     "constant = 0"),
])
def test_bad_value_is_usage_error_naming_its_line(tmp_path, capsys, command,
                                                  extra, bad):
    # these used to run (k = 1.5 solved level 1, rtol = -1e-10 ran at scipy's
    # clamped tolerance) or end in a rejection (exit 2) after the work
    text = COULOMB_BASE + extra
    path = write(tmp_path, text)
    code = cli.main([command, "--config", str(path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 1
    line = text.splitlines().index(bad) + 1
    assert f"line {line}: " in capsys.readouterr().err


def test_coupling_without_kind_is_one_error(tmp_path):
    path = write(tmp_path, COULOMB_BASE + "\n[coupling]\nf_scale = 1.0\n")
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(path)
    assert err.value.errors == ["[coupling] kind: missing required key"]


def test_unattainable_window_is_rejection(tmp_path, capsys):
    cfg = COULOMB_BASE.replace("x_zero = 1e-3\nx_inf = 250.0\n",
                               "delta = 1e-30\n")
    path = write(tmp_path, cfg)
    code = cli.main(["spectrum", "--config", str(path), "--out",
                     str(tmp_path), "--quiet"])
    assert code == 2
    assert "rejected" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, note", [
    # x_zero = 5 lies above the origin's asymptotic region; the root solve
    # then meets a jump of nu_star with a message that names no config key
    ("x_zero = 1e-3", "x_zero = 5.0",
     "line 12: [numerics] x_zero and line 13: [numerics] x_inf given"),
    ("x_zero = 1e-3\n", "delta = 1e-30\n", "line 13: [numerics] x_inf given"),
    ("x_zero = 1e-3\nx_inf = 250.0\n", "delta = 1e-30\n", None),
])
def test_rejection_names_the_given_cutoffs(tmp_path, capsys, old, new, note):
    path = write(tmp_path, COULOMB_BASE.replace(old, new))
    code = cli.main(["spectrum", "--config", str(path), "--out",
                     str(tmp_path), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("rejected: ")
    assert err[1:] == ([f"note: {note}; a given cutoff is not examined"]
                       if note else [])


def test_rejection_names_a_jump_the_window_does_not_resolve(tmp_path,
                                                            capsys):
    # the README config with x_zero = 2.0: on the selected window nu_star
    # jumps by pi between two adjacent floats at the ground state, and the
    # root solve stalls at residual 0.516, which is no residual floor
    cfg = COULOMB_BASE.replace("lambda_max = 0.93", "lambda_max = 0.995")
    cfg = cfg.replace("lambda_points = 8", "lambda_points = 12")
    path = write(tmp_path, cfg.replace("x_zero = 1e-3\nx_inf = 250.0\n",
                                       "x_zero = 2.0\n"))
    code = cli.main(["spectrum", "--config", str(path), "--out",
                     str(tmp_path), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()[0]
    assert err.startswith("rejected: nu_star jumps across the closed bracket")
    assert err.endswith("the window does not resolve the level")
    assert "residual 0.516 " in err and "floor" not in err


def test_given_x_inf_skips_the_cone_test_at_infinity(tmp_path):
    # at lambda_max = 0.999999 the cone at infinity reaches pi/2, so a
    # selected x_inf is rejected; a given one replaces that end's tests
    cfg = COULOMB_BASE.replace("lambda_max = 0.93", "lambda_max = 0.999999")
    path = write(tmp_path, cfg.replace("x_zero = 1e-3\n", "")
                 + "\n[spectrum]\nk = 1\n")
    code = cli.main(["spectrum", "--config", str(path), "--out",
                     str(tmp_path), "--quiet"])
    assert code == 0
    assert "x_inf=250.0 " in (tmp_path / "spectrum.csv").read_text()


def test_unwritable_output_directory_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, COULOMB_BASE)
    (tmp_path / "plainfile").write_text("x")
    code = cli.main(["check", "--config", str(path), "--out",
                     str(tmp_path / "plainfile" / "sub"), "--quiet"])
    assert code == 1
    assert "plainfile" in capsys.readouterr().err


def test_every_error_class_maps_to_an_exit_code():
    # ConfigError exits 1 and every other error class of the package is a
    # rejection (exit 2), so none of them reaches the user as a traceback
    import importlib
    import inspect
    import pkgutil

    import diracgap
    classes = set()
    for info in pkgutil.iter_modules(diracgap.__path__):
        module = importlib.import_module(f"diracgap.{info.name}")
        classes |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, BaseException)
                    and cls.__module__ == module.__name__}
    assert cli.ConfigError in classes and len(classes) > 1
    for cls in classes - {cli.ConfigError}:
        assert issubclass(cls, cli.REJECTIONS), cls.__name__


# -- spectrum command --------------------------------------------------------------

def test_spectrum_finds_ground_state(tmp_path, capsys):
    path = write(tmp_path, COULOMB_BASE)
    code = cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "spectrum.csv").read_text()
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "k,lambda,rot,nodal_index,residual"
    row = lines[1].split(",")
    assert abs(float(row[1]) - math.sqrt(3.0) / 2.0) < 1e-8
    assert int(row[3]) == 0


def test_readme_spectrum_evaluates_p_at_9171_points(tmp_path, monkeypatch):
    # the README config's spectrum run, its families counting every point
    # they are given as the benchmark's counter does (np.size(x)): a change
    # to the sample table that draws more moves the pin.  The lane runs
    # sample P in batches, so the points come in far fewer calls
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    path = write(tmp_path, re.search(r"```ini\n(.*?)```", readme, re.S)[1])
    seen, build = [], cli.build_dirac_family

    def counted(params):
        family = build(params)

        def coeffs(x):
            seen.append(np.size(x))
            return family.coeffs(x)

        return dataclasses.replace(family, coeffs=coeffs)

    monkeypatch.setattr(cli, "build_dirac_family", counted)
    assert cli.main(["spectrum", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 0
    assert sum(seen) == 9171
    assert len(seen) <= 400


def test_check_and_spectrum_load_no_scipy(tmp_path):
    # in a fresh interpreter, since the tests themselves import scipy: the
    # package imports it only where a DOP853 run (branch) or a tabulated
    # spline starts, so every linear command of the README config, and
    # accumulation at both edges, runs on numpy alone
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    text = re.search(r"```ini\n(.*?)```", readme, re.S)[1]
    path, lower = write(tmp_path, text), write(tmp_path, re.sub(
        r"(?m)^endpoint = .*$", "endpoint = lower", text), "lower.cfg")
    script = f"""
import sys
import diracgap.cli as cli
print(sorted(m for m in sys.modules if m.startswith("scipy")))
for command, cfg in (("check", {str(path)!r}), ("spectrum", {str(path)!r}),
                     ("eigenfunction", {str(path)!r}),
                     ("accumulation", {str(path)!r}),
                     ("accumulation", {str(lower)!r})):
    assert cli.main([command, "--config", cfg, "--out",
                     {str(tmp_path / "out")!r}, "--quiet"]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "[]"]
    for name in ("spectrum", "eigenfunction", "accumulation"):
        assert (tmp_path / "out" / f"{name}.csv").exists()


def test_spectrum_empty_for_zero_potential(tmp_path):
    cfg = COULOMB_BASE.replace("gamma = -0.5", "gamma = 0.0")
    cfg = cfg.replace("k = 1", "k = -1")
    path = write(tmp_path, cfg)
    code = cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 0
    lines = [l for l in (tmp_path / "spectrum.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 1      # header only


def test_spectrum_rejects_inadmissible_family(tmp_path):
    cfg = COULOMB_BASE.replace("gamma = -0.5", "gamma = -1.0")
    path = write(tmp_path, cfg.replace("k = 1", "k = -1"))
    code = cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 2


@pytest.mark.parametrize("command, extra", [
    ("spectrum", ""),
    ("eigenfunction", "\n[eigenfunction]\nk = 1\n"),
    ("accumulation", ""),
])
def test_inadmissible_family_is_reported_on_stderr(tmp_path, capsys, command,
                                                   extra):
    # det of the origin limit is 0 >= -1/4; this used to exit 2 in silence
    cfg = COULOMB_BASE.replace("gamma = -0.5", "gamma = -1.0")
    path = write(tmp_path, cfg.replace("k = 1", "k = -1") + extra)
    code = cli.main([command, "--config", str(path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "not admissible" in err and "det 0 >= -1/4" in err


def test_missing_level_is_reported_on_stderr(tmp_path, capsys):
    path = write(tmp_path, COULOMB_BASE + "\n[eigenfunction]\nk = 9\n")
    code = cli.main(["eigenfunction", "--config", str(path), "--out",
                     str(tmp_path), "--quiet"])
    assert code == 2
    assert "no level k=9" in capsys.readouterr().err


def test_outputs_reproducible_byte_for_byte(tmp_path):
    path = write(tmp_path, COULOMB_BASE)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert cli.main(["spectrum", "--config", str(path), "--out", str(out1),
                     "--quiet"]) == 0
    assert cli.main(["spectrum", "--config", str(path), "--out", str(out2),
                     "--quiet"]) == 0
    b1 = (out1 / "spectrum.csv").read_bytes()
    b2 = (out2 / "spectrum.csv").read_bytes()
    assert b1 == b2
    assert b"config_hash=" in b1


def test_spectrum_on_tabulated_coulomb(tmp_path):
    # V is the spline through the table itself, so a table of -0.5/x must
    # give the Coulomb ground state
    table = tmp_path / "coulomb.csv"
    xs = np.geomspace(1e-7, 1e7, 600)
    table.write_text("x,V\n" + "".join(f"{x!r},{-0.5 / x!r}\n"
                                       for x in xs.tolist()))
    cfg = COULOMB_BASE.replace("kind = pure-coulomb\ngamma = -0.5",
                               f"kind = tabulated\ntable = {table}\n"
                               "gamma0 = -0.5\nalpha0 = 1.0\n"
                               "gamma_inf = -0.5\nalpha_inf = 1.0")
    path = write(tmp_path, cfg)
    assert cli.main(["spectrum", "--config", str(path), "--out",
                     str(tmp_path), "--quiet"]) == 0
    lines = [l for l in (tmp_path / "spectrum.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    row = lines[1].split(",")
    assert int(row[0]) == 1
    assert abs(float(row[1]) - math.sqrt(3.0) / 2.0) < 1e-6


# -- the other commands -------------------------------------------------------------

def test_eigenfunction_command(tmp_path, capsys):
    cfg = COULOMB_BASE + "\n[eigenfunction]\nk = 1\nsamples = 100\n"
    path = write(tmp_path, cfg)
    code = cli.main(["eigenfunction", "--config", str(path), "--out",
                     str(tmp_path)])
    assert code == 0
    text = (tmp_path / "eigenfunction.csv").read_text()
    assert "decay_inf=" in text
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "x,u,v"
    assert len(lines) == 101


def test_eigenfunction_requires_level(tmp_path):
    path = write(tmp_path, COULOMB_BASE)
    code = cli.main(["eigenfunction", "--config", str(path), "--out",
                     str(tmp_path), "--quiet"])
    assert code == 1


def test_accumulation_command(tmp_path, capsys):
    cfg = COULOMB_BASE + "\n[accumulation]\nschedule = 1e2 1e3 1e4\n"
    path = write(tmp_path, cfg)
    code = cli.main(["accumulation", "--config", str(path), "--out",
                     str(tmp_path)])
    assert code == 0
    text = (tmp_path / "accumulation.csv").read_text()
    assert "verdict=accumulating" in text
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "X,theta"
    assert len(lines) == 4


def test_accumulation_crossing_names_the_x_zero_line(tmp_path, capsys):
    # x_zero above the schedule's end crosses it, as it would cross x_inf
    path = write(tmp_path, COULOMB_BASE.replace("x_zero = 1e-3\nx_inf = 250.0",
                                                "x_zero = 1e6"))
    code = cli.main(["accumulation", "--config", str(path), "--out",
                     str(tmp_path), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: line 12: [numerics] x_zero: " in err
    assert "window 1000000.0 .. 100000.0" in err


def test_accumulation_schedule_below_x_zero_names_its_line(tmp_path, capsys):
    # a point below x_zero = 1.78e-4, and a last point less than two decades
    # above it, where the settling test would read below the window
    for schedule, reason in (
            ("1e-6 1e2 1e3", "schedule point 1e-06 below the origin cutoff 0.0"),
            ("0.01", "last schedule point 0.01 within two decades of the "
                     "origin cutoff 0.0"),
            ("0.005 0.01", "last schedule point 0.01 within two decades")):
        text = (COULOMB_BASE.replace("x_zero = 1e-3\n", "")
                + f"\n[accumulation]\nschedule = {schedule}\n")
        path = write(tmp_path, text)
        code = cli.main(["accumulation", "--config", str(path), "--out",
                         str(tmp_path), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        line = text.splitlines().index(f"schedule = {schedule}") + 1
        assert f"config error: line {line}: [accumulation] schedule: " in err
        assert reason in err
        assert not (tmp_path / "accumulation.csv").exists()


def test_branch_command(tmp_path):
    cfg = COULOMB_BASE.replace("x_inf = 250.0", "x_inf = 60.0")
    cfg += ("\n[branch]\nseed_k = 1\nds = 0.001\nmax_steps = 4\n"
            "\n[coupling]\nkind = soler\n")
    path = write(tmp_path, cfg)
    code = cli.main(["branch", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 0
    text = (tmp_path / "branch.csv").read_text()
    assert "index_audit_ok=True" in text
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "step,lambda,amplitude,l2norm,j,i,residual"
    assert len(lines) == 5
    assert (tmp_path / "branch_solution.csv").exists()


def test_eigenfunction_and_branch_do_not_depend_on_the_shared_table(
        tmp_path):
    # the CLI hands the scan's WindowSamples on to the eigenfunction and the
    # branch; each gives what it gives with a table of its own, bit for bit
    cfg = COULOMB_BASE.replace("x_inf = 250.0", "x_inf = 60.0")
    cfg += "\n[branch]\nseed_k = 1\nmax_steps = 3\n\n[coupling]\nkind = soler\n"
    run = cli.load_config(write(tmp_path, cfg))
    family, zero, window, (rec,), samples = cli._solve_levels(run, level=1)

    def solve(table):
        ef = cli.spectrum.eigenfunction(family, rec, zero=zero, samples=table)
        branch = cli.bifurcation.continue_branch(
            family, cli._build_coupling(run), rec, 1e-3, 3, window=window,
            zero=zero, samples=table)
        return [ef.x, ef.u, ef.v, ef.norm_check, ef.decay] + [
            value for p in branch.points for value in vars(p).values()]

    own, shared = solve(None), solve(samples)
    assert len(own) == len(shared) > 5
    for a, b in zip(own, shared):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_branch_from_an_excited_level_passes_the_index_audit(tmp_path):
    # the README config from the level-2 seed on [1e-3, 120]: its backward
    # amplitude is negative, and the audit used to fail with i = 2
    cfg = COULOMB_BASE.replace("lambda_max = 0.93", "lambda_max = 0.995")
    cfg = cfg.replace("lambda_points = 8", "lambda_points = 12")
    cfg = cfg.replace("x_inf = 250.0", "x_inf = 120.0")
    cfg += ("\n[branch]\nseed_k = 2\nds = 0.001\nmax_steps = 3\n"
            "\n[coupling]\nkind = soler\n")
    path = write(tmp_path, cfg)
    code = cli.main(["branch", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 0
    text = (tmp_path / "branch.csv").read_text()
    assert "index_audit_ok=True" in text
    rows = [l.split(",") for l in text.splitlines()
            if l and not l.startswith("#")][1:]
    assert len(rows) == 3
    assert all(r[5] == "1" for r in rows)


def test_branch_zero_coupling_stays_at_seed(tmp_path):
    # with F = 0 every branch point solves the linear problem at the seed lam
    cfg = COULOMB_BASE.replace("x_inf = 250.0", "x_inf = 60.0")
    cfg += ("\n[branch]\nseed_k = 1\nds = 0.001\nmax_steps = 2\n"
            "\n[coupling]\nkind = soler\nf_scale = 0.0\n")
    path = write(tmp_path, cfg)
    code = cli.main(["branch", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 0
    text = (tmp_path / "branch.csv").read_text()
    seed = float(text.split("seed_lambda=")[1].split()[0])
    rows = [l.split(",") for l in text.splitlines()
            if l and not l.startswith("#")][1:]
    assert len(rows) == 2
    assert all(abs(float(r[1]) - seed) < 1e-9 for r in rows)


def test_branch_requires_coupling(tmp_path):
    cfg = COULOMB_BASE + "\n[branch]\nseed_k = 1\n"
    path = write(tmp_path, cfg)
    code = cli.main(["branch", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 1


def test_rejected_coupling_is_math_error(tmp_path):
    # constant-power weight keeps the envelope from decaying at infinity
    cfg = COULOMB_BASE + ("\n[branch]\nseed_k = 1\n[coupling]\nkind = soler\n"
                          "gamma_power = 0.0\ngamma_scale = 1.0\n")
    cfg = cfg.replace("gamma_scale = 1.0", "gamma_scale = 1.0")
    path = write(tmp_path, cfg)
    code = cli.main(["branch", "--config", str(path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 2
