"""Command line front end: config ingestion, dispatch, result persistence.

One run is described by one config file (INI-style sections of key = value
pairs, schema below); command line flags only override file values, so the
file stays the canonical record of a run.  Every output file starts with a
comment header carrying the config hash, window and tolerances, and contains
no wall-clock data, so re-running an identical config reproduces the files
byte for byte.

Exit codes: 0 success, 1 usage or config error (also an output directory
that cannot be written), 2 mathematical rejection or non-convergence (an
inadmissible origin, a level missing from the scan grid, ...).  Errors and
rejections are reported on stderr, also under --quiet.

Config schema (sections and keys, defaults in brackets).  A `#` starts a
comment at the start of a line or after whitespace, so `dir = runs#2` is
the path `runs#2` and `dir = my out  # note` the path `my out`.  A string
value (a kind, a path) is the text after `=`, taken verbatim, inner spaces
included.  Every number must be finite; integers are written as integers;
values marked (> 0) must be positive, counts at least 1, and a bad value
exits 1 naming its line:

    [problem]
    kind        pure-coulomb | tabulated            (required)
    gamma       leading coefficient, pure-coulomb   (required for pure-coulomb)
    table       CSV path, tabulated                 (required for tabulated)
    gamma0 alpha0 gamma_inf alpha_inf               (required for tabulated)
    k           nonzero integer                     (required)
    mu_a        anomalous moment                    [0.0]

    [numerics]
    rtol [1e-10]  delta [1e-4 * gap width]  eps [1e-3]  (> 0)
    rtol sets the Magnus mesh of every linear run (some parts on that of
    rtol / 100) and the DOP853 tolerance of branch alone, whose absolute
    tolerance is rtol / 100.
    lambda_min lambda_max lambda_points   scan grid       [-0.9, 0.999, 50]
    x_zero x_inf                          window overrides (optional; > 0,
                                          x_zero below x_inf); a given end is
                                          not examined (a rejection names
                                          it), the other is still selected,
                                          a crossing exits 1
    tol [1e-9]                            eigenvalue residual tolerance (> 0)

    [output]
    dir         output directory          [.]  (env DIRACGAP_OUT overrides,
                                               flag --out overrides both)

    [spectrum]
    k           explicit level indices, space separated integers (optional)

    [eigenfunction]
    k           level index               (required by the command)
    samples     count                     [512]

    [accumulation]
    endpoint    upper | lower             [upper]
    schedule    space separated X values (> 0)  [1e2 1e3 1e4 1e5]
                above the origin cutoff x_zero, the last at least
                100 x_zero (else exit 1)

    [branch]
    seed_k      level index of the seed   (required by the command)
    ds          amplitude step (> 0)      [0.05]
    max_steps   count                     [25]
    a_max       (> 0)                     [10.0]

    [coupling]
    kind        soler                     (required by branch)
    f           linear                    [linear], F(s) = f_scale * s
    f_scale     [1.0]
    gamma_scale gamma_power               gamma(r) = scale * r^2 / (1 + r^power)
                                          [1.0, 5.0]
    constant    angular constant (> 0)    [4*pi]
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import bifurcation, model, spectrum
from .asymptotics import (CrossedCutoffError, NoWindowError, TruncationWindow,
                          select_truncation, zero_data)
from .model import (CouplingRejectedError, build_dirac_family,
                    build_soler_coupling, validate_hypotheses)
from .prufer import DEFAULT_RTOL, IntegrationError, WindowSamples
from .spectrum import AngleMismatchError, ConvergenceError, MonotonicityError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2


class ConfigError(ValueError):
    """Config schema violations, each with a file line reference."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# every other error the package raises is a rejection (exit 2); ValueError
# covers BracketError, MissingDerivativeError and CouplingRejectedError
REJECTIONS = (ValueError, NoWindowError, ConvergenceError, MonotonicityError,
              AngleMismatchError, IntegrationError, bifurcation.CorrectorError)


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

_COMMENT = re.compile(r"(?:^|\s)#.*")     # a '#' inside a word is text


def parse_config_text(text: str) -> dict:
    """Parse section/key-value text into {section: {key: (text, line)}}.

    Values are kept as their stripped text; load_config types them.
    """
    sections: dict = {}
    current = None
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                errors.append(f"line {lineno}: empty section name")
                current = None
            else:
                sections.setdefault(current, {})
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside any [section]")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key or not val:
            errors.append(f"line {lineno}: empty key or value")
            continue
        sections[current][key] = (val, lineno)
    if errors:
        raise ConfigError(errors)
    return sections


@dataclass
class RunConfig:
    """Fully validated run description (problem, numerics, tasks, output)."""

    params: model.DiracRadialParams
    rtol: float
    delta: Optional[float]
    eps: float
    lam_grid: np.ndarray
    tol: float
    x_zero_override: Optional[float]
    x_inf_override: Optional[float]
    out_dir: Path
    task: dict = field(default_factory=dict)
    lines: dict = field(default_factory=dict)   # (section, key) -> line
    config_hash: str = ""
    coupling_spec: Optional[dict] = None


_KNOWN_SECTIONS = {"problem", "numerics", "output", "spectrum",
                   "eigenfunction", "accumulation", "branch", "coupling"}


def load_config(path, out_override: Optional[str] = None) -> RunConfig:
    """Read, parse and validate a config file; collects all schema errors."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()[:16]
    sections = parse_config_text(raw.decode("utf-8"))
    errors = []

    for name in sections:
        if name not in _KNOWN_SECTIONS:
            errors.append(f"unknown section [{name}]")
    read = set()

    def bad(section, key, message):
        entry = sections.get(section, {}).get(key)
        errors.append((f"line {entry[1]}: " if entry else "")
                      + f"[{section}] {key}: {message}")

    def get(section, key, default=None, required=False, kind=str,
            positive=False):
        # kind is str (the text verbatim), int, float, or [int] / [float] for
        # a space separated list of them
        read.add((section, key))
        entry = sections.get(section, {}).get(key)
        if entry is None:
            if required:
                bad(section, key, "missing required key")
            return default
        text = entry[0]
        if kind is str:
            return text
        many = isinstance(kind, list)
        item = kind[0] if many else kind
        try:
            values = [item(t) for t in (text.split() if many else [text])]
            ok = all(math.isfinite(v) and (v > 0 or not positive)
                     for v in values)
        except (ValueError, OverflowError):     # not a number, or a huge int
            ok = False
        if ok:
            return values if many else values[0]
        bad(section, key, "expected " + ("positive " if positive else "")
            + item.__name__ + (" values" if many else ""))
        return default

    kind = get("problem", "kind", required=True)
    k = get("problem", "k", required=True, kind=int)
    mu_a = get("problem", "mu_a", 0.0, kind=float)
    pot = None
    if kind == "pure-coulomb":
        gamma = get("problem", "gamma", required=True, kind=float)
        if gamma is not None:
            pot = model.coulomb_potential(gamma)
    elif kind == "tabulated":
        table = get("problem", "table", required=True)
        g0 = get("problem", "gamma0", required=True, kind=float)
        a0 = get("problem", "alpha0", required=True, kind=float)
        gi = get("problem", "gamma_inf", required=True, kind=float)
        ai = get("problem", "alpha_inf", required=True, kind=float)
        if not errors:
            try:
                pot = model.tabulated_potential_from_csv(table, g0, a0, gi, ai)
            except (OSError, ValueError) as exc:
                bad("problem", "table", exc)
    elif kind is not None:
        bad("problem", "kind", f"unknown kind {kind!r} "
            "(config supports pure-coulomb and tabulated)")

    if k == 0:
        bad("problem", "k", "must be nonzero")

    rtol = get("numerics", "rtol", DEFAULT_RTOL, kind=float, positive=True)
    delta = get("numerics", "delta", None, kind=float, positive=True)
    eps = get("numerics", "eps", 1e-3, kind=float, positive=True)
    tol = get("numerics", "tol", 1e-9, kind=float, positive=True)
    lam_min = get("numerics", "lambda_min", -0.9, kind=float)
    lam_max = get("numerics", "lambda_max", 0.999, kind=float)
    lam_pts = get("numerics", "lambda_points", 50, kind=int)
    xz = get("numerics", "x_zero", None, kind=float, positive=True)
    xi = get("numerics", "x_inf", None, kind=float, positive=True)
    if lam_min >= lam_max:
        bad("numerics", "lambda_max", "must exceed lambda_min")
    if not (-1.0 < lam_min and lam_max < 1.0):
        bad("numerics", "lambda_min" if lam_min <= -1.0 else "lambda_max",
            "scan grid must lie inside the gap (-1, 1)")
    if lam_pts < 2:
        bad("numerics", "lambda_points", "must be at least 2")
    if xz is not None and xi is not None and xz >= xi:
        bad("numerics", "x_inf", "window override must exceed x_zero")

    task = {
        "spectrum_k": get("spectrum", "k", None, kind=[int]),
        "eigenfunction_k": get("eigenfunction", "k", None, kind=int),
        "samples": get("eigenfunction", "samples", 512, kind=int, positive=True),
        "endpoint": get("accumulation", "endpoint", "upper"),
        "schedule": get("accumulation", "schedule", [1e2, 1e3, 1e4, 1e5],
                        kind=[float], positive=True),
        "seed_k": get("branch", "seed_k", None, kind=int),
        "ds": get("branch", "ds", 0.05, kind=float, positive=True),
        "max_steps": get("branch", "max_steps", 25, kind=int, positive=True),
        "a_max": get("branch", "a_max", 10.0, kind=float, positive=True),
    }
    if task["endpoint"] not in ("upper", "lower"):
        bad("accumulation", "endpoint", "must be 'upper' or 'lower'")

    coupling_spec = None
    if "coupling" in sections:
        ckind = get("coupling", "kind", required=True)
        if ckind not in (None, "soler"):
            bad("coupling", "kind", f"unsupported kind {ckind!r}")
        fname = get("coupling", "f", "linear")
        if fname != "linear":
            bad("coupling", "f", f"unsupported nonlinearity {fname!r}")
        coupling_spec = {
            "f_scale": get("coupling", "f_scale", 1.0, kind=float),
            "gamma_scale": get("coupling", "gamma_scale", 1.0, kind=float),
            "gamma_power": get("coupling", "gamma_power", 5.0, kind=float),
            "constant": get("coupling", "constant", 4.0 * math.pi, kind=float,
                            positive=True),
        }

    out_dir = get("output", "dir", ".")
    out_dir = out_override or os.environ.get("DIRACGAP_OUT", out_dir)

    # a key the schema does not read must not leave its default silently
    errors += [f"line {line}: [{name}] {key}: unknown key"
               for name, entries in sections.items() if name in _KNOWN_SECTIONS
               for key, (_, line) in entries.items() if (name, key) not in read]
    if errors:
        raise ConfigError(errors)

    params = model.DiracRadialParams(k=k, mu_a=mu_a, potential=pot)
    return RunConfig(params=params, rtol=rtol, delta=delta, eps=eps,
                     lam_grid=np.linspace(lam_min, lam_max, lam_pts), tol=tol,
                     x_zero_override=xz, x_inf_override=xi,
                     out_dir=Path(out_dir), task=task, config_hash=digest,
                     lines={(name, key): line for name, keys in sections.items()
                            for key, (_, line) in keys.items()},
                     coupling_spec=coupling_spec)


def _build_coupling(cfg: RunConfig):
    if cfg.coupling_spec is None:
        raise ConfigError(["[coupling] section required for the branch command"])
    cs = cfg.coupling_spec
    scale, power = cs["gamma_scale"], cs["gamma_power"]
    f_scale = cs["f_scale"]
    return build_soler_coupling(
        gamma=lambda r: scale * r * r / (1.0 + r ** power),
        f=lambda s: f_scale * s,
        lipschitz_bound=abs(f_scale),
        angular_constant=cs["constant"],
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _write_csv(path: Path, cfg: RunConfig, command: str, columns, rows,
               extra_header=()):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# diracgap {command}\n")
        fh.write(f"# config_hash={cfg.config_hash}\n")
        for line in extra_header:
            fh.write(f"# {line}\n")
        fh.write(f"# rtol={_fmt(cfg.rtol)} eps={_fmt(cfg.eps)} "
                 f"tol={_fmt(cfg.tol)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _window_line(window: TruncationWindow) -> str:
    return (f"window x_zero={_fmt(window.x_zero)} x_inf={_fmt(window.x_inf)} "
            f"delta={_fmt(window.delta)} eps={_fmt(window.eps)}")


def _crossing(cfg: RunConfig, exc: CrossedCutoffError, far: tuple) -> ConfigError:
    # a crossing names a given x_zero, else far, the key giving the far end
    given = cfg.x_zero_override is not None
    section, key = ("numerics", "x_zero") if given else far
    return ConfigError([f"line {cfg.lines[section, key]}: [{section}] {key}: "
                        f"crosses the window's other cutoff ({exc})"])


def _make_window(cfg: RunConfig, family, zero) -> TruncationWindow:
    try:
        return select_truncation(
            family, (float(cfg.lam_grid[0]), float(cfg.lam_grid[-1])),
            cfg.delta, cfg.eps, zero=zero, x_zero=cfg.x_zero_override,
            x_inf=cfg.x_inf_override)
    except CrossedCutoffError as exc:
        raise _crossing(cfg, exc, ("numerics", "x_inf"))


def _say(quiet: bool, *args):
    if not quiet:
        print(*args)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check(cfg: RunConfig, quiet: bool = False) -> int:
    """Hypothesis gate: admissibility checks, coupling checks if configured."""
    family = build_dirac_family(cfg.params)
    report = validate_hypotheses(family)
    origin = next(c for c in report.checks if c.name == "origin-determinant")
    rows = [(c.name, c.passed, c.measured, c.threshold, c.detail.replace(",", ";"))
            for c in report.checks]
    coupling_ok = True
    if cfg.coupling_spec is not None:
        try:
            _build_coupling(cfg)
            rows.append(("coupling-envelope", True, 0.0, 0.0, "accepted"))
        except CouplingRejectedError as exc:
            coupling_ok = False
            rows.append(("coupling-envelope", False, math.nan, math.nan,
                         str(exc).replace(",", ";")))
    _write_csv(cfg.out_dir / "check_report.csv", cfg, "check",
               ("check", "passed", "measured", "threshold", "detail"), rows,
               extra_header=(f"admissible={origin.passed}",))
    for name, passed, measured, _, _ in rows:
        _say(quiet, f"{'PASS' if passed else 'FAIL'}  {name}  measured={measured:.6g}")
    _say(quiet, origin.detail)
    ok = report.passed and coupling_ok
    _say(quiet, "hypotheses " + ("accepted" if ok else "rejected"))
    return EXIT_OK if ok else EXIT_REJECTED


def _solve_levels(cfg: RunConfig, wanted=None, level=None):
    """Build the family, window and scan it, and solve the bracketed levels.

    ``wanted`` restricts the solve to a set of level indices.  ``level`` asks
    for one level: its first bracket is solved, and a missing one is rejected
    (BracketError).  Returns (family, zero, window, records, samples), the
    last the WindowSamples of the scan and solves, for the later runs.
    """
    family = build_dirac_family(cfg.params)
    zero = zero_data(family)        # rejects an inadmissible origin
    window = _make_window(cfg, family, zero)
    samples = WindowSamples(family, window)
    scan = spectrum.scan_spectrum(family, cfg.lam_grid, window, zero,
                                  rtol=cfg.rtol, samples=samples)
    brackets = scan.brackets
    if level is not None:
        brackets = [b for b in brackets if b.k == level][:1]
        if not brackets:
            raise spectrum.BracketError(
                f"no level k={level} bracketed on the scan grid")
    elif wanted is not None:
        brackets = [b for b in brackets if b.k in wanted]
    records = [spectrum.find_eigenvalue(family, br.k, br, cfg.tol,
                                        window=window, zero=zero,
                                        rtol=cfg.rtol, samples=samples)
               for br in brackets]
    return family, zero, window, records, samples


def cmd_spectrum(cfg: RunConfig, quiet: bool = False) -> int:
    """Scan the gap, solve every bracketed level, persist the records."""
    wanted = cfg.task.get("spectrum_k")
    _, _, window, records, _ = _solve_levels(
        cfg, None if wanted is None else set(wanted))
    rows = [(r.k, r.lam, r.rot, r.nodal_index, r.residual) for r in records]
    _write_csv(cfg.out_dir / "spectrum.csv", cfg, "spectrum",
               ("k", "lambda", "rot", "nodal_index", "residual"),
               rows, extra_header=(_window_line(window),))
    for r in records:
        _say(quiet, f"k={r.k}  lambda={r.lam:.10f}  rot={r.rot:.6f}  "
                    f"nodal={r.nodal_index}  residual={r.residual:.2e}")
    _say(quiet, f"{len(records)} eigenvalue(s) in "
                f"[{cfg.lam_grid[0]:g}, {cfg.lam_grid[-1]:g}]")
    return EXIT_OK


def cmd_eigenfunction(cfg: RunConfig, quiet: bool = False) -> int:
    """Reconstruct, normalize and persist one eigenfunction."""
    want = cfg.task.get("eigenfunction_k")
    if want is None:
        raise ConfigError(["[eigenfunction] k: required for this command"])
    family, zero, window, (rec,), samples = _solve_levels(cfg, level=want)
    ef = spectrum.eigenfunction(family, rec, cfg.task["samples"], zero=zero,
                                samples=samples, rtol=cfg.rtol)
    rows = list(zip(ef.x, ef.u, ef.v))
    _write_csv(cfg.out_dir / "eigenfunction.csv", cfg, "eigenfunction",
               ("x", "u", "v"), rows,
               extra_header=(_window_line(window),
                             f"k={rec.k} lambda={_fmt(rec.lam)} rot={_fmt(rec.rot)}",
                             f"decay_inf={_fmt(ef.decay.exponent_inf)} "
                             f"decay_zero={_fmt(ef.decay.exponent_zero)}",
                             f"norm_check={_fmt(ef.norm_check)}"))
    _say(quiet, f"k={rec.k}  lambda={rec.lam:.10f}")
    _say(quiet, f"decay exponent at infinity {ef.decay.exponent_inf:.6f} "
                f"(expected {ef.decay.expected_inf:.6f})")
    _say(quiet, f"decay exponent at origin   {ef.decay.exponent_zero:.6f} "
                f"(expected {ef.decay.expected_zero:.6f})")
    return EXIT_OK


def cmd_accumulation(cfg: RunConfig, quiet: bool = False) -> int:
    """Probe eigenvalue accumulation at a gap edge, persist (X, theta)."""
    family = build_dirac_family(cfg.params)
    try:
        verdict = spectrum.detect_accumulation(
            family, cfg.task["endpoint"], cfg.task["schedule"],
            rtol=cfg.rtol, x_zero=cfg.x_zero_override)
    except CrossedCutoffError as exc:   # the schedule gives the far end
        raise _crossing(cfg, exc, ("accumulation", "schedule"))
    rows = [(x, th) for x, th in verdict.samples]
    _write_csv(cfg.out_dir / "accumulation.csv", cfg, "accumulation",
               ("X", "theta"), rows,
               extra_header=(f"endpoint={verdict.endpoint}",
                             f"verdict={verdict.verdict}",
                             f"monotonicity_ok={verdict.monotonicity_ok}",
                             f"x_zero={_fmt(verdict.x_zero)}"))
    _say(quiet, f"endpoint {verdict.endpoint}: {verdict.verdict} ({verdict.detail})")
    return EXIT_OK


def cmd_branch(cfg: RunConfig, quiet: bool = False) -> int:
    """Continue the nonlinear branch from a seed eigenvalue, persist points."""
    seed_k = cfg.task.get("seed_k")
    if seed_k is None:
        raise ConfigError(["[branch] seed_k: required for this command"])
    coupling = _build_coupling(cfg)
    family, zero, window, (seed,), samples = _solve_levels(cfg, level=seed_k)
    branch = bifurcation.continue_branch(
        family, coupling, seed, cfg.task["ds"], cfg.task["max_steps"],
        a_max=cfg.task["a_max"], window=window, zero=zero, samples=samples,
        rtol=cfg.rtol)
    rows = [(i, p.lam, p.a, p.l2_norm, p.rotation, p.index, p.residual)
            for i, p in enumerate(branch.points)]
    _write_csv(cfg.out_dir / "branch.csv", cfg, "branch",
               ("step", "lambda", "amplitude", "l2norm", "j", "i", "residual"),
               rows, extra_header=(_window_line(window),
                                   f"seed_k={seed.k} seed_lambda={_fmt(seed.lam)}",
                                   f"termination={branch.termination}",
                                   f"index_audit_ok={branch.index_audit_ok}"))
    if branch.points:
        last = branch.points[-1]
        _write_csv(cfg.out_dir / "branch_solution.csv", cfg, "branch",
                   ("x", "u", "v"), list(zip(last.x, last.u, last.v)),
                   extra_header=(f"lambda={_fmt(last.lam)} amplitude={_fmt(last.a)}",))
    _say(quiet, f"{len(branch.points)} branch point(s), "
                f"termination: {branch.termination}, "
                f"index audit {'ok' if branch.index_audit_ok else 'FAILED'}")
    if not branch.points:
        return EXIT_REJECTED
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "check": cmd_check,
    "spectrum": cmd_spectrum,
    "eigenfunction": cmd_eigenfunction,
    "accumulation": cmd_accumulation,
    "branch": cmd_branch,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diracgap",
        description="Gap eigenvalues, rotation indices and bifurcation "
                    "branches for singular radial Dirac systems.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="run description file (see module docstring)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (overrides config and env)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable summary")
    args = parser.parse_args(argv)

    cfg = None
    try:
        cfg = load_config(args.config, args.out)
        return _COMMANDS[args.command](cfg, args.quiet)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:              # reading the config, writing outputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except REJECTIONS as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        given = [f"line {cfg.lines['numerics', key]}: [numerics] {key}"
                 for key in ("x_zero", "x_inf")
                 if cfg and getattr(cfg, f"{key}_override") is not None]
        if given:
            print(f"note: {' and '.join(given)} given; a given cutoff is not "
                  "examined", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
