"""Outside-in instrumentation: a coefficient counter and a span tracer.

Nothing here edits the package.  The counter hands the program families whose
``coeffs`` callable counts the points it is given (``np.size(x)``, so a
vectorised call still counts every point).  The tracer swaps module
attributes for wrappers that record one span per call; the package calls its
collaborators through module globals (``spectrum.integrate_prufer``,
``bifurcation.solve_point``, ...), so the swapped names see every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from typing import Optional

import numpy as np

import diracgap.bifurcation
import diracgap.cli
import diracgap.spectrum


class CoeffCounter:
    """Counts P(x) points evaluated through the families it wraps."""

    def __init__(self):
        self.n = 0

    def wrap_family(self, family):
        inner = family.coeffs

        def coeffs(x):
            self.n += np.size(x)
            return inner(x)

        return dataclasses.replace(family, coeffs=coeffs)


class patched:
    """Context manager that sets module attributes and restores them on exit."""

    def __init__(self, targets):
        self.targets = targets          # [(module, attribute name, new value)]
        self.saved = []

    def __enter__(self):
        for module, name, value in self.targets:
            self.saved.append((module, name, getattr(module, name)))
            setattr(module, name, value)
        return self

    def __exit__(self, *exc):
        for module, name, value in reversed(self.saved):
            setattr(module, name, value)
        self.saved.clear()
        return False


def counting_cli(counter: CoeffCounter) -> patched:
    """Make the CLI build counted families."""
    build = diracgap.cli.build_dirac_family
    return patched([(diracgap.cli, "build_dirac_family",
                     lambda params: counter.wrap_family(build(params)))])


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: Optional[int] = None
    problem: Optional[int] = None
    error: Optional[str] = None
    nfev: int = 0                       # integrator work read off the result
    steps: int = 0
    grid: int = 0                       # scan grid size
    decades: float = math.nan           # log10(x_inf / x_zero) of a window


# (module, attribute) pairs the program calls through; the span name is
# "<module>.<attribute>" with the package prefix dropped
TRACED = (
    (diracgap.cli, "main"),
    (diracgap.cli, "select_truncation"),
    (diracgap.cli, "build_dirac_family"),
    (diracgap.spectrum, "scan_spectrum"),
    (diracgap.spectrum, "nu_star"),
    (diracgap.spectrum, "find_eigenvalue"),
    (diracgap.spectrum, "eigenfunction"),
    (diracgap.spectrum, "detect_accumulation"),
    (diracgap.spectrum, "integrate_prufer"),
    (diracgap.spectrum, "select_truncation"),
    (diracgap.bifurcation, "continue_branch"),
    (diracgap.bifurcation, "solve_point"),
    (diracgap.bifurcation, "shoot_nonlinear"),
    (diracgap.bifurcation, "linear_amplitude_ratio"),
    (diracgap.bifurcation, "integrate_prufer"),
)


def _annotate(span: Span, out) -> None:
    stats = getattr(out, "stats", None)
    if stats is not None:                       # PruferTrajectory
        span.nfev, span.steps = stats.nfev, stats.steps
    elif hasattr(out, "mismatch"):              # ShootResult
        for side in (out.fwd, out.bwd):
            if side is not None:
                span.nfev += side.stats.nfev
                span.steps += side.stats.steps
    elif hasattr(out, "brackets"):              # ScanResult
        span.grid = int(out.lambdas.size)
    elif hasattr(out, "x_inf") and hasattr(out, "x_zero"):    # window
        span.decades = math.log10(out.x_inf / out.x_zero)


class Tracer:
    """Records spans in memory; ``write`` dumps them once, at the end."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.problem: Optional[int] = None

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name=name, start=time.perf_counter(),
                               parent=parent, problem=self.problem))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, exc: Optional[BaseException]) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if exc is not None:
            span.error = type(exc).__name__
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, exc)
                raise
            self._close(idx, None)
            _annotate(self.spans[idx], out)
            return out
        return traced

    def install(self) -> patched:
        targets = []
        for module, attr in TRACED:
            name = module.__name__.split(".")[-1] + "." + attr
            targets.append((module, attr, self.wrap(name, getattr(module, attr))))
        return patched(targets)

    def write(self, path) -> None:
        rows = [dataclasses.astuple(s) for s in self.spans]
        fields = [f.name for f in dataclasses.fields(Span)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": rows}, fh)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self.tracer.spans[self.idx]

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.idx, exc)
        return False


def _dur(s: Span) -> float:
    return s.end - s.start


def count_below(spans: list, top: int, name: str) -> int:
    """Spans called ``name`` anywhere under span ``top``.

    Spans are stored in the order they open, so a span's descendants follow
    it and their parents are already known to lie inside.
    """
    inside, count = {top}, 0
    for i in range(top + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            count += spans[i].name == name
    return count


def layer_metrics(spans: list, levels: int, points: int) -> dict:
    """Per-layer metrics from the spans of a traced batch.

    ``levels`` is the number of eigenvalues delivered by find_eigenvalue calls
    the benchmark made itself and ``points`` the accepted branch points; both
    are base counts for the ratios below.
    """
    children: dict = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)

    def self_time(i: int) -> float:
        return _dur(spans[i]) - sum(_dur(spans[c]) for c in children.get(i, ()))

    def named(*names) -> list:
        return [i for i, s in enumerate(spans) if s.name in names]

    integ = named("spectrum.integrate_prufer", "bifurcation.integrate_prufer")
    shots = named("bifurcation.shoot_nonlinear")
    corr = named("bifurcation.solve_point")
    scans = named("spectrum.scan_spectrum")
    solves = named("spectrum.find_eigenvalue")
    windows = [i for i in named("cli.select_truncation", "spectrum.select_truncation")
               if spans[i].error is None]
    corr_fail = [i for i in corr if spans[i].error]
    branch_problems = {spans[i].problem for i in named("bifurcation.continue_branch")}
    seed_calls = [i for i in scans + solves if spans[i].problem in branch_problems]
    grid_points = sum(spans[i].grid for i in scans)
    scan_evals = sum(count_below(spans, i, "spectrum.nu_star") for i in scans)
    matched = sum(count_below(spans, i, "spectrum.integrate_prufer")
                  for i in solves) / 2.0

    def total(ix) -> float:
        return float(sum(_dur(spans[i]) for i in ix))

    def ratio(a, b) -> float:
        return float(a) / b if b else 0.0

    n_int = len(integ)
    nfev = sum(spans[i].nfev for i in integ)
    return {
        "model.validate_s": total(named("model.validate_hypotheses")),
        "asymptotics.window_s": total(windows),
        "asymptotics.window_decades": ratio(sum(spans[i].decades for i in windows),
                                            len(windows)),
        "prufer.integrations": n_int,
        "prufer.integrate_s": float(sum(self_time(i) for i in integ)),
        "prufer.nfev": nfev,
        "prufer.steps": sum(spans[i].steps for i in integ),
        "prufer.nfev_per_integration": ratio(nfev, n_int),
        "prufer.cartesian_nfev": sum(spans[i].nfev for i in shots),
        "prufer.cartesian_steps": sum(spans[i].steps for i in shots),
        "spectrum.scan_s": total(scans),
        "spectrum.scan_evals": scan_evals,
        "spectrum.scan_subdivisions": scan_evals - grid_points,
        "spectrum.solve_s": total(solves),
        "spectrum.matched_evals_per_level": ratio(matched, levels),
        "spectrum.solve_failures": sum(1 for i in solves if spans[i].error),
        "bifurcation.seed_s": total(seed_calls),
        "bifurcation.shots": len(shots),
        "bifurcation.shots_per_point": ratio(len(shots), points),
        "bifurcation.shot_s": total(shots),
        "bifurcation.shot_failures": sum(1 for i in shots if spans[i].error),
        "bifurcation.corrector_calls": len(corr),
        "bifurcation.corrector_failures": len(corr_fail),
        "bifurcation.corrector_accept_ratio": ratio(len(corr) - len(corr_fail),
                                                    len(corr)),
        "bifurcation.corrector_failed_s": total(corr_fail),
        "bifurcation.corrector_self_s": float(sum(self_time(i) for i in corr)),
        "cli.self_s": float(sum(self_time(i) for i in named("cli.main"))),
    }
