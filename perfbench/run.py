"""diracgap benchmark: one seeded workload, checked, timed, optionally traced.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record (machine, commit, seed, tracing overhead, ``src/`` line
count).  ``--trace 0`` runs as many whole passes over the seed's problem
list as fit in ``--seconds`` (at least one), with only the coefficient
counter installed, and reports the end-to-end metrics; ``--trace 1`` runs
the first block of the list twice, untraced and traced, then the known
refusal reproducers, and reports the per-layer metrics and the tracing
overhead.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5                # fresh interpreters timed for setup_s
TRACE_BATCH = 4                 # traced runs: the first block of the list


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("survey", "branch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_and_prepare(workload: str, seed: int):
    """Import the package, then build, validate and zero_data the families.

    Returns the counter, the prepared problems, and the seconds taken by the
    import and by the preparation."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads
    t1 = time.perf_counter()
    counter = tracing.CoeffCounter()
    inputs = workloads.make_inputs(workload, seed)
    prepared = workloads.prepare(workload, inputs, counter)
    return counter, prepared, t1 - t0, time.perf_counter() - t1


def _setup_probes(workload: str, seed: int) -> list:
    """[numpy/scipy import, package import, preparation] seconds, one row
    per fresh interpreter."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append([float(v) for v in done.stdout.split()[-3:]])
    return out


def _run_batch(workload, prepared, workdir, counter, *, seconds=None,
               count=None, tracer=None):
    """Run the first ``count`` problems, or as many whole passes over the
    list as fit in ``seconds`` (at least one); whole passes keep the mix of
    the list."""
    import workloads
    outcomes = []
    c0 = counter.n
    t0 = time.perf_counter()
    i = 0
    while True:
        prob = prepared[i % len(prepared)]
        if tracer is not None:
            tracer.problem = i
        t, c = time.perf_counter(), counter.n
        if tracer is not None:
            with tracer.span("problem"):
                outcome = workloads.run_problem(workload, prob, workdir)
        else:
            outcome = workloads.run_problem(workload, prob, workdir)
        outcome.seconds = time.perf_counter() - t
        outcome.coeff_evals = counter.n - c
        outcomes.append(outcome)
        i += 1
        elapsed = time.perf_counter() - t0
        if i == count:
            break
        # after each whole pass, go on only if one more is expected to end
        # within the budget; the first pass always runs
        passes, rest = divmod(i, len(prepared))
        if seconds is not None and rest == 0 \
                and elapsed * (passes + 1) / passes > seconds:
            break
    return outcomes, elapsed, counter.n - c0


def _machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    args = _args(argv)
    counter, prepared, _, _ = _import_and_prepare(args.workload, args.seed)
    import oracle
    oracle.self_check()
    probes = _setup_probes(args.workload, args.seed)
    setup_samples = [sum(p) for p in probes]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": _machine(), "commit": _commit(),
              "src_lines": _src_lines(), "setup_samples_s": setup_samples,
              "setup_parts_p50_s": dict(zip(
                  ("numpy_scipy_import", "package_import", "prepare"),
                  (statistics.median(col) for col in zip(*probes))))}
    try:
        if args.trace:
            metrics, outcomes = _traced(args, prepared, workdir, counter, record)
        else:
            metrics, outcomes = _untraced(args, prepared, workdir, counter,
                                          setup_samples, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["failures"] = [{"problem": i, "error": o.failure}
                          for i, o in enumerate(outcomes) if o.failure]
    record["problems"] = [{"list_index": i % len(prepared), "seconds": o.seconds,
                           "coeff_evals": o.coeff_evals, "results": o.results,
                           "levels": o.levels, "points": o.points,
                           "max_rel_err": o.max_rel_err, **o.detail}
                          for i, o in enumerate(outcomes)]
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": {k: v for k, v in record.items()
                                 if k != "problems"}}))
    # correct: no delivered result is wrong; a refusal only counts as failed
    print(json.dumps({"correct": not any(o.wrong for o in outcomes),
                      "attempted": len(outcomes),
                      "failed": len(record["failures"]), "metrics": metrics}))
    return 0


def _metrics(kind: str, values: dict) -> dict:
    """The BENCHMARK.json metrics of one kind, with their units, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec[kind]}


def _untraced(args, prepared, workdir, counter, setup_samples, record):
    import tracing
    with tracing.counting_cli(counter):
        outcomes, elapsed, evals = _run_batch(
            args.workload, prepared, workdir, counter, seconds=args.seconds)
    results = sum(o.results for o in outcomes)
    record["trace_overhead_s"] = "not measured in an untraced run (see --trace 1)"
    record["timed_phase_s"] = elapsed
    record["coeff_evals"] = evals
    record["problem_s_p50"] = statistics.median(o.seconds for o in outcomes)
    return _metrics("end_to_end", {
        "setup_s": statistics.median(setup_samples),
        "results_per_s": results / elapsed,
        "coeff_evals_per_result": evals / results if results else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), outcomes


def _traced(args, prepared, workdir, counter, record):
    import tracing
    import workloads
    with tracing.counting_cli(counter):
        plain, plain_s, plain_evals = _run_batch(
            args.workload, prepared, workdir, counter, count=TRACE_BATCH)
    tracer = tracing.Tracer()
    # set-up again under the tracer, for the validate_hypotheses spans
    traced_prep = workloads.prepare(args.workload,
                                    [p.inputs for p in prepared[:TRACE_BATCH]],
                                    counter, tracer)
    with tracing.counting_cli(counter), tracer.install():
        outcomes, traced_s, evals = _run_batch(
            args.workload, traced_prep, workdir, counter, count=TRACE_BATCH,
            tracer=tracer)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    if evals != plain_evals:
        outcomes[0].failure = (f"tracing changed the work: {evals} coefficient "
                               f"evaluations traced, {plain_evals} untraced")
    levels = sum(o.levels for o in outcomes)
    points = sum(o.points for o in outcomes)
    layers = tracing.layer_metrics(tracer.spans, levels, points)
    layers["problem_s_p50"] = statistics.median(o.seconds for o in plain)
    layers["model.coeff_evals"] = evals
    layers["spectrum.max_rel_err"] = max(o.max_rel_err for o in outcomes)
    layers["failed_frac"] = sum(1 for o in outcomes if o.failure) / len(outcomes)
    layers["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    record["trace_overhead_s"] = traced_s - plain_s
    record["traced_problems"] = TRACE_BATCH
    import refusals
    refused = refusals.run_all(workdir)
    layers["spectrum.known_refusals"] = sum(r for _, r in refused)
    record["known_refusals"] = [{"case": name, "refused": r}
                                for name, r in refused]
    return _metrics("per_layer", layers), outcomes


if __name__ == "__main__":
    sys.exit(main())
