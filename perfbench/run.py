#!/usr/bin/env python3
"""calderon3d benchmark: times the pipeline end to end and layer by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cli_series_M --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured with
no tracing.  ``--trace 1`` alternates untraced and traced reps and prints the
per-layer metrics: each public call's time and counts, each module's self
time, and the tracing overhead.  ``--workload all`` runs every workload in
turn and prints one table.  The last line of standard output is the result
as one JSON object; the line before it records the environment, the sample
count behind each metric and every rep.  Metric definitions and the
layer-to-end-to-end map are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SERIALIZE_CALLS = (
    "dump_coefficient_field", "load_coefficient_field", "dump_measurement_set",
    "load_measurement_set", "dump_recon_report", "dump_grid_slice",
)
VERBS = ("project", "simulate", "reconstruct", "slice")
MODULES = ("cli", "zernike", "forward", "recon", "serialize", "phantoms")


def _median(values):
    return (statistics.median(values) if values else 0.0), len(values)


def end_to_end(reps) -> tuple:
    """End-to-end metrics (value, unit) and sample counts from untraced reps."""
    ok = [r for r in reps if r["failed"] == 0]
    stats = {
        "pipeline_s": (_median([r["pipeline_s"] for r in ok]), "s"),
        "setup_s": (_median([r["setup_s"] for r in ok]), "s"),
        "solve_s": (_median([s for r in ok for s in r["solve_s"]]), "s"),
        "peak_rss_mib": ((max((r["rss_mib"] for r in ok), default=0.0), len(ok)), "MiB"),
    }
    return _split(stats)


def _split(stats) -> tuple:
    metrics = {name: {"value": v, "unit": unit} for name, ((v, _), unit) in stats.items()}
    samples = {name: n for name, ((_, n), _) in stats.items()}
    return metrics, samples


def per_layer(traced, untraced) -> tuple:
    """Per-layer metrics (value, unit) and sample counts from the trace run."""
    from tracing import self_times

    spans = [s for r in traced for s in r["spans"]]

    def times(name, call=None):
        return [s["end"] - s["start"] for s in spans if s["name"] == name
                and (call is None or (s["call"] == 1) == (call == "cold"))]

    def counts(name, key):
        v, n = _median([s[key] for s in spans if s["name"] == name])
        return (int(v), n)

    stats: dict = {}
    fm_cold, fm_warm = _median(times("forward.forward_measure", "cold")), \
        _median(times("forward.forward_measure", "warm"))
    gaunt = fm_cold[0] - fm_warm[0] if fm_cold[1] and fm_warm[1] else 0.0
    stats["specfun.gaunt_table_s"] = ((gaunt, min(fm_cold[1], fm_warm[1])), "s")
    stats["forward.forward_measure.cold_s"] = (fm_cold, "s")
    stats["forward.forward_measure.warm_s"] = (fm_warm, "s")
    stats["forward.forward_measure.measurements"] = (
        counts("forward.forward_measure", "measurements"), "count")
    stats["forward.oracle_measure.s"] = (_median(times("forward.oracle_measure")), "s")
    stats["forward.oracle_measure.measurements"] = (
        counts("forward.oracle_measure", "measurements"), "count")
    stats["forward.add_noise.s"] = (_median(times("forward.add_noise")), "s")

    rc_cold = _median(times("recon.reconstruct", "cold"))
    rc_warm = _median(times("recon.reconstruct", "warm"))
    rc_n = counts("recon.reconstruct", "measurements")
    stats["recon.reconstruct.cold_s"] = (rc_cold, "s")
    stats["recon.reconstruct.warm_s"] = (rc_warm, "s")
    stats["recon.reconstruct.measurements"] = (rc_n, "count")
    stats["recon.reconstruct.us_per_measurement"] = (
        (1e6 * rc_warm[0] / rc_n[0] if rc_n[0] else 0.0, rc_warm[1]), "us")
    stats["recon.divisor_warnings"] = (
        (max(r["divisor_warnings"] for r in traced + untraced), len(traced + untraced)), "count")

    stats["zernike.project.s"] = (_median(times("zernike.project")), "s")
    stats["zernike.project.coeffs"] = (counts("zernike.project", "coeffs"), "count")
    syn = _median(times("zernike.synthesize_xyz"))
    points = counts("zernike.synthesize_xyz", "points")
    coeffs = counts("zernike.synthesize_xyz", "coeffs")
    work = points[0] * coeffs[0]
    stats["zernike.synthesize_xyz.s"] = (syn, "s")
    stats["zernike.synthesize_xyz.points"] = (points, "count")
    stats["zernike.synthesize_xyz.ns_per_point_coeff"] = (
        (1e9 * syn[0] / work if work else 0.0, syn[1]), "ns")
    stats["quadrature.nodes"] = (counts("phantoms.eval", "points"), "count")
    stats["phantoms.eval_s"] = (_median(times("phantoms.eval")), "s")

    for call in SERIALIZE_CALLS:
        stats[f"serialize.{call}.s"] = (_median(times(f"serialize.{call}")), "s")
        stats[f"serialize.{call}.bytes"] = (counts(f"serialize.{call}", "bytes"), "bytes")
    procs = [p for r in traced for p in r["procs"]]
    for verb in VERBS:
        stats[f"cli.{verb}.s"] = (_median([p["s"] for p in procs if p["verb"] == verb]), "s")
        stats[f"cli.{verb}.setup_s"] = (
            _median([p["setup_s"] for p in procs if p["verb"] == verb]), "s")

    selfs = [self_times(r["spans"]) for r in traced]
    for module in MODULES:
        stats[f"{module}.self_s"] = (_median([t.get(module, 0.0) for t in selfs]), "s")
    traced_pipe = _median([r["pipeline_s"] for r in traced])
    plain_pipe = _median([r["pipeline_s"] for r in untraced])
    stats["trace.overhead_s"] = (
        (traced_pipe[0] - plain_pipe[0], min(traced_pipe[1], plain_pipe[1])), "s")
    return _split(stats)


def environment(seed: int, env: dict) -> dict:
    import numpy as np

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
    }


def measure(workload, seed: int, seconds: float, trace: bool, after_verb=None) -> tuple:
    """Run reps of ``workload`` for ``seconds``; return (result, detail).

    A new rep (with ``trace``, a pair of one untraced and one traced rep)
    starts only if it would end within ``seconds`` even if it took as long
    as the slowest so far; there is always at least one.
    """
    from workloads import child_env, make_inputs, reference_field, run_cli_rep, run_library_rep

    import calderon3d.cli  # noqa: F401  compiles the bytecode before the first timed rep

    inputs = make_inputs(seed)
    env = child_env(SRC)
    reference = reference_field(workload, inputs) if workload.name == "oracle_S" else None
    workdir = ROOT / ".perfbench-work" / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reps: dict = {False: [], True: []}
    modes = (False, True) if trace else (False,)
    start = time.monotonic()
    slowest = 0.0
    try:
        while True:
            t0 = time.monotonic()
            for traced in modes:
                run_id = f"{workload.name}-{seed}-{'t' if traced else 'u'}{len(reps[traced])}"
                if workload.kind == "cli":
                    rep = run_cli_rep(workload, inputs, workdir, env, traced, run_id,
                                      reference, after_verb)
                else:
                    rep = run_library_rep(workload, inputs, env, traced, run_id)
                reps[traced].append(rep)
            now = time.monotonic()
            slowest = max(slowest, now - t0)
            if now - start + slowest > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    everything = reps[False] + reps[True]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    if trace:
        metrics, samples = per_layer(reps[True], reps[False])
    else:
        metrics, samples = end_to_end(reps[False])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {
        "workload": workload.name,
        "trace": trace,
        "inputs": {"center": inputs.center, "noise_seeds": inputs.noise_seeds,
                   "schedule": workload.schedule},
        "env": environment(seed, env),
        "samples": samples,
        "errors": [e for r in everything for e in r["errors"]],
        "reps": {"untraced": [_summary(r) for r in reps[False]],
                 "traced": [_summary(r) for r in reps[True]]},
        "spans": [s for r in reps[True] for s in r["spans"]],
    }
    return result, detail


def _summary(rep) -> dict:
    return {k: v for k, v in rep.items() if k not in ("spans", "errors")}


def _table(name, result, samples) -> list:
    lines = [f"{name}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}"]
    for metric, m in result["metrics"].items():
        lines.append(f"  {metric:45s} {m['value']:>14.6g} {m['unit']:6s} n={samples[metric]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="cli_series_M, oracle_S, sweep_L, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "calderon3d" / "__init__.py").is_file():
        print(f"error: no calderon3d sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; expected one of {list(WORKLOADS)} "
              "or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        result, detail = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print("\n".join(_table(name, result, detail["samples"])))
        print(json.dumps(detail))
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
