"""The three benchmark workloads and the output check of each.

Each workload runs single-process and single-client in a closed loop: a
repetition ("rep") starts only after the previous one has ended.  A rep is
one or more fresh child processes (see ``child.py``), so every rep starts
with empty calderon3d caches.  The workload seed chooses the Gaussian
centre and the noise seeds; the program receives only the generated CLI
arguments or ``PhantomSpec`` fields.

Why these three, and which layers each should move, is in README.md.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

SCHEDULE_S = (16, 11, 7, 5, 3)  # 549 measurements
SCHEDULE_M = (30, 26, 22, 18, 14, 10, 6)  # 2,975 measurements
SCHEDULE_L = (48, 44, 40, 36, 32, 28, 24, 20)  # 10,472 measurements

SHARPNESS = 50.0
CENTRE_RADIUS = 0.5
CLI_NOISE = 1e-3
SWEEP_NOISE = 1e-4
SWEEP_NOISE_SEEDS = 2
RESOLUTION = 201

# bounds of the output checks, each taken from an existing test:
# test_noise_amplification_guard (k = 0 error under 1e-3 noise) and
# criterion 1 (noise-free round trip)
K0_TOL = 1e-2
ROUND_TRIP_TOL = 1e-10

CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli" (one process per verb) or "library" (one process)
    schedule: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_series_M", "cli", SCHEDULE_M),
        Workload("oracle_S", "cli", SCHEDULE_S),
        Workload("sweep_L", "library", SCHEDULE_L),
    )
}


@dataclass(frozen=True)
class Inputs:
    center: tuple
    noise_seeds: tuple


def make_inputs(seed: int) -> Inputs:
    """Centre uniform in the ball of radius 0.5, plus noise seeds."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(3)
    radius = CENTRE_RADIUS * rng.random() ** (1.0 / 3.0)
    center = tuple(float(v) for v in radius * direction / np.linalg.norm(direction))
    seeds = tuple(int(s) for s in rng.integers(0, 2**31 - 1, size=SWEEP_NOISE_SEEDS))
    return Inputs(center, seeds)


def _csv(values) -> str:
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values)


def cli_verbs(workload: Workload, inputs: Inputs, workdir: Path) -> list:
    """argv of each verb, in pipeline order."""
    caps = _csv(workload.schedule)
    phantom = ["--phantom", "gaussian", f"--center={_csv(inputs.center)}",
               "--sharpness", repr(SHARPNESS)]
    noise = ["--noise", repr(CLI_NOISE), "--seed", str(inputs.noise_seeds[0])]
    field, meas = str(workdir / "field.json"), str(workdir / "measurements.json")
    recon, csv = str(workdir / "recon.json"), str(workdir / "slice.csv")
    reconstruct = ["reconstruct", "--measurements", meas, "--schedule", caps, "--out", recon]
    if workload.name == "oracle_S":
        return [
            ["simulate", "--mode", "oracle", *phantom, "--caps", caps, *noise, "--out", meas],
            reconstruct,
        ]
    return [
        ["project", *phantom, "--caps", caps, "--out", field],
        ["simulate", "--coefficients", field, "--caps", caps, *noise, "--out", meas],
        reconstruct,
        ["slice", "--coefficients", recon, "--plane", "z=0",
         "--resolution", str(RESOLUTION), "--out", csv],
    ]


def reference_field(workload: Workload, inputs: Inputs):
    """``project`` of the workload's phantom at its schedule, for the k = 0 check."""
    from calderon3d import PhantomSpec, project

    eta = PhantomSpec("gaussian", center=inputs.center, sharpness=SHARPNESS).build()
    return project(eta, len(workload.schedule) - 1, workload.schedule)


def k0_relative_error(recovered, reference) -> float:
    """As in the acceptance suite: relative l2 error over the k = 0 entries."""
    num = den = 0.0
    for i, v in reference.entries.items():
        if i.k == 0:
            num += abs(recovered.get(0, i.ell, i.m) - v) ** 2
            den += abs(v) ** 2
    return math.sqrt(num / den)


def child_env(src: Path) -> dict:
    # one BLAS thread: the workloads are single-process by definition, and
    # on a shared machine a second thread adds spread, not a user-visible gain
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(mode: str, payload: dict, env: dict) -> dict:
    """Run one child to completion; its wall time and parsed report."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, json.dumps(payload)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": -1, "wall_s": time.monotonic() - t0, "stderr": "timed out"}
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1]) if proc.returncode == 0 else {}
    except (IndexError, json.JSONDecodeError):
        rec = {}
    if not rec:
        return {"rc": proc.returncode or -1, "wall_s": wall, "stderr": proc.stderr[-2000:]}
    rec["wall_s"] = wall
    rec.setdefault("rc", 0)
    if rec["rc"] != 0:
        rec["stderr"] = proc.stderr[-2000:]
    return rec


def _new_rep() -> dict:
    return {"attempted": 0, "failed": 0, "pipeline_s": 0.0, "setup_s": 0.0, "rss_mib": 0.0,
            "solve_s": [], "procs": [], "spans": [], "divisor_warnings": 0, "errors": []}


def run_cli_rep(workload, inputs, workdir, env, trace, run_id, reference=None, after_verb=None):
    """One pass of a CLI workload; every verb is a fresh process.

    ``reference`` is the k = 0 reference field; without one the ``project``
    verb's own output is the reference.  ``after_verb(verb, workdir)`` runs
    between verbs, outside the timings (the smoke test uses it to corrupt a
    file).
    """
    verbs = cli_verbs(workload, inputs, workdir)
    rep = _new_rep()
    for proc, argv in enumerate(verbs):
        rec = _spawn("verb", {"argv": argv, "trace": trace, "run": run_id, "proc": proc}, env)
        rep["attempted"] += 1
        if rec["rc"] != 0:
            rep["failed"] += 1
            rep["errors"].append(f"{argv[0]} exited {rec['rc']}: {rec.get('stderr', '')}")
            return rep  # the verbs after it have no input
        setup = rec["wall_s"] - rec["busy_s"]
        rep["pipeline_s"] += rec["main_s"]
        rep["setup_s"] += setup
        rep["rss_mib"] = max(rep["rss_mib"], rec["rss_kib"] / 1024.0)
        rep["divisor_warnings"] += rec["divisor_warnings"]
        rep["spans"] += rec["spans"]
        rep["procs"].append({"verb": argv[0], "s": rec["main_s"], "setup_s": setup})
        if argv[0] == "reconstruct":
            rep["solve_s"].append(rec["wall_s"])
        if after_verb is not None:
            after_verb(argv[0], workdir)
    _check_cli_outputs(workload, workdir, reference, rep)
    return rep


def _check_cli_outputs(workload, workdir, reference, rep) -> None:
    """Output checks after the last verb, outside every timing."""
    from calderon3d.serialize import load_coefficient_field

    try:
        if reference is None:
            reference = load_coefficient_field(workdir / "field.json")
        err = k0_relative_error(load_coefficient_field(workdir / "recon.json"), reference)
    except ValueError as exc:  # an unreadable output file fails the check
        err = math.inf
        rep["errors"].append(f"reconstruct: {exc}")
    rep["k0_rel_error"] = err
    if not err <= K0_TOL:
        rep["failed"] += 1
        rep["errors"].append(f"reconstruct: k=0 relative error {err:.3e} > {K0_TOL}")
    if workload.name == "cli_series_M":
        try:
            with open(workdir / "slice.csv") as fh:
                rows = sum(1 for _ in fh) - 1
        except OSError:
            rows = 0
        if rows != RESOLUTION**2:
            rep["failed"] += 1
            rep["errors"].append(f"slice: {rows} data rows, expected {RESOLUTION**2}")


def run_library_rep(workload, inputs, env, trace, run_id):
    """One pass of ``sweep_L`` in a single fresh library process."""
    payload = {
        "schedule": list(workload.schedule), "center": list(inputs.center),
        "sharpness": SHARPNESS, "noise": SWEEP_NOISE, "noise_seeds": list(inputs.noise_seeds),
        "resolution": RESOLUTION, "round_trip_tol": ROUND_TRIP_TOL,
        "trace": trace, "run": run_id, "proc": 0,
    }
    rec = _spawn("sweep", payload, env)
    rep = _new_rep()
    if rec["rc"] != 0:
        rep.update(attempted=1, failed=1,
                   errors=[f"sweep exited {rec['rc']}: {rec.get('stderr', '')}"])
        return rep
    solves = [s for name, s in rec["calls"] if name == "reconstruct"]
    rep.update(
        attempted=rec["attempted"],
        failed=len(rec["errors"]),
        errors=rec["errors"],
        pipeline_s=sum(s for _, s in rec["calls"]),
        setup_s=rec["wall_s"] - rec["busy_s"],
        rss_mib=rec["rss_kib"] / 1024.0,
        solve_s=solves[1:],  # the first solve is the cold one
        spans=rec["spans"],
        divisor_warnings=rec["divisor_warnings"],
        round_trip_rel=rec.get("round_trip_rel"),
    )
    return rep
