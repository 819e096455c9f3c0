"""Smoke test of the example scripts: they run and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_partial_sum_convergence_prints_a_decreasing_table():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "partial_sum_convergence.py"),
         "--kmax", "2", "--degree-cap", "6"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].endswith("projection has 147 coefficients")  # 3 * 7**2
    assert lines[2].split() == ["K", "||eta", "-", "omega_K||", "relative", "step", "ratio"]
    rows = [line.split() for line in lines[4:]]
    assert [int(r[0]) for r in rows] == [0, 1, 2]
    errors = [float(r[1]) for r in rows]
    assert errors[0] > errors[1] > errors[2] > 0


def test_gaussian_demo_writes_its_artifacts_and_recovers_k0(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gaussian_demo.py"), "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "measurements.json", "recon_noise_1e-02.json", "recon_noise_1e-03.json",
        "recon_noise_1e-04.json", "recon_noise_none.json", "slice_z0.csv", "truth.json",
    ]
    # the noise-free row: "none", then the k = 0 error first
    row = next(line.split() for line in proc.stdout.splitlines() if line.startswith("none"))
    assert float(row[1]) < 1e-6, proc.stdout
