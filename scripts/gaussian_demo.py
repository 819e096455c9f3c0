#!/usr/bin/env python3
"""End-to-end demo on a Gaussian bump phantom.

Projects the bump onto the polynomial basis, simulates boundary
measurements, reconstructs the coefficients at several noise levels,
and reports per-order and whole-ball errors.  Artifacts (coefficient
field, measurements, reconstruction reports, a midplane slice) are
written to the output directory.
"""

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calderon3d import (
    BallQuadrature,
    PhantomSpec,
    TruncationSchedule,
    add_noise,
    dump_coefficient_field,
    dump_grid_slice,
    dump_measurement_set,
    dump_recon_report,
    forward_measure,
    project,
    reconstruct,
    synthesize_ball_grid,
    synthesize_xyz,
)
from calderon3d.serialize import GridSlice


@dataclass(frozen=True)
class Config:
    center: tuple = (0.0, 0.3, 0.0)
    sharpness: float = 50.0
    project_kmax: int = 7
    project_degree_cap: int = 30
    schedule: tuple = (16, 11, 7, 5, 3)
    noise_levels: tuple = (0.0, 1e-4, 1e-3, 1e-2)
    seed: int = 7
    resolution: int = 201
    outdir: Path = field(default_factory=lambda: Path("demo_out"))


def per_k_errors(recovered, truth, kmax):
    errors = []
    for k in range(kmax + 1):
        num = sum(
            abs(recovered.get(k, i.ell, i.m) - v) ** 2
            for i, v in truth.entries.items()
            if i.k == k
        )
        den = sum(abs(v) ** 2 for i, v in truth.entries.items() if i.k == k)
        errors.append(math.sqrt(num / den))
    return errors


def ball_error(eta, c, quad):
    gap = eta(*quad.cartesian_grid()) - synthesize_ball_grid(c, quad)
    return math.sqrt(quad.integrate(np.abs(gap) ** 2).real)


def midplane_slice(c, resolution):
    u = np.linspace(-1.0, 1.0, resolution)
    x, y = np.meshgrid(u, u, indexing="ij")
    z = np.zeros_like(x)
    inside = x * x + y * y + z * z <= 1.0
    values = np.full(x.shape, np.nan)
    values[inside] = synthesize_xyz(c, x[inside], y[inside], z[inside]).real
    return GridSlice("z", 0.0, resolution, x, y, z, values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("demo_out"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sharpness", type=float, default=50.0)
    args = parser.parse_args(argv)
    cfg = Config(sharpness=args.sharpness, seed=args.seed, outdir=args.outdir)

    cfg.outdir.mkdir(parents=True, exist_ok=True)
    quad = BallQuadrature()
    schedule = TruncationSchedule(cfg.schedule)

    t0 = time.perf_counter()
    eta = PhantomSpec("gaussian", center=cfg.center, sharpness=cfg.sharpness).build()
    truth = project(eta, cfg.project_kmax, cfg.project_degree_cap, quad)
    dump_coefficient_field(truth, cfg.outdir / "truth.json")
    print(
        f"projected phantom: kmax={cfg.project_kmax}, degrees <= {cfg.project_degree_cap}, "
        f"{len(truth.entries)} coefficients, norm {truth.norm():.6f} "
        f"[{time.perf_counter() - t0:.2f}s]"
    )

    ms = forward_measure(truth, schedule.K, schedule.caps)
    dump_measurement_set(ms, cfg.outdir / "measurements.json")
    print(f"simulated {len(ms.values)} measurements, rms {ms.rms():.6e}")

    header = "noise     " + "".join(f"  k={k} err " for k in range(schedule.K + 1)) + "  ball err"
    print()
    print(header)
    print("-" * len(header))
    for level in cfg.noise_levels:
        noisy = add_noise(ms, level, seed=cfg.seed) if level > 0 else ms
        rep = reconstruct(noisy, schedule)
        tag = f"{level:.0e}" if level > 0 else "none"
        dump_recon_report(rep, cfg.outdir / f"recon_noise_{tag}.json")
        row = per_k_errors(rep.field, truth, schedule.K)
        berr = ball_error(eta, rep.field, quad)
        print(
            f"{tag:8s}  "
            + "".join(f"{e:9.2e} " for e in row)
            + f" {berr:9.2e}"
        )
        if level == 0:
            dump_grid_slice(midplane_slice(rep.field, cfg.resolution), cfg.outdir / "slice_z0.csv")

    print()
    print(f"artifacts written to {cfg.outdir}/")
    print(f"total {time.perf_counter() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
