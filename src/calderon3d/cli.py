"""Command-line driver for the measurement/reconstruction pipeline.

Verbs:

* ``project``     sample a named phantom and write its coefficient file;
* ``simulate``    produce a measurement file from a coefficient file or
                  phantom, exactly (series) or by ball quadrature
                  (oracle), optionally adding seeded noise;
* ``reconstruct`` recover coefficients from a measurement file under a
                  truncation schedule and write a report;
* ``slice``       sample the real part of a (partial) expansion on an
                  axis-aligned plane as CSV;
* ``selftest``    run the built-in consistency checks.

Every command is deterministic given its arguments and seed; output
files are byte-stable across runs.  Exit codes: 0 success, 2 bad
arguments or inputs, 3 infeasible schedule, 4 missing measurements,
5 self-test failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .forward import IncompleteSupportError, add_noise, forward_measure, oracle_measure
from .phantoms import PhantomSpec
from .quadrature import BallQuadrature
from .recon import (
    InfeasibleScheduleError,
    MissingMeasurementError,
    TruncationSchedule,
    reconstruct,
)
from .selftest import run_selftest
from .serialize import (
    GridSlice,
    dump_coefficient_field,
    dump_grid_slice,
    dump_measurement_set,
    dump_recon_report,
    load_coefficient_field,
    load_measurement_set,
)
from .zernike import project, synthesize_xyz

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_INFEASIBLE = 3
EXIT_MISSING = 4
EXIT_SELFTEST = 5


def _parse_vector(text: str) -> tuple:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    return tuple(float(p) for p in parts)


def _parse_index(text: str) -> tuple:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected k,ell,m integers, got {text!r}")
    return tuple(int(p) for p in parts)


def _parse_caps(text: str):
    parts = [p for p in text.replace(" ", "").split(",") if p]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty degree-cap list")
    return values[0] if len(values) == 1 else tuple(values)


def _parse_plane(text: str) -> tuple:
    try:
        axis, offset = text.replace(" ", "").split("=")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected AXIS=OFFSET like z=0, got {text!r}")
    if axis not in ("x", "y", "z"):
        raise argparse.ArgumentTypeError(f"plane axis must be x, y or z, got {axis!r}")
    value = float(offset)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"plane offset must be finite, got {offset!r}")
    return axis, value


def _add_quad_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quad-radial", type=int, default=48, metavar="N", help="radial Gauss nodes")
    p.add_argument("--quad-theta", type=int, default=64, metavar="N", help="polar Gauss nodes")
    p.add_argument("--quad-phi", type=int, default=128, metavar="N", help="azimuthal nodes")


def _add_phantom_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--phantom",
        choices=("gaussian", "basis", "zero"),
        help="built-in phantom name",
    )
    p.add_argument(
        "--center",
        type=_parse_vector,
        default=(0.0, 0.3, 0.0),
        metavar="X,Y,Z",
        help="gaussian center, inside the closed unit ball (default 0,0.3,0)",
    )
    p.add_argument(
        "--sharpness",
        type=float,
        default=50.0,
        metavar="A",
        help="gaussian decay rate in exp(-A |x-c|^2) (default 50)",
    )
    p.add_argument(
        "--index",
        type=_parse_index,
        default=(0, 0, 0),
        metavar="K,L,M",
        help="basis-phantom index (default 0,0,0)",
    )


def _quad(args) -> BallQuadrature:
    return BallQuadrature(args.quad_radial, args.quad_theta, args.quad_phi)


def _phantom(args) -> PhantomSpec:
    return PhantomSpec(
        name=args.phantom,
        center=args.center,
        sharpness=args.sharpness,
        index=args.index,
    )


def _resolve_caps(args) -> tuple:
    """(kmax, caps) from --caps (list or scalar) and optional --kmax."""
    caps = args.caps
    if isinstance(caps, tuple):
        kmax = len(caps) - 1
        if args.kmax is not None and args.kmax != kmax:
            raise ValueError(
                f"--kmax {args.kmax} conflicts with a {len(caps)}-entry --caps list"
            )
        return kmax, caps
    if args.kmax is None:
        raise ValueError("a scalar --caps needs --kmax")
    return args.kmax, caps


def cmd_project(args) -> int:
    phantom = _phantom(args)
    kmax, caps = _resolve_caps(args)
    field = project(phantom.build(), kmax, caps, _quad(args))
    dump_coefficient_field(field, args.out)
    for k, norm in enumerate(field.norms_per_k()):
        print(f"k={k} norm={norm:.12e}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    kmax, caps = _resolve_caps(args)
    if args.mode == "series":
        if args.coefficients is None:
            raise ValueError("series mode needs --coefficients")
        field = load_coefficient_field(args.coefficients)
        ms = forward_measure(field, kmax, caps)
    else:
        if (args.coefficients is None) == (args.phantom is None):
            raise ValueError("oracle mode needs exactly one of --coefficients or --phantom")
        if args.coefficients is not None:
            field = load_coefficient_field(args.coefficients)

            def eta(x, y, z):
                return synthesize_xyz(field, x, y, z)

        else:
            eta = _phantom(args).build()
        ms = oracle_measure(eta, kmax, caps, _quad(args))
    ms = add_noise(ms, args.noise, args.seed)
    dump_measurement_set(ms, args.out)
    print(f"wrote {args.out} ({len(ms.values)} measurements, K={ms.kmax})")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    ms = load_measurement_set(args.measurements)
    schedule = TruncationSchedule.from_string(args.schedule)
    report = reconstruct(ms, schedule, zero_fill=args.zero_fill)
    dump_recon_report(report, args.out)
    print(f"schedule {','.join(str(c) for c in schedule.caps)}  min divisor {report.min_divisor:.6e}")
    for stage in report.stages:
        print(f"k={stage.k} max inner sum {stage.max_inner_sum_magnitude:.6e}")
    if report.regularised:
        print("zero-fill regularisation was applied")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_slice(args) -> int:
    field = load_coefficient_field(args.coefficients)
    axis, offset = args.plane
    n = args.resolution
    if n < 2:
        raise ValueError("resolution must be at least 2")
    mode = "full" if args.partial_sum is None else args.partial_sum
    u = np.linspace(-1.0, 1.0, n)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    flat = np.full(n * n, offset)
    planes = {"x": (flat, uu.ravel(), vv.ravel()), "y": (uu.ravel(), flat, vv.ravel()),
              "z": (uu.ravel(), vv.ravel(), flat)}
    x, y, z = (a.copy() for a in planes[axis])
    inside = x * x + y * y + z * z <= 1.0
    values = np.full(n * n, np.nan)
    if np.any(inside):
        values[inside] = synthesize_xyz(field, x[inside], y[inside], z[inside], mode=mode).real
    gs = GridSlice(
        axis=axis,
        offset=offset,
        resolution=n,
        x=x.reshape(n, n),
        y=y.reshape(n, n),
        z=z.reshape(n, n),
        values=values.reshape(n, n),
    )
    dump_grid_slice(gs, args.out)
    print(f"wrote {args.out} ({int(np.sum(inside))} of {n * n} samples inside the ball)")
    return EXIT_OK


def cmd_selftest(args) -> int:
    return EXIT_OK if run_selftest(args.level) else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calderon3d",
        description="Simulate and invert linearised boundary measurements on the unit ball.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="project a phantom onto the ball basis")
    _add_phantom_flags(p)
    p.add_argument("--kmax", type=int, default=None, help="largest radial index")
    p.add_argument("--caps", type=_parse_caps, required=True, metavar="L0[,L1,...]",
                   help="degree cap, uniform scalar or per-k list")
    _add_quad_flags(p)
    p.add_argument("--out", required=True, help="output coefficient JSON path")
    p.set_defaults(func=cmd_project)
    p.set_defaults(phantom="gaussian")

    p = sub.add_parser("simulate", help="produce measurement data")
    p.add_argument("--coefficients", help="input coefficient JSON path")
    _add_phantom_flags(p)
    p.set_defaults(phantom=None)
    p.add_argument("--mode", choices=("series", "oracle"), default="series")
    p.add_argument("--kmax", type=int, default=None, help="largest measurement index")
    p.add_argument("--caps", type=_parse_caps, required=True, metavar="L0[,L1,...]",
                   help="measurement degree cap, uniform scalar or per-k list")
    p.add_argument("--noise", type=float, default=0.0, metavar="LEVEL",
                   help="relative noise level (default 0)")
    p.add_argument("--seed", type=int, default=0, help="noise seed (default 0)")
    _add_quad_flags(p)
    p.add_argument("--out", required=True, help="output measurement JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="recover coefficients from measurements")
    p.add_argument("--measurements", required=True, help="input measurement JSON path")
    p.add_argument("--schedule", required=True, metavar="L0,L1,...",
                   help="per-stage degree caps")
    p.add_argument("--zero-fill", action="store_true",
                   help="substitute zeros for dependencies an infeasible schedule dropped")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("slice", help="sample a coefficient file on a plane")
    p.add_argument("--coefficients", required=True,
                   help="coefficient or report JSON path")
    p.add_argument("--plane", type=_parse_plane, default=("z", 0.0), metavar="AXIS=OFFSET",
                   help="slicing plane (default z=0)")
    p.add_argument("--resolution", type=int, default=201, metavar="N",
                   help="samples per axis (default 201)")
    p.add_argument("--partial-sum", type=int, default=None, metavar="K",
                   help="truncate the radial sum at K (default: use all)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("selftest", help="run built-in consistency checks")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InfeasibleScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MissingMeasurementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (IncompleteSupportError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
