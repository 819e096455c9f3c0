"""File formats: JSON for coefficients, measurements and reconstruction
reports, CSV for plane slices.

All floats are written with 17 significant digits, so every value
round-trips through its file exactly and repeated runs produce
byte-identical output.  Entry lists are sorted by (k, ell, m).

Coefficient documents:  {"kmax": int, "entries": [{"k", "ell", "m",
"re", "im"}, ...]}.  A "certified": false key is added only for fields
that are truncations of something larger (e.g. quadrature projections),
where indices beyond the stored support must not be assumed zero.

Measurement documents:  {"K": int, "entries": [... same shape ...]}.

Reconstruction reports: a coefficient document plus a "diagnostics"
object {"min_divisor", "schedule", "stages": [{"k",
"max_inner_sum_magnitude"}]} and, only when zero-fill regularisation
actually substituted values, "regularised": true.

Slice files: CSV with header x,y,z,value, row-major over the grid; the
value column is empty at sample points outside the closed unit ball.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .forward import MeasurementSet
from .recon import ReconReport, StageDiagnostic, TruncationSchedule
from .zernike import CoefficientField, ZernikeIndex

__all__ = [
    "GridSlice",
    "dump_coefficient_field",
    "load_coefficient_field",
    "dump_measurement_set",
    "load_measurement_set",
    "dump_recon_report",
    "load_recon_report",
    "dump_grid_slice",
]


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return "%.17g" % x


def _entry_lines(items, indent: str) -> list:
    lines = []
    for i, (idx, val) in enumerate(items):
        comma = "," if i + 1 < len(items) else ""
        lines.append(
            f'{indent}{{"k": {idx.k}, "ell": {idx.ell}, "m": {idx.m}, '
            f'"re": {_fmt(val.real)}, "im": {_fmt(val.imag)}}}{comma}'
        )
    return lines


def _parse_entries(doc, path):
    raw = doc.get("entries")
    if not isinstance(raw, list):
        raise ValueError(f"{path}: missing or malformed 'entries' list")
    entries = {}
    for row in raw:
        try:
            idx = ZernikeIndex(int(row["k"]), int(row["ell"]), int(row["m"]))
            re, im = float(row["re"]), float(row["im"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed entry {row!r}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(
                f"{path}: non-finite value in entry (k={idx.k}, ell={idx.ell}, m={idx.m})"
            )
        entries[idx] = complex(re, im)
    return entries


def _inferred_caps(entries: dict, kmax: int) -> tuple:
    caps = [0] * (kmax + 1)
    for idx in entries:
        if idx.k > kmax:
            raise ValueError(f"entry {idx} exceeds the declared radial bound {kmax}")
        caps[idx.k] = max(caps[idx.k], idx.ell)
    return tuple(caps)


# ------------------------------------------------------------- coefficients


def dump_coefficient_field(c: CoefficientField, path) -> None:
    lines = ["{", f'  "kmax": {c.kmax},']
    if not c.certified:
        lines.append('  "certified": false,')
    lines.append('  "entries": [')
    lines.extend(_entry_lines(c.items_sorted(), "    "))
    lines.extend(["  ]", "}"])
    Path(path).write_text("\n".join(lines) + "\n")


def load_coefficient_field(path) -> CoefficientField:
    doc = _read_json(path)
    if "kmax" not in doc:
        raise ValueError(f"{path}: not a coefficient document (no 'kmax')")
    kmax = int(doc["kmax"])
    entries = _parse_entries(doc, path)
    certified = bool(doc.get("certified", True))
    return CoefficientField(entries, kmax, _inferred_caps(entries, kmax), certified)


# ------------------------------------------------------------- measurements


def dump_measurement_set(ms: MeasurementSet, path) -> None:
    lines = ["{", f'  "K": {ms.kmax},', '  "entries": [']
    lines.extend(_entry_lines(ms.items_sorted(), "    "))
    lines.extend(["  ]", "}"])
    Path(path).write_text("\n".join(lines) + "\n")


def load_measurement_set(path) -> MeasurementSet:
    doc = _read_json(path)
    if "K" not in doc:
        raise ValueError(f"{path}: not a measurement document (no 'K')")
    kmax = int(doc["K"])
    values = _parse_entries(doc, path)
    return MeasurementSet(values, kmax, _inferred_caps(values, kmax))


# ------------------------------------------------------------- reports


def dump_recon_report(rep: ReconReport, path) -> None:
    lines = ["{", f'  "kmax": {rep.field.kmax},', '  "entries": [']
    lines.extend(_entry_lines(rep.field.items_sorted(), "    "))
    lines.append("  ],")
    lines.append('  "diagnostics": {')
    lines.append(f'    "min_divisor": {_fmt(rep.min_divisor)},')
    lines.append(f'    "schedule": [{", ".join(str(c) for c in rep.schedule.caps)}],')
    if rep.regularised:
        lines.append('    "regularised": true,')
    lines.append('    "stages": [')
    for i, st in enumerate(rep.stages):
        comma = "," if i + 1 < len(rep.stages) else ""
        lines.append(
            f'      {{"k": {st.k}, "max_inner_sum_magnitude": '
            f"{_fmt(st.max_inner_sum_magnitude)}}}{comma}"
        )
    lines.extend(["    ]", "  }", "}"])
    Path(path).write_text("\n".join(lines) + "\n")


def load_recon_report(path) -> ReconReport:
    doc = _read_json(path)
    diag = doc.get("diagnostics")
    if not isinstance(diag, dict):
        raise ValueError(f"{path}: not a reconstruction report (no 'diagnostics')")
    kmax = int(doc["kmax"])
    entries = _parse_entries(doc, path)
    schedule = TruncationSchedule(tuple(int(c) for c in diag["schedule"]))
    field = CoefficientField(entries, kmax, _inferred_caps(entries, kmax))
    stages = tuple(
        StageDiagnostic(k=int(s["k"]), max_inner_sum_magnitude=float(s["max_inner_sum_magnitude"]))
        for s in diag["stages"]
    )
    return ReconReport(
        field=field,
        schedule=schedule,
        min_divisor=float(diag["min_divisor"]),
        stages=stages,
        regularised=bool(diag.get("regularised", False)),
    )


def _read_json(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


# ------------------------------------------------------------- slices


@dataclass(frozen=True, eq=False)
class GridSlice:
    """Real-valued samples of a field on an axis-aligned plane.

    ``values`` holds NaN at sample points outside the closed unit ball;
    those rows are written with an empty value column.
    """

    axis: str
    offset: float
    resolution: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    values: np.ndarray


def dump_grid_slice(gs: GridSlice, path) -> None:
    n = gs.resolution
    lines = ["x,y,z,value"]
    for i in range(n):
        for j in range(n):
            coords = f"{_fmt(gs.x[i, j])},{_fmt(gs.y[i, j])},{_fmt(gs.z[i, j])}"
            v = gs.values[i, j]
            lines.append(f"{coords}," if math.isnan(v) else f"{coords},{_fmt(v)}")
    Path(path).write_text("\n".join(lines) + "\n")
