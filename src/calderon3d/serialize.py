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
Both kinds hold the same container, so one writer and one reader serve
them.  The reader requires the header ("kmax" or "K") and every
entry's degree to be JSON integers from 0 to specfun.DEGREE_CAP, checked
before anything is sized from them, "certified" to be a JSON boolean,
every index to be a JSON integer, every value a finite JSON number and
no (k, ell, m) to appear twice; anything else is a ValueError that names
the file.

Reconstruction reports: a coefficient document plus a "diagnostics"
object {"min_divisor", "schedule", "stages": [{"k",
"max_inner_sum_magnitude"}]} and, only when zero-fill regularisation
actually substituted values, "regularised": true.  A missing or
malformed diagnostics field, a schedule other than the entries' per-k
degree caps, or stages other than k = 0..kmax in order is a ValueError
that names the file.

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
from .specfun import DEGREE_CAP
from .zernike import CoefficientField, _bases, _unpack

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
    # "-0" would load as the JSON integer 0 and lose its sign
    return "-0.0" if x == 0 and math.copysign(1.0, x) < 0 else "%.17g" % x


def _int(v) -> int:
    # a JSON integer: not 2.5, and not true/false (bool subclasses int)
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _float(v) -> float:
    if type(v) not in (int, float):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def _write_document(path, key: str, c: CoefficientField, tail=()) -> None:
    """Write {key: kmax, ["certified": false,] "entries": [...], *tail}.

    The entries come in the container's packed order, which is sorted by
    (k, ell, m); ``tail`` holds further top-level members as ready-made
    lines.
    """
    lines = ["{", f'  "{key}": {c.kmax},']
    if not c.certified:
        lines.append('  "certified": false,')
    lines.append('  "entries": [')
    pos = np.flatnonzero(c.present)
    index = zip(*(a.tolist() for a in _unpack(c.base, pos)))
    rows = [
        f'    {{"k": {k}, "ell": {ell}, "m": {m}, "re": {_fmt(v.real)}, "im": {_fmt(v.imag)}}}'
        for (k, ell, m), v in zip(index, c.data[pos].tolist())
    ]
    lines.extend([row + "," for row in rows[:-1]] + rows[-1:])
    lines.append("  ]," if tail else "  ]")
    lines.extend(tail)
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def _read_document(path, key: str, kind: str):
    """The JSON object in ``path`` and the container it holds.

    ``key`` names the header holding the radial bound; the degree caps
    are the largest degree stored per k.
    """
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
    if key not in doc:
        raise ValueError(f"{path}: not a {kind} document (no {key!r})")
    kmax = doc[key]
    # checked before the caps list below is sized from it
    if type(kmax) is not int or not 0 <= kmax <= DEGREE_CAP:
        raise ValueError(
            f"{path}: {key!r} must be an integer from 0 to DEGREE_CAP = {DEGREE_CAP}, "
            f"got {kmax!r}"
        )
    certified = doc.get("certified", True)
    if type(certified) is not bool:
        raise ValueError(f"{path}: 'certified' must be true or false, got {certified!r}")
    raw = doc.get("entries")
    if not isinstance(raw, list):
        raise ValueError(f"{path}: missing or malformed 'entries' list")
    caps = [0] * (kmax + 1)
    rows = []
    for row in raw:
        try:
            k, ell, m = _int(row["k"]), _int(row["ell"]), _int(row["m"])
            re, im = _float(row["re"]), _float(row["im"])
            if k < 0 or abs(m) > ell:
                raise ValueError("index out of range")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed entry {row!r}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"{path}: non-finite value in entry (k={k}, ell={ell}, m={m})")
        if k > kmax:
            raise ValueError(f"{path}: entry (k={k}, ell={ell}, m={m}) exceeds the "
                             f"declared radial bound {kmax}")
        if ell > DEGREE_CAP:  # checked before the arrays are sized from the caps
            raise ValueError(f"{path}: entry (k={k}, ell={ell}, m={m}) exceeds "
                             f"DEGREE_CAP = {DEGREE_CAP}")
        caps[k] = max(caps[k], ell)
        rows.append((k, ell, m, re, im))
    base = _bases(caps)
    table = np.array(rows, dtype=float).reshape(-1, 5)
    k, ell, m = table[:, :3].T.astype(np.int64)
    pos = np.array(base)[k] + ell * (ell + 1) + m
    counts = np.bincount(pos, minlength=base[-1])
    if counts.max() > 1:
        # name the first row whose index an earlier row holds
        order = np.argsort(pos, kind="stable")
        k, ell, m = rows[order[1:][np.diff(pos[order]) == 0].min()][:3]
        raise ValueError(f"{path}: entry (k={k}, ell={ell}, m={m}) appears more than once")
    data = np.zeros(base[-1], dtype=complex)
    # real and imaginary parts apart, so signed zeros keep their sign
    data.real[pos], data.imag[pos] = table[:, 3], table[:, 4]
    return doc, CoefficientField._packed(data, counts > 0, tuple(caps), certified)


# ------------------------------------------------------------- coefficients


def dump_coefficient_field(c: CoefficientField, path) -> None:
    _write_document(path, "kmax", c)


def load_coefficient_field(path) -> CoefficientField:
    return _read_document(path, "kmax", "coefficient")[1]


# ------------------------------------------------------------- measurements


def dump_measurement_set(ms: MeasurementSet, path) -> None:
    _write_document(path, "K", ms)


def load_measurement_set(path) -> MeasurementSet:
    return _read_document(path, "K", "measurement")[1]


# ------------------------------------------------------------- reports


def dump_recon_report(rep: ReconReport, path) -> None:
    tail = [
        '  "diagnostics": {',
        f'    "min_divisor": {_fmt(rep.min_divisor)},',
        f'    "schedule": [{", ".join(str(c) for c in rep.schedule.caps)}],',
    ]
    if rep.regularised:
        tail.append('    "regularised": true,')
    tail.append('    "stages": [')
    for i, st in enumerate(rep.stages):
        comma = "," if i + 1 < len(rep.stages) else ""
        tail.append(
            f'      {{"k": {st.k}, "max_inner_sum_magnitude": '
            f"{_fmt(st.max_inner_sum_magnitude)}}}{comma}"
        )
    tail.extend(["    ]", "  }"])
    _write_document(path, "kmax", rep.field, tail)


def load_recon_report(path) -> ReconReport:
    doc, field = _read_document(path, "kmax", "coefficient")
    diag = doc.get("diagnostics")
    if not isinstance(diag, dict):
        raise ValueError(f"{path}: not a reconstruction report (no 'diagnostics')")
    try:
        regularised = diag.get("regularised", False)
        if type(regularised) is not bool:
            raise TypeError(f"'regularised' must be true or false, got {regularised!r}")
        rep = ReconReport(
            field=field,
            schedule=TruncationSchedule(tuple(_int(c) for c in diag["schedule"])),
            min_divisor=_float(diag["min_divisor"]),
            stages=tuple(
                StageDiagnostic(
                    k=_int(s["k"]),
                    max_inner_sum_magnitude=_float(s["max_inner_sum_magnitude"]),
                )
                for s in diag["stages"]
            ),
            regularised=regularised,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: missing or malformed diagnostics field ({exc})") from exc
    # reconstruct writes every (k, ell <= caps[k], m), so the entries fix the schedule
    if rep.schedule.caps != field.degree_caps:
        raise ValueError(
            f"{path}: schedule {list(rep.schedule.caps)} does not match the entries' "
            f"degree caps {list(field.degree_caps)}"
        )
    if [st.k for st in rep.stages] != list(range(len(field.degree_caps))):
        raise ValueError(f"{path}: stages must run k = 0..{field.kmax} in order")
    return rep


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


def _fmt_distinct(a: np.ndarray) -> list:
    """``_fmt`` of every element of ``a`` in C order; each distinct value (a
    coordinate column holds few) is formatted once."""
    bits, inverse = np.unique(np.ravel(a).astype(float).view(np.int64), return_inverse=True)
    text = [_fmt(v) for v in bits.view(float).tolist()]
    return [text[i] for i in inverse.tolist()]


def dump_grid_slice(gs: GridSlice, path) -> None:
    # every value is formatted, and so checked, before the file is opened
    values = ["" if math.isnan(v) else _fmt(v) for v in gs.values.ravel().tolist()]
    rows = zip(_fmt_distinct(gs.x), _fmt_distinct(gs.y), _fmt_distinct(gs.z), values)
    with Path(path).open("w") as out:
        out.write("x,y,z,value\n")
        for row in map(",".join, rows):
            out.write(row + "\n")
