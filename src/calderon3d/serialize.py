"""File formats: JSON for coefficients, measurements and reconstruction
reports, CSV for plane slices.

All floats are written with 17 significant digits, so every value
round-trips through its file exactly and repeated runs produce
byte-identical output.  Entry lists are sorted by (k, ell, m).  A JSON
writer checks the finiteness of a document's entries once, formats each
entry as one row and writes negative zero as "-0.0".

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
no (k, ell, m) to appear twice.  It states each entry rule once, as a
mask over the rows, and names the first row that fails one.  Anything
else, unreadable bytes and invalid JSON included, is a ValueError that
names the file.

Reconstruction reports: a coefficient document plus a "diagnostics"
object {"min_divisor", "schedule", "stages": [{"k",
"max_inner_sum_magnitude"}]} and, only when zero-fill regularisation
actually substituted values, "regularised": true.  A missing or
malformed diagnostics field, a schedule other than the entries' per-k
degree caps, or stages other than k = 0..kmax in order is a ValueError
that names the file.

Slice files: CSV with header x,y,z,value, row-major over the grid; the
value column is empty at sample points outside the closed unit ball.
Every value is checked before the file is opened; then a fixed block of
rows at a time is formatted and written, so the writer's memory does not
grow with the resolution.
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


# the least integer that float() cannot round to a finite double: a JSON
# number is a finite float exactly when its magnitude is below it
_FLOAT_LIMIT = 2**1024 - 2**970


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    # "-0" would load as the JSON integer 0 and lose its sign
    return "-0.0" if x == 0 and math.copysign(1.0, x) < 0 else "%.17g" % x


def _check_finite(values: np.ndarray) -> None:
    """Raise naming the first non-finite element of the float array ``values``."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"cannot serialize non-finite value {values[bad.argmax()].item()!r}")


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
    pos = np.flatnonzero(c.present)
    values = c.data[pos]
    _check_finite(values.view(float))  # row by row, the real part first
    rows = [
        f'    {{"k": {k}, "ell": {ell}, "m": {m}, "re": {re:.17g}, "im": {im:.17g}}}'
        for k, ell, m, re, im in zip(*(a.tolist() for a in _unpack(c.base, pos)),
                                     values.real.tolist(), values.imag.tolist())
    ]
    lines = ["{", f'  "{key}": {c.kmax},']
    if not c.certified:
        lines.append('  "certified": false,')
    lines.append('  "entries": [')
    lines.extend([",\n".join(rows)] if rows else [])
    lines.append("  ]," if tail else "  ]")
    lines.extend(tail)
    lines.append("}")
    text = "\n".join(lines) + "\n"
    # "%.17g" writes -0.0 as "-0", which would load as the JSON integer 0
    Path(path).write_text(text.replace(": -0,", ": -0.0,").replace(": -0}", ": -0.0}"))


def _read_document(path, key: str, kind: str):
    """The JSON object in ``path`` and the container it holds.

    ``key`` names the header holding the radial bound; the degree caps
    are the largest degree stored per k.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    # a JSONDecodeError, an integer past Python's digit limit, or nesting too deep to parse
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if key not in doc:
        raise ValueError(f"{path}: not a {kind} document (no {key!r})")
    kmax = doc[key]
    # checked before the caps array below is sized from it
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
    # one object column per field; a missing field, or a row that is not an
    # object, reads as None and fails the type rule
    rows = [row if type(row) is dict else {} for row in raw]
    columns = [np.fromiter([row.get(field) for row in rows], dtype=object, count=len(rows))
               for field in ("k", "ell", "m", "re", "im")]
    types = [np.fromiter(map(type, col), dtype=object, count=len(rows)) for col in columns]
    typed = np.logical_and.reduce(
        [t == int for t in types[:3]] + [(t == int) | (t == float) for t in types[3:]]
    )
    # rows of the wrong types hold 0 from here, so the comparisons below are defined
    k, ell, m, re, im = (np.where(typed, col, 0) for col in columns)
    label = "(k={k}, ell={ell}, m={m})"
    with np.errstate(invalid="ignore"):  # NaN compares false, as wanted
        rules = [  # each entry rule once, in the order a row is checked
            (~typed | (k < 0) | (np.abs(m) > ell), "malformed entry {row!r}"),
            (~((np.abs(re) < _FLOAT_LIMIT) & (np.abs(im) < _FLOAT_LIMIT)),
             "non-finite value in entry " + label),
            (k > kmax, "entry " + label + f" exceeds the declared radial bound {kmax}"),
            # checked before the arrays are sized from the caps
            (ell > DEGREE_CAP, "entry " + label + f" exceeds DEGREE_CAP = {DEGREE_CAP}"),
        ]
    flagged = np.logical_or.reduce([mask for mask, _ in rules])
    if flagged.any():
        # the first flagged row, with the message of the first rule it fails
        i = int(flagged.argmax())
        message = next(text for mask, text in rules if mask[i])
        raise ValueError(f"{path}: " + message.format(row=raw[i], k=k[i], ell=ell[i], m=m[i]))
    k, ell, m = (a.astype(np.int64) for a in (k, ell, m))
    caps = np.zeros(kmax + 1, dtype=np.int64)
    np.maximum.at(caps, k, ell)
    caps = tuple(caps.tolist())
    base = _bases(caps)
    pos = np.array(base)[k] + ell * (ell + 1) + m
    counts = np.bincount(pos, minlength=base[-1])
    if counts.max() > 1:
        # name the first row whose index an earlier row holds
        order = np.argsort(pos, kind="stable")
        i = order[1:][np.diff(pos[order]) == 0].min()
        raise ValueError(
            f"{path}: entry (k={k[i]}, ell={ell[i]}, m={m[i]}) appears more than once"
        )
    data = np.zeros(base[-1], dtype=complex)
    # real and imaginary parts apart, so signed zeros keep their sign
    data.real[pos], data.imag[pos] = re.astype(float), im.astype(float)
    return doc, CoefficientField._packed(data, counts > 0, caps, certified)


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
    # OverflowError: an integer too large for a float
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


# CSV rows formatted and written at a time, so a slice file is written in
# memory that does not grow with its resolution
_ROWS = 2048


def _coordinate_text(block: np.ndarray, known: dict) -> list:
    """``_fmt`` of every element of the float array ``block``; ``known`` maps
    the bits of each value formatted so far to its text, so a coordinate (a
    column holds few distinct ones) is formatted once per file."""
    bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
    text = [known[b] if b in known else known.setdefault(b, _fmt(v))
            for b, v in zip(bits.tolist(), bits.view(float).tolist())]
    return np.array(text, dtype=object)[inverse].tolist()


def dump_grid_slice(gs: GridSlice, path) -> None:
    columns = [np.ravel(np.asarray(a, dtype=float)) for a in (gs.x, gs.y, gs.z)]
    values = np.ravel(np.asarray(gs.values, dtype=float))
    # every value is checked before the file is opened: no value is infinite
    # (NaN marks a point outside the ball), then no coordinate is NaN or
    # infinite, named as when each distinct coordinate was formatted in the
    # order of its bits
    _check_finite(values[np.isinf(values)])
    for col in columns:
        _check_finite(np.unique(col[~np.isfinite(col)].view(np.int64)).view(float))
    known = {}
    with Path(path).open("w") as out:
        out.write("x,y,z,value\n")
        for start in range(0, values.size, _ROWS):
            rows = slice(start, start + _ROWS)
            x, y, z = (_coordinate_text(col[rows], known) for col in columns)
            # an outside point's value is left empty
            text = ["" if math.isnan(v) else _fmt(v) for v in values[rows].tolist()]
            out.write("\n".join(map(",".join, zip(x, y, z, text))) + "\n")
