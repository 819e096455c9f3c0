"""Coupling constants and the forward-substitution reconstruction.

The measurement of index (k, l, m) couples to the coefficient c_{l'}^{q,m}
only for l' = l + 2s with 0 <= s <= k and 0 <= q <= k - s, through the
constant

    Q_{l,s}^{k,m,q} = chi_{l+2s}^{k-s,q} * D_{l,s}^{k,m}
                    = (-1)^{m+1} sqrt(2l+4q+4s+3) (k-s+1) (k-q-s+1)_q
                      / ((k+1)(l+k+1) (l+k+s+5/2)_q)
                      * G_{k+1, l+k+1, l+2s}^{0, -m, m},

    D_{l,s}^{k,m}   = (-1)^{m+1} tau_{l, l+2s}^k G_{k+1, l+k+1, l+2s}^{0,-m,m},

    tau_{l,l'}^k    = (l+2k+2-l')(l+2k+3+l') / (2(k+1)(l+k+1)).

``big_q`` evaluates the collapsed closed form; the test suite checks it
against the factored product chi * D.  Because s = 0 and q = k leaves
the single new unknown c_l^{k,m} with a provably nonzero divisor
Q_{l,0}^{k,m,k}, the whole system is triangular in k and solves by
forward substitution:

    c_l^{k,m} = (Q_{l,0}^{k,m,k})^{-1} (M(k,l,m)
                - sum_{q=0}^{k-1} sum_{s=0}^{k-q} Q_{l,s}^{k,m,q} c_{l+2s}^{q,m}).

The inner sum reaches degree l + 2s at earlier radial indices q, so a
per-k truncation schedule (l_0, ..., l_K) is usable only when
l_q >= l_k + 2(k - q) for all q < k; both built-in demo schedules satisfy
this.  Infeasible schedules are rejected unless zero-fill regularisation
is requested explicitly.

For given degree caps the constants Q form one fixed sparse operator,
built by ``coupling_operator`` and shared by ``forward.forward_measure``
(which applies it) and ``reconstruct`` (which inverts it stage by stage).
Q is even in m (flipping every order of a Gaunt coefficient multiplies
its 3j symbols by (-1)^(sum of degrees) = +1) and row (k, l, m) reads
only columns of order m, so the operator keeps the rows with m >= 0, and
its callers apply each to four real rows at once: Re c(m), Im c(m),
Re c(-m) and Im c(-m).  Each stage k is a rectangular table with values
equal to ``big_q``: one table row per (q, s) in summation order, the
divisor last.  ``CouplingStage.term_sum`` adds all the terms for the
forward map and all but the divisor for the solve, in one gather and one
reduction over the stage; numpy's reduction over an outer axis adds the
terms one at a time from zero, so its order is fixed.  The Gaunt factors
of every stage come from one batched ``specfun.coupling_gaunts`` call,
one row per (k, s, l), and each serves every q of its (k, s).  ``big_q``
asks the same routine for its one row; a row does not depend on the batch
it is computed in, so its values equal the operator's.  The operator is
kept in a bounded cache keyed by the caps tuple; at the schedule
(48, 44, ..., 20) it has 5,376 rows and 51,492 terms in 0.70 MB.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import specfun
from .zernike import CoefficientField, _bases, _unpack, as_caps

__all__ = [
    "TruncationSchedule",
    "ScheduleViolation",
    "StageDiagnostic",
    "ReconReport",
    "InfeasibleScheduleError",
    "MissingMeasurementError",
    "DivisorUnderflowWarning",
    "tau",
    "big_q",
    "CouplingStage",
    "CouplingOperator",
    "coupling_operator",
    "validate_schedule",
    "reconstruct",
    "DIVISOR_UNDERFLOW",
]

# tripwire only: the divisor is provably nonzero, so anything this small
# signals a defect in the special functions, not an ill-posed problem
DIVISOR_UNDERFLOW = 1e-14


class InfeasibleScheduleError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        first = self.violations[0]
        super().__init__(
            f"infeasible truncation schedule: {len(self.violations)} violation(s), "
            f"first at (q={first.q}, k={first.k}): need cap[{first.q}] >= "
            f"{first.required}, have {first.actual}"
        )


class MissingMeasurementError(KeyError):
    def __init__(self, k: int, ell: int, m: int):
        self.index = (k, ell, m)
        super().__init__(f"measurement (k={k}, ell={ell}, m={m}) is absent from the data")

    def __str__(self) -> str:  # KeyError reprs its message by default
        return self.args[0]


class DivisorUnderflowWarning(UserWarning):
    pass


@dataclass(frozen=True)
class TruncationSchedule:
    """Per-k degree caps (l_0, ..., l_K) used during reconstruction."""

    caps: tuple

    def __post_init__(self) -> None:
        if not len(self.caps):
            raise ValueError("schedule needs at least one cap")
        # the caps rule of every field: at most DEGREE_CAP + 1 caps, each in 0..DEGREE_CAP
        object.__setattr__(self, "caps", as_caps(len(self.caps) - 1, self.caps))

    @property
    def K(self) -> int:
        return len(self.caps) - 1


@dataclass(frozen=True)
class ScheduleViolation:
    q: int
    k: int
    required: int
    actual: int


@dataclass(frozen=True)
class StageDiagnostic:
    k: int
    max_inner_sum_magnitude: float


@dataclass(frozen=True, eq=False)
class ReconReport:
    """Reconstruction result plus solver diagnostics."""

    field: CoefficientField
    schedule: TruncationSchedule
    min_divisor: float
    stages: tuple
    regularised: bool = False


def tau(ell: int, ell_prime: int, k: int) -> float:
    """Surface-gradient reduction factor tau_{l,l'}^k.

    Vanishes exactly at ell_prime = ell + 2k + 2.
    """
    if ell < 0 or ell_prime < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    den = 2 * (k + 1) * (ell + k + 1)
    return (ell + 2 * k + 2 - ell_prime) * (ell + 2 * k + 3 + ell_prime) / den


def big_q(ell: int, s: int, k: int, m: int, q: int) -> float:
    """Series coupling Q_{l,s}^{k,m,q}, from the fully collapsed expression."""
    if not 0 <= s <= k:
        raise ValueError(f"need 0 <= s <= k, got s={s}, k={k}")
    if not 0 <= q <= k - s:
        raise ValueError(f"need 0 <= q <= k - s, got q={q}, k={k}, s={s}")
    if abs(m) > ell:
        raise ValueError(f"order out of range: |m|={abs(m)} > ell={ell}")
    g = specfun.coupling_gaunts([k], [s], [ell])[0, abs(m)]
    if g == 0.0:
        return 0.0
    sign = 1.0 if m % 2 else -1.0
    return sign * _order_free_factor(ell, s, k, q) * g


def _order_free_factor(ell, s: int, k: int, q: int):
    """The part of Q_{l,s}^{k,m,q} that depends on neither m nor the Gaunt:
    sqrt(2l+4q+4s+3) (k-s+1) (k-q-s+1)_q / ((k+1)(l+k+1) (l+k+s+5/2)_q),
    at a degree ``ell`` or at each degree of an integer array ``ell``."""
    ells = np.asarray(ell)
    num = (k - s + 1) * 2**q * math.prod(range(k - q - s + 1, k - s + 1))
    # int true division is correctly rounded, as float(Fraction(num, den)) is
    ratios = [num / ((k + 1) * (d + k + 1) * math.prod(range(2 * (d + k + s) + 5,
                                                            2 * (d + k + s + q) + 5, 2)))
              for d in ells.ravel().tolist()]
    return np.sqrt(2 * ells + 4 * q + 4 * s + 3) * np.reshape(ratios, ells.shape)


@dataclass(frozen=True, eq=False)
class CouplingStage:
    """The terms of the measurements with m >= 0 at one radial index k.

    ``cols`` and ``vals`` have shape (terms, rows); rows are local to the
    stage, in (ell, m) order, and term j is the j-th (q, s) of the series.
    The last, q = k and s = 0, is each row's own coefficient ``cols[-1]``
    times the divisor ``vals[-1]`` = Q_{l,0}^{k,m,k}.
    """

    start: int  # index of the stage's first row
    cols: np.ndarray
    vals: np.ndarray

    @property
    def size(self) -> int:
        return self.vals.shape[1]

    def term_sum(self, x: np.ndarray, stop: int | None = None) -> np.ndarray:
        """Per row of the real (B, columns) array ``x`` and per stage row,
        the terms before ``stop`` (all by default) added one at a time from
        zero in term order: one gather, one product in place and one
        reduction over the (B, terms, rows) array.  numpy reduces an axis
        that is not innermost by adding whole slices to the ``initial``
        zeros in index order.  Along the innermost extent it sums pairwise,
        in another order, so a one-row stage reduces a (terms, B) copy.
        """
        y = x.take(self.cols[:stop], axis=1)
        y *= self.vals[:stop]
        if self.size == 1:
            return np.add.reduce(y.transpose(1, 0, 2).copy(), axis=0, initial=0.0)
        return np.add.reduce(y, axis=1, initial=0.0)


@dataclass(frozen=True, eq=False)
class CouplingOperator:
    """The series couplings Q_{l,s}^{k,m,q} for one tuple of degree caps.

    Row (k, ell, m), ell <= caps[k], 0 <= m <= ell, is a measurement;
    column (q, ell', m) a coefficient, with degrees up to ``col_caps``,
    which exceed ``caps`` only for infeasible schedules.  Both are half
    layouts: (k, ell, m) at base[k] + ell (ell + 1) / 2 + m.  ``rows[:, i]``
    holds the packed positions of row i at m and at -m, and ``cols`` the
    same for the columns (``rows`` itself when the caps agree).
    """

    col_caps: tuple
    col_base: tuple  # col_base[q]: index of column (q, 0, 0); last entry is the width
    rows: np.ndarray
    cols: np.ndarray
    stages: tuple


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _half_degrees(cap: int):
    """(ell, m) over one k of a half layout: ell <= cap, then 0 <= m <= ell."""
    ell = np.repeat(np.arange(cap + 1), np.arange(1, cap + 2))
    return ell, np.arange(ell.size) - ell * (ell + 1) // 2


def _half_pairs(caps) -> np.ndarray:
    """The packed positions under ``caps`` of (k, ell, m) and (k, ell, -m),
    (2, slots), over the half layout under ``caps``."""
    pairs = []
    for b, cap in zip(_bases(caps), caps):
        ell, m = _half_degrees(cap)
        pairs.append([b + ell * (ell + 1) + m, b + ell * (ell + 1) - m])
    return _frozen(np.concatenate(pairs, axis=1), np.intp)


def _split(data: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The four rows Re c(m), Im c(m), Re c(-m), Im c(-m) of packed ``data``."""
    both = data.take(pairs)
    x = np.empty((4, pairs.shape[1]))
    x[0::2], x[1::2] = both.real, both.imag
    return x


def _joined(x: np.ndarray, pairs: np.ndarray, size: int) -> np.ndarray:
    """The packed complex array of ``size`` slots whose ``_split`` is ``x``; at
    m = 0 both pairs name one slot, which the callers' rows give equal values."""
    both = np.empty((2, pairs.shape[1]), dtype=complex)
    both.real, both.imag = x[0::2], x[1::2]
    out = np.empty(size, dtype=complex)
    out[pairs] = both
    return out


@lru_cache(maxsize=4)
def coupling_operator(caps: tuple) -> CouplingOperator:
    """The coupling operator for the degree caps (l_0, ..., l_K), built once.

    Raises
    ------
    ValueError
        If a stage needs a Gaunt degree past specfun.DEGREE_CAP; checked
        before any Gaunt coefficient is evaluated.
    """
    for k, cap in enumerate(caps):
        degree = cap + max(2 * k, k + 1)
        if degree > specfun.DEGREE_CAP:
            raise ValueError(
                f"stage k={k} with degree cap {cap} needs Gaunt degree {degree}, "
                f"past DEGREE_CAP = {specfun.DEGREE_CAP}"
            )
    K = len(caps) - 1
    col_caps = tuple(max(caps[k] + 2 * (k - q) for k in range(q, K + 1)) for q in range(K + 1))
    col_base = (0, *accumulate((cap + 1) * (cap + 2) // 2 for cap in col_caps))
    # every Gaunt row of every stage, (k, s, ell) in order, in one batch
    rows = [(k, s, ell) for k, cap in enumerate(caps) for s in range(k + 1) for ell in range(cap + 1)]
    table = specfun.coupling_gaunts(*zip(*rows))
    stages = []
    start = 0
    first_row = 0
    for k, cap in enumerate(caps):
        ell, m = _half_degrees(cap)
        sign = np.where(m % 2 == 1, 1.0, -1.0)
        gaunts = [table[first_row + s * (cap + 1) + ell, m] for s in range(k + 1)]
        first_row += (k + 1) * (cap + 1)

        def term(q, s):
            """Column and value of the (q, s) term of every row, as in big_q."""
            factor = _order_free_factor(np.arange(cap + 1), s, k, q)[ell]
            g = gaunts[s]
            # big_q returns +0.0 for a vanishing Gaunt, never -0.0
            return (
                col_base[q] + (ell + 2 * s) * (ell + 2 * s + 1) // 2 + m,
                np.where(g == 0.0, 0.0, sign * (factor * g)),
            )

        terms = [term(q, s) for q in range(k + 1) for s in range(k - q + 1)]
        stages.append(
            CouplingStage(
                start=start,
                cols=_frozen([c for c, _ in terms], np.int32),
                vals=_frozen([v for _, v in terms], float),
            )
        )
        start += ell.size
    pairs = _half_pairs(caps)
    cols = pairs if col_caps == caps else _half_pairs(col_caps)
    return CouplingOperator(col_caps, col_base, pairs, cols, tuple(stages))


def validate_schedule(schedule: TruncationSchedule) -> list:
    """Feasibility violations of a schedule; empty iff usable exactly.

    Stage k consumes coefficients up to degree l_k + 2(k - q) at every
    earlier radial index q, so each cap must dominate that demand.
    """
    caps = schedule.caps
    out = []
    for k in range(1, len(caps)):
        for q in range(k):
            required = caps[k] + 2 * (k - q)
            if caps[q] < required:
                out.append(ScheduleViolation(q=q, k=k, required=required, actual=caps[q]))
    return out


def reconstruct(
    ms: CoefficientField, schedule: TruncationSchedule, zero_fill: bool = False
) -> ReconReport:
    """Recover coefficients from measurements by forward substitution.

    Stages run in increasing k; within a stage the (ell, m) order is
    irrelevant because the inner sum touches only earlier stages, so each
    stage is one vectorised update over the shared coupling operator,
    c_k = (M_k - every term but the divisor) / divisor.  With
    exact measurements of a field supported inside a feasible schedule
    the recovery is exact to rounding.  Entries come in (k, ell, m) order.

    Parameters
    ----------
    ms : CoefficientField
        The measurements (a ``forward.MeasurementSet``).  Must contain
        every index (k <= K, ell <= caps[k], |m| <= ell).
    schedule : TruncationSchedule
    zero_fill : bool
        Opt-in regularisation: substitute 0 for dependencies an
        infeasible schedule never reconstructed, instead of raising.

    Raises
    ------
    InfeasibleScheduleError
        Schedule violates the dependency inequality and zero_fill is off.
    MissingMeasurementError
        Raised before any stage runs; names the first absent index in
        (k ascending, ell descending, m ascending) order.
    """
    violations = validate_schedule(schedule)
    if violations and not zero_fill:
        raise InfeasibleScheduleError(violations)
    op = coupling_operator(schedule.caps)
    # the packed layout under the schedule's caps holds every measurement
    measured, have = ms._relaid(schedule.caps)
    if not have.all():
        k, ell, m = _unpack(_bases(schedule.caps), np.flatnonzero(~have))
        gap = np.lexsort((m, -ell, k))[0]
        raise MissingMeasurementError(int(k[gap]), int(ell[gap]), int(m[gap]))
    size = measured.size
    measured = _split(measured, op.rows)
    x = np.zeros((4, op.col_base[-1]))  # stays 0 where never reconstructed
    inner, floors = [], []
    for k, st in enumerate(op.stages):
        divisor = st.vals[-1]
        floors.append(float(np.abs(divisor).min()))
        bad = []  # one warning per (k, ell, m), m < 0 included, in (ell, m) order
        if floors[-1] < DIVISOR_UNDERFLOW:
            for i in np.flatnonzero(np.abs(divisor) < DIVISOR_UNDERFLOW).tolist():
                ell = (math.isqrt(8 * i + 1) - 1) // 2
                m = i - ell * (ell + 1) // 2
                bad += [(ell, -m, i), (ell, m, i)] if m else [(ell, 0, i)]
        for ell, m, i in sorted(bad):
            warnings.warn(
                f"divisor |Q| = {abs(divisor[i]):.3e} below {DIVISOR_UNDERFLOW} at "
                f"(k={k}, ell={ell}, m={m}); the special functions are suspect",
                DivisorUnderflowWarning,
            )
        inner.append(st.term_sum(x, -1))
        # the stage's own coefficients, cols[-1], are the block from col_base[k]
        x[:, op.col_base[k] : op.col_base[k] + st.size] = (measured[:, st.start : st.start + st.size]
                                                          - inner[-1]) / divisor
    solution = np.concatenate([x[:, b : b + st.size] for b, st in zip(op.col_base, op.stages)], axis=1)
    # np.hypot rounds like the builtin abs(complex); np.abs does not.  It is
    # slow, so it runs only where |z| can be a stage's largest: |z| is 1 to
    # sqrt 2 times max(|Re z|, |Im z|), so no row whose larger part is below
    # 0.7071 of the stage's largest (below 1/sqrt 2 by more than hypot's
    # rounding) can be; a NaN compares false and keeps its whole stage
    inner = np.concatenate(inner, axis=1)
    part, starts = np.abs(inner).max(axis=0), [st.start for st in op.stages]
    near = np.flatnonzero(~(part < np.repeat(np.maximum.reduceat(part, starts) * 0.7071,
                                              np.diff([*starts, part.size]))))
    z = inner.take(near, axis=1)
    largest = np.maximum.reduceat(np.maximum(np.hypot(z[0], z[1]), np.hypot(z[2], z[3])),
                                  np.searchsorted(near, starts))
    return ReconReport(
        field=CoefficientField._packed(_joined(solution, op.rows, size), have, schedule.caps),
        schedule=schedule,
        min_divisor=min(floors),
        stages=tuple(StageDiagnostic(k=k, max_inner_sum_magnitude=float(v))
                     for k, v in enumerate(largest)),
        # an infeasible schedule always leaves some dependency unreconstructed
        regularised=bool(violations),
    )
