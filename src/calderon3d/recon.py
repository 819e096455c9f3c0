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
(which applies it) and ``reconstruct`` (which inverts it stage by stage),
both in one (k, l, m) row order.  Each stage k is a rectangular table
with values equal to ``big_q``: one table row per (q, s) in summation
order, the divisor last.  ``CouplingStage.term_sum`` adds all the terms
for the forward map and all but the divisor for the solve, in one gather
and one reduction over the stage; numpy's reduction over an outer axis
adds the terms one at a time from zero, so its order is fixed.  The Gaunt
factors of every stage come from one batched ``specfun.coupling_gaunts``
call, one row per (k, s, l), and each serves every q of its (k, s).
``big_q`` asks the same routine for its one row; a row does not depend on
the batch it is computed in, so its values equal the operator's.  The
operator is kept in a bounded cache keyed by the caps tuple; at the
schedule (48, 44, ..., 20) it has 10,472 rows and 99,624 terms in 1.59 MB.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

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
    """The terms of the measurements at one radial index k.

    ``cols`` and ``vals`` have shape (terms, rows); rows are local to the
    stage, in the (ell, m) order of both the forward map and the solve,
    and term j is the j-th (q, s) of the series.
    The last, q = k and s = 0, is each row's own coefficient ``cols[-1]``
    times the divisor ``vals[-1]`` = Q_{l,0}^{k,m,k}.
    """

    start: int  # flat index of the stage's first row
    cols: np.ndarray
    vals: np.ndarray

    @property
    def size(self) -> int:
        return self.vals.shape[1]

    def term_sum(self, coeffs: np.ndarray, stop: int | None = None) -> np.ndarray:
        """Per row, its terms before ``stop`` (all by default) against the flat
        column vector ``coeffs``, added one at a time from zero in term order,
        real and imaginary parts apart.

        One gather fills a (terms, rows) complex array, viewed as (terms,
        rows, 2) with the last axis the (real, imaginary) pair; two products
        scale it in place, and one reduction sums over the terms.  numpy
        reduces an outer axis by adding whole slices to the ``initial``
        zeros in index order, so the order is fixed and is the term order.  It sums pairwise, in another order, only along the
        innermost extent, and the trailing pair keeps that extent at least 2
        even for a one-row stage.
        """
        x = coeffs[self.cols[:stop]]
        parts = x.view(float).reshape(x.shape + (2,))
        np.multiply(self.vals[:stop], parts[..., 0], out=parts[..., 0])
        np.multiply(self.vals[:stop], parts[..., 1], out=parts[..., 1])
        return np.add.reduce(parts, axis=0, initial=0.0).view(complex).ravel()


@dataclass(frozen=True, eq=False)
class CouplingOperator:
    """The series couplings Q_{l,s}^{k,m,q} for one tuple of degree caps.

    Row (k, ell, m), ell <= caps[k], is a measurement, and the rows are a
    packed coefficient layout under ``caps``.  Column (q, ell', m) is a
    coefficient; the columns are the packed layout under ``col_caps``,
    whose degree for radial index q exceeds caps[q] only for infeasible
    schedules.
    """

    col_caps: tuple
    col_base: tuple  # col_base[q]: flat index of column (q, 0, 0); last entry is the width
    stages: tuple


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


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
    col_base = _bases(col_caps)
    # every Gaunt row of every stage, (k, s, ell) in order, in one batch
    rows = [(k, s, ell) for k, cap in enumerate(caps) for s in range(k + 1) for ell in range(cap + 1)]
    table = specfun.coupling_gaunts(*zip(*rows))
    stages = []
    start = 0
    first_row = 0
    for k, cap in enumerate(caps):
        ell = np.repeat(np.arange(cap + 1), 2 * np.arange(cap + 1) + 1)
        m = np.arange(ell.size) - ell * (ell + 1)
        sign = np.where(m % 2 == 1, 1.0, -1.0)
        # even in m: flipping both orders multiplies the 3j symbols by
        # (-1)^(sum of degrees) = +1 and keeps the phase (-1)^m
        gaunts = [table[first_row + s * (cap + 1) + ell, np.abs(m)] for s in range(k + 1)]
        first_row += (k + 1) * (cap + 1)

        def term(q, s):
            """Column and value of the (q, s) term of every row, as in big_q."""
            factor = _order_free_factor(np.arange(cap + 1), s, k, q)[ell]
            g = gaunts[s]
            # big_q returns +0.0 for a vanishing Gaunt, never -0.0
            return (
                col_base[q] + (ell + 2 * s) * (ell + 2 * s + 1) + m,
                np.where(g == 0.0, 0.0, sign * (factor * g)),
            )

        terms = [term(q, s) for q in range(k + 1) for s in range(k - q + 1)]
        stages.append(
            CouplingStage(
                start=start,
                cols=_frozen([c for c, _ in terms], np.intp),
                vals=_frozen([v for _, v in terms], float),
            )
        )
        start += ell.size
    return CouplingOperator(col_caps, col_base, tuple(stages))


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
    # the rows are the packed layout under the schedule's caps
    measured, have = ms._relaid(schedule.caps)
    if not have.all():
        k, ell, m = _unpack(_bases(schedule.caps), np.flatnonzero(~have))
        gap = np.lexsort((m, -ell, k))[0]
        raise MissingMeasurementError(int(k[gap]), int(ell[gap]), int(m[gap]))
    coeffs = np.zeros(op.col_base[-1], dtype=complex)  # stays 0 where never reconstructed
    inner = np.empty(measured.size, dtype=complex)
    for k, st in enumerate(op.stages):
        divisor = st.vals[-1]
        for i in np.flatnonzero(np.abs(divisor) < DIVISOR_UNDERFLOW).tolist():
            ell = math.isqrt(i)
            warnings.warn(
                f"divisor |Q| = {abs(divisor[i]):.3e} below {DIVISOR_UNDERFLOW} at "
                f"(k={k}, ell={ell}, m={i - ell * (ell + 1)}); the special functions are suspect",
                DivisorUnderflowWarning,
            )
        rows = slice(st.start, st.start + st.size)
        inner[rows] = st.term_sum(coeffs, -1)
        rhs = measured[rows] - inner[rows]
        # the stage's own coefficients, cols[-1], are the block from col_base[k];
        # divide each part: numpy's complex / float multiplies by the
        # reciprocal, which rounds differently from a true division
        own = slice(op.col_base[k], op.col_base[k] + st.size)
        np.divide(rhs.real, divisor, out=coeffs.real[own])
        np.divide(rhs.imag, divisor, out=coeffs.imag[own])
    solution = np.concatenate([coeffs[b : b + st.size] for b, st in zip(op.col_base, op.stages)])
    # np.hypot rounds like the builtin abs(complex); np.abs does not
    largest = np.maximum.reduceat(np.hypot(inner.real, inner.imag), [st.start for st in op.stages])
    return ReconReport(
        field=CoefficientField._packed(solution, have, schedule.caps),
        schedule=schedule,
        min_divisor=min(float(np.abs(st.vals[-1]).min()) for st in op.stages),
        stages=tuple(StageDiagnostic(k=k, max_inner_sum_magnitude=float(v))
                     for k, v in enumerate(largest)),
        # an infeasible schedule always leaves some dependency unreconstructed
        regularised=bool(violations),
    )
