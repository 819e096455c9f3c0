"""Orthonormal polynomial basis of the unit ball and coefficient fields.

The basis functions are

    psi_l^{k,m}(r, theta, phi) = R_l^k(r) Y_l^m(theta, phi),

where the radial polynomials

    R_l^k(r) = sqrt(2l+4k+3) sum_{s=0}^{k} (-1)^s C(k,s)
               binom(l+2k-s+1/2, k) r^{l+2k-2s}

are orthonormal on (0,1) with weight r^2, so {psi} is an orthonormal
basis of L^2 on the ball.  For k = 0 the basis reduces to the regular
solid harmonics sqrt(2l+3) r^l Y_l^m.

The monomial r^{l+2p} expands back into the radial polynomials with
coefficients

    chi_l^{p,q} = sqrt(2l+4q+3) (p-q+1)_q / ((2l+2p+3) (l+p+5/2)_q),

which is what collapses the measurement series into a finite sum.  Both
coefficient families are computed in exact rational arithmetic per
index and converted to floats once, keeping relative error at a few ulp
(the reconstruction divides by these numbers).

A CoefficientField stores the expansion coefficients c_l^{k,m} inside
declared support bounds (kmax plus a per-k degree cap), packed into one
flat complex array with a presence mask: k-major, then ell, then m, the
coupling operator's row order.  ``entries`` is a read-only Mapping view
keyed by ZernikeIndex; no computation walks it.  Indices beyond the
bounds are exact zeros when the field is marked ``certified``; a field
produced by projecting an arbitrary function is a truncation, is not
certified, and downstream consumers refuse to treat its tail as zero.
Measurements M(k, l, m) live on the same index set under the same caps,
so they use the same container (``forward.MeasurementSet`` is this class).

``project`` and ``forward.oracle_measure`` sample through one helper that
transforms ``_SHELLS`` radii at a time: a CoefficientField is read from
``synthesize_ball_grid``, a pointwise callable is called per block.  Both
read their Legendre rows from one table over all orders and degrees,
filled by a single degree-major pass, instead of one order sweep per m.

Synthesis runs degree by degree.  For each ell, the signed coefficients
of every order form one real matrix, and its product with the rows
R_l^k(r), k = 0..K, gives all orders' radial profiles at once.  The
profiles are multiplied by the normalized Legendre rows P~_l^{|m|}(cos
theta), which the recurrence derives from the previous two degrees, and
summed into one amplitude per order m; the azimuthal factor comes last.
Everything before that factor depends on (r, theta) only, so
scattered points run it once per distinct (r, theta) pair, a ring, and
each point gathers its ring's amplitudes: a plane z = const or a
spherical grid puts many points on one ring.  Rings and points are
taken in fixed-size pieces, so no table over all points or all degrees
is kept.  A real output (a partial sum) builds only the half of each
degree's matrix that feeds the real part.

Rings are ordered by theta, then r, so rings on one polar angle are
contiguous.  A run of at least ``_CONE`` of them, found once over all the
rings of a call, is a cone (the plane z = 0 puts every ring but the
origin's on theta = pi/2).  A cone skips the per-degree passes: once per
polar angle, its Legendre values and the Chebyshev coefficients of every
R_l^k are folded into the coefficient matrices, and the product of that
fold with the rows T_j(r), j <= D = max(ell + 2k), of the cone's radii,
``_CONE`` rings at a time, gives its amplitudes.  The
Chebyshev and the Jacobi forms of R_l^k are each within ~7e-14 of exact
values at caps 66..48, in different ways, so cones differ from the
per-degree path by up to ~3e-15 max|value| at caps 30..22, ~7e-15 at
48..20 and ~1.1e-14 at 66..48.  Which rings form cones depends only on
the set of distinct rings in a call: shuffled or duplicated points get
bit-identical values, while a subset that cuts a run below ``_CONE`` may
move by that much.

Each point sums its ring's amplitudes against the powers of w = e^{i phi}
by Horner's rule (``_horner``, which states its error bound; ``selftest``
checks it against long double for every order up to DEGREE_CAP).
``synthesize_ball_grid`` takes e^{i mu phi_j} at the exact angle
2 pi (mu j mod n_phi) / n_phi.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb

import numpy as np

from .quadrature import BallQuadrature
from .specfun import (
    DEGREE_CAP,
    _negative_order_sign,
    _norm_legendre_degrees,
    _norm_legendre_table,
    sph_harm,
)

__all__ = [
    "ZernikeIndex",
    "CoefficientField",
    "radial_zernike",
    "chi",
    "psi_eval",
    "project",
    "synthesize",
    "synthesize_xyz",
    "synthesize_ball_grid",
    "basis_gram",
    "as_caps",
]


@dataclass(frozen=True, order=True)
class ZernikeIndex:
    """Basis index (k, ell, m): radial index, degree, order."""

    k: int
    ell: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 0 or self.ell < 0:
            raise ValueError(f"indices must be nonnegative, got k={self.k}, ell={self.ell}")
        if abs(self.m) > self.ell:
            raise ValueError(f"order out of range: |m|={abs(self.m)} > ell={self.ell}")


def as_caps(kmax: int, caps) -> tuple[int, ...]:
    """Normalize a degree bound (scalar or per-k sequence) to a tuple.

    ``kmax`` and every cap are at most DEGREE_CAP: no stage or degree past
    it can be simulated or reconstructed, and a file can then never size a
    huge allocation (a packed field has at most (DEGREE_CAP + 1)^3 slots).
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if kmax > DEGREE_CAP:
        raise ValueError(f"{kmax + 1} per-k degree caps (radial indices k = 0..{kmax}) "
                         f"exceed DEGREE_CAP + 1 = {DEGREE_CAP + 1}")
    if isinstance(caps, (int, np.integer)):
        caps = (int(caps),) * (kmax + 1)
    caps = tuple(int(c) for c in caps)
    if len(caps) != kmax + 1:
        raise ValueError(f"need {kmax + 1} per-k degree caps, got {len(caps)}")
    for k, cap in enumerate(caps):
        if cap < 0:
            raise ValueError(f"degree cap for k={k} must be nonnegative, got {cap}")
        if cap > DEGREE_CAP:
            raise ValueError(f"degree cap {cap} for k={k} exceeds DEGREE_CAP = {DEGREE_CAP}")
    return caps


def _radial_coeff_fractions(ell: int, k: int) -> tuple[Fraction, ...]:
    """Exact monomial coefficients of R_l^k / sqrt(2l+4k+3), s = 0..k."""
    out = []
    for s in range(k + 1):
        # binom(l+2k-s+1/2, k) as a product of half-integer factors
        num = 1
        for i in range(k):
            num *= 2 * (ell + 2 * k - s) + 1 - 2 * i
        frac = Fraction(num, 2**k * math.factorial(k))
        out.append((-1) ** s * comb(k, s) * frac)
    return tuple(out)


def _radial_zernike_rows(ell: int, kmax: int, r) -> np.ndarray:
    """Rows R_l^k(r), k = 0..kmax, from one Jacobi recurrence in k.

    Row k is sqrt(2l+4k+3) r^l P_k^{(0, l+1/2)}(2r^2 - 1); every row is
    bit-identical to ``radial_zernike(ell, k, r)``; its callers check r.
    """
    ra = np.asarray(r, dtype=float)
    x = 2.0 * ra * ra - 1.0
    beta = ell + 0.5
    r_ell = ra**ell
    out = np.empty((kmax + 1,) + ra.shape)
    p_prev = np.ones_like(ra)
    out[0] = math.sqrt(2 * ell + 3) * r_ell * p_prev
    if kmax == 0:
        return out
    p_cur = ((beta + 2.0) * x - beta) / 2.0
    out[1] = math.sqrt(2 * ell + 7) * r_ell * p_cur
    for n in range(2, kmax + 1):
        c1 = 2.0 * n * (n + beta) * (2.0 * n + beta - 2.0)
        c2 = -(beta * beta) * (2.0 * n + beta - 1.0)
        c3 = (2.0 * n + beta - 1.0) * (2.0 * n + beta) * (2.0 * n + beta - 2.0)
        c4 = 2.0 * (n - 1.0) * (n + beta - 1.0) * (2.0 * n + beta)
        p_prev, p_cur = p_cur, ((c3 * x + c2) * p_cur - c4 * p_prev) / c1
        out[n] = math.sqrt(2 * ell + 4 * n + 3) * r_ell * p_cur
    return out


def radial_zernike(ell: int, k: int, r):
    """Radial polynomial R_l^k(r) for r in [0, 1], scalar or array.

    Evaluated as sqrt(2l+4k+3) r^l P_k^{(0, l+1/2)}(2r^2 - 1) through the
    Jacobi three-term recurrence.  The explicit monomial form suffers
    catastrophic cancellation already around degree 25 (coefficients grow
    past 1e8 while the values stay O(1)); the recurrence keeps every
    intermediate bounded and the orthonormality defect near rounding.
    """
    if ell < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ell={ell}, k={k}")
    ra = np.asarray(r, dtype=float)
    if np.any((ra < 0.0) | (ra > 1.0)):
        raise ValueError("radius out of domain [0, 1]")
    acc = _radial_zernike_rows(ell, k, ra)[-1]
    return float(acc) if ra.ndim == 0 else acc


def chi(ell: int, p: int, q: int) -> float:
    """Expansion coefficient of r^{l+2p} in the radial polynomials R_l^q.

    Satisfies r^{l+2p} = sum_{q=0}^{p} chi_l^{p,q} R_l^q(r).
    """
    if ell < 0 or p < 0:
        raise ValueError(f"indices must be nonnegative, got ell={ell}, p={p}")
    if not 0 <= q <= p:
        raise ValueError(f"need 0 <= q <= p, got q={q}, p={p}")
    num = 1
    for i in range(q):
        num *= (p - q + 1 + i) * 2
    den = 2 * ell + 2 * p + 3
    for i in range(q):
        den *= 2 * (ell + p) + 5 + 2 * i
    # the factors of 2 in num cancel the half-integer denominators; int true
    # division is correctly rounded, as float(Fraction(num, den)) is
    return math.sqrt(2 * ell + 4 * q + 3) * (num / den)


def psi_eval(k: int, ell: int, m: int, r, theta, phi):
    """Basis function psi_l^{k,m} at spherical point(s) (r, theta, phi)."""
    if abs(m) > ell:
        raise ValueError(f"order out of range: |m|={abs(m)} > ell={ell}")
    return radial_zernike(ell, k, r) * sph_harm(ell, m, theta, phi)


def _bases(caps) -> tuple:
    """Packed position of (k, 0, 0) for every k under ``caps``; the last
    entry is the number of slots."""
    return (0, *accumulate((cap + 1) ** 2 for cap in caps))


def _unpack(base, pos):
    """(k, ell, m) arrays of the packed positions ``pos`` under ``base``."""
    k = np.searchsorted(base, pos, side="right") - 1
    local = pos - np.asarray(base)[k]
    # exact: local < (DEGREE_CAP + 1)^2, far inside float's integer range
    ell = np.sqrt(local).astype(np.int64)
    return k, ell, local - ell * (ell + 1)


class _Entries(Mapping):
    """Read-only view of a field's stored entries, ZernikeIndex -> complex,
    iterated in (k, ell, m) order."""

    def __init__(self, field):
        self._field = field

    def __getitem__(self, key):
        f = self._field
        if isinstance(key, ZernikeIndex) and f.in_bounds(key.k, key.ell, key.m):
            pos = f.base[key.k] + key.ell * (key.ell + 1) + key.m
            if f.present[pos]:
                return complex(f.data[pos])
        raise KeyError(key)

    def __iter__(self):
        k, ell, m = _unpack(self._field.base, np.flatnonzero(self._field.present))
        return map(ZernikeIndex, k.tolist(), ell.tolist(), m.tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._field.present))


@dataclass(frozen=True, eq=False, init=False)
class CoefficientField:
    """Expansion coefficients c_l^{k,m} (or measurements M(k, l, m)) with
    declared support bounds.

    ``data`` (complex) and ``present`` (bool) are read-only arrays with
    index (k, ell, m) at ``base[k] + ell (ell + 1) + m``, where
    ``base[k] = sum_{q<k} (degree_caps[q] + 1)^2``; an absent index holds 0.
    ``entries``, alias ``values``, is a read-only Mapping from ZernikeIndex
    to complex over the present indices, in that (sorted) order.

    Parameters
    ----------
    entries : dict
        Mapping from ZernikeIndex (or plain (k, ell, m) tuples) to
        complex coefficients.  Indices inside the bounds that are absent
        count as zero.
    kmax : int
        Largest radial index in the support.
    degree_caps : int or sequence
        Per-k degree bound; a scalar means a uniform bound.
    certified : bool
        True when indices outside the bounds are exact zeros (finite
        expansions built explicitly, reconstructions).  False for
        truncations of unknown functions, e.g. quadrature projections.
    """

    degree_caps: tuple
    certified: bool
    base: tuple
    data: np.ndarray
    present: np.ndarray

    def __init__(self, entries, kmax, degree_caps, certified=True):
        caps = as_caps(kmax, degree_caps)
        base = _bases(caps)
        data = np.zeros(base[-1], dtype=complex)
        present = np.zeros(base[-1], dtype=bool)
        for key, val in entries.items():
            idx = key if isinstance(key, ZernikeIndex) else ZernikeIndex(*key)
            if idx.k > kmax or idx.ell > caps[idx.k]:
                raise ValueError(f"entry {idx} lies outside the declared bounds")
            pos = base[idx.k] + idx.ell * (idx.ell + 1) + idx.m
            if present[pos]:  # a tuple key and a ZernikeIndex key can name one index
                raise ValueError(
                    f"entry (k={idx.k}, ell={idx.ell}, m={idx.m}) appears more than once")
            data[pos], present[pos] = complex(val), True
        vars(self).update(vars(self._packed(data, present, caps, certified)))

    @classmethod
    def _packed(cls, data, present, caps, certified=True):
        """A field over arrays already in the packed layout of the caps tuple
        ``caps``; ``data`` must hold 0 where ``present`` is False."""
        field = object.__new__(cls)
        data.flags.writeable = present.flags.writeable = False
        field.__dict__.update(degree_caps=caps, certified=certified,
                              base=_bases(caps), data=data, present=present)
        return field

    @property
    def kmax(self) -> int:
        """Largest radial index in the support: one less than the number of caps."""
        return len(self.degree_caps) - 1

    @property
    def entries(self) -> Mapping:
        return _Entries(self)

    values = entries  # the name measurement code reads

    def in_bounds(self, k: int, ell: int, m: int) -> bool:
        return 0 <= k <= self.kmax and abs(m) <= ell <= self.degree_caps[k]

    def get(self, k: int, ell: int, m: int, default=0j):
        """Stored value, or ``default`` for an absent index."""
        return self.entries.get(ZernikeIndex(k, ell, m), default)

    def _relaid(self, caps: tuple):
        """``(data, present)`` in the packed layout of the caps tuple ``caps``:
        indices past those caps are dropped, and indices past this field's
        own bounds are absent.  Each k is one slice copy; under this field's
        own caps they are its read-only arrays themselves."""
        if caps == self.degree_caps:
            return self.data, self.present
        base = _bases(caps)
        data = np.zeros(base[-1], dtype=complex)
        present = np.zeros(base[-1], dtype=bool)
        for k in range(min(len(caps), self.kmax + 1)):
            n = (min(caps[k], self.degree_caps[k]) + 1) ** 2
            data[base[k] : base[k] + n] = self.data[self.base[k] : self.base[k] + n]
            present[base[k] : base[k] + n] = self.present[self.base[k] : self.base[k] + n]
        return data, present

    def _sum_squares(self, k=None) -> float:
        # Python's sum of abs(v) ** 2 in packed order: add_noise scales by
        # rms(), and numpy's square or pairwise sum would move its last bits
        span = slice(None) if k is None else slice(self.base[k], self.base[k + 1])
        return sum(abs(v) ** 2 for v in self.data[span][self.present[span]].tolist())

    def norm(self) -> float:
        """L^2(ball) norm of the represented field (basis orthonormality)."""
        return math.sqrt(self._sum_squares())

    def rms(self) -> float:
        """Root-mean-square magnitude of the stored values."""
        count = len(self.entries)
        return math.sqrt(self._sum_squares() / count) if count else 0.0

    def norms_per_k(self) -> list:
        return [math.sqrt(self._sum_squares(k)) for k in range(self.kmax + 1)]

    def conjugate_symmetry_error(self) -> float:
        """Max deviation from c_l^{k,-m} = (-1)^m conj(c_l^{k,m})."""
        pos = np.flatnonzero(self.present)
        m = _unpack(self.base, pos)[2]
        # an absent mirror holds 0, as get() returns for it
        diff = self.data[pos - 2 * m] - np.where(m % 2, -1.0, 1.0) * np.conj(self.data[pos])
        return float(np.hypot(diff.real, diff.imag).max(initial=0.0))


def _spherical_from_cartesian(x, y, z):
    # written in place, so the temporaries are a few squares and one mask
    x, y, z = np.broadcast_arrays(x, y, z)
    r = np.multiply(x, x, out=np.empty(x.shape))
    r += y * y
    r += z * z
    np.sqrt(r, out=r)
    theta = np.divide(z, r, out=np.ones(x.shape), where=r > 0)
    np.arccos(np.clip(theta, -1.0, 1.0, out=theta), out=theta)
    phi = np.arctan2(y, x, out=np.empty(x.shape))
    return r, theta, np.mod(phi, 2.0 * np.pi, out=phi)


def _require_angular_rule(quad: BallQuadrature, polar_degree: int, lmax: int) -> None:
    """Raise ValueError unless ``quad`` integrates exactly a polar integrand of
    degree ``polar_degree`` in cos(theta) (Gauss-Legendre with n nodes is exact
    to degree 2n - 1; an odd part integrates to zero on the symmetric nodes)
    and orders up to ``lmax`` against orders up to ``lmax`` (the trapezoid
    rule aliases orders that differ by n_phi).  One node fewer than either
    minimum leaves O(1) errors in the coefficients of fields of degree lmax."""
    for name, flag, have, least in (
        ("n_theta", "--quad-theta", quad.n_theta, polar_degree // 2 + 1),
        ("n_phi", "--quad-phi", quad.n_phi, 2 * lmax + 1),
    ):
        if have < least:
            raise ValueError(f"quadrature too coarse for degree {lmax}: {name} ({flag}) "
                             f"must be at least {least}, got {have}")


_SHELLS = 4  # radii per sampled block: a few hundred KiB of nodes on the default grid


def _azimuthal_samples(eta, quad: BallQuadrature, lmax: int) -> np.ndarray:
    """F[i, j, m + lmax] = sum_p w_phi eta(r_i, theta_j, phi_p) exp(-i m phi_p), |m| <= lmax.

    Each block of ``_SHELLS`` radii is transformed as soon as it is sampled:
    a CoefficientField's from ``synthesize_ball_grid``, a callable's as
    eta(x, y, z) on ``quad.cartesian_grid(radii)``.  A callable is thus called
    per block, must be pointwise and must return its arguments' shape
    (else ValueError)."""
    ms = np.arange(-lmax, lmax + 1)
    phase = np.exp(-1j * np.outer(quad.phi, ms)) * quad.phi_weight
    cube = synthesize_ball_grid(eta, quad) if isinstance(eta, CoefficientField) else None
    f_m = np.empty((quad.n_r, quad.n_theta, len(ms)), dtype=complex)
    for start in range(0, quad.n_r, _SHELLS):
        radii = slice(start, start + _SHELLS)
        if cube is None:
            x, y, z = quad.cartesian_grid(radii)
            block = np.asarray(eta(x, y, z))
            if block.shape != x.shape:
                raise ValueError("field evaluation must preserve the grid shape")
        else:
            block = cube[radii]
        f_m[radii] = (block.reshape(-1, quad.n_phi) @ phase).reshape(-1, quad.n_theta, len(ms))
    return f_m


def project(eta, kmax: int, degree_caps, quad: BallQuadrature | None = None) -> CoefficientField:
    """Quadrature projection of a function onto the basis.

    Parameters
    ----------
    eta : callable or CoefficientField
        Field on the ball, sampled on ``quad`` by ``_azimuthal_samples``, which
        calls a callable once per block of radii (see there).
    kmax, degree_caps : int, int or sequence
        Support bounds of the requested expansion.
    quad : BallQuadrature, optional
        Integration rule; the default handles combined degrees up to
        roughly 90.  A rule with fewer than lmax + 1 polar or 2 lmax + 1
        azimuthal nodes, lmax = max(degree_caps), raises ValueError: it
        would alias degree-lmax fields by O(1).

    Returns
    -------
    CoefficientField
        Dense coefficients inside the bounds, marked not certified: the
        projection truncates eta, so out-of-bounds coefficients are
        unknown rather than zero.
    """
    caps = as_caps(kmax, degree_caps)
    if quad is None:
        quad = BallQuadrature()
    lmax = max(caps)
    _require_angular_rule(quad, 2 * lmax, lmax)  # products Y_l^m conj(Y_l'^m), l, l' <= lmax
    f_m = _azimuthal_samples(eta, quad, lmax)
    # weighted radial profiles, (ell, k, n_r); a row does not depend on how
    # many rows its recurrence runs
    radial = np.array([quad.r_weights * _radial_zernike_rows(ell, kmax, quad.r)
                       for ell in range(lmax + 1)])
    base = _bases(caps)
    ells = np.arange(lmax + 1)[:, None]
    # packed position of (k, ell, 0) at [ell, k], kept where ell <= caps[k]
    start = np.array(base[:-1]) + ells * (ells + 1)
    inside = ells <= np.array(caps)

    # theta-weighted Legendre rows, [mu, ell]; row mu from ell = mu on is
    # the order-mu sweep, so each |m| is computed once
    weighted = _norm_legendre_table(lmax, np.cos(quad.theta)) * quad.theta_weights
    data = np.zeros(base[-1], dtype=complex)
    for m in range(-lmax, lmax + 1):
        mu = abs(m)
        # theta contraction for all ell at once: (nl, nth) @ (nth, nr)
        rad_prof = weighted[mu, mu:] @ f_m[:, :, m + lmax].T  # (nl, n_r)
        block = _negative_order_sign(m) * (radial[mu:] * rad_prof[:, None, :]).sum(axis=-1)
        data[start[mu:][inside[mu:]] + m] = block[inside[mu:]]
    return CoefficientField._packed(data, np.ones(data.size, dtype=bool), caps, False)


# Rings (distinct (r, theta) pairs) per block of the per-degree path.  The
# working set of ``synthesize`` is a few (lmax + 1) x _BLOCK arrays, so it
# does not grow with the point count.
_BLOCK = 2048
# Points per Horner sub-block: enough to amortise its few numpy calls per order.
_POINTS = 2 * _BLOCK
# Rings per cone, at least, and per cone piece: a run of rings with one polar
# angle this long is a cone, and each piece of it takes one GEMM with its fold
# of coefficients and Legendre values.  At caps 48..20 the cone overtakes the
# per-degree path between 256 and 512 rings (a fold costs a few ms however
# short the run).
_CONE = _BLOCK // 4


def _degree_matrices(c: CoefficientField, mode) -> dict:
    """The stored coefficients of each degree as one real matrix.

    Returns {ell: M} with M of shape (B (ell + 1), K + 1), columns
    k = 0..K (K the largest stored k at that degree).  With a_m the
    signed coefficient s_m c_l^{k,m} (s_m the negative-order sign), the
    row blocks are Re a_mu, Im a_mu, Re a_-mu, Im a_-mu over mu = 0..ell
    (a_-0 = 0), the factors of w^mu and conj(w)^mu, w = e^{i phi}.  ``mode``
    is "full" (B = 4) or a nonnegative integer K that keeps the entries with
    k <= K and the blocks Re S and Im D (B = 2), S, D = a_mu +- a_-mu, as the
    real part of the sum is that of sum_mu (Re S + i Im D) w^mu.
    """
    if mode != "full" and (
        isinstance(mode, bool) or not isinstance(mode, (int, np.integer)) or mode < 0
    ):
        raise ValueError(f"mode must be 'full' or a nonnegative integer, got {mode!r}")
    # the layout is k-major, so k <= mode is a prefix of the packed arrays
    stop = c.base[-1] if mode == "full" else c.base[min(mode, c.kmax) + 1]
    pos = np.flatnonzero(c.present[:stop])
    if not pos.size:
        return {}
    k, ell, m = _unpack(c.base, pos)
    val = _negative_order_sign(m) * c.data[pos]
    # [ell, a_mu/a_-mu, Re/Im, mu, k]: every index has a slot of its own; a
    # real output stores -Im a_-mu and adds the pair into Re S and Im D
    packed = np.zeros((ell.max() + 1, 2, 2, ell.max() + 1, k.max() + 1))
    side, mu = (m < 0).astype(np.intp), np.abs(m)
    packed[ell, side, 0, mu, k] = val.real
    packed[ell, side, 1, mu, k] = np.where(side & (mode != "full"), -val.imag, val.imag)
    packed = packed.reshape(len(packed), 4, *packed.shape[3:]) if mode == "full" else packed.sum(1)
    top = np.full(ell.max() + 1, -1)
    np.maximum.at(top, ell, k)
    return {
        d: packed[d, :, : d + 1, : top[d] + 1].reshape(-1, top[d] + 1)
        for d in np.flatnonzero(top >= 0).tolist()
    }


def _degrees(mats: dict, r: np.ndarray, x: np.ndarray):
    """Degree-major pieces of the expansion at radii ``r`` and polar cosines ``x``.

    Yields ``(ell, profiles, rows)`` for every degree in ``mats`` (from
    ``_degree_matrices``), ascending.  ``profiles`` has shape
    (B, ell + 1, len(r)) and holds the radial profiles sum_k M[., k] R_l^k(r)
    of the B row blocks of M, from one GEMM; ``rows[mu]`` is
    P~_l^mu(x), mu = 0..ell.  Every degree's profiles reuse one buffer, which
    the next degree overwrites, and the Legendre recurrence keeps two degrees.
    """
    if not mats:
        return
    buf = np.empty((len(mats[max(mats)]), len(r)))  # the largest degree's rows
    for ell, rows in enumerate(_norm_legendre_degrees(max(mats), x)):
        mat = mats.get(ell)
        if mat is not None:
            radial = _radial_zernike_rows(ell, mat.shape[1] - 1, r)
            profiles = np.matmul(mat, radial, out=buf[: len(mat)])
            yield ell, profiles.reshape(-1, ell + 1, len(r)), rows


def _amplitudes(mats: dict, r: np.ndarray, x: np.ndarray, amp: np.ndarray) -> None:
    """Write into ``amp`` everything of the sum but the azimuthal factor, at
    radii ``r`` and polar cosines ``x``: amp[b, mu] sums, over the degrees,
    row block b of the radial profiles times P~_l^mu(x)."""
    amp[...] = 0.0
    for ell, profiles, rows in _degrees(mats, r, x):
        profiles *= rows
        amp[:, : ell + 1] += profiles


def _horner(re: np.ndarray, im: np.ndarray, at: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_mu b_mu w^mu by Horner's rule, b_mu = re[mu, at] + i im[mu, at]:
    one complex product and gather per order, no table of powers of w.  It is
    within ((1 + sqrt(2) gamma_2)(1 + u))^n - 1 times sum_mu |b_mu| |w|^mu of
    the exact sum, n = len(re) - 1 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sec. 5.1 with lemma 3.5's complex product)."""
    p = np.empty(w.shape, dtype=complex)
    p.real, p.imag = re[-1].take(at), im[-1].take(at)
    for mu in range(len(re) - 2, -1, -1):
        p *= w
        p.real += re[mu].take(at)
        p.imag += im[mu].take(at)
    return p


def _rings(r: np.ndarray, theta: np.ndarray):
    """The distinct (r, theta) pairs of a point set.

    Returns ``(order, ring, start)``: ``order`` lists the points grouped
    by pair (a stable sort on theta, then r, so pairs that share a polar
    angle are contiguous), ``ring[j]`` is the pair index of point
    ``order[j]``, and ``start[i]`` is the position in ``order`` of pair i's
    first point.  Pair i sits at r[order[start[i]]], theta[order[start[i]]].
    A NaN equals nothing, so it is a pair of its own.
    """
    order = np.lexsort((r, theta))
    first = np.ones(order.size, dtype=bool)
    key = theta[order]  # the sorted angles, then the sorted radii
    np.not_equal(key[1:], key[:-1], out=first[1:])
    r.take(order, out=key)
    first[1:] |= key[1:] != key[:-1]
    del key
    ring = np.cumsum(first)
    ring -= 1
    return order, ring, np.flatnonzero(first)


def _pieces(theta: np.ndarray) -> list:
    """The pieces that ``synthesize`` takes rings in, as (start, stop, cone)
    triples in ascending order, for ``theta`` the polar angles of the rings
    in ``_rings`` order.  A cone, a run of at least ``_CONE`` equal values,
    is taken ``_CONE`` rings at a time (cone True); the rings between cones
    are taken ``_BLOCK`` at a time."""
    cut = np.ones(theta.size + 1, dtype=bool)  # where a run starts
    np.not_equal(theta[1:], theta[:-1], out=cut[1:-1])
    cuts = np.flatnonzero(cut)
    long = np.diff(cuts) >= _CONE
    # the empty run at the end takes the rings after the last cone
    runs = [*zip(cuts[:-1][long].tolist(), cuts[1:][long].tolist()), (theta.size, theta.size)]
    pieces, done = [], 0
    for i, j in runs:
        pieces += [(lo, min(lo + _BLOCK, i), False) for lo in range(done, i, _BLOCK)]
        pieces += [(lo, min(lo + _CONE, j), True) for lo in range(i, j, _CONE)]
        done = j
    return pieces


def _chebyshev_coefficients(mats: dict) -> dict:
    """{ell: C} with R_l^k = sum_j C[k, j] T_j, j = 0..D = max(ell + 2k), for
    the degrees in ``mats``: the interpolant at D + 1 Chebyshev points, exact
    for these polynomials.  R_l^k has parity (-1)^l, so the rows at |x| give
    its values, and its coefficients of the other parity are zeros."""
    top = max(ell + 2 * mat.shape[1] - 2 for ell, mat in mats.items())
    j = np.arange(top + 1)
    # T_j(x_i) = cos(j (2i + 1) pi / (2D + 2)), the angle reduced by whole turns
    dct = np.cos(np.pi * (np.outer(j, 2 * j + 1) % (4 * top + 4)) / (2 * top + 2))
    x, scale = np.cos(np.pi * (2 * j + 1) / (2 * top + 2)), np.where(j, 2.0, 1.0) / (top + 1)
    return {ell: (np.sign(x) ** ell * _radial_zernike_rows(ell, mat.shape[1] - 1, np.abs(x)))
            @ dct.T * (scale * ((j + ell) % 2 == 0)) for ell, mat in mats.items()}


def _fold(mats: dict, cheb: dict, x: np.ndarray, blocks: int) -> np.ndarray:
    """fold(theta) at the polar cosine ``x``, an array of one element, for
    ``blocks`` (B) row blocks and the coefficients ``cheb`` of
    ``_chebyshev_coefficients``: row (b, mu), column j sums
    M_l[(b, mu), k] P~_l^mu(x) C_l[k, j] over (ell, k), so fold @ the rows
    T_j(r) are the amplitudes of ``_amplitudes`` at radii r and x.
    """
    lmax = max(mats)
    fold = np.zeros((blocks, lmax + 1, cheb[lmax].shape[1]))
    for ell, rows in enumerate(_norm_legendre_degrees(lmax, x)):
        if ell in mats:
            fold[:, : ell + 1] += (mats[ell].reshape(blocks, ell + 1, -1) * rows) @ cheb[ell]
    return fold.reshape(blocks * (lmax + 1), -1)


def _chebyshev_rows(r: np.ndarray, out: np.ndarray) -> None:
    """Write the rows T_j(r), j = 0..len(out) - 1, into ``out``."""
    out[0], out[1:2] = 1.0, r
    for j in range(2, len(out)):
        np.subtract(2.0 * r * out[j - 1], out[j - 2], out=out[j])


def synthesize(c: CoefficientField, r, theta, phi, mode="full"):
    """Evaluate the expansion at spherical points.

    mode "full" returns the complex sum over all stored entries; a
    nonnegative integer K returns the real part of the sum restricted to
    k <= K (the partial-sum field omega_K).  Anything else raises
    ValueError.

    Only the azimuthal factor depends on phi, so the rest runs once per
    distinct (r, theta) pair, or ring, not once per point.  The rings are
    ordered by theta and then r, and the cones, runs of at least ``_CONE``
    rings with one theta, are found once over all of them (``_pieces``).
    A cone is taken ``_CONE`` rings at a time: one GEMM of the fold of its
    theta (``_fold``), made once per theta, times the Chebyshev
    coefficients of the radial rows with the rows T_j(r) of the piece's
    radii.  The other rings are taken in blocks of ``_BLOCK``: per block,
    every degree multiplies its radial profiles by its Legendre rows and
    adds them into one amplitude per order pair +-mu.  Each point then sums
    its ring's amplitudes against the powers of w = e^{i phi} by Horner's
    rule (``_horner``), ``_POINTS`` at a time.  Points on distinct rings
    are the case of one point per ring.  Besides the output and a few index
    arrays over the points, memory stays bounded for any number of points:
    the amplitudes and the Chebyshev rows are as wide as the widest piece,
    ``_CONE`` columns when every ring but a few lies on cones (the plane
    z = 0) and ``_BLOCK`` when a block of the per-degree path holds that
    many, and only the last cone's fold is kept.

    A point's value depends on the set of distinct rings in the call, not
    on the order or repetition of the points: shuffled or duplicated
    points give bit-identical values.  A subset that shortens a theta-run
    below ``_CONE`` may move its values by ~1e-15 max|value|.
    """
    mats = _degree_matrices(c, mode)
    r_a, th_a, ph_a = np.broadcast_arrays(
        np.asarray(r, dtype=float), np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    scalar, shape = r_a.ndim == 0, r_a.shape
    rf, tf, pf = r_a.ravel(), th_a.ravel(), ph_a.ravel()
    if np.any((rf < 0.0) | (rf > 1.0)):  # checked once per call; NaN gives NaN
        raise ValueError("radius out of domain [0, 1]")
    lmax = max(mats, default=0)
    blocks = 4 if mode == "full" else 2
    order, ring, start = _rings(rf, tf)
    pieces = _pieces(tf[order[start]])
    start = np.append(start, order.size)
    # one amplitude buffer, as wide as the widest piece, serves every piece,
    # so the heap keeps its shape from piece to piece (regrowing it costs a
    # page fault per page); made after it, the output left ~3k page faults
    # per call at L (ru_minflt)
    cols = max([2] + [hi - lo for lo, hi, _ in pieces])
    amp_all = np.empty((blocks * (lmax + 1), cols))
    out = np.empty(rf.shape, dtype=complex if mode == "full" else float)
    # made at the first cone piece; only the last cone theta's fold is kept,
    # as rings are theta-major, so a cone's pieces are consecutive
    cheb = rows_t = fold = fold_theta = None
    for lo, hi, cone in pieces:
        at_ring = order[start[lo:hi]]  # one point per ring
        flat = amp_all[:, : max(hi - lo, 2)]
        amp = flat.reshape(blocks, lmax + 1, -1)
        if cone and mats:
            if cheb is None:
                cheb = _chebyshev_coefficients(mats)
                rows_t = np.empty((cheb[lmax].shape[1], cols))
            if tf[at_ring[0]] != fold_theta:
                fold_theta = tf[at_ring[0]]
                fold = _fold(mats, cheb, np.cos(tf[at_ring[:1]]), blocks)
            _chebyshev_rows(rf[at_ring], rows_t[:, : hi - lo])
            np.matmul(fold, rows_t[:, : hi - lo], out=flat[:, : hi - lo])
        else:
            # A lone ring or point would take BLAS's matrix-vector route and
            # numpy's strided reduction, which round differently from a block;
            # repeated once, it makes two columns and rounds as inside a block.
            at = np.resize(at_ring, max(hi - lo, 2))
            _amplitudes(mats, rf[at], np.cos(tf[at]), amp)
        for first in range(start[lo], start[hi], _POINTS):
            pts = slice(first, min(first + _POINTS, start[hi]))
            width = max(pts.stop - pts.start, 2)
            idx, at = np.resize(order[pts], width), np.resize(ring[pts] - lo, width)
            w, ang = np.empty(width, dtype=complex), pf[idx]
            w.real, w.imag = np.cos(ang), np.sin(ang)
            total = _horner(amp[0], amp[1], at, w)
            if mode == "full" and lmax:
                # orders -mu, mu >= 1: conj(w) sum_mu a_{-mu} conj(w)^(mu - 1)
                w = w.conj()
                total += w * _horner(amp[2, 1:], amp[3, 1:], at, w)
            out[idx] = total if mode == "full" else total.real
    return out.item() if scalar else out.reshape(shape)


def synthesize_xyz(c: CoefficientField, x, y, z, mode="full"):
    """Evaluate the expansion at cartesian points."""
    r, theta, phi = _spherical_from_cartesian(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(z, dtype=float)
    )
    return synthesize(c, r, theta, phi, mode)


def synthesize_ball_grid(c: CoefficientField, quad: BallQuadrature, mode="full"):
    """Evaluate the expansion on a BallQuadrature tensor grid.

    Returns an (n_r, n_theta, n_phi) array.  The grid is separable: each
    degree contributes the outer product of its radial profiles (over r)
    and its Legendre rows (over theta) to one amplitude per order pair
    +-mu.  The per-degree factors are stacked along ell, so one batched
    matrix product sums those outer products, and a single tensordot with
    cos(mu phi_j) and sin(mu phi_j) finishes the sum; mu phi_j is taken at
    the exact angle 2 pi (mu j mod n_phi) / n_phi.  ``mode`` is as in
    ``synthesize``.
    """
    mats = _degree_matrices(c, mode)
    lmax = max(mats, default=0)
    profiles_by_ell = np.zeros((4 if mode == "full" else 2, lmax + 1, quad.n_r, lmax + 1))
    rows_by_ell = np.zeros((lmax + 1, lmax + 1, quad.n_theta))
    for ell, profiles, rows in _degrees(mats, quad.r, np.cos(quad.theta)):
        profiles_by_ell[:, : ell + 1, :, ell] = profiles
        rows_by_ell[: ell + 1, ell] = rows
    amp = profiles_by_ell @ rows_by_ell  # (B, lmax + 1, n_r, n_theta)
    if mode == "full":
        plus, minus = amp[0] + 1j * amp[1], amp[2] + 1j * amp[3]
        pairs = np.concatenate([plus + minus, 1j * (plus - minus)])
    else:
        pairs = np.concatenate([amp[0], -amp[1]])
    angle = 2.0 * np.pi * (np.outer(np.arange(lmax + 1), np.arange(quad.n_phi)) % quad.n_phi)
    angle /= quad.n_phi
    return np.tensordot(pairs, np.concatenate([np.cos(angle), np.sin(angle)]), axes=(0, 0))


def basis_gram(quad: BallQuadrature, degree_cap: int):
    """Gram matrix of all basis functions with ell + 2k <= degree_cap.

    Exploits the tensor structure of the quadrature grid: the ball inner
    product of two basis functions factors into a radial integral times
    an angular one.  Returns (indices, gram) with indices sorted.
    """
    indices = sorted(
        ZernikeIndex(k, ell, m)
        for k in range(degree_cap // 2 + 1)
        for ell in range(degree_cap - 2 * k + 1)
        for m in range(-ell, ell + 1)
    )
    pairs_lm = sorted({(idx.ell, idx.m) for idx in indices})
    pairs_lk = sorted({(idx.ell, idx.k) for idx in indices})
    th, ph = quad.sphere.grid()
    w = quad.sphere.weights_grid().ravel()
    y_mat = np.array([sph_harm(ell, m, th, ph).ravel() for (ell, m) in pairs_lm])
    ang = (y_mat * w) @ np.conj(y_mat.T)
    r_mat = np.array([radial_zernike(ell, k, quad.r) for (ell, k) in pairs_lk])
    rad = (r_mat * quad.r_weights) @ r_mat.T
    lm_pos = {p: i for i, p in enumerate(pairs_lm)}
    lk_pos = {p: i for i, p in enumerate(pairs_lk)}
    ai = np.array([lm_pos[(idx.ell, idx.m)] for idx in indices])
    ri = np.array([lk_pos[(idx.ell, idx.k)] for idx in indices])
    gram = rad[np.ix_(ri, ri)] * ang[np.ix_(ai, ai)]
    return indices, gram
