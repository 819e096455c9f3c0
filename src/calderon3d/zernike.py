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
declared support bounds (kmax plus a per-k degree cap).  Indices beyond
the bounds are exact zeros when the field is marked ``certified``; a
field produced by projecting an arbitrary function is a truncation, is
not certified, and downstream consumers refuse to treat its tail as
zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .quadrature import BallQuadrature
from .specfun import _negative_order_sign, _norm_legendre_sweep, sph_harm

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
    """Normalize a degree bound (scalar or per-k sequence) to a tuple."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if isinstance(caps, (int, np.integer)):
        caps = (int(caps),) * (kmax + 1)
    caps = tuple(int(c) for c in caps)
    if len(caps) != kmax + 1:
        raise ValueError(f"need {kmax + 1} per-k degree caps, got {len(caps)}")
    for k, cap in enumerate(caps):
        if cap < 0:
            raise ValueError(f"degree cap for k={k} must be nonnegative, got {cap}")
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
    scalar = ra.ndim == 0
    if np.any((ra < 0.0) | (ra > 1.0)):
        raise ValueError("radius out of domain [0, 1]")
    x = 2.0 * ra * ra - 1.0
    beta = ell + 0.5
    p_prev = np.ones_like(ra)
    if k == 0:
        p_cur = p_prev
    else:
        p_cur = ((beta + 2.0) * x - beta) / 2.0
        for n in range(2, k + 1):
            c1 = 2.0 * n * (n + beta) * (2.0 * n + beta - 2.0)
            c2 = -(beta * beta) * (2.0 * n + beta - 1.0)
            c3 = (2.0 * n + beta - 1.0) * (2.0 * n + beta) * (2.0 * n + beta - 2.0)
            c4 = 2.0 * (n - 1.0) * (n + beta - 1.0) * (2.0 * n + beta)
            p_prev, p_cur = p_cur, ((c3 * x + c2) * p_cur - c4 * p_prev) / c1
    acc = math.sqrt(2 * ell + 4 * k + 3) * ra**ell * p_cur
    return float(acc) if scalar else acc


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
    # the factors of 2 in num cancel the half-integer denominators
    return math.sqrt(2 * ell + 4 * q + 3) * float(Fraction(num, den))


def psi_eval(k: int, ell: int, m: int, r, theta, phi):
    """Basis function psi_l^{k,m} at spherical point(s) (r, theta, phi)."""
    if abs(m) > ell:
        raise ValueError(f"order out of range: |m|={abs(m)} > ell={ell}")
    return radial_zernike(ell, k, r) * sph_harm(ell, m, theta, phi)


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Expansion coefficients c_l^{k,m} with declared support bounds.

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

    entries: dict
    kmax: int
    degree_caps: tuple
    certified: bool = True

    def __post_init__(self) -> None:
        caps = as_caps(self.kmax, self.degree_caps)
        normalized = {}
        for key, val in self.entries.items():
            idx = key if isinstance(key, ZernikeIndex) else ZernikeIndex(*key)
            if idx.k > self.kmax or idx.ell > caps[idx.k]:
                raise ValueError(f"entry {idx} lies outside the declared bounds")
            normalized[idx] = complex(val)
        object.__setattr__(self, "entries", normalized)
        object.__setattr__(self, "degree_caps", caps)

    def in_bounds(self, k: int, ell: int, m: int) -> bool:
        return 0 <= k <= self.kmax and abs(m) <= ell <= self.degree_caps[k]

    def get(self, k: int, ell: int, m: int) -> complex:
        """Stored coefficient, or 0 for an absent in-bounds index."""
        return self.entries.get(ZernikeIndex(k, ell, m), 0.0 + 0.0j)

    def items_sorted(self):
        return sorted(self.entries.items(), key=lambda kv: (kv[0].k, kv[0].ell, kv[0].m))

    def norm(self) -> float:
        """L^2(ball) norm of the represented field (basis orthonormality)."""
        return math.sqrt(sum(abs(v) ** 2 for v in self.entries.values()))

    def norms_per_k(self) -> list:
        out = [0.0] * (self.kmax + 1)
        for idx, val in self.entries.items():
            out[idx.k] += abs(val) ** 2
        return [math.sqrt(s) for s in out]

    def conjugate_symmetry_error(self) -> float:
        """Max deviation from c_l^{k,-m} = (-1)^m conj(c_l^{k,m})."""
        err = 0.0
        for idx, val in self.entries.items():
            mirror = self.get(idx.k, idx.ell, -idx.m)
            err = max(err, abs(mirror - (-1) ** idx.m * np.conj(val)))
        return err


def _spherical_from_cartesian(x, y, z):
    r = np.sqrt(x * x + y * y + z * z)
    with np.errstate(invalid="ignore", divide="ignore"):
        ct = np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0)
    theta = np.arccos(np.clip(ct, -1.0, 1.0))
    phi = np.mod(np.arctan2(y, x), 2.0 * np.pi)
    return r, theta, phi


def _azimuthal_transform(values: np.ndarray, quad: BallQuadrature, lmax: int) -> np.ndarray:
    """F[i, j, m + lmax] = sum_p w_phi values[i, j, p] exp(-i m phi_p), |m| <= lmax.

    ``values`` is sampled on the (n_r, n_theta, n_phi) grid of ``quad``.
    """
    ms = np.arange(-lmax, lmax + 1)
    phase = np.exp(-1j * np.outer(quad.phi, ms)) * quad.phi_weight
    flat = values.reshape(quad.n_r * quad.n_theta, quad.n_phi)
    return (flat @ phase).reshape(quad.n_r, quad.n_theta, len(ms))


def project(eta, kmax: int, degree_caps, quad: BallQuadrature | None = None) -> CoefficientField:
    """Quadrature projection of a function onto the basis.

    Parameters
    ----------
    eta : callable
        Field on the ball, called as eta(x, y, z) with broadcasting
        ndarray arguments (cartesian coordinates).
    kmax, degree_caps : int, int or sequence
        Support bounds of the requested expansion.
    quad : BallQuadrature, optional
        Integration rule; the default handles combined degrees up to
        roughly 90.

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
    x, y, z = quad.cartesian_grid()
    e_vals = np.asarray(eta(x, y, z), dtype=complex)
    if e_vals.shape != x.shape:
        e_vals = np.broadcast_to(e_vals, x.shape).astype(complex)
    f_m = _azimuthal_transform(e_vals, quad, lmax)
    # weighted radial profiles, evaluated once per (ell, k) rather than per order
    radial = {
        (ell, k): quad.r_weights * radial_zernike(ell, k, quad.r)
        for k, cap in enumerate(caps)
        for ell in range(cap + 1)
    }

    ct = np.cos(quad.theta)
    wt = quad.theta_weights
    entries = {}
    for m in range(-lmax, lmax + 1):
        mu = abs(m)
        sweep = _norm_legendre_sweep(mu, lmax, ct)  # rows ell = mu..lmax
        sign = _negative_order_sign(m)
        # theta contraction for all ell at once: (nl, nth) @ (nth, nr)
        rad_prof = (sweep * wt) @ f_m[:, :, m + lmax].T  # (nl, n_r)
        for ell in range(mu, lmax + 1):
            for k in range(kmax + 1):
                if caps[k] >= ell:
                    val = sign * np.sum(radial[ell, k] * rad_prof[ell - mu])
                    entries[ZernikeIndex(k, ell, m)] = complex(val)
    return CoefficientField(entries, kmax, caps, certified=False)


def _orders(c: CoefficientField, mode, r: np.ndarray, x: np.ndarray):
    """Per-order pieces of the expansion at radii ``r`` and polar cosines ``x``.

    Yields ``(m, degrees)`` for every stored order, ascending.  ``degrees``
    yields, one degree ell at a time, the radial profile
    sum_k c_l^{k,m} R_l^k(r) and the angular row Y_l^m e^{-i m phi} at x
    (the harmonic without its azimuthal factor),
    so only one degree's profile is alive at once.  ``mode`` is "full" or
    an integer K that keeps the entries with k <= K.
    """
    if mode != "full" and not isinstance(mode, (int, np.integer)):
        raise ValueError(f"mode must be 'full' or an integer, got {mode!r}")
    selected = {}
    for idx, val in c.entries.items():
        if mode == "full" or idx.k <= int(mode):
            selected.setdefault(idx.m, {}).setdefault(idx.ell, []).append((idx.k, val))
    radial = {}

    def degrees(m, by_ell):
        sweep = _norm_legendre_sweep(abs(m), max(by_ell), x)
        sign = _negative_order_sign(m)
        for ell, terms in by_ell.items():
            prof = np.zeros(r.shape, dtype=complex)
            for k, val in terms:
                if (ell, k) not in radial:
                    radial[ell, k] = radial_zernike(ell, k, r)
                prof += val * radial[ell, k]
            yield prof, sign * sweep[ell - abs(m)]

    for m, by_ell in sorted(selected.items()):
        yield m, degrees(m, by_ell)


def synthesize(c: CoefficientField, r, theta, phi, mode="full"):
    """Evaluate the expansion at spherical points.

    mode "full" returns the complex sum over all stored entries; an
    integer K returns the real part of the sum restricted to k <= K
    (the partial-sum field omega_K).
    """
    r_a, th_a, ph_a = np.broadcast_arrays(
        np.asarray(r, dtype=float), np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    scalar, shape = r_a.ndim == 0, r_a.shape
    rf, tf, pf = r_a.ravel(), th_a.ravel(), ph_a.ravel()
    out = np.zeros(rf.shape, dtype=complex)
    for m, degrees in _orders(c, mode, rf, np.cos(tf)):
        phase = np.exp(1j * m * pf)
        for prof, angular in degrees:
            out += prof * angular * phase

    if mode != "full":
        out = out.real
    return out.item() if scalar else out.reshape(shape)


def synthesize_xyz(c: CoefficientField, x, y, z, mode="full"):
    """Evaluate the expansion at cartesian points."""
    r, theta, phi = _spherical_from_cartesian(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(z, dtype=float)
    )
    return synthesize(c, r, theta, phi, mode)


def synthesize_ball_grid(c: CoefficientField, quad: BallQuadrature, mode="full"):
    """Evaluate the expansion on a BallQuadrature tensor grid.

    Returns an (n_r, n_theta, n_phi) array; the separable structure of
    the grid makes this far cheaper than the scattered-point path.
    """
    ms, amp = [], []
    for m, degrees in _orders(c, mode, quad.r, np.cos(quad.theta)):
        ms.append(m)
        amp.append(sum(np.outer(prof, angular) for prof, angular in degrees))
    amp = np.stack(amp, axis=-1) if amp else np.zeros((quad.n_r, quad.n_theta, 0))
    out = np.tensordot(amp, np.exp(1j * np.outer(ms, quad.phi)), axes=(2, 0))
    if mode != "full":
        return out.real
    return out


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
