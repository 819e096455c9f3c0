"""Special functions on the unit sphere.

Complex spherical harmonics with the Condon-Shortley phase convention,

    Y_l^m(theta, phi) = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) P_l^m(cos theta) e^{i m phi},

where the (-1)^m phase lives inside the associated Legendre function
P_l^m.  Negative orders are obtained from the conjugation symmetry
conj(Y_l^m) = (-1)^m Y_l^{-m}, so that symmetry holds exactly by
construction.  Surface gradients are returned in the orthonormal frame
(e_theta, e_phi), i.e. as the pair (d/dtheta, (1/sin theta) d/dphi).

Wigner 3j symbols are evaluated by the Racah single-sum formula
(DLMF 34.2.4) carried out in exact rational arithmetic: the value is an
exact rational times the square root of an exact rational, and only the
final square root is rounded to floating point.  Gaunt coefficients

    G_{l1,l2,l3}^{m1,m2,m3} = integral_{S^2} Y_{l1}^{m1} Y_{l2}^{m2} Y_{l3}^{m3} dS
                            = sqrt((2l1+1)(2l2+1)(2l3+1)/(4 pi))
                              * (l1 l2 l3; 0 0 0) * (l1 l2 l3; m1 m2 m3)

are assembled from the same exact squares, so their relative accuracy
stays near machine precision.  That matters: the reconstruction stage
divides by Gaunt-bearing constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt

import numpy as np

__all__ = [
    "SphIndex",
    "TripleIndex",
    "assoc_legendre",
    "sph_harm",
    "sph_harm_surface_grad",
    "wigner3j",
    "gaunt",
    "gaunt_selection",
    "DEGREE_CAP",
    "POLE_GUARD",
]

# Largest degree accepted by wigner3j; factorials up to 3*cap+1 stay exact.
DEGREE_CAP = 128

# sin(theta) below this raises in sph_harm_surface_grad.  Gauss-Legendre
# nodes in cos(theta) never get this close to the poles.
POLE_GUARD = 1e-12


@dataclass(frozen=True, order=True)
class SphIndex:
    """Degree/order pair (ell, m) with |m| <= ell."""

    ell: int
    m: int

    def __post_init__(self) -> None:
        if self.ell < 0:
            raise ValueError(f"degree must be nonnegative, got ell={self.ell}")
        if abs(self.m) > self.ell:
            raise ValueError(f"order out of range: |m|={abs(self.m)} > ell={self.ell}")


@dataclass(frozen=True, order=True)
class TripleIndex:
    """Three degree/order pairs addressing a 3j symbol or Gaunt coefficient."""

    ell1: int
    ell2: int
    ell3: int
    m1: int
    m2: int
    m3: int

    def __post_init__(self) -> None:
        for ell, m in self.pairs():
            if ell < 0:
                raise ValueError(f"degree must be nonnegative, got {ell}")
            if abs(m) > ell:
                raise ValueError(f"order out of range: |m|={abs(m)} > ell={ell}")

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return ((self.ell1, self.m1), (self.ell2, self.m2), (self.ell3, self.m3))


def assoc_legendre(ell: int, m: int, x):
    """Associated Legendre function P_l^m(x) with the Condon-Shortley phase.

    Parameters
    ----------
    ell, m : int
        Degree and order, 0 <= m <= ell.
    x : float or ndarray
        Argument(s) in [-1, 1].

    Returns
    -------
    float or ndarray
        P_l^m evaluated by upward recurrence in the degree, starting from
        the closed form P_m^m(x) = (-1)^m (2m-1)!! (1-x^2)^{m/2}.
    """
    if ell < 0:
        raise ValueError(f"degree must be nonnegative, got ell={ell}")
    if not 0 <= m <= ell:
        raise ValueError(f"order must satisfy 0 <= m <= ell, got m={m}, ell={ell}")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    if np.any(np.abs(xa) > 1.0):
        raise ValueError("argument out of domain: |x| > 1")

    # P_m^m, then two-term upward recurrence in the degree at fixed m.
    pmm = np.ones_like(xa)
    if m > 0:
        somx2 = np.sqrt((1.0 - xa) * (1.0 + xa))
        fact = 1.0
        for _ in range(m):
            pmm = pmm * (-fact) * somx2
            fact += 2.0
    if ell == m:
        return float(pmm) if scalar else pmm
    pmmp1 = xa * (2 * m + 1) * pmm
    if ell == m + 1:
        return float(pmmp1) if scalar else pmmp1
    for ll in range(m + 2, ell + 1):
        pll = (xa * (2 * ll - 1) * pmmp1 - (ll + m - 1) * pmm) / (ll - m)
        pmm, pmmp1 = pmmp1, pll
    return float(pmmp1) if scalar else pmmp1


def _norm_legendre_sweep(m: int, lmax: int, x: np.ndarray) -> np.ndarray:
    """Rows ell = m..lmax of the fully normalized Legendre functions.

    Row ell holds sqrt((2 ell + 1)/(4 pi) * (ell-m)!/(ell+m)!) P_ell^m(x),
    i.e. Y_ell^m without the e^{i m phi} factor, for m >= 0.  The
    normalized recurrence keeps every intermediate O(1), so it is stable
    far beyond the degrees used here.
    """
    if m < 0 or lmax < m:
        raise ValueError("sweep requires 0 <= m <= lmax")
    x = np.asarray(x, dtype=float)
    out = np.empty((lmax - m + 1,) + x.shape)
    # seed: fully normalized P~_m^m
    pmm = np.full_like(x, math.sqrt(1.0 / (4.0 * math.pi)))
    if m > 0:
        somx2 = np.sqrt((1.0 - x) * (1.0 + x))
        for j in range(1, m + 1):
            pmm = pmm * (-math.sqrt((2 * j + 1) / (2.0 * j))) * somx2
    out[0] = pmm
    if lmax == m:
        return out
    out[1] = math.sqrt(2 * m + 3.0) * x * pmm
    for ell in range(m + 2, lmax + 1):
        a = math.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
        b = math.sqrt(
            ((2.0 * ell + 1.0) * (ell + m - 1.0) * (ell - m - 1.0))
            / ((2.0 * ell - 3.0) * (ell * ell - m * m))
        )
        out[ell - m] = a * x * out[ell - m - 1] - b * out[ell - m - 2]
    return out


def _norm_legendre_sin_dtheta(m: int, sweep: np.ndarray, x) -> np.ndarray:
    """sin(theta) d/dtheta of the rows of ``_norm_legendre_sweep(m, lmax, x)``.

    Uses the same-order recurrence in x = cos(theta)

        sin(theta) dP~_l^m/dtheta = l x P~_l^m - sqrt((2l+1)(l^2-m^2)/(2l-1)) P~_{l-1}^m,

    whose second term vanishes at l = m, so no sweep of order m + 1 is
    needed.  Callers divide by their own sin(theta).  For m = 0 the two
    terms cancel towards the poles, where the quotient keeps about
    eps / sin(theta)^2 relative accuracy; Gauss nodes in cos(theta) keep
    sin(theta) of order 1/n_theta.
    """
    x = np.asarray(x, dtype=float)
    ell = np.arange(m, m + len(sweep), dtype=float).reshape((-1,) + (1,) * x.ndim)
    out = ell * x * sweep
    lo = ell[1:]
    out[1:] -= np.sqrt((2.0 * lo + 1.0) * (lo * lo - m * m) / (2.0 * lo - 1.0)) * sweep[:-1]
    return out


def _negative_order_sign(m: int) -> float:
    """Sign s with Y_l^m = s P~_l^{|m|}(cos theta) e^{i m phi}: -1 for odd m < 0.

    This is the Condon-Shortley phase carried to negative orders by
    conj(Y_l^m) = (-1)^m Y_l^{-m}.
    """
    return -1.0 if m < 0 and m % 2 else 1.0


def sph_harm(ell: int, m: int, theta, phi):
    """Complex spherical harmonic Y_l^m(theta, phi).

    Accepts scalar or broadcastable array angles.  Negative m is reduced
    to positive m through conj(Y_l^m) = (-1)^m Y_l^{-m}.
    """
    if ell < 0 or abs(m) > ell:
        raise ValueError(f"invalid index: ell={ell}, m={m}")
    theta_a = np.asarray(theta, dtype=float)
    phi_a = np.asarray(phi, dtype=float)
    scalar = theta_a.ndim == 0 and phi_a.ndim == 0
    pt = _norm_legendre_sweep(abs(m), ell, np.cos(theta_a))[-1]
    val = _negative_order_sign(m) * pt * np.exp(1j * m * phi_a)
    return complex(val) if scalar else val


def sph_harm_surface_grad(ell: int, m: int, theta, phi):
    """Surface gradient of Y_l^m in the (e_theta, e_phi) frame.

    Returns the pair (d/dtheta Y_l^m, (1/sin theta) d/dphi Y_l^m).  The
    dot product of two surface gradients is the plain componentwise
    product sum of such pairs (no conjugation).  The theta derivative
    comes from the same-order Legendre recurrence in
    ``_norm_legendre_sin_dtheta``.

    Raises
    ------
    ValueError
        If any sin(theta) falls below POLE_GUARD.
    """
    if ell < 0 or abs(m) > ell:
        raise ValueError(f"invalid index: ell={ell}, m={m}")
    theta_a = np.asarray(theta, dtype=float)
    phi_a = np.asarray(phi, dtype=float)
    scalar = theta_a.ndim == 0 and phi_a.ndim == 0
    st = np.sin(theta_a)
    if np.any(np.abs(st) < POLE_GUARD):
        raise ValueError(f"surface gradient evaluated too close to a pole: |sin theta| < {POLE_GUARD}")
    x = np.cos(theta_a)
    sweep = _norm_legendre_sweep(abs(m), ell, x)
    phase = _negative_order_sign(m) * np.exp(1j * m * phi_a)
    dth = _norm_legendre_sin_dtheta(abs(m), sweep, x)[-1] / st * phase
    dphi_over_sin = (1j * m) * sweep[-1] * phase / st
    if scalar:
        return complex(dth), complex(dphi_over_sin)
    return dth, np.asarray(dphi_over_sin)


def _sqrt_fraction(fr: Fraction) -> float:
    """Correctly rounded-ish sqrt of a nonnegative exact rational."""
    if fr < 0:
        raise ValueError("negative radicand")
    n, d = fr.numerator, fr.denominator
    if n == 0:
        return 0.0
    # sqrt(n/d) = sqrt(n d)/d; 120 guard bits keep the integer sqrt exact
    # to well below one ulp of the final double.
    return isqrt((n * d) << 240) / (d << 120)


@lru_cache(maxsize=None)
def _w3j_signed_square(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int):
    """Sign and exact square of a 3j symbol, selection rules already checked.

    Returns (sign, square) with square a Fraction such that the symbol
    equals (-1)^(j1-j2-m3) * sign * sqrt(square).
    """
    tmin = max(0, j2 - j3 - m1, j1 - j3 + m2)
    tmax = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    ssum = Fraction(0)
    for t in range(tmin, tmax + 1):
        term = Fraction(
            (-1) ** t,
            factorial(t)
            * factorial(j3 - j2 + t + m1)
            * factorial(j3 - j1 + t - m2)
            * factorial(j1 + j2 - j3 - t)
            * factorial(j1 - t - m1)
            * factorial(j2 + m2 - t),
        )
        ssum += term
    if ssum == 0:
        return 1, Fraction(0)
    delta_sq = Fraction(
        factorial(j1 + j2 - j3) * factorial(j1 - j2 + j3) * factorial(-j1 + j2 + j3),
        factorial(j1 + j2 + j3 + 1),
    )
    pref = delta_sq
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        pref *= factorial(j + m) * factorial(j - m)
    sign = 1 if ssum > 0 else -1
    return sign, pref * ssum * ssum


def _triangle_ok(j1: int, j2: int, j3: int) -> bool:
    return abs(j1 - j2) <= j3 <= j1 + j2


def wigner3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3).

    Exactly 0.0 when the triangle condition fails, when m1+m2+m3 != 0,
    or when some |m_i| > j_i.  Otherwise evaluated by the Racah sum in
    exact integer arithmetic and rounded once at the end.

    Raises
    ------
    OverflowError
        If any degree exceeds DEGREE_CAP.
    """
    if max(j1, j2, j3) > DEGREE_CAP:
        raise OverflowError(f"3j degree exceeds cap {DEGREE_CAP}")
    if min(j1, j2, j3) < 0:
        return 0.0
    if m1 + m2 + m3 != 0 or not _triangle_ok(j1, j2, j3):
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    sign, square = _w3j_signed_square(j1, j2, j3, m1, m2, m3)
    if square == 0:
        return 0.0
    phase = -1 if (j1 - j2 - m3) % 2 else 1
    return phase * sign * _sqrt_fraction(square)


def gaunt_selection(ell1: int, ell2: int, ell3: int, m1: int, m2: int, m3: int) -> bool:
    """True iff the Gaunt selection rules hold.

    The rules: |ell1 - ell2| <= ell3 <= ell1 + ell2 (triangle), the
    orders sum to zero, and ell1 + ell2 + ell3 is even.
    """
    return (
        _triangle_ok(ell1, ell2, ell3)
        and m1 + m2 + m3 == 0
        and (ell1 + ell2 + ell3) % 2 == 0
    )


def gaunt(ell1: int, ell2: int, ell3: int, m1: int, m2: int, m3: int) -> float:
    """Gaunt coefficient: integral of Y_l1^m1 Y_l2^m2 Y_l3^m3 over the sphere.

    Returns exactly 0.0 whenever gaunt_selection is false.  Otherwise the
    two 3j factors are combined at the level of their exact squares and a
    single square root is taken, keeping relative error at a few ulp.
    """
    if not gaunt_selection(ell1, ell2, ell3, m1, m2, m3):
        return 0.0
    if max(ell1, ell2, ell3) > DEGREE_CAP:
        raise OverflowError(f"Gaunt degree exceeds cap {DEGREE_CAP}")
    if abs(m1) > ell1 or abs(m2) > ell2 or abs(m3) > ell3:
        return 0.0
    s0, v0 = _w3j_signed_square(ell1, ell2, ell3, 0, 0, 0)
    if v0 == 0:
        return 0.0
    sm, vm = _w3j_signed_square(ell1, ell2, ell3, m1, m2, m3)
    if vm == 0:
        return 0.0
    # phases: (-1)^(l1-l2) from the zero-order symbol, (-1)^(l1-l2-m3)
    # from the general one; together (-1)^m3 since 2(l1-l2) is even.
    phase = -1 if m3 % 2 else 1
    n = Fraction((2 * ell1 + 1) * (2 * ell2 + 1) * (2 * ell3 + 1))
    return phase * s0 * sm * _sqrt_fraction(v0 * vm * n) / math.sqrt(4.0 * math.pi)
