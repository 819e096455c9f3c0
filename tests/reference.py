"""Independent routes to quantities the package computes another way.

The tests check the package against these.  None of them is used at
run time, so they live here rather than in ``calderon3d``.
"""

import math
from fractions import Fraction

import numpy as np

from calderon3d import specfun
from calderon3d.recon import tau
from calderon3d.zernike import chi


def tau_expanded(ell: int, ell_prime: int, k: int) -> float:
    """tau_{l,l'}^k as 1 + (quadratic terms), the unfactored expression."""
    den = 2 * (k + 1) * (ell + k + 1)
    num = (k + 1) * (k + 2) + (ell + k + 1) * (ell + k + 2) - ell_prime * (ell_prime + 1)
    return 1.0 + num / den


def big_d(ell: int, s: int, k: int, m: int) -> float:
    """Angular coupling D_{l,s}^{k,m} = (-1)^{m+1} tau G_{k+1,l+k+1,l+2s}^{0,-m,m}."""
    if not 0 <= s <= k:
        raise ValueError(f"need 0 <= s <= k, got s={s}, k={k}")
    if abs(m) > ell:
        raise ValueError(f"order out of range: |m|={abs(m)} > ell={ell}")
    sign = 1.0 if m % 2 else -1.0
    g = specfun.gaunt(k + 1, ell + k + 1, ell + 2 * s, 0, -m, m)
    if g == 0.0:
        return 0.0
    return sign * tau(ell, ell + 2 * s, k) * g


def big_q_factored(ell: int, s: int, k: int, m: int, q: int) -> float:
    """Series coupling Q_{l,s}^{k,m,q} as chi_{l+2s}^{k-s,q} D_{l,s}^{k,m}."""
    return chi(ell + 2 * s, k - s, q) * big_d(ell, s, k, m)


def _rising(a, n: int):
    """Pochhammer symbol (a)_n = a (a+1) ... (a+n-1)."""
    return math.prod((a + i for i in range(n)), start=Fraction(1))


def chi_fraction(ell: int, p: int, q: int) -> float:
    """chi_l^{p,q} from its defining ratio in exact rationals, rounded once:
    sqrt(2l+4q+3) (p-q+1)_q / ((2l+2p+3) (l+p+5/2)_q)."""
    ratio = _rising(p - q + 1, q) / (
        (2 * ell + 2 * p + 3) * _rising(Fraction(2 * ell + 2 * p + 5, 2), q)
    )
    return math.sqrt(2 * ell + 4 * q + 3) * float(ratio)


def order_free_factor_fraction(ell: int, s: int, k: int, q: int) -> float:
    """The m- and Gaunt-free part of Q_{l,s}^{k,m,q} in exact rationals,
    rounded once: sqrt(2l+4q+4s+3) (k-s+1) (k-q-s+1)_q /
    ((k+1)(l+k+1) (l+k+s+5/2)_q)."""
    ratio = (k - s + 1) * _rising(k - q - s + 1, q) / (
        (k + 1) * (ell + k + 1) * _rising(Fraction(2 * (ell + k + s) + 5, 2), q)
    )
    return math.sqrt(2 * ell + 4 * q + 4 * s + 3) * float(ratio)


def assoc_legendre(ell: int, m: int, x):
    """Associated Legendre function P_l^m(x) with the Condon-Shortley phase.

    Unnormalised upward recurrence in the degree, starting from the closed
    form P_m^m(x) = (-1)^m (2m-1)!! (1-x^2)^{m/2}; 0 <= m <= ell and
    |x| <= 1.  Returns a float for a scalar x.
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
