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

are assembled from exact squares, the zero-order one from its closed form
(DLMF 34.3.5) and the other from the Racah sum, so their relative accuracy
stays near machine precision.  This exact path keeps no cache; it is the
reference that the tests and the self-test check against.

The coupling constants need only the family
G_{k+1, l+k+1, l+2s}^{0,-m,m}.  ``coupling_gaunts`` evaluates it for a
batch of rows at once by a three-term recurrence in the order, run in
extended precision, and agrees with ``gaunt`` to a few ulp.  That matters:
the reconstruction stage divides by Gaunt-bearing constants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial, isqrt

import numpy as np

__all__ = [
    "sph_harm",
    "sph_harm_surface_grad",
    "wigner3j",
    "gaunt",
    "gaunt_selection",
    "coupling_gaunts",
    "DEGREE_CAP",
    "POLE_GUARD",
]

# Largest degree accepted by wigner3j, gaunt and coupling_gaunts, and the
# largest kmax a container or file header may declare.  Integer and Fraction
# arithmetic is exact at any size, and the recurrence of coupling_gaunts is
# tested up to the cap; the cap bounds the allocations that a file header
# or a caps tuple can request.
DEGREE_CAP = 128

# sin(theta) below this raises in sph_harm_surface_grad.  Gauss-Legendre
# nodes in cos(theta) never get this close to the poles.
POLE_GUARD = 1e-12


def _legendre_diagonal_square(m):
    """Square of the factor d in P~_m^m = -d sin(theta) P~_{m-1}^{m-1}, m >= 1.

    With ``_legendre_step_squares`` this is the one definition of the
    normalized Legendre recurrence shared by the order-major
    ``_norm_legendre_sweep`` and the degree-major ``_norm_legendre_degrees``.
    Both are plain arithmetic on an int or an integer array; callers take
    the root with math.sqrt or np.sqrt, which round alike, so the two
    traversals agree bit for bit.
    """
    return (2 * m + 1) / (2.0 * m)


def _legendre_step_squares(ell, m):
    """Squares of a, b in P~_l^m = a x P~_{l-1}^m - b P~_{l-2}^m, l >= m + 1.

    At l = m + 1 they are exactly 2m + 3 and 0: the first step from the
    diagonal.
    """
    a2 = (4.0 * ell * ell - 1.0) / (ell * ell - m * m)
    b2 = ((2.0 * ell + 1.0) * (ell + m - 1.0) * (ell - m - 1.0)) / (
        (2.0 * ell - 3.0) * (ell * ell - m * m)
    )
    return a2, b2


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
            pmm = pmm * (-math.sqrt(_legendre_diagonal_square(j))) * somx2
    out[0] = pmm
    if lmax == m:
        return out
    out[1] = math.sqrt(_legendre_step_squares(m + 1, m)[0]) * x * pmm
    for ell in range(m + 2, lmax + 1):
        a2, b2 = _legendre_step_squares(ell, m)
        out[ell - m] = math.sqrt(a2) * x * out[ell - m - 1] - math.sqrt(b2) * out[ell - m - 2]
    return out


def _norm_legendre_degrees(lmax: int, x: np.ndarray, work=None):
    """Yield, for ell = 0..lmax, the rows P~_ell^mu(x), mu = 0..ell, as one array.

    The degree-major traversal of ``_norm_legendre_sweep``: degree ell
    comes from degrees ell-1 and ell-2 only, so three (lmax + 1)-row
    buffers, written in rotation, hold every degree and no table over all
    degrees is kept.  ``work``, a flat float array of at least
    3 (lmax + 1) x.size elements, holds them if given, so a caller that
    sweeps many point sets allocates them once.  Each row is bit-identical
    to the matching row of the order-major sweep.  A yielded array is valid
    only until two more degrees have been yielded (the next degree after
    those overwrites it), and callers must not write into it: the next two
    degrees read it.
    """
    x = np.asarray(x, dtype=float)
    somx2 = np.sqrt((1.0 - x) * (1.0 + x))
    col = (-1,) + (1,) * x.ndim
    size = 3 * (lmax + 1) * x.size
    bufs = (np.empty(size) if work is None else work[:size]).reshape((3, lmax + 1) + x.shape)
    prev2 = None
    prev = bufs[0][:1]
    prev[...] = math.sqrt(1.0 / (4.0 * math.pi))
    yield prev
    for ell in range(1, lmax + 1):
        cur = bufs[ell % 3][: ell + 1]
        a2, b2 = _legendre_step_squares(ell, np.arange(ell))
        a, b = np.sqrt(a2).reshape(col), np.sqrt(b2).reshape(col)
        if ell >= 2:
            # a x P~_{l-1} - b P~_{l-2} for mu <= ell - 2, in place, same rounding as the sweep
            low = cur[: ell - 1]
            np.multiply(a[: ell - 1], x, out=low)
            low *= prev[: ell - 1]
            low -= b[: ell - 1] * prev2[: ell - 1]
        cur[ell - 1] = a[ell - 1] * x * prev[ell - 1]
        cur[ell] = prev[ell - 1] * (-math.sqrt(_legendre_diagonal_square(ell))) * somx2
        yield cur
        prev2, prev = prev, cur


def _norm_legendre_table(lmax: int, x: np.ndarray) -> np.ndarray:
    """Table T[mu, ell] = P~_ell^mu(x) for mu, ell = 0..lmax.

    Filled by one degree-major pass of ``_norm_legendre_degrees``, so
    T[mu, mu:] is bit-identical to ``_norm_legendre_sweep(mu, lmax, x)``
    and each |m| is computed once; entries with ell < mu are exact zeros.
    """
    x = np.asarray(x, dtype=float)
    table = np.zeros((lmax + 1, lmax + 1) + x.shape)
    for ell, rows in enumerate(_norm_legendre_degrees(lmax, x)):
        table[: ell + 1, ell] = rows
    return table


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


def _negative_order_sign(m):
    """Sign s with Y_l^m = s P~_l^{|m|}(cos theta) e^{i m phi}: -1 for odd m < 0.

    This is the Condon-Shortley phase carried to negative orders by
    conj(Y_l^m) = (-1)^m Y_l^{-m}.  ``m`` is an int or an int array.
    """
    return np.where((m < 0) & (m % 2 == 1), -1.0, 1.0)


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


def _w3j_zero_square(j1: int, j2: int, j3: int, fact) -> Fraction:
    """Exact square of (j1 j2 j3; 0 0 0) for an even degree sum J = 2g that
    passes the triangle: (J-2j1)! (J-2j2)! (J-2j3)! / (J+1)! times
    (g! / ((g-j1)! (g-j2)! (g-j3)!))^2, with fact(n) = n! (DLMF 34.3.5).
    The symbol's sign is (-1)^g."""
    J = j1 + j2 + j3
    g = J // 2
    top = fact(g)
    bottom = fact(g - j1) * fact(g - j2) * fact(g - j3)
    return Fraction(
        fact(J - 2 * j1) * fact(J - 2 * j2) * fact(J - 2 * j3) * top * top,
        fact(J + 1) * bottom * bottom,
    )


def _gaunt_prefactors(j1, j2, j3) -> np.ndarray:
    """sqrt((2j1+1)(2j2+1)(2j3+1)) (j1 j2 j3; 0 0 0)^2 for each row of the
    degree arrays, truncated to the 64-bit significand of np.longdouble:
    within 2 of its ulps.

    Per row the radicand is an exact integer ratio n/d; the truncated root
    comes out as a 64-bit integer mantissa and a binary exponent, and one
    np.ldexp converts every row.
    """
    fact = [1]
    for n in range(1, int((j1 + j2 + j3).max()) + 2):
        fact.append(fact[-1] * n)
    mantissa, exponent = [], []
    for d1, d2, d3 in zip(j1.tolist(), j2.tolist(), j3.tolist()):
        zero = _w3j_zero_square(d1, d2, d3, fact.__getitem__)
        # zero is in lowest terms, so only the (2j+1) product shares a factor with d
        n, d = (2 * d1 + 1) * (2 * d2 + 1) * (2 * d3 + 1), zero.denominator**2
        g = math.gcd(n, d)
        n, d = zero.numerator**2 * (n // g), d // g
        shift = 64 + d.bit_length()
        # sqrt(n/d) 2^shift >= 2^64 since n/d >= 1/d, so no bit is lost here
        q = isqrt((n * d) << (2 * shift)) // d
        drop = q.bit_length() - 64
        mantissa.append(q >> drop)
        exponent.append(drop - shift)
    # uint64 -> longdouble is exact with a 64-bit significand
    return np.ldexp(np.array(mantissa, dtype=np.uint64).astype(np.longdouble), exponent)


def coupling_gaunts(k, s, ell) -> np.ndarray:
    """G_{k+1, l+k+1, l+2s}^{0,-m,m} for m = 0..ell, one row per (k, s, ell).

    ``k``, ``s`` and ``ell`` are equal-length integer sequences.  Returns a
    (rows, max(ell) + 1) array, zero past each row's own ell.  This is the
    only Gaunt family the coupling constants use; the value at -m equals
    the value at m.

    With f(m) = (j1 j2 j3; 0, -m, m), j1 = k+1, j2 = l+k+1, j3 = l+2s, the
    3j symbols obey the Schulten-Gordon recurrence in the order
    (J. Math. Phys. 16:1961, 1975)

        A(m) f(m-1) + B(m) f(m) + C(m) f(m+1) = 0,
        A(m) = sqrt((j2+m)(j2-m+1)(j3+m)(j3-m+1)),
        B(m) = j2(j2+1) + j3(j3+1) - j1(j1+1) - 2m^2,
        C(m) = sqrt((j2-m)(j2+m+1)(j3-m)(j3+m+1)).

    It runs downward from f(min(j2, j3)) = 1, with zero above, in
    extended precision (np.longdouble), where it is stable; upward from
    m = 0 it is not.  Each row is normalised by its m = 0 value,

        G(m) = sqrt((2j1+1)(2j2+1)(2j3+1)) (j1 j2 j3; 0 0 0)^2 f(m) / f(0) / sqrt(4 pi),

    with the prefactor's square taken exactly from the zero-order closed
    form.  The product is rounded to double once and then divided by
    sqrt(4 pi), as ``gaunt`` rounds, so about 99 % of the entries at the
    schedule (48, 44, ..., 20) equal ``gaunt`` bit for bit.  The rest agree
    to a few ulp, or to a few eps times the row's largest entry near the
    order's accidental zeros, where ``gaunt`` returns an exact 0.  Every
    step is elementwise, so a row's values do not depend on the other rows
    of the batch.  This needs a 64-bit significand for np.longdouble; with
    a plain double the recurrence loses about 10^4 ulp at that schedule.

    Raises
    ------
    ValueError
        If some ell or k is negative or s lies outside 0..k+1 (the triangle).
    OverflowError
        If any degree exceeds DEGREE_CAP.
    """
    k, s, ell = (np.asarray(v, dtype=np.int64).reshape(-1) for v in (k, s, ell))
    j1, j2, j3 = k + 1, ell + k + 1, ell + 2 * s
    if (k < 0).any() or (ell < 0).any() or (s < 0).any() or (s > j1).any():
        raise ValueError("need k >= 0, ell >= 0 and 0 <= s <= k + 1")
    if int(max(j2.max(), j3.max())) > DEGREE_CAP:
        raise OverflowError(f"Gaunt degree exceeds cap {DEGREE_CAP}")

    pref = _gaunt_prefactors(j1, j2, j3)

    # f(m) for every order (axis 0) and row (axis 1), downward from each row's top
    top = np.minimum(j2, j3)
    base = (j2 * (j2 + 1) + j3 * (j3 + 1) - j1 * (j1 + 1)).astype(np.longdouble)
    f = np.zeros((int(top.max()) + 2, ell.size), dtype=np.longdouble)
    f[top, np.arange(ell.size)] = 1
    c = np.zeros(ell.size, dtype=np.longdouble)  # C(m); f(m+1) = 0 at the first step
    for m in range(int(top.max()), 0, -1):
        live = m <= top  # rows whose recurrence has started
        # A(m), which is also C(m-1); the integer radicand is exact in int64
        radicand = (j2 + m) * (j2 - m + 1) * (j3 + m) * (j3 - m + 1)
        a = np.sqrt(np.maximum(radicand, 0).astype(np.longdouble))
        step = -((base - 2 * m * m) * f[m] + c * f[m + 1]) / np.where(live, a, 1)
        f[m - 1] = np.where(live, step, f[m - 1])
        c = a

    width = int(ell.max()) + 1
    ratio = f[:width] / f[0]
    ratio *= pref
    out = ratio.T.astype(float, order="C")
    out /= math.sqrt(4.0 * math.pi)
    out[np.arange(width) > ell[:, None]] = 0.0
    return out


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
    ValueError
        If any degree is negative, before the selection rules are checked.
    """
    if max(j1, j2, j3) > DEGREE_CAP:
        raise OverflowError(f"3j degree exceeds cap {DEGREE_CAP}")
    if min(j1, j2, j3) < 0:
        raise ValueError(f"3j degrees must be nonnegative, got ({j1}, {j2}, {j3})")
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

    Raises
    ------
    ValueError
        If any degree is negative, before the selection rules are checked.
    OverflowError
        If the selection rules hold and some degree exceeds DEGREE_CAP.
    """
    if min(ell1, ell2, ell3) < 0:
        raise ValueError(f"Gaunt degrees must be nonnegative, got ({ell1}, {ell2}, {ell3})")
    if not gaunt_selection(ell1, ell2, ell3, m1, m2, m3):
        return 0.0
    if max(ell1, ell2, ell3) > DEGREE_CAP:
        raise OverflowError(f"Gaunt degree exceeds cap {DEGREE_CAP}")
    if abs(m1) > ell1 or abs(m2) > ell2 or abs(m3) > ell3:
        return 0.0
    sm, vm = _w3j_signed_square(ell1, ell2, ell3, m1, m2, m3)
    if vm == 0:
        return 0.0
    # (l1 l2 l3; 0 0 0) = (-1)^(J/2) sqrt(v0), never 0 under the selection rules,
    # and the general symbol is (-1)^(l1-l2-m3) sm sqrt(vm)
    v0 = _w3j_zero_square(ell1, ell2, ell3, factorial)
    phase = -1 if ((ell1 + ell2 + ell3) // 2 + ell1 - ell2 - m3) % 2 else 1
    n = Fraction((2 * ell1 + 1) * (2 * ell2 + 1) * (2 * ell3 + 1))
    return phase * sm * _sqrt_fraction(v0 * vm * n) / math.sqrt(4.0 * math.pi)
