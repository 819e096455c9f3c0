"""Independent routes to quantities the package computes another way.

The tests check the package against these.  None of them is used at
run time, so they live here rather than in ``calderon3d``.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from calderon3d import specfun
from calderon3d.quadrature import BallQuadrature
from calderon3d.recon import tau
from calderon3d.zernike import (
    ZernikeIndex,
    _azimuthal_samples,
    _radial_zernike_rows,
    _unpack,
    as_caps,
    chi,
)


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


def add_noise_entrywise(ms, relative_level: float, seed: int) -> dict:
    """``forward.add_noise`` as an entry-by-entry sweep over a dict, in the
    form the packed version replaced; returns {ZernikeIndex: complex}.

    Every m >= 0 entry, in sorted order, draws one number (m = 0) or two
    and passes (-1)^m conj(noise) to a stored m < 0 partner; then every
    m < 0 entry without a partner draws two.
    """
    sigma = relative_level * ms.rms()
    rng = np.random.default_rng(seed)
    keys = sorted(ms.entries, key=lambda i: (i.k, i.ell, i.m))
    noisy = dict(ms.entries)
    for idx in keys:
        if idx.m < 0:
            continue
        if idx.m == 0:
            noise = complex(sigma * rng.standard_normal())
        else:
            g1, g2 = rng.standard_normal(2)
            noise = sigma * complex(g1, g2) / math.sqrt(2.0)
        noisy[idx] = noisy[idx] + noise
        if idx.m > 0:
            mirror = ZernikeIndex(idx.k, idx.ell, -idx.m)
            if mirror in noisy:
                noisy[mirror] = noisy[mirror] + (-1) ** idx.m * np.conj(noise)
    for idx in keys:
        if idx.m >= 0 or ZernikeIndex(idx.k, idx.ell, -idx.m) in ms.entries:
            continue
        g1, g2 = rng.standard_normal(2)
        noisy[idx] = noisy[idx] + sigma * complex(g1, g2) / math.sqrt(2.0)
    return {idx: complex(val) for idx, val in noisy.items()}


def project_entrywise(eta, kmax: int, degree_caps, quad: BallQuadrature) -> dict:
    """``zernike.project`` with one radial sum per coefficient, in the form
    the per-order contraction replaced; returns {ZernikeIndex: complex}."""
    caps = as_caps(kmax, degree_caps)
    lmax = max(caps)
    f_m = _azimuthal_samples(eta, quad, lmax)
    radial = [
        quad.r_weights
        * _radial_zernike_rows(ell, max(k for k, cap in enumerate(caps) if cap >= ell), quad.r)
        for ell in range(lmax + 1)
    ]
    ct = np.cos(quad.theta)
    wt = quad.theta_weights
    entries = {}
    for m in range(-lmax, lmax + 1):
        mu = abs(m)
        sweep = specfun._norm_legendre_sweep(mu, lmax, ct)
        sign = specfun._negative_order_sign(m)
        rad_prof = (sweep * wt) @ f_m[:, :, m + lmax].T
        for ell in range(mu, lmax + 1):
            for k in range(kmax + 1):
                if caps[k] >= ell:
                    val = sign * np.sum(radial[ell][k] * rad_prof[ell - mu])
                    entries[ZernikeIndex(k, ell, m)] = complex(val)
    return entries


def term_sum_loop(stage, coeffs: np.ndarray, stop=None) -> np.ndarray:
    """``recon.CouplingStage.term_sum`` as one numpy pass per series term,
    the form the whole-stage reduction replaced: each row's terms before
    ``stop`` added one at a time from zero, real and imaginary parts apart."""
    out = np.zeros(stage.size, dtype=complex)
    for c, v in zip(stage.cols[:stop], stage.vals[:stop]):
        x = coeffs[c]
        out.real += v * x.real
        out.imag += v * x.imag
    return out


def first_unsupported_demand_loop(c, caps: tuple):
    """``forward._first_unsupported_demand`` as the walk over every
    (k, ell, q, s) that the closed form replaced."""
    for k, cap in enumerate(caps):
        for ell in range(cap + 1):
            for q in range(k + 1):
                for s in range(k - q + 1):
                    if not c.in_bounds(q, ell + 2 * s, -ell):
                        return (k, ell, -ell), (q, ell + 2 * s, -ell)
    return None


def _sqrt_fraction_wide(fr: Fraction) -> np.longdouble:
    """sqrt of a positive exact rational, truncated to the 64-bit significand
    of np.longdouble: within 2 of its ulps."""
    n, d = fr.numerator, fr.denominator
    shift = 64 + d.bit_length()
    # sqrt(n/d) 2^shift >= 2^64 since n/d >= 1/d, so no bit is lost here
    q = math.isqrt((n * d) << (2 * shift)) // d
    drop = q.bit_length() - 64
    return np.ldexp(np.longdouble(q >> drop), drop - shift)


def gaunt_prefactors_fraction(j1, j2, j3) -> np.ndarray:
    """``specfun._gaunt_prefactors`` with per-row ``Fraction`` arithmetic
    and one long-double root per row, the form the integer one replaced."""
    pref = []
    for d1, d2, d3 in zip(j1, j2, j3):
        zero = specfun._w3j_zero_square(d1, d2, d3, math.factorial)
        pref.append(_sqrt_fraction_wide(zero**2 * ((2 * d1 + 1) * (2 * d2 + 1) * (2 * d3 + 1))))
    return np.array(pref)


def fmt_value(x: float) -> str:
    """One float as the file formats write it: 17 significant digits, and
    "-0.0" for negative zero."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return "-0.0" if x == 0 and math.copysign(1.0, x) < 0 else "%.17g" % x


def write_document_rowwise(path, key: str, c, tail=()) -> None:
    """``serialize``'s JSON writer as one row and two ``fmt_value`` calls per
    entry, the form the whole-document formatting replaced."""
    lines = ["{", f'  "{key}": {c.kmax},']
    if not c.certified:
        lines.append('  "certified": false,')
    lines.append('  "entries": [')
    pos = np.flatnonzero(c.present)
    index = zip(*(a.tolist() for a in _unpack(c.base, pos)))
    rows = [
        f'    {{"k": {k}, "ell": {ell}, "m": {m}, "re": {fmt_value(v.real)}, '
        f'"im": {fmt_value(v.imag)}}}'
        for (k, ell, m), v in zip(index, c.data[pos].tolist())
    ]
    lines.extend([row + "," for row in rows[:-1]] + rows[-1:])
    lines.append("  ]," if tail else "  ]")
    lines.extend(tail)
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_rowwise(rep, path) -> None:
    """``serialize.dump_recon_report`` over ``write_document_rowwise``."""
    tail = [
        '  "diagnostics": {',
        f'    "min_divisor": {fmt_value(rep.min_divisor)},',
        f'    "schedule": [{", ".join(str(c) for c in rep.schedule.caps)}],',
    ]
    if rep.regularised:
        tail.append('    "regularised": true,')
    tail.append('    "stages": [')
    for i, st in enumerate(rep.stages):
        comma = "," if i + 1 < len(rep.stages) else ""
        tail.append(
            f'      {{"k": {st.k}, "max_inner_sum_magnitude": '
            f"{fmt_value(st.max_inner_sum_magnitude)}}}{comma}"
        )
    tail.extend(["    ]", "  }"])
    write_document_rowwise(path, "kmax", rep.field, tail)


def write_slice_rowwise(gs, path) -> None:
    """``serialize.dump_grid_slice`` with every row formatted by
    ``fmt_value`` before the file is opened, the form the block writer
    replaced."""
    values = ["" if math.isnan(v) else fmt_value(v) for v in gs.values.ravel().tolist()]
    columns = [[fmt_value(v) for v in np.ravel(a).astype(float).tolist()] for a in (gs.x, gs.y, gs.z)]
    with Path(path).open("w") as out:
        out.write("x,y,z,value\n")
        for row in zip(*columns, values):
            out.write(",".join(row) + "\n")
