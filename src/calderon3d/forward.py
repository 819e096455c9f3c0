"""Linearised boundary measurements of a ball perturbation.

A perturbation eta supported in the unit ball is probed with harmonic
potentials; the datum of index (k, l, m) is

    M(k, l, m) = (-1)^{m+1} int_B eta(x) r^{l+2k} Phi_l^{k,m}(theta, phi) dx,

    Phi_l^{k,m} = Y_{k+1}^0 Y_{l+k+1}^{-m}
                + (1/((k+1)(l+k+1))) grad_S Y_{k+1}^0 . grad_S Y_{l+k+1}^{-m},

equivalently  M = -int_B eta grad(u_{k+1}^0) . conj(grad(u_{l+k+1}^m)) dx
with u_a^b = r^a Y_a^b / a.  Two independent routes are provided:

* ``forward_measure``: for a coefficient field, the integral collapses to
  the finite series  M = sum_{q<=k} sum_{s<=k-q} Q_{l,s}^{k,m,q} c_{l+2s}^{q,m}
  (exact to rounding, no truncation error).  The constants Q come from
  ``recon.coupling_operator``, built once per tuple of degree caps and
  kept in a small bounded cache that ``recon.reconstruct`` shares, so the
  series is one gather and one reduction per radial index k over the
  m >= 0 rows, applied to the orders m and -m at once;
* ``oracle_measure``: direct ball quadrature of the kernel Phi for
  arbitrary evaluable fields, sampled on the grid by the same rule as
  ``zernike.project``.  The integral is separable: an azimuthal
  transform of the sampled field, one normalised Legendre table for all
  orders and a radial power sum.

Agreement of the two routes is the module's central cross-check.
Measurements are indexed and capped like coefficients, so they are held
in the same container: ``MeasurementSet`` is ``zernike.CoefficientField``.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .quadrature import BallQuadrature
from .recon import _joined, _split, coupling_operator
from .zernike import (
    CoefficientField,
    _azimuthal_samples,
    _bases,
    _require_angular_rule,
    _unpack,
    as_caps,
)

__all__ = [
    "MeasurementSet",
    "IncompleteSupportError",
    "forward_measure",
    "oracle_measure",
    "add_noise",
]


class IncompleteSupportError(ValueError):
    """A demanded coefficient is neither stored nor certified zero."""

    def __init__(self, measurement, coefficient):
        self.measurement = measurement
        self.coefficient = coefficient
        mk, ml, mm = measurement
        ck, cl, cm = coefficient
        super().__init__(
            f"measurement (k={mk}, ell={ml}, m={mm}) needs coefficient "
            f"(k={ck}, ell={cl}, m={cm}), which lies outside the field's "
            "declared bounds and the field is not certified beyond them"
        )


MeasurementSet = CoefficientField


def forward_measure(c: CoefficientField, K: int, degree_caps) -> MeasurementSet:
    """Exact measurements of a coefficient field via the collapsed series.

    Produces every index (k <= K, ell <= degree_caps[k], |m| <= ell).  The
    series demands coefficients (q, ell + 2s, m) with q <= k, s <= k - q;
    demands beyond the field's declared bounds count as exact zeros when
    the field is certified, otherwise an IncompleteSupportError names the
    first offender.
    """
    caps = as_caps(K, degree_caps)
    if not c.certified:
        offender = _first_unsupported_demand(c, caps)
        if offender is not None:
            raise IncompleteSupportError(*offender)
    op = coupling_operator(caps)
    # the operator's columns are the half layout under col_caps, its rows under caps
    x = _split(c._relaid(op.col_caps)[0], op.cols)
    values = _joined(np.concatenate([st.term_sum(x) for st in op.stages], axis=1), op.rows, _bases(caps)[-1])
    return MeasurementSet._packed(values, np.ones(values.size, dtype=bool), caps)


def _first_unsupported_demand(c: CoefficientField, caps: tuple):
    """First (measurement, coefficient) pair whose coefficient lies outside
    the bounds of ``c``, in (k, ell, m, q, s) order, or None.

    The bounds do not depend on m (|m| <= ell <= ell + 2s always holds), so
    the first offending order of a degree is m = -ell.  The demand (q, s)
    of degree ell is out of bounds exactly when ell >= max(0, l_q - 2s + 1),
    l_q the field's cap at q, or for every ell when q > c.kmax.  So the
    first offender of stage k is the smallest (ell, q, s) over its demands
    with ell at that least value, if that ell is at most caps[k].
    """
    for k, cap in enumerate(caps):
        ell, q, s = min(
            (0 if q > c.kmax else max(0, c.degree_caps[q] - 2 * s + 1), q, s)
            for q in range(k + 1)
            for s in range(k - q + 1)
        )
        if ell <= cap:
            return (k, ell, -ell), (q, ell + 2 * s, -ell)
    return None


def _oracle_values(eta, caps: tuple, quad: BallQuadrature) -> np.ndarray:
    """Quadrature measurements of one field for every index under ``caps``.

    With a = k + 1, b = ell + k + 1 and (-1)^m Y_b^{-m} = conj(Y_b^m),
    M = -int eta r^{ell+2k} [Y_a^0 + d_theta Y_a^0 d_theta / (ab)] conj(Y_b^m),
    since grad_S Y_a^0 has no azimuthal component.  Y_a^0 is zonal, so
    the phi-sum is the azimuthal transform of eta (sampled a block of radii
    at a time), the theta-sum reads one normalised Legendre table over every
    order |m| and degree b, and the r-sum is a power-weighted row sum.  The
    theta profile of a stage depends on |m| only, so orders m and -m share
    it.  The values come in the packed (k, ell, m) order.
    """
    lmax = max(caps)
    f_m = np.empty((quad.n_r, quad.n_theta, 2 * lmax + 1), dtype=complex)
    for radii, cs in _azimuthal_samples(eta, quad, lmax):
        f_m[radii, :, lmax:] = cs[:, :, 0] - 1j * cs[:, :, 1]  # orders m = 0..lmax
        f_m[radii, :, lmax::-1] = cs[:, :, 0] + 1j * cs[:, :, 1]  # orders m = 0..-lmax
    x = np.cos(quad.theta)
    sin2 = (1.0 - x) * (1.0 + x)
    bmax = max(cap + k + 1 for k, cap in enumerate(caps))
    table = specfun._norm_legendre_table(bmax, x)  # [mu, b], mu, b = 0..bmax
    zonal = table[0, : len(caps) + 1]  # rows a = 0..K+1
    dzonal = specfun._norm_legendre_sin_dtheta(0, zonal, x) * quad.theta_weights / sin2
    zonal = zonal * quad.theta_weights
    # r^(ell + 2k) times the radial weights, rows ell = 0..caps[k]
    powers = [quad.r_weights * quad.r ** np.arange(2 * k, cap + 2 * k + 1)[:, None]
              for k, cap in enumerate(caps)]
    vals = np.zeros((len(caps), lmax + 1, 2 * lmax + 1), dtype=complex)
    for mu in range(lmax + 1):
        sweep = table[mu, mu:]  # rows b = mu..bmax
        dsweep = specfun._norm_legendre_sin_dtheta(mu, sweep, x)
        for k, cap in enumerate(caps):
            if cap < mu:
                continue
            a = k + 1
            b = np.arange(mu + a, cap + a + 1)[:, None]
            rows = slice(a, cap + a - mu + 1)
            # the theta profile depends on |m| only, so orders +-mu share it
            prof = sweep[rows] * zonal[a] + dsweep[rows] * dzonal[a] / (a * b)
            for m in (mu, -mu) if mu else (0,):
                f_t = f_m[:, :, m + lmax].T  # (n_theta, n_r)
                sign = -specfun._negative_order_sign(m)  # -conj(Y_b^m) = sign P~_b^mu e^{-i m phi}
                vals[k, mu : cap + 1, m + lmax] = sign * np.sum(
                    powers[k][mu:] * (prof @ f_t), axis=1
                )
    base = _bases(caps)
    k, ell, m = _unpack(base, np.arange(base[-1]))
    return vals[k, ell, m + lmax]


def oracle_measure(eta, K: int, degree_caps, quad: BallQuadrature | None = None) -> MeasurementSet:
    """Quadrature measurements for every index (k <= K, ell <= caps[k], m).

    Samples the field once and integrates the angular-kernel form of the
    measurement separably (see ``_oracle_values``).  ``eta`` is a callable
    eta(x, y, z) or a CoefficientField, sampled by the rule of
    ``zernike.project``, so a callable is called per block of radii.

    A rule too coarse for fields of degree lmax = max(degree_caps) raises
    ValueError.  The kernel of stage k and degree ell has polar degree
    ell + 2k (the leading terms of its two parts cancel), so the polar rule
    needs degree lmax + max(caps[k] + 2k), and the azimuthal rule 2 lmax + 1
    nodes, as in ``project``.
    """
    caps = as_caps(K, degree_caps)
    if quad is None:
        quad = BallQuadrature()
    lmax = max(caps)
    _require_angular_rule(quad, lmax + max(cap + 2 * k for k, cap in enumerate(caps)), lmax)
    values = _oracle_values(eta, caps, quad)
    return MeasurementSet._packed(values, np.ones(values.size, dtype=bool), caps)


def add_noise(ms: MeasurementSet, relative_level: float, seed: int) -> MeasurementSet:
    """Perturb measurements with complex Gaussian noise.

    Each entry receives independent noise of standard deviation
    relative_level * rms(ms).  Only m >= 0 entries draw fresh randomness;
    the m < 0 partners receive the mirrored perturbation
    (-1)^m conj(noise), so a set with the real-field conjugate symmetry
    keeps it exactly.  Entries with m < 0 and no stored partner draw
    their own noise.  Deterministic given the seed.
    """
    if not (math.isfinite(relative_level) and relative_level >= 0):
        raise ValueError(f"noise level must be finite and nonnegative, got {relative_level}")
    if relative_level == 0:
        return MeasurementSet._packed(ms.data, ms.present, ms.degree_caps)
    sigma = relative_level * ms.rms()
    present = ms.present
    m = _unpack(ms.base, np.arange(present.size))[2]
    # (k, ell, -m) is the slot 2m before (k, ell, m): the m > 0 entries whose
    # partner is stored, and the m < 0 entries whose partner is not
    mirrored = np.flatnonzero(present & (m > 0))
    mirrored = mirrored[present[mirrored - 2 * m[mirrored]]]
    lone = np.flatnonzero(present & (m < 0))
    lone = lone[~present[lone - 2 * m[lone]]]
    # the draws of a sweep in (k, ell, m) order over the m >= 0 entries, one
    # number for m = 0 and two otherwise, then two for every lone m < 0 entry;
    # a boolean assignment fills the (re, im) rows in that order
    fresh = np.stack([present & (m >= 0), present & (m > 0)], axis=1)
    g = np.random.default_rng(seed).standard_normal(np.count_nonzero(fresh) + 2 * lone.size)
    noise = np.zeros((present.size, 2))
    noise[fresh] = g[: g.size - 2 * lone.size]
    noise[lone] = g[g.size - 2 * lone.size :].reshape(-1, 2)
    del g
    # sigma g for m = 0, else sigma (g1 + i g2) / sqrt(2), a true division per part
    noise *= sigma
    np.divide(noise, math.sqrt(2.0), out=noise, where=(m != 0)[:, None])
    noise = noise.view(complex)[:, 0]
    # the partner of an m > 0 entry takes (-1)^m conj(noise)
    mirror = np.conj(noise[mirrored])
    mirror *= np.where(m[mirrored] % 2, -1.0, 1.0)
    noise[mirrored - 2 * m[mirrored]] = mirror
    return MeasurementSet._packed(ms.data + noise, ms.present, ms.degree_caps)
