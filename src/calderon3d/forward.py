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
  series is one scatter-add per radial index k;
* ``forward_measure_quadrature`` / ``oracle_measure``: direct ball
  quadrature of the kernel Phi for arbitrary evaluable fields.  The
  integral is separable: an azimuthal transform of the sampled field,
  one normalised Legendre sweep per order and a radial power sum.

Agreement of the two routes is the module's central cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .quadrature import BallQuadrature
from .recon import coupling_operator
from .zernike import CoefficientField, ZernikeIndex, _azimuthal_transform, as_caps

__all__ = [
    "MeasurementSet",
    "IncompleteSupportError",
    "forward_measure",
    "forward_measure_quadrature",
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


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Measurements M(k, ell, m), indexed like coefficients.

    Parameters
    ----------
    values : dict
        Mapping from ZernikeIndex (or plain (k, ell, m) tuples) to complex
        measurement values.
    kmax : int
        Largest first index present.
    degree_caps : int or sequence
        Per-k bound on ell; a scalar means a uniform bound.
    """

    values: dict
    kmax: int
    degree_caps: tuple

    def __post_init__(self) -> None:
        caps = as_caps(self.kmax, self.degree_caps)
        normalized = {}
        for key, val in self.values.items():
            idx = key if isinstance(key, ZernikeIndex) else ZernikeIndex(*key)
            if idx.k > self.kmax or idx.ell > caps[idx.k]:
                raise ValueError(f"entry {idx} lies outside the declared bounds")
            normalized[idx] = complex(val)
        object.__setattr__(self, "values", normalized)
        object.__setattr__(self, "degree_caps", caps)

    def get(self, k: int, ell: int, m: int, default=0.0 + 0.0j):
        return self.values.get(ZernikeIndex(k, ell, m), default)

    def items_sorted(self):
        return sorted(self.values.items(), key=lambda kv: (kv[0].k, kv[0].ell, kv[0].m))

    def rms(self) -> float:
        """Root-mean-square magnitude of the stored values."""
        if not self.values:
            return 0.0
        return math.sqrt(sum(abs(v) ** 2 for v in self.values.values()) / len(self.values))

    def conjugate_symmetry_error(self) -> float:
        """Max deviation from M(k, ell, -m) = (-1)^m conj(M(k, ell, m))."""
        err = 0.0
        for idx, val in self.values.items():
            mirror = self.get(idx.k, idx.ell, -idx.m)
            err = max(err, abs(mirror - (-1) ** idx.m * np.conj(val)))
        return err


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
    coeffs = np.zeros(op.col_base[-1], dtype=complex)
    for idx, val in c.entries.items():
        if idx.k <= K and idx.ell <= op.col_caps[idx.k]:
            coeffs[op.column(idx.k, idx.ell, idx.m)] = val
    # the q = k term comes last in the series, after the off-diagonal ones
    values = np.concatenate(
        [st.off_diagonal_sum(coeffs) + st.diag * coeffs[st.diag_cols] for st in op.stages]
    )
    return MeasurementSet(dict(zip(op.keys, values.tolist())), K, caps)


def _first_unsupported_demand(c: CoefficientField, caps: tuple):
    """First (measurement, coefficient) pair whose coefficient lies outside
    the bounds of ``c``, in (k, ell, m, q, s) order, or None.

    The bounds do not depend on m (|m| <= ell <= ell + 2s always holds), so
    the first offending order of a degree is m = -ell.
    """
    for k, cap in enumerate(caps):
        for ell in range(cap + 1):
            for q in range(k + 1):
                for s in range(k - q + 1):
                    if not c.in_bounds(q, ell + 2 * s, -ell):
                        return (k, ell, -ell), (q, ell + 2 * s, -ell)
    return None


def _oracle_values(eta_cube: np.ndarray, caps: tuple, quad: BallQuadrature) -> dict:
    """Quadrature measurements of one sampled field for every index under ``caps``.

    With a = k + 1, b = ell + k + 1 and (-1)^m Y_b^{-m} = conj(Y_b^m),
    M = -int eta r^{ell+2k} [Y_a^0 + d_theta Y_a^0 d_theta / (ab)] conj(Y_b^m),
    since grad_S Y_a^0 has no azimuthal component.  Y_a^0 is zonal, so
    the phi-sum is the azimuthal transform of the cube, the theta-sum one
    normalised Legendre sweep per |m| for every degree b, and the r-sum a
    power-weighted row sum.  Keys are (k, ell, m), in that order.
    """
    lmax = max(caps)
    f_m = _azimuthal_transform(eta_cube, quad, lmax)
    x = np.cos(quad.theta)
    sin2 = (1.0 - x) * (1.0 + x)
    zonal = specfun._norm_legendre_sweep(0, len(caps), x)  # rows a = 0..K+1
    dzonal = specfun._norm_legendre_sin_dtheta(0, zonal, x) * quad.theta_weights / sin2
    zonal = zonal * quad.theta_weights
    bmax = max(cap + k + 1 for k, cap in enumerate(caps))
    # r^(ell + 2k) times the radial weights, rows ell = 0..caps[k]
    powers = [quad.r_weights * quad.r ** np.arange(2 * k, cap + 2 * k + 1)[:, None]
              for k, cap in enumerate(caps)]
    vals = [np.zeros((cap + 1, 2 * lmax + 1), dtype=complex) for cap in caps]
    for m in range(-lmax, lmax + 1):
        mu = abs(m)
        sweep = specfun._norm_legendre_sweep(mu, bmax, x)  # rows b = mu..bmax
        dsweep = specfun._norm_legendre_sin_dtheta(mu, sweep, x)
        f_t = f_m[:, :, m + lmax].T  # (n_theta, n_r)
        sign = -specfun._negative_order_sign(m)  # -conj(Y_b^m) = sign P~_b^mu e^{-i m phi}
        for k, cap in enumerate(caps):
            if cap < mu:
                continue
            a = k + 1
            b = np.arange(mu + a, cap + a + 1)[:, None]
            rows = slice(a, cap + a - mu + 1)
            prof = sweep[rows] * zonal[a] + dsweep[rows] * dzonal[a] / (a * b)
            vals[k][mu:, m + lmax] = sign * np.sum(powers[k][mu:] * (prof @ f_t), axis=1)
    return {
        (k, ell, m): complex(vals[k][ell, m + lmax])
        for k, cap in enumerate(caps)
        for ell in range(cap + 1)
        for m in range(-ell, ell + 1)
    }


def _sample_on_ball(eta, quad: BallQuadrature) -> np.ndarray:
    x, y, z = quad.cartesian_grid()
    cube = np.asarray(eta(x, y, z))
    if cube.shape != x.shape:
        raise ValueError("field evaluation must preserve the grid shape")
    return cube


def forward_measure_quadrature(
    eta, k: int, ell: int, m: int, quad: BallQuadrature | None = None
) -> complex:
    """Single measurement by ball quadrature of an evaluable field.

    The (k, ell, m) entry of ``oracle_measure(eta, k, ell, quad)``.

    Parameters
    ----------
    eta : callable
        Vectorized field eta(x, y, z) on Cartesian coordinate arrays.
    k, ell, m : int
        Measurement index, |m| <= ell.
    quad : BallQuadrature, optional
        Defaults to the standard orders (48, 64, 128).
    """
    ZernikeIndex(k, ell, m)  # validates the index
    return oracle_measure(eta, k, ell, quad).get(k, ell, m)


def oracle_measure(eta, K: int, degree_caps, quad: BallQuadrature | None = None) -> MeasurementSet:
    """Quadrature measurements for every index (k <= K, ell <= caps[k], m).

    Samples the field once and integrates the angular-kernel form of the
    measurement separably (see ``_oracle_values``).
    """
    caps = as_caps(K, degree_caps)
    if quad is None:
        quad = BallQuadrature()
    cube = _sample_on_ball(eta, quad)
    return MeasurementSet(_oracle_values(cube, caps, quad), K, caps)


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
        return MeasurementSet(dict(ms.values), ms.kmax, ms.degree_caps)
    sigma = relative_level * ms.rms()
    rng = np.random.default_rng(seed)
    keys = sorted(ms.values, key=lambda i: (i.k, i.ell, i.m))
    noisy = dict(ms.values)
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
        if idx.m >= 0 or ZernikeIndex(idx.k, idx.ell, -idx.m) in ms.values:
            continue
        g1, g2 = rng.standard_normal(2)
        noisy[idx] = noisy[idx] + sigma * complex(g1, g2) / math.sqrt(2.0)
    return MeasurementSet(noisy, ms.kmax, ms.degree_caps)
