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
  quadrature of either integrand above, for arbitrary evaluable fields.

Agreement of the two routes is the module's central cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .quadrature import BallQuadrature
from .recon import coupling_operator
from .zernike import CoefficientField, ZernikeIndex, as_caps

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


# angular kernels are reused heavily across radial shells and phantoms;
# keyed by (k, ell, m, form, n_theta, n_phi), which determines them fully
_ANGULAR_CACHE: dict = {}


def _angular_kernel(k: int, ell: int, m: int, form: str, sphere):
    key = (k, ell, m, form, sphere.n_theta, sphere.n_phi)
    hit = _ANGULAR_CACHE.get(key)
    if hit is not None:
        return hit
    th, ph = sphere.grid()
    a, b = k + 1, ell + k + 1
    ya = specfun.sph_harm(a, 0, th, ph)
    dya = specfun.sph_harm_surface_grad(a, 0, th, ph)[0]
    if form == "phi":
        # grad_S Y_a^0 has no azimuthal component, so the surface dot
        # product keeps only the theta term
        yb = specfun.sph_harm(b, -m, th, ph)
        dyb = specfun.sph_harm_surface_grad(b, -m, th, ph)[0]
        prefactor = 1.0 if m % 2 else -1.0
    elif form == "gradient":
        yb = np.conj(specfun.sph_harm(b, m, th, ph))
        dyb = np.conj(specfun.sph_harm_surface_grad(b, m, th, ph)[0])
        prefactor = -1.0
    else:
        raise ValueError(f"unknown oracle form {form!r}")
    kernel = ya * yb + (dya * dyb) / (a * b)
    out = (kernel, prefactor)
    _ANGULAR_CACHE[key] = out
    return out


def _oracle_values(eta_cube: np.ndarray, indices, quad: BallQuadrature, form: str):
    """Quadrature measurements for many indices over one sampled field."""
    sphere = quad.sphere
    weighted = eta_cube * (sphere.theta_weights[:, None] * sphere.phi_weight)
    flat = weighted.reshape(quad.n_r, -1)
    kernels = np.empty((flat.shape[1], len(indices)), dtype=complex)
    prefactors = np.empty(len(indices))
    for j, idx in enumerate(indices):
        kernel, prefactor = _angular_kernel(idx.k, idx.ell, idx.m, form, sphere)
        kernels[:, j] = kernel.ravel()
        prefactors[j] = prefactor
    inner = flat @ kernels  # (n_r, n_indices)
    powers: dict = {}
    out = []
    for j, idx in enumerate(indices):
        p = idx.ell + 2 * idx.k
        rad = powers.get(p)
        if rad is None:
            rad = quad.r_weights * quad.r**p
            powers[p] = rad
        out.append(complex(prefactors[j] * (rad @ inner[:, j])))
    return out


def _sample_on_ball(eta, quad: BallQuadrature) -> np.ndarray:
    x, y, z = quad.cartesian_grid()
    cube = np.asarray(eta(x, y, z))
    if cube.shape != x.shape:
        raise ValueError("field evaluation must preserve the grid shape")
    return cube


def forward_measure_quadrature(
    eta, k: int, ell: int, m: int, quad: BallQuadrature | None = None, form: str = "phi"
) -> complex:
    """Single measurement by ball quadrature of an evaluable field.

    Parameters
    ----------
    eta : callable
        Vectorized field eta(x, y, z) on Cartesian coordinate arrays.
    k, ell, m : int
        Measurement index, |m| <= ell.
    quad : BallQuadrature, optional
        Defaults to the standard orders (48, 64, 128).
    form : str
        "phi" integrates the angular-kernel form (default); "gradient"
        integrates -eta grad(u_{k+1}^0) . conj(grad(u_{l+k+1}^m)).  The
        two integrands are equal pointwise after the surface-gradient
        product reduction, so both give the same value.
    """
    idx = ZernikeIndex(k, ell, m)
    if quad is None:
        quad = BallQuadrature()
    if form not in ("phi", "gradient"):
        raise ValueError(f"unknown oracle form {form!r}")
    cube = _sample_on_ball(eta, quad)
    return _oracle_values(cube, [idx], quad, form)[0]


def oracle_measure(
    eta, K: int, degree_caps, quad: BallQuadrature | None = None, form: str = "phi"
) -> MeasurementSet:
    """Quadrature measurements for every index (k <= K, ell <= caps[k], m).

    Samples the field once and reuses cached angular kernels, so a full
    set costs little more than a handful of single measurements.
    """
    caps = as_caps(K, degree_caps)
    if quad is None:
        quad = BallQuadrature()
    if form not in ("phi", "gradient"):
        raise ValueError(f"unknown oracle form {form!r}")
    indices = [
        ZernikeIndex(k, ell, m)
        for k in range(K + 1)
        for ell in range(caps[k] + 1)
        for m in range(-ell, ell + 1)
    ]
    cube = _sample_on_ball(eta, quad)
    vals = _oracle_values(cube, indices, quad, form)
    return MeasurementSet(dict(zip(indices, vals)), K, caps)


def add_noise(ms: MeasurementSet, relative_level: float, seed: int) -> MeasurementSet:
    """Perturb measurements with complex Gaussian noise.

    Each entry receives independent noise of standard deviation
    relative_level * rms(ms).  Only m >= 0 entries draw fresh randomness;
    the m < 0 partners receive the mirrored perturbation
    (-1)^m conj(noise), so a set with the real-field conjugate symmetry
    keeps it exactly.  Entries with m < 0 and no stored partner draw
    their own noise.  Deterministic given the seed.
    """
    if relative_level < 0:
        raise ValueError("noise level must be nonnegative")
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
