"""Tensor-product quadrature on the unit sphere and unit ball.

Angular rule: Gauss-Legendre in cos(theta) crossed with a uniform
trapezoid rule in phi.  The trapezoid rule is exact for trigonometric
polynomials of degree < n_phi, so the combined rule integrates
spherical polynomials exactly up to the Gauss order.  Gauss nodes in
cos(theta) never touch the poles, which keeps surface-gradient
evaluations away from the coordinate singularity.

Radial rule: Gauss-Legendre mapped to (0,1) with the volume weight r^2
absorbed into the radial weights, so ball integrals are plain triple
sums: integral_B f dx = sum_{i,j,k} wr_i wth_j wph_k f(r_i, th_j, ph_k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SphereQuadrature", "BallQuadrature"]


def _gauss_theta(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n_theta)
    # ascending theta; nodes are interior so sin(theta) > 0 strictly
    theta = np.arccos(x)[::-1].copy()
    return theta, w[::-1].copy()


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Gauss x trapezoid rule on the unit sphere.

    Attributes
    ----------
    theta, theta_weights : ndarray
        Gauss-Legendre nodes in cos(theta), expressed as angles, with
        their weights (sin(theta) d theta is already accounted for by
        integrating in cos(theta)).
    phi, phi_weight : ndarray, float
        Uniform azimuthal grid phi_j = 2 pi j / n_phi and the common
        weight 2 pi / n_phi.
    """

    n_theta: int = 64
    n_phi: int = 128
    theta: np.ndarray = field(init=False, repr=False)
    theta_weights: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)
    phi_weight: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_theta < 1 or self.n_phi < 1:
            raise ValueError("quadrature orders must be positive")
        theta, wt = _gauss_theta(self.n_theta)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_weights", wt)
        object.__setattr__(self, "phi", 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi)
        object.__setattr__(self, "phi_weight", 2.0 * np.pi / self.n_phi)

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (theta, phi) arrays of shape (n_theta, n_phi)."""
        return np.meshgrid(self.theta, self.phi, indexing="ij")

    def weights_grid(self) -> np.ndarray:
        """Combined weights on the (n_theta, n_phi) grid."""
        return self.theta_weights[:, None] * np.full(self.n_phi, self.phi_weight)


@dataclass(frozen=True, eq=False)
class BallQuadrature:
    """Tensor rule on the unit ball with the r^2 weight absorbed radially.

    The weight sum equals the ball volume 4 pi / 3 to machine precision.
    """

    n_r: int = 48
    n_theta: int = 64
    n_phi: int = 128
    r: np.ndarray = field(init=False, repr=False)
    r_weights: np.ndarray = field(init=False, repr=False)
    sphere: SphereQuadrature = field(init=False, repr=False)
    # the sphere rule's arrays, shared with ``sphere``
    theta: np.ndarray = field(init=False, repr=False)
    theta_weights: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)
    phi_weight: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_r < 1:
            raise ValueError("quadrature orders must be positive")
        x, w = np.polynomial.legendre.leggauss(self.n_r)
        r = 0.5 * (x + 1.0)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "r_weights", 0.5 * w * r * r)
        sphere = SphereQuadrature(self.n_theta, self.n_phi)
        object.__setattr__(self, "sphere", sphere)
        for name in ("theta", "theta_weights", "phi", "phi_weight"):
            object.__setattr__(self, name, getattr(sphere, name))

    def weight_sum(self) -> float:
        return float(
            np.sum(self.r_weights) * np.sum(self.theta_weights) * self.n_phi * self.phi_weight
        )

    def cartesian_grid(self, radii=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cartesian node coordinates, each of shape (n_radii, n_theta, n_phi).

        ``radii`` slices the radial nodes, bit for bit those rows of the whole
        grid.  z does not vary with phi, so it is a read-only broadcast view.
        """
        r = self.r[radii, None, None]
        st = np.sin(self.theta)[None, :, None]
        ct = np.cos(self.theta)[None, :, None]
        cp = np.cos(self.phi)[None, None, :]
        sp = np.sin(self.phi)[None, None, :]
        x = r * st * cp
        y = r * st * sp
        z = np.broadcast_to(r * ct, x.shape)
        return x, y, z

    def integrate(self, values: np.ndarray) -> complex:
        """Integrate a field sampled on the (n_r, n_theta, n_phi) grid."""
        radial = np.tensordot(self.r_weights, values, axes=(0, 0))
        angular = np.tensordot(self.theta_weights, radial, axes=(0, 0))
        return complex(np.sum(angular) * self.phi_weight)
