"""Built-in synthetic perturbations for exercising the pipeline.

Three families: a localized Gaussian bump exp(-a |x - c|^2) with center c
in the closed unit ball, a single basis function psi_l^{k,m}, and the
zero field.  The Gaussian builds a pointwise callable eta(x, y, z), which
``project`` and the oracle call once per block of radii; the others build
their one-entry or empty CoefficientField, which they sample separably
(``zernike.synthesize_ball_grid``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .zernike import CoefficientField, ZernikeIndex

__all__ = ["PhantomSpec", "PHANTOM_NAMES"]

PHANTOM_NAMES = ("gaussian", "basis", "zero")


@dataclass(frozen=True)
class PhantomSpec:
    """Named phantom with parameters.

    name "gaussian": eta(x) = exp(-sharpness |x - center|^2), center
    inside the closed unit ball.  name "basis": the single basis function
    at ``index`` = (k, ell, m).  name "zero": identically zero.
    """

    name: str
    center: tuple = (0.0, 0.3, 0.0)
    sharpness: float = 50.0
    index: tuple = (0, 0, 0)

    def __post_init__(self) -> None:
        if self.name not in PHANTOM_NAMES:
            raise ValueError(f"unknown phantom {self.name!r}, expected one of {PHANTOM_NAMES}")
        center = tuple(float(c) for c in self.center)
        if len(center) != 3:
            raise ValueError("center must be a 3-vector")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "sharpness", float(self.sharpness))
        if not all(math.isfinite(v) for v in center + (self.sharpness,)):
            raise ValueError(f"center {center} and sharpness {self.sharpness} must be finite")
        if self.name == "gaussian":
            if math.sqrt(sum(c * c for c in center)) > 1.0:
                raise ValueError("gaussian center must lie inside the closed unit ball")
            if self.sharpness <= 0:
                raise ValueError("sharpness must be positive")
        idx = tuple(int(i) for i in self.index)
        if len(idx) != 3:
            raise ValueError("index must be a (k, ell, m) triple")
        if self.name == "basis":
            ZernikeIndex(*idx)  # validates ranges
        object.__setattr__(self, "index", idx)

    def build(self):
        """The field: for "gaussian" a pointwise callable eta(x, y, z) on
        Cartesian coordinate arrays, for "basis" the CoefficientField with
        the one entry 1 at ``index``, for "zero" the empty CoefficientField."""
        if self.name == "basis":
            k, ell, _ = self.index
            return CoefficientField({self.index: 1.0}, k, ell)
        if self.name == "zero":
            return CoefficientField({}, 0, 0)
        cx, cy, cz = self.center
        a = self.sharpness

        def gaussian(x, y, z):
            return np.exp(-a * ((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2))

        return gaussian
