"""Direct reconstruction for the linearised Calderon problem on the unit ball.

A conductivity perturbation eta on the unit ball is expanded in an
orthonormal polynomial basis psi_l^{k,m} = R_l^k(r) Y_l^m(theta, phi).
Linearised boundary data against low-order zonal current patterns
determines the expansion coefficients through a triangular system that
is solved exactly by forward substitution, one radial index k at a time.

Modules
-------
specfun     spherical harmonics, Wigner 3j symbols, Gaunt coefficients
quadrature  Gauss x trapezoid rules on the sphere and ball
zernike     radial polynomials R_l^k, basis fields, projection, synthesis
forward     simulated measurements (exact series and quadrature oracle)
recon       coupling constants tau/Q and the forward-substitution solver
phantoms    built-in test perturbations
serialize   JSON / CSV readers and writers with round-trip-exact floats
cli         command-line pipeline driver
selftest    consistency checks run by the ``selftest`` verb

The package exports each library module's ``__all__`` in this order, so a
public name is declared once, in its module.  ``cli`` and ``selftest`` are
left out: ``import calderon3d`` loads neither.
"""

from .specfun import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .zernike import *  # noqa: F401,F403
from .forward import *  # noqa: F401,F403
from .recon import *  # noqa: F401,F403
from .phantoms import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403
from . import forward, phantoms, quadrature, recon, serialize, specfun, zernike

__all__ = [
    name
    for module in (specfun, quadrature, zernike, forward, recon, phantoms, serialize)
    for name in module.__all__
]

__version__ = "0.1.0"
