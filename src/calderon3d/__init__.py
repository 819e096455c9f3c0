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
"""

from .specfun import (
    sph_harm,
    sph_harm_surface_grad,
    wigner3j,
    gaunt,
    gaunt_selection,
)
from .quadrature import SphereQuadrature, BallQuadrature
from .zernike import (
    ZernikeIndex,
    CoefficientField,
    radial_zernike,
    chi,
    psi_eval,
    project,
    synthesize,
    synthesize_xyz,
    synthesize_ball_grid,
    basis_gram,
)
from .forward import (
    MeasurementSet,
    IncompleteSupportError,
    forward_measure,
    oracle_measure,
    add_noise,
)
from .recon import (
    TruncationSchedule,
    ScheduleViolation,
    StageDiagnostic,
    ReconReport,
    InfeasibleScheduleError,
    MissingMeasurementError,
    DivisorUnderflowWarning,
    tau,
    big_q,
    validate_schedule,
    reconstruct,
)
from .phantoms import PhantomSpec, PHANTOM_NAMES
from .serialize import (
    GridSlice,
    dump_coefficient_field,
    load_coefficient_field,
    dump_measurement_set,
    load_measurement_set,
    dump_recon_report,
    load_recon_report,
    dump_grid_slice,
)

__all__ = [
    "sph_harm",
    "sph_harm_surface_grad",
    "wigner3j",
    "gaunt",
    "gaunt_selection",
    "SphereQuadrature",
    "BallQuadrature",
    "ZernikeIndex",
    "CoefficientField",
    "radial_zernike",
    "chi",
    "psi_eval",
    "project",
    "synthesize",
    "synthesize_xyz",
    "synthesize_ball_grid",
    "basis_gram",
    "MeasurementSet",
    "IncompleteSupportError",
    "forward_measure",
    "oracle_measure",
    "add_noise",
    "TruncationSchedule",
    "ScheduleViolation",
    "StageDiagnostic",
    "ReconReport",
    "InfeasibleScheduleError",
    "MissingMeasurementError",
    "DivisorUnderflowWarning",
    "tau",
    "big_q",
    "validate_schedule",
    "reconstruct",
    "PhantomSpec",
    "PHANTOM_NAMES",
    "GridSlice",
    "dump_coefficient_field",
    "load_coefficient_field",
    "dump_measurement_set",
    "load_measurement_set",
    "dump_recon_report",
    "load_recon_report",
    "dump_grid_slice",
]

__version__ = "0.1.0"
