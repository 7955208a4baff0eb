"""Density-determined solutions of a 1D linear relaxation kinetic equation.

The model is a transport equation whose collision term relaxes the
molecular density function toward its own velocity average against the
Gaussian equilibrium weight.  This package builds the solution class that
is completely determined by its density field (dispersion relation,
spectral synthesis, physical-space fields) and verifies it against a
derivation-free direct integrator.
"""

__version__ = "0.1.0"

from .quadrature import (SQRT_PI, VelocityGrid, adaptive_phi_integral, build_grid,
                         gaussian_moment, inner_product_phi, moment, norm_phi)
from .collision import (apply_collision, check_mass_conservation,
                        check_negative_semidefinite, check_self_adjoint,
                        collision_matrix, operator_norm_bound_check)
from .dispersion import (DispersionTable, UnsupportedFrequencyError, build_table,
                         c_of_xi, transfer_function, xi_of_c, xi_of_c_quadrature)
from .direct import ModeOperator, default_rk4_dt, rk4_stability_limit
from .gds import (FieldSnapshot, KineticStateSpectral, SpectralDensity, evolve_density,
                  lift_to_kinetic, make_band_limited_density, to_physical)
from .diagnostics import (ResidualReport, Tolerances, compare_gds_direct,
                          continuity_residual, spectral_continuity_residual)

__all__ = [
    "__version__",
    "SQRT_PI", "VelocityGrid", "adaptive_phi_integral", "build_grid",
    "gaussian_moment", "inner_product_phi", "moment", "norm_phi",
    "apply_collision", "check_mass_conservation", "check_negative_semidefinite",
    "check_self_adjoint", "collision_matrix", "operator_norm_bound_check",
    "DispersionTable", "UnsupportedFrequencyError", "build_table", "c_of_xi",
    "transfer_function", "xi_of_c", "xi_of_c_quadrature",
    "ModeOperator", "default_rk4_dt", "rk4_stability_limit",
    "FieldSnapshot", "KineticStateSpectral", "SpectralDensity", "evolve_density",
    "lift_to_kinetic", "make_band_limited_density", "to_physical",
    "ResidualReport", "Tolerances", "compare_gds_direct", "continuity_residual",
    "spectral_continuity_residual",
]
