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
                         gaussian_moment, inner_product_phi, integrate_phi, moment,
                         norm_phi)
from .collision import (apply_collision, check_mass_conservation,
                        check_negative_semidefinite, check_self_adjoint,
                        collision_matrix, operator_norm_bound_check)
from .dispersion import (BAND_EDGE, DispersionPoint, DispersionTable,
                         UnsupportedFrequencyError, build_table, c_of_xi,
                         dispersion_point, transfer_function, xi_of_c,
                         xi_of_c_quadrature)
from .direct import (ModeOperator, ModeTrajectory, default_rk4_dt, evolve_mode,
                     relaxation_distance, rk4_stability_limit, step)
from .gds import (DEFAULT_TRUNCATION, FieldSnapshot, KineticStateSpectral,
                  SpectralDensity, evolve_density, kernel_kv, lift_to_kinetic,
                  make_band_limited_density, pide_residual, to_physical)
from .diagnostics import (ResidualReport, Tolerances, compare_gds_direct,
                          continuity_residual, fit_convergence_order,
                          spectral_continuity_residual)

__all__ = [
    "__version__",
    "SQRT_PI", "VelocityGrid", "adaptive_phi_integral", "build_grid",
    "gaussian_moment", "inner_product_phi", "integrate_phi", "moment", "norm_phi",
    "apply_collision", "check_mass_conservation", "check_negative_semidefinite",
    "check_self_adjoint", "collision_matrix", "operator_norm_bound_check",
    "BAND_EDGE", "DispersionPoint", "DispersionTable", "UnsupportedFrequencyError",
    "build_table", "c_of_xi", "dispersion_point", "transfer_function", "xi_of_c",
    "xi_of_c_quadrature",
    "ModeOperator", "ModeTrajectory", "default_rk4_dt", "evolve_mode",
    "relaxation_distance", "rk4_stability_limit", "step",
    "DEFAULT_TRUNCATION", "FieldSnapshot", "KineticStateSpectral", "SpectralDensity",
    "evolve_density", "kernel_kv",
    "lift_to_kinetic", "make_band_limited_density", "pide_residual", "to_physical",
    "ResidualReport", "Tolerances", "compare_gds_direct", "continuity_residual",
    "fit_convergence_order", "spectral_continuity_residual",
]
