"""Green functions of the s-wave square-barrier Schrodinger operator.

The package builds the resolvent kernel G(r, s; E) of -d^2/dr^2 + V on
[0, inf) with a Dirichlet condition at the origin, for square-barrier and
staircase potentials, both from matched closed-form waves and from a
transfer-matrix engine, and ships the machinery to verify that the kernel's
boundary values on the positive real axis coincide with the formal
outgoing/incoming kernels.
"""

from .errors import (
    BranchPointError,
    ConfigError,
    ContractError,
    DomainError,
    NonConvergenceError,
    PoleError,
)
from .model import SquareBarrier, branch_sqrt, momenta, potential_at
from .eigenfunctions import (
    CoefficientSet,
    PiecewiseWave,
    Region,
    chi_coefficients,
    chi_wave,
    eval_wave,
    eval_wave_derivative,
    omega_minus_coefficients,
    omega_plus_coefficients,
    omega_wave,
    wronskian,
    wronskian_closed_form,
)
from .piecewise import (
    PiecewisePotential,
    TransferMatrix,
    build_chi,
    build_omega,
    interface_matrix,
    outer_wronskian,
)
from .kernel import (
    KernelSample,
    LimitStudy,
    boundary_limit,
    find_kernel_poles,
    formal_green,
    kernel_grid,
    kernel_pole_residual,
    resolvent_kernel,
)
from .oracle import (
    ResidualReport,
    TestFunction,
    apply_hamiltonian_fd,
    check_distributional_equation,
    check_jump,
    check_resolvent_identity,
    integrate_schrodinger,
)
from .verification import run_verification

__all__ = [
    "BranchPointError",
    "ConfigError",
    "ContractError",
    "DomainError",
    "NonConvergenceError",
    "PoleError",
    "SquareBarrier",
    "branch_sqrt",
    "momenta",
    "potential_at",
    "CoefficientSet",
    "PiecewiseWave",
    "Region",
    "chi_coefficients",
    "chi_wave",
    "eval_wave",
    "eval_wave_derivative",
    "omega_minus_coefficients",
    "omega_plus_coefficients",
    "omega_wave",
    "wronskian",
    "wronskian_closed_form",
    "PiecewisePotential",
    "TransferMatrix",
    "build_chi",
    "build_omega",
    "interface_matrix",
    "outer_wronskian",
    "KernelSample",
    "LimitStudy",
    "boundary_limit",
    "find_kernel_poles",
    "formal_green",
    "kernel_grid",
    "kernel_pole_residual",
    "resolvent_kernel",
    "ResidualReport",
    "TestFunction",
    "apply_hamiltonian_fd",
    "check_distributional_equation",
    "check_jump",
    "check_resolvent_identity",
    "integrate_schrodinger",
    "run_verification",
]

__version__ = "0.1.0"
