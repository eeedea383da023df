"""Green functions of the s-wave square-barrier Schrodinger operator.

The package builds the resolvent kernel G(r, s; E) of -d^2/dr^2 + V on
[0, inf) with a Dirichlet condition at the origin, for square-barrier and
staircase potentials, from waves matched by one staircase engine.  An
independent oracle -- the exact region-by-region flow, RK4 re-integration,
finite differences and Simpson quadrature -- checks that engine on any
staircase, and the package ships the machinery to verify that the kernel's
boundary values on the positive real axis coincide with the formal
outgoing/incoming kernels.
"""

from .errors import (
    BranchPointError,
    ConfigError,
    ContractError,
    DomainError,
    PoleError,
)
from .model import PiecewisePotential, SquareBarrier, branch_sqrt, region_momenta
from .eigenfunctions import PiecewiseWave, Region, wronskian
from .piecewise import (
    build_chi,
    build_omega,
    chi_outer_amplitudes,
    outer_wronskian,
)
from .kernel import (
    LimitStudy,
    boundary_limit,
    boundary_limits,
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
    propagate,
)
from .verification import run_verification

__all__ = [
    "BranchPointError",
    "ConfigError",
    "ContractError",
    "DomainError",
    "PoleError",
    "PiecewisePotential",
    "SquareBarrier",
    "branch_sqrt",
    "region_momenta",
    "PiecewiseWave",
    "Region",
    "wronskian",
    "build_chi",
    "build_omega",
    "chi_outer_amplitudes",
    "outer_wronskian",
    "LimitStudy",
    "boundary_limit",
    "boundary_limits",
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
    "propagate",
    "run_verification",
]

__version__ = "0.1.0"
