"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BranchPointError(DomainError):
    """The energy sits on (or too close to) a branch point of the momentum map.

    Raised when |E| or |E - V_j| falls below the hard cutoff ``EPS_BRANCH``;
    the plane-wave basis degenerates there and the kernels diverge.  Callers
    probing the limit should approach along a sequence of nearby energies.
    """


class ContractError(ValueError):
    """An operation was called in a way that violates its usage contract."""


class PoleError(ArithmeticError):
    """The kernel denominator vanishes at the requested energy."""


class ConfigError(ValueError):
    """A job configuration failed validation before any computation started."""


#: Hard cutoff below which |E - V_j| counts as a branch point (natural units).
EPS_BRANCH = 1e-12
