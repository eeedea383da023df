"""Exception types shared across the package; each rule on an argument raises one of them."""


class DomainError(ValueError):
    """A value the computation cannot take: a number not finite, out of range or off its grid."""


class BranchPointError(DomainError):
    """The energy sits on (or too close to) a branch point of the momentum map.

    Raised when |E| or |E - V_j| falls below the hard cutoff ``EPS_BRANCH``.
    Only E = 0 is a branch point of G; at an inner height G is analytic, but
    the plane-wave basis of that region degenerates.  Callers probing the
    limit should approach along a sequence of nearby energies.
    """


class ContractError(ValueError):
    """A call the API does not define: a wrong type or choice, Im E = 0 for the resolvent, mismatched shapes."""


class PoleError(ArithmeticError):
    """The kernel denominator vanishes at the requested energy."""


class ConfigError(ValueError):
    """A job configuration failed validation before any computation started."""


#: Hard cutoff below which |E - V_j| counts as a branch point (natural units).
EPS_BRANCH = 1e-12
