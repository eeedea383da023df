"""The resolvent kernel, its real-axis boundary values and its poles.

For Im E != 0 the kernel is

    G(r, s; E) = chi(r_<) * omega(r_>) / W(chi, omega),

with omega the exponentially bounded tail solution of the matching
half-plane (omega_plus above the axis, omega_minus below) and the Wronskian
taken in closed form.  On the positive real axis the same quotient with
real-axis momenta gives the formal outgoing/incoming kernels, and
:func:`boundary_limit` verifies that they are the limits of the complex
kernel as E approaches the axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchPointError,
    ContractError,
    DomainError,
    NonConvergenceError,
    PoleError,
)
from .eigenfunctions import (
    PiecewiseWave,
    chi_coefficients,
    chi_wave,
    omega_wave,
    wronskian_closed_form,
)
from .model import SquareBarrier
from .piecewise import PiecewisePotential, build_chi, build_omega, outer_wronskian

PROVENANCES = (
    "resolvent_kernel",
    "formal_plus",
    "formal_minus",
    "boundary_limit_plus",
    "boundary_limit_minus",
)


@dataclass(frozen=True)
class KernelSample:
    """One kernel evaluation, tagged with how it was produced."""

    r: float
    s: float
    e: complex
    value: complex
    provenance: str

    def __post_init__(self):
        if self.r < 0.0 or self.s < 0.0:
            raise DomainError("kernel arguments must be nonnegative radii")
        if self.provenance not in PROVENANCES:
            raise DomainError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "resolvent_kernel" and self.e.imag == 0.0:
            raise DomainError("resolvent_kernel samples require Im E != 0")
        if self.provenance != "resolvent_kernel" and not (self.e.imag == 0.0 and self.e.real > 0.0):
            raise DomainError("formal and boundary-limit samples require real E > 0")


@dataclass(frozen=True)
class LimitStudy:
    """A mu -> 0 trajectory of kernel values at E +- i*mu and its limit.

    ``extrapolated`` is the final sample of the halving sequence; the
    first-order Richardson value computed from the last two samples is kept
    alongside since the approach is linear in mu.
    """

    e: float
    direction: str
    r: float
    s: float
    mu_sequence: tuple[float, ...]
    samples: tuple[complex, ...]
    extrapolated: complex
    richardson: complex
    converged: bool

    @property
    def halvings(self) -> int:
        return len(self.mu_sequence)

    def as_sample(self) -> "KernelSample":
        return KernelSample(
            self.r, self.s, complex(self.e), self.extrapolated, f"boundary_limit_{self.direction}"
        )


def wave_pair(p, e: complex, direction: str) -> tuple[PiecewiseWave, PiecewiseWave, complex]:
    """(chi, omega, W) for a potential; closed forms for a square barrier,
    transfer-matrix construction for a staircase."""
    if isinstance(p, SquareBarrier):
        chi = chi_wave(p, e)
        om = omega_wave(p, e, direction)
        w = wronskian_closed_form(p, e, direction)
    elif isinstance(p, PiecewisePotential):
        chi = build_chi(p, e)
        om = build_omega(p, e, direction)
        w = outer_wronskian(chi, om)
    else:
        raise ContractError(f"unsupported potential type {type(p).__name__}")
    return chi, om, w


def _kernel_request(p, e, radii, direction: str | None) -> tuple[complex, str, str]:
    """Validate one kernel request and return (E, omega direction, provenance).

    ``direction=None`` asks for the resolvent kernel at Im E != 0, whose tail
    solution follows the sign of Im E.  "plus"/"minus" ask for the formal
    kernel at real E > 0, which raises :class:`PoleError` where its
    denominator c4(J) (plus) or c3(J) (minus) vanishes.  Every radius must be
    finite and nonnegative.
    """
    formal = direction is not None
    if formal:
        e = float(e)
        if not math.isfinite(e) or e <= 0.0:
            raise DomainError(f"formal kernels require real E > 0, got {e}")
    else:
        e = complex(e)
        if e.imag == 0.0:
            raise ContractError(
                "resolvent_kernel requires Im E != 0; use formal_green or boundary_limit on the axis"
            )
        direction = "plus" if e.imag > 0.0 else "minus"
    if not all(0.0 <= x < math.inf for x in radii):
        raise DomainError("radii must be finite and nonnegative")
    if formal:
        if direction not in ("plus", "minus"):
            raise ContractError(f"direction must be 'plus' or 'minus', got {direction!r}")
        cs = chi_coefficients(p, complex(e))
        denom_coeff = cs.c4 if direction == "plus" else cs.c3
        if abs(denom_coeff) < 1e-14:
            raise PoleError(f"kernel denominator vanishes at E={e} (direction {direction})")
    return complex(e), direction, f"formal_{direction}" if formal else "resolvent_kernel"


def _sample(p, e, r: float, s: float, direction: str | None) -> KernelSample:
    e, direction, provenance = _kernel_request(p, e, (r, s), direction)
    chi, om, w = wave_pair(p, e, direction)
    lo, hi = (r, s) if r <= s else (s, r)
    value = chi.value(lo) * om.value(hi) / w
    return KernelSample(r, s, e, value, provenance)


def resolvent_kernel(p, e: complex, r: float, s: float) -> KernelSample:
    """Kernel of (E - H)^{-1} at complex E; omega_plus above the axis, omega_minus below."""
    return _sample(p, e, r, s, None)


def formal_green(p: SquareBarrier, e: float, r: float, s: float, direction: str) -> KernelSample:
    """Outgoing/incoming kernel at real E > 0 with real-axis momenta."""
    return _sample(p, e, r, s, direction)


def kernel_grid(p, e, rs, ss, direction: str | None = None) -> np.ndarray:
    """Kernel values on the grid ``rs`` x ``ss``, as an array of shape (len(rs), len(ss)).

    ``direction=None`` gives the resolvent kernel at complex E, as
    :func:`resolvent_kernel`; "plus"/"minus" give the formal kernels at real
    E > 0, as :func:`formal_green`.  The waves are built once for the whole
    grid and each is evaluated in one array call, chi at min(r, s) and omega
    at max(r, s).  The quotient is formed in Python complex arithmetic, so
    every entry equals the scalar function's value bit for bit.
    """
    r = np.asarray(rs, dtype=float).ravel()
    s = np.asarray(ss, dtype=float).ravel()
    e, direction, _ = _kernel_request(p, e, np.concatenate((r, s)), direction)
    chi, om, w = wave_pair(p, e, direction)
    rr, sg = np.meshgrid(r, s, indexing="ij")
    below = rr <= sg
    lo = np.where(below, rr, sg).ravel()
    hi = np.where(below, sg, rr).ravel()
    values = [a * b / w for a, b in zip(chi.value(lo).tolist(), om.value(hi).tolist())]
    return np.array(values, dtype=complex).reshape(rr.shape)


#: mu halving stops once mu < MU_FLOOR and successive samples differ by < CAUCHY_TOL.
MU_FLOOR = 1e-8
CAUCHY_TOL = 1e-10
MAX_HALVINGS = 40


def boundary_limit(
    p,
    e: float,
    r: float,
    s: float,
    direction: str,
    mu0: float | None = None,
) -> LimitStudy:
    """Follow G(r, s; E +- i mu) along mu = mu0 * 2^-k down to the axis.

    The sequence stops at the first k with mu_k below ``MU_FLOOR`` and the
    last two samples within ``CAUCHY_TOL`` of each other; failing that within
    ``MAX_HALVINGS`` halvings raises :class:`NonConvergenceError` (a branch
    mix-up makes the sequence oscillate instead of settling).
    """
    e = float(e)
    if not math.isfinite(e) or e <= 0.0:
        raise DomainError(f"boundary limits require real E > 0, got {e}")
    if direction not in ("plus", "minus"):
        raise ContractError(f"direction must be 'plus' or 'minus', got {direction!r}")
    if mu0 is None:
        mu0 = 0.05 * e
    mu0 = float(mu0)
    if not 0.0 < mu0 <= 0.1 * e:
        raise DomainError(f"mu0 must lie in (0, 0.1 E], got {mu0}")
    sign = 1.0 if direction == "plus" else -1.0

    mus: list[float] = []
    samples: list[complex] = []
    converged = False
    for k in range(MAX_HALVINGS + 1):
        mu = mu0 * 0.5**k
        g = resolvent_kernel(p, complex(e, sign * mu), r, s).value
        mus.append(mu)
        samples.append(g)
        if k >= 1 and mu < MU_FLOOR:
            # widen the Cauchy tolerance for very large kernels, where an
            # absolute 1e-10 would sit inside double-precision noise
            tol = max(CAUCHY_TOL, 1e-13 * max(abs(samples[-1]), abs(samples[-2])))
            if abs(samples[-1] - samples[-2]) < tol:
                converged = True
                break

    richardson = 2.0 * samples[-1] - samples[-2] if len(samples) >= 2 else samples[-1]
    study = LimitStudy(
        e, direction, r, s, tuple(mus), tuple(samples), samples[-1], richardson, converged
    )
    if not converged:
        raise NonConvergenceError(
            f"kernel limit at E={e} ({direction}) not Cauchy after {MAX_HALVINGS} halvings",
            partial=study,
        )
    return study


def find_kernel_poles(
    p: SquareBarrier,
    box: tuple[float, float, float, float],
    seed_density: float = 0.25,
) -> list[complex]:
    """Newton search for zeros of the outgoing-kernel denominator over a box.

    Seeds are laid on a grid of spacing ``seed_density`` over
    ``box = (re_min, re_max, im_min, im_max)``; each runs a damped-free Newton
    iteration on c4(J)(E) with the derivative taken by a central complex
    difference of step 1e-7.  A root is kept only if the final Newton step is
    below 1e-12, |c4| is below 1e-10, it lies inside the box, and it is at
    least 1e-6 away from the branch points 0 and v0.  Roots within 1e-6 of an
    already accepted one are dropped.  An empty list is a valid outcome.
    """
    re_min, re_max, im_min, im_max = (float(x) for x in box)
    if not (re_min < re_max and im_min < im_max):
        raise DomainError(f"degenerate search box {box}")
    if seed_density <= 0.0:
        raise DomainError("seed_density must be positive")

    branch_points = (0.0 + 0j, complex(p.v0, 0.0))
    margin = 1e-6

    def denominator(z: complex) -> complex:
        return chi_coefficients(p, z).c4

    def far_from_branch_points(z: complex) -> bool:
        return all(abs(z - bp) >= margin for bp in branch_points)

    h = 1e-7
    accepted: list[complex] = []
    n_re = int(math.floor((re_max - re_min) / seed_density)) + 1
    n_im = int(math.floor((im_max - im_min) / seed_density)) + 1
    for i in range(n_re):
        for jdx in range(n_im):
            z = complex(re_min + i * seed_density, im_min + jdx * seed_density)
            if not far_from_branch_points(z):
                continue
            last_step = math.inf
            ok = False
            try:
                for _ in range(60):
                    fz = denominator(z)
                    dfz = (denominator(z + h) - denominator(z - h)) / (2.0 * h)
                    if dfz == 0 or not (
                        math.isfinite(dfz.real) and math.isfinite(dfz.imag)
                    ):
                        break
                    dz = fz / dfz
                    z = z - dz
                    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                        break
                    last_step = abs(dz)
                    if last_step < 1e-13 * max(1.0, abs(z)):
                        ok = True
                        break
            except (BranchPointError, OverflowError, ZeroDivisionError, ValueError):
                # the iterate escaped to where the coefficients overflow or
                # degenerate; this seed finds nothing
                continue
            if not ok or last_step >= 1e-12:
                continue
            if not (re_min <= z.real <= re_max and im_min <= z.imag <= im_max):
                continue
            if not far_from_branch_points(z):
                continue
            try:
                resid = abs(denominator(z))
            except (BranchPointError, OverflowError, ValueError):
                continue
            if resid >= 1e-10:
                continue
            if any(abs(z - root) < 1e-6 for root in accepted):
                continue
            accepted.append(z)
    accepted.sort(key=lambda w: (w.real, w.imag))
    return accepted


def kernel_pole_residual(p: SquareBarrier, z: complex) -> float:
    """|c4(J)(z)|, the quantity driven to zero by :func:`find_kernel_poles`."""
    return abs(chi_coefficients(p, z).c4)
