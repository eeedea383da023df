"""Transfer-matrix construction of the basic waves on N-step potentials.

Generalizes the square-barrier closed forms to any finite staircase potential
that vanishes beyond its last breakpoint.  The regular solution is propagated
outward from the origin and the exponential-tail solutions inward from the
last step, each by solving the value/derivative continuity pair at every
interface.  Region amplitudes are stored relative to the region's own left
edge so that strongly evanescent segments never exponentiate an absolute
position.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchPointError, ContractError, DomainError, EPS_BRANCH
from .eigenfunctions import PiecewiseWave, Region, _overflow
from .model import SquareBarrier, branch_sqrt


@dataclass(frozen=True)
class PiecewisePotential:
    """Staircase potential: heights[j] on (breakpoints[j-1], breakpoints[j]).

    ``heights`` has one more entry than ``breakpoints``; the first entry is
    the value on (0, r1) and the last one the value beyond r_N, which must be
    zero so that the tail solutions are pure exponentials in sqrt(E) r.
    """

    breakpoints: tuple[float, ...]
    heights: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(float(x) for x in self.breakpoints)
        hts = tuple(float(v) for v in self.heights)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "heights", hts)
        if len(hts) != len(bps) + 1:
            raise DomainError("need exactly one more height than breakpoints")
        if any(not math.isfinite(x) for x in bps + hts):
            raise DomainError("breakpoints and heights must be finite")
        if any(x <= 0.0 for x in bps):
            raise DomainError("breakpoints must be positive")
        if any(x2 <= x1 for x1, x2 in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly ascending")
        if hts[-1] != 0.0:
            raise DomainError("the outermost height must be 0 (potential vanishes at infinity)")

    @classmethod
    def from_square_barrier(cls, p: SquareBarrier) -> "PiecewisePotential":
        return cls((p.a, p.b), (0.0, p.v0, 0.0))

    def value_at(self, r: float) -> float:
        if r < 0.0:
            raise DomainError(f"radius must be nonnegative, got {r}")
        return self.heights[int(np.searchsorted(self.breakpoints, r, side="right"))]


def as_piecewise(p) -> PiecewisePotential:
    if isinstance(p, PiecewisePotential):
        return p
    return PiecewisePotential.from_square_barrier(p)


def region_momenta(p: PiecewisePotential, e: complex) -> tuple[complex, ...]:
    """branch_sqrt(E - v_j) for every region, refusing degenerate regions."""
    e = complex(e)
    ks = []
    for v in p.heights:
        if abs(e - v) < EPS_BRANCH:
            raise BranchPointError(f"energy {e} degenerates the region with height {v}")
        ks.append(branch_sqrt(e - v))
    return tuple(ks)


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 map of (c+, c-) amplitudes across one interface, absolute phase convention."""

    m: tuple[tuple[complex, complex], tuple[complex, complex]]

    def apply(self, c: tuple[complex, complex]) -> tuple[complex, complex]:
        (m11, m12), (m21, m22) = self.m
        return (m11 * c[0] + m12 * c[1], m21 * c[0] + m22 * c[1])

    def det(self) -> complex:
        (m11, m12), (m21, m22) = self.m
        return m11 * m22 - m12 * m21

    def as_array(self) -> np.ndarray:
        return np.array(self.m, dtype=complex)


def interface_matrix(k_left: complex, k_right: complex, r: float) -> TransferMatrix:
    """Matrix sending left-region (c+, c-) to right-region (c+, c-) at radius r.

    Both sides use the absolute convention c+ e^{ikr} + c- e^{-ikr}.  The map
    preserves value and derivative at r; its determinant is k_left / k_right.
    """
    if abs(k_right) < 1e-300:
        raise BranchPointError("interface with vanishing right momentum")
    kappa = k_left / k_right
    ep = cmath.exp(1j * (k_left - k_right) * r)
    es = cmath.exp(1j * (k_left + k_right) * r)
    m = (
        (0.5 * (1 + kappa) * ep, 0.5 * (1 - kappa) / es),
        (0.5 * (1 - kappa) * es, 0.5 * (1 + kappa) / ep),
    )
    return TransferMatrix(m)


def _amplitudes_at(value: complex, deriv: complex, k: complex) -> tuple[complex, complex]:
    """(c+, c-) relative to the evaluation point itself (ref = that point)."""
    slope = deriv / (1j * k)
    return 0.5 * (value + slope), 0.5 * (value - slope)


def build_chi(p: PiecewisePotential, e: complex) -> PiecewiseWave:
    """Regular solution: sin(k0 r) on the innermost region, propagated outward."""
    e = complex(e)
    ks = region_momenta(p, e)
    n = len(p.breakpoints)
    edges = (0.0,) + p.breakpoints + (np.inf,)
    regions = [Region(0.0, edges[1], ks[0], "sin", 1.0 + 0j)]
    if n > 0:
        x = p.breakpoints[0]
        try:
            value = cmath.sin(ks[0] * x)
            deriv = ks[0] * cmath.cos(ks[0] * x)
            for j in range(1, n + 1):
                lo, hi = edges[j], edges[j + 1]
                cp, cm = _amplitudes_at(value, deriv, ks[j])
                regions.append(Region(lo, hi, ks[j], "exp", cp, cm, ref=lo))
                if j < n:
                    width = hi - lo
                    grow = cmath.exp(1j * ks[j] * width)
                    decay = cmath.exp(-1j * ks[j] * width)
                    value = cp * grow + cm * decay
                    deriv = 1j * ks[j] * (cp * grow - cm * decay)
        except OverflowError as exc:
            raise _overflow(e) from exc
    return PiecewiseWave(tuple(regions), p.breakpoints, p.heights, e, "chi")


def build_omega(p: PiecewisePotential, e: complex, direction: str) -> PiecewiseWave:
    """Tail solution pinned to exp(+-i k r) beyond the last step, propagated inward."""
    if direction not in ("plus", "minus"):
        raise ContractError(f"direction must be 'plus' or 'minus', got {direction!r}")
    e = complex(e)
    ks = region_momenta(p, e)
    n = len(p.breakpoints)
    sign = 1.0 if direction == "plus" else -1.0
    label = f"omega_{direction}"
    if n == 0:
        cp, cm = (1.0 + 0j, 0j) if direction == "plus" else (0j, 1.0 + 0j)
        reg = Region(0.0, np.inf, ks[0], "exp", cp, cm)
        return PiecewiseWave((reg,), p.breakpoints, p.heights, e, label)

    edges = (0.0,) + p.breakpoints + (np.inf,)
    x_last = p.breakpoints[-1]
    try:
        phase = cmath.exp(sign * 1j * ks[n] * x_last)
        if direction == "plus":
            outer = Region(x_last, np.inf, ks[n], "exp", phase, 0j, ref=x_last)
        else:
            outer = Region(x_last, np.inf, ks[n], "exp", 0j, phase, ref=x_last)
        value = phase
        deriv = sign * 1j * ks[n] * phase

        regions = [outer]
        for j in range(n - 1, -1, -1):
            lo, hi = edges[j], edges[j + 1]
            cp_at_hi, cm_at_hi = _amplitudes_at(value, deriv, ks[j])
            width = hi - lo
            cp = cp_at_hi * cmath.exp(-1j * ks[j] * width)
            cm = cm_at_hi * cmath.exp(1j * ks[j] * width)
            regions.append(Region(lo, hi, ks[j], "exp", cp, cm, ref=lo))
            if j > 0:
                value = cp + cm
                deriv = 1j * ks[j] * (cp - cm)
    except OverflowError as exc:
        raise _overflow(e) from exc
    regions.reverse()
    return PiecewiseWave(tuple(regions), p.breakpoints, p.heights, e, label)


def outer_wronskian(f: PiecewiseWave, g: PiecewiseWave) -> complex:
    """Wronskian read off the plane-wave pairs of the outermost region.

    W(f, g) = 2 i k (c-_f c+_g - c+_f c-_g), independent of the shared
    reference point; this is the canonical r-free value used to normalize
    kernels built from engine waves.
    """
    if f.breakpoints != g.breakpoints or f.heights != g.heights or f.energy != g.energy:
        raise ContractError("waves belong to different problems")
    cpf, cmf, rf = f.outer_plane_pair()
    cpg, cmg, rg = g.outer_plane_pair()
    k = f.regions[-1].k
    if rf != rg:
        shift = cmath.exp(1j * k * (rf - rg))
        cpg, cmg = cpg * shift, cmg / shift
    return 2j * k * (cmf * cpg - cpf * cmg)
