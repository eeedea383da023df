"""The wave engine: the basic waves of any finite staircase potential.

The regular solution is propagated outward from the origin and the
exponential-tail solutions inward from the last step, each by solving the
value/derivative continuity pair at every interface.  Region amplitudes are
stored relative to the region's own left edge so that strongly evanescent
segments never exponentiate an absolute position.

The engine reads only a potential's ``breakpoints`` and ``heights``, so it
serves a :class:`PiecewisePotential` and a ``SquareBarrier`` alike.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchPointError, ContractError, DomainError, EPS_BRANCH
from .eigenfunctions import PiecewiseWave, Region, _overflow
from .model import _branch_sqrt_array, branch_sqrt, staircase_value


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

    value_at = staircase_value


def region_momenta(p, e: complex) -> tuple[complex, ...]:
    """branch_sqrt(E - v_j) for every region, refusing degenerate regions."""
    e = complex(e)
    ks = []
    for v in p.heights:
        if abs(e - v) < EPS_BRANCH:
            raise BranchPointError(f"energy {e} degenerates the region with height {v}")
        ks.append(branch_sqrt(e - v))
    return tuple(ks)


def _amplitudes_at(value: complex, deriv: complex, k: complex) -> tuple[complex, complex]:
    """(c+, c-) relative to the evaluation point itself (ref = that point)."""
    slope = deriv / (1j * k)
    return 0.5 * (value + slope), 0.5 * (value - slope)


def _chi_amplitudes(ks, breakpoints, lib) -> list:
    """(c+, c-) of the regular solution in every region beyond the innermost one.

    Each pair is relative to its region's left edge; the innermost region
    holds sin(k0 r).  ``lib`` is ``cmath`` for one energy, where an overflow
    raises ``OverflowError``, or ``numpy`` for arrays of momenta, where it
    leaves non-finite entries.
    """
    value = lib.sin(ks[0] * breakpoints[0])
    deriv = ks[0] * lib.cos(ks[0] * breakpoints[0])
    amps = []
    n = len(breakpoints)
    for j in range(1, n + 1):
        cp, cm = _amplitudes_at(value, deriv, ks[j])
        amps.append((cp, cm))
        if j < n:
            width = breakpoints[j] - breakpoints[j - 1]
            grow = lib.exp(1j * ks[j] * width)
            decay = lib.exp(-1j * ks[j] * width)
            value = cp * grow + cm * decay
            deriv = 1j * ks[j] * (cp * grow - cm * decay)
    return amps


def _chi_outer(ks, breakpoints, lib):
    """(c+, c-) of the regular solution beyond the last step, absolute convention."""
    if breakpoints:
        (cp, cm), x = _chi_amplitudes(ks, breakpoints, lib)[-1], breakpoints[-1]
    else:
        # sin(k r) = (exp(ikr) - exp(-ikr)) / 2i, anchored at the origin
        cp, cm, x = -0.5j, 0.5j, 0.0
    phase = lib.exp(1j * ks[-1] * x)
    return cp / phase, cm * phase


def chi_outer_amplitudes(p, e: complex) -> tuple[complex, complex]:
    """(c+, c-) of chi beyond the last step in the form c+ exp(ikr) + c- exp(-ikr).

    The kernel denominators are W(chi, omega_plus) = 2ik c- and
    W(chi, omega_minus) = -2ik c+, so c-(E) is the pole function whose zeros
    are the bound states and resonances.  For a square barrier (c+, c-) are
    the closed-form (c3, c4) of the regular solution, to rounding.
    """
    e = complex(e)
    ks = region_momenta(p, e)
    try:
        return _chi_outer(ks, p.breakpoints, cmath)
    except OverflowError as exc:
        raise _overflow(e) from exc


def chi_outer_amplitudes_array(p, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`chi_outer_amplitudes` over an array of energies.

    The same matching loop in numpy arithmetic, for the batched pole screen.
    Branch points are not checked here, and entries whose exponentials
    overflow come out non-finite instead of raising; callers mask both and
    run under ``np.errstate``.
    """
    roots = {v: _branch_sqrt_array(e - v) for v in set(p.heights)}
    return _chi_outer([roots[v] for v in p.heights], p.breakpoints, np)


def build_chi(p, e: complex) -> PiecewiseWave:
    """Regular solution: sin(k0 r) on the innermost region, propagated outward."""
    e = complex(e)
    ks = region_momenta(p, e)
    edges = (0.0,) + p.breakpoints + (np.inf,)
    regions = [Region(0.0, edges[1], ks[0], "sin", 1.0 + 0j)]
    if p.breakpoints:
        try:
            amps = _chi_amplitudes(ks, p.breakpoints, cmath)
        except OverflowError as exc:
            raise _overflow(e) from exc
        for j, (cp, cm) in enumerate(amps, start=1):
            regions.append(Region(edges[j], edges[j + 1], ks[j], "exp", cp, cm, ref=edges[j]))
    return PiecewiseWave(tuple(regions), p.breakpoints, p.heights, e, "chi")


def build_omega(p, e: complex, direction: str) -> PiecewiseWave:
    """Tail solution pinned to exp(+-i k r) beyond the last step, propagated inward."""
    if direction not in ("plus", "minus"):
        raise ContractError(f"direction must be 'plus' or 'minus', got {direction!r}")
    e = complex(e)
    ks = region_momenta(p, e)
    n = len(p.breakpoints)
    sign = 1.0 if direction == "plus" else -1.0
    edges = (0.0,) + p.breakpoints + (np.inf,)
    x_last = edges[n]
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
    return PiecewiseWave(tuple(regions), p.breakpoints, p.heights, e, f"omega_{direction}")


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
