"""The wave engine: the basic waves of any finite staircase potential.

The regular solution is propagated outward from the origin and the
exponential-tail solutions inward from the last step.  One matching loop,
:func:`_sweep`, serves both directions: at every interface it solves the
value/derivative continuity pair.  Region amplitudes are stored relative to
the region's own left edge so that strongly evanescent segments never
exponentiate an absolute position.

The engine reads only a potential's ``breakpoints`` and ``heights``, so a
:class:`~sqgreen.model.SquareBarrier` is just one more staircase to it.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import ContractError
from .eigenfunctions import PiecewiseWave, Region, _overflow, _require_same_problem
from .model import region_momenta, region_momenta_array


def _amplitudes_at(value: complex, deriv: complex, k: complex) -> tuple[complex, complex]:
    """(c+, c-) relative to the evaluation point itself (ref = that point)."""
    slope = deriv / (1j * k)
    return 0.5 * (value + slope), 0.5 * (value - slope)


def _sweep(value, deriv, ks, widths, lib) -> tuple[list, object, object]:
    """Carry a wave's (value, derivative) across consecutive regions.

    Region j has momentum ``ks[j]`` and is crossed over the signed width
    ``widths[j]``: positive widths walk outward from each region's left edge,
    negative ones inward from its right edge.  Returns the (c+, c-) pair of
    every crossed region, relative to its left edge, and the value and
    derivative where the sweep ends.  ``lib`` is ``cmath`` for one energy,
    where an overflow raises ``OverflowError``, or ``numpy`` for arrays of
    momenta, where it leaves non-finite entries.
    """
    amps = []
    for k, w in zip(ks, widths):
        cp, cm = _amplitudes_at(value, deriv, k)
        cp_far = cp * lib.exp(1j * k * w)
        cm_far = cm * lib.exp(-1j * k * w)
        amps.append((cp, cm) if w > 0 else (cp_far, cm_far))
        value = cp_far + cm_far
        deriv = 1j * k * (cp_far - cm_far)
    return amps, value, deriv


def _chi_amplitudes(ks, breakpoints, lib) -> list:
    """(c+, c-) of the regular solution in every region beyond the innermost one.

    Each pair is relative to its region's left edge; the innermost region
    holds sin(k0 r), whose value and slope at the first step seed the sweep.
    """
    x0 = breakpoints[0]
    widths = [x2 - x1 for x1, x2 in zip(breakpoints, breakpoints[1:])]
    amps, value, deriv = _sweep(
        lib.sin(ks[0] * x0), ks[0] * lib.cos(ks[0] * x0), ks[1:-1], widths, lib
    )
    amps.append(_amplitudes_at(value, deriv, ks[-1]))
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
    return _chi_outer(region_momenta_array(p, e), p.breakpoints, np)


def _chi_regions(ks, breakpoints, lib) -> list[Region]:
    """The regions of the regular solution: sin(k0 r) innermost, matched outward.

    ``ks`` and ``lib`` are as in :func:`_sweep`: one energy's momenta with
    ``cmath``, or arrays of momenta with ``numpy``, whose regions then hold
    arrays.
    """
    regions = [Region(ks[0], "sin", 1.0 + 0j)]
    if breakpoints:
        amps = _chi_amplitudes(ks, breakpoints, lib)
        for k, (cp, cm), ref in zip(ks[1:], amps, breakpoints):
            regions.append(Region(k, "exp", cp, cm, ref=ref))
    return regions


def _omega_regions(ks, breakpoints, direction: str, lib) -> list[Region]:
    """The regions of the tail solution exp(+-i k r) beyond the last step, matched inward.

    ``ks`` and ``lib`` are as in :func:`_chi_regions`; ``direction`` is
    "plus" or "minus".
    """
    sign = 1.0 if direction == "plus" else -1.0
    edges = (0.0,) + breakpoints
    widths = [lo - hi for lo, hi in zip(edges, edges[1:])][::-1]
    phase = lib.exp(sign * 1j * ks[-1] * edges[-1])
    amps, _, _ = _sweep(phase, sign * 1j * ks[-1] * phase, ks[-2::-1], widths, lib)
    outer = (phase, 0j) if direction == "plus" else (0j, phase)
    regions = [Region(k, "exp", cp, cm, ref=ref) for k, (cp, cm), ref in zip(ks, amps[::-1], edges)]
    regions.append(Region(ks[-1], "exp", *outer, ref=edges[-1]))
    return regions


def build_chi(p, e: complex) -> PiecewiseWave:
    """Regular solution: sin(k0 r) on the innermost region, propagated outward."""
    e = complex(e)
    ks = region_momenta(p, e)
    try:
        regions = _chi_regions(ks, p.breakpoints, cmath)
    except OverflowError as exc:
        raise _overflow(e) from exc
    return PiecewiseWave(tuple(regions), p.breakpoints, p.heights, e)


def build_omega(p, e: complex, direction: str) -> PiecewiseWave:
    """Tail solution pinned to exp(+-i k r) beyond the last step, propagated inward."""
    if direction not in ("plus", "minus"):
        raise ContractError(f"direction must be 'plus' or 'minus', got {direction!r}")
    e = complex(e)
    ks = region_momenta(p, e)
    try:
        regions = _omega_regions(ks, p.breakpoints, direction, cmath)
    except OverflowError as exc:
        raise _overflow(e) from exc
    return PiecewiseWave(tuple(regions), p.breakpoints, p.heights, e)


def outer_wronskian(f: PiecewiseWave, g: PiecewiseWave) -> complex:
    """Wronskian read off the plane-wave pairs of the outermost region.

    W(f, g) = 2 i k (c-_f c+_g - c+_f c-_g), independent of the shared
    reference point; this is the canonical r-free value used to normalize
    kernels built from engine waves.
    """
    _require_same_problem(f, g)
    return _plane_wronskian(f.regions[-1], g.regions[-1])


def _plane_wronskian(f: Region, g: Region) -> complex:
    """W of two plane-wave regions of one momentum, 2 i k (c-_f c+_g - c+_f c-_g)."""
    cpf, cmf, rf = f.plane_pair()
    cpg, cmg, rg = g.plane_pair()
    k = f.k
    if rf != rg:
        shift = cmath.exp(1j * k * (rf - rg))
        cpg, cmg = cpg * shift, cmg / shift
    return 2j * k * (cmf * cpg - cpf * cmg)
