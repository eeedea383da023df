"""The wave engine: the basic waves of any finite staircase potential.

The regular solution is propagated outward from the origin and the
exponential-tail solutions inward from the last step.  One matching loop,
:func:`_sweep`, serves both directions: at every interface it solves the
value/derivative continuity pair, and on request it carries d/dE of that
pair alongside, which gives the pole function's exact derivative.  Region
amplitudes are stored relative to the region's own left edge so that
strongly evanescent segments never exponentiate an absolute position.

The engine reads only a potential's ``breakpoints`` and ``heights``, so a
:class:`~sqgreen.model.SquareBarrier` is just one more staircase to it.
"""

from __future__ import annotations

import cmath

import numpy as np

from .eigenfunctions import PiecewiseWave, Region, _overflow
from .model import choice, complex_energy, of_type, region_momenta, region_momenta_array, same_problem


def _amplitudes_at(value: complex, deriv: complex, k: complex) -> tuple[complex, complex]:
    """(c+, c-) relative to the evaluation point itself (ref = that point)."""
    slope = deriv / (1j * k)
    return 0.5 * (value + slope), 0.5 * (value - slope)


def _amplitude_tangent(dvalue, dderiv, cp, cm, k):
    """d/dE of the (c+, c-) that :func:`_amplitudes_at` reads off a fixed point.

    ``dvalue``/``dderiv`` are d/dE of the value and derivative there, and
    (c+, c-) the pair itself; the momentum moves by dk/dE = 1/(2k), so the
    slope deriv / (ik) moves by one extra term.
    """
    return _amplitudes_at(dvalue, dderiv - 0.5j / k * (cp - cm), k)


def _sweep(value, deriv, ks, widths, lib, tangent=None) -> tuple[list, object, object, object]:
    """Carry a wave's (value, derivative) across consecutive regions.

    Region j has momentum ``ks[j]`` and is crossed over the signed width
    ``widths[j]``: positive widths walk outward from each region's left edge,
    negative ones inward from its right edge.  Returns the (c+, c-) pair of
    every crossed region, relative to its left edge, the value and
    derivative where the sweep ends, and their d/dE.  ``lib`` is ``cmath``
    for one energy, where an overflow raises ``OverflowError``, or ``numpy``
    for arrays of momenta, where it leaves non-finite entries.

    ``tangent`` is d/dE of the seed (value, derivative).  Given, the sweep
    carries it alongside by the chain rule, each momentum moving by
    dk/dE = 1/(2k); without it the returned tangent is None and the sweep
    does no extra work.  Either way (value, derivative) take the same steps.
    """
    amps = []
    for k, w in zip(ks, widths):
        cp, cm = _amplitudes_at(value, deriv, k)
        grow, decay = lib.exp(1j * k * w), lib.exp(-1j * k * w)
        cp_far = cp * grow
        cm_far = cm * decay
        amps.append((cp, cm) if w > 0 else (cp_far, cm_far))
        if tangent is not None:
            dcp, dcm = _amplitude_tangent(*tangent, cp, cm, k)
            dik = 0.5j / k  # d(ik)/dE
            dcp_far = (dcp + dik * w * cp) * grow
            dcm_far = (dcm - dik * w * cm) * decay
            tangent = (dcp_far + dcm_far, dik * (cp_far - cm_far) + 1j * k * (dcp_far - dcm_far))
        value = cp_far + cm_far
        deriv = 1j * k * (cp_far - cm_far)
    return amps, value, deriv, tangent


def _chi_sweep(ks, breakpoints, lib, tangent: bool):
    """:func:`_sweep` of the regular solution from the first step to the last.

    The innermost region holds sin(k0 r), whose value and slope at the first
    step seed the sweep, with their d/dE when ``tangent`` is true.
    """
    x0, k0 = breakpoints[0], ks[0]
    sin0, cos0 = lib.sin(k0 * x0), lib.cos(k0 * x0)
    seed_tangent = None
    if tangent:
        dk0 = 0.5 / k0
        seed_tangent = (x0 * dk0 * cos0, dk0 * (cos0 - k0 * x0 * sin0))
    widths = [x2 - x1 for x1, x2 in zip(breakpoints, breakpoints[1:])]
    return _sweep(sin0, k0 * cos0, ks[1:-1], widths, lib, seed_tangent)


def _chi_amplitudes(ks, breakpoints, lib) -> list:
    """(c+, c-) of the regular solution in every region beyond the innermost one.

    Each pair is relative to its region's left edge.
    """
    amps, value, deriv, _ = _chi_sweep(ks, breakpoints, lib, False)
    amps.append(_amplitudes_at(value, deriv, ks[-1]))
    return amps


def _chi_outer(ks, breakpoints, lib, tangent: bool = False):
    """(c+, c-) of the regular solution beyond the last step, absolute convention.

    The third entry is dc-/dE when ``tangent`` is true, else None; (c+, c-)
    take the same steps either way.
    """
    k, dcm = ks[-1], None
    if breakpoints:
        _, value, deriv, dstate = _chi_sweep(ks, breakpoints, lib, tangent)
        (cp, cm), x = _amplitudes_at(value, deriv, k), breakpoints[-1]
        if tangent:
            dcm = _amplitude_tangent(*dstate, cp, cm, k)[1]
    else:
        # sin(k r) = (exp(ikr) - exp(-ikr)) / 2i, anchored at the origin
        cp, cm, x = -0.5j, 0.5j, 0.0
        if tangent:
            dcm = 0j
    phase = lib.exp(1j * k * x)
    if tangent:
        dcm = (dcm + 0.5j / k * x * cm) * phase
    return cp / phase, cm * phase, dcm


#: what the cmath sweep raises once amplitudes leave double precision: an overflow,
#: the "math domain error" of exp at an infinite argument, or a division by a
#: phase that underflowed to 0
_MATCH_FAILURES = (OverflowError, ValueError, ZeroDivisionError)


def _finite_amplitudes(amplitudes, e: complex):
    """``amplitudes``, or the overflow :class:`DomainError` if one is not finite (a silent NaN)."""
    if not all(cmath.isfinite(a) for a in amplitudes):
        raise _overflow(e)
    return amplitudes


def chi_outer_amplitudes(p, e: complex) -> tuple[complex, complex]:
    """(c+, c-) of chi beyond the last step in the form c+ exp(ikr) + c- exp(-ikr).

    The kernel denominators are W(chi, omega_plus) = 2ik c- and
    W(chi, omega_minus) = -2ik c+, so c-(E) is the pole function whose zeros
    are the bound states and resonances.  For a square barrier (c+, c-) are
    the closed-form (c3, c4) of the regular solution, to rounding.
    """
    e = complex_energy(e)
    ks = region_momenta(p, e)
    try:
        amplitudes = _chi_outer(ks, p.breakpoints, cmath)[:2]
    except _MATCH_FAILURES as exc:
        raise _overflow(e) from exc
    return _finite_amplitudes(amplitudes, e)


def pole_function_array(p, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pole function c-(E) and its derivative dc-/dE over an array of energies.

    One sweep carries d/dE alongside the matching, so Newton's method gets
    an exact derivative from one evaluation; carrying it never moves c-.
    Branch points are not checked here, and entries whose exponentials
    overflow come out non-finite instead of raising; callers mask both and
    run under ``np.errstate``.
    """
    return _chi_outer(region_momenta_array(p, e), p.breakpoints, np, True)[1:]


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
    amps, _, _, _ = _sweep(phase, sign * 1j * ks[-1] * phase, ks[-2::-1], widths, lib)
    outer = (phase, 0j) if direction == "plus" else (0j, phase)
    regions = [Region(k, "exp", cp, cm, ref=ref) for k, (cp, cm), ref in zip(ks, amps[::-1], edges)]
    regions.append(Region(ks[-1], "exp", *outer, ref=edges[-1]))
    return regions


def _wave(p, e: complex, regions_of, *args) -> PiecewiseWave:
    """The wave of ``regions_of(region_momenta(p, e), breakpoints, *args, cmath)``.

    Raises :class:`DomainError` where the matching fails or leaves an
    amplitude that is not finite, as the array sweeps' finite masks refuse it.
    """
    e = complex_energy(e)
    ks = region_momenta(p, e)
    try:
        regions = regions_of(ks, p.breakpoints, *args, cmath)
    except _MATCH_FAILURES as exc:
        raise _overflow(e) from exc
    _finite_amplitudes([a for reg in regions for a in (reg.c_plus, reg.c_minus)], e)
    return PiecewiseWave(tuple(regions), p.breakpoints, p.heights, e)


def build_chi(p, e: complex) -> PiecewiseWave:
    """Regular solution: sin(k0 r) on the innermost region, propagated outward."""
    return _wave(p, e, _chi_regions)


def build_omega(p, e: complex, direction: str) -> PiecewiseWave:
    """Tail solution pinned to exp(+-i k r) beyond the last step, propagated inward."""
    choice(direction, "direction")
    return _wave(p, e, _omega_regions, direction)


def outer_wronskian(f: PiecewiseWave, g: PiecewiseWave) -> complex:
    """Wronskian read off the plane-wave pairs of the outermost region.

    W(f, g) = 2 i k (c-_f c+_g - c+_f c-_g), independent of the shared
    reference point; this is the canonical r-free value used to normalize
    kernels built from engine waves.
    """
    same_problem(of_type(f, PiecewiseWave), of_type(g, PiecewiseWave))
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
