"""The square-barrier closed forms: the oracle the acceptance tests read.

The amplitudes of chi and omega+- on a :class:`~sqgreen.model.SquareBarrier`
solve the two 2x2 continuity systems at r = a and r = b by hand, and the
expanded products of those solves are kept alongside as an independent
transcription check.  They share only :mod:`sqgreen.model` and the wave
storage of :mod:`sqgreen.eigenfunctions` with the engine in
:mod:`sqgreen.piecewise`, none of its matching.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

from sqgreen.eigenfunctions import PiecewiseWave, Region, _overflow
from sqgreen.errors import ContractError
from sqgreen.model import SquareBarrier, branch_sqrt, region_momenta

_TWO_I = 2j


class CoefficientSet(NamedTuple):
    """Matching amplitudes (c1..c4) of one wave."""

    c1: complex
    c2: complex
    c3: complex
    c4: complex


def _match_plane(value: complex, deriv: complex, k: complex, x: float) -> tuple[complex, complex]:
    """Coefficients (c+, c-) of c+ e^{ikr} + c- e^{-ikr} hitting (value, deriv) at r=x."""
    slope = deriv / (1j * k)
    c_plus = 0.5 * (value + slope) * cmath.exp(-1j * k * x)
    c_minus = 0.5 * (value - slope) * cmath.exp(1j * k * x)
    return c_plus, c_minus


def chi_coefficients(p: SquareBarrier, e: complex) -> CoefficientSet:
    """Amplitudes of the regular solution beyond r = a, from the continuity solves.

    c1, c2 multiply exp(+-i q r) on (a, b) and c3, c4 multiply exp(+-i k r)
    beyond b, with k = sqrt(E) and q = sqrt(E - v0).
    """
    e = complex(e)
    k, q, _ = region_momenta(p, e)
    try:
        va = cmath.sin(k * p.a)
        da = k * cmath.cos(k * p.a)
        c1, c2 = _match_plane(va, da, q, p.a)
        eb = cmath.exp(1j * q * p.b)
        emb = cmath.exp(-1j * q * p.b)
        vb = c1 * eb + c2 * emb
        db = 1j * q * (c1 * eb - c2 * emb)
        c3, c4 = _match_plane(vb, db, k, p.b)
    except OverflowError as exc:
        raise _overflow(e) from exc
    return CoefficientSet(c1, c2, c3, c4)


def _omega_coefficients(p: SquareBarrier, e: complex, sign: float) -> CoefficientSet:
    """Amplitudes of the wave pinned to exp(sign * i k r) beyond b, matched inward."""
    e = complex(e)
    k, q, _ = region_momenta(p, e)
    try:
        vb = cmath.exp(sign * 1j * k * p.b)
        db = sign * 1j * k * vb
        c3, c4 = _match_plane(vb, db, q, p.b)
        ea = cmath.exp(1j * q * p.a)
        ema = cmath.exp(-1j * q * p.a)
        va = c3 * ea + c4 * ema
        da = 1j * q * (c3 * ea - c4 * ema)
        c1, c2 = _match_plane(va, da, k, p.a)
    except OverflowError as exc:
        raise _overflow(e) from exc
    return CoefficientSet(c1, c2, c3, c4)


def omega_plus_coefficients(p: SquareBarrier, e: complex) -> CoefficientSet:
    """Amplitudes of the wave pinned to exp(+i k r) beyond b, matched inward."""
    return _omega_coefficients(p, e, 1.0)


def omega_minus_coefficients(p: SquareBarrier, e: complex) -> CoefficientSet:
    """Amplitudes of the wave pinned to exp(-i k r) beyond b, matched inward."""
    return _omega_coefficients(p, e, -1.0)


def chi_wave(p: SquareBarrier, e: complex) -> PiecewiseWave:
    """The regular solution: sin(k r) on (0, a), matched outward."""
    e = complex(e)
    k, q, _ = region_momenta(p, e)
    cs = chi_coefficients(p, e)
    regions = (
        Region(k, "sin", 1.0 + 0j),
        Region(q, "exp", cs.c1, cs.c2),
        Region(k, "exp", cs.c3, cs.c4),
    )
    return PiecewiseWave(regions, p.breakpoints, p.heights, e)


def omega_wave(p: SquareBarrier, e: complex, direction: str) -> PiecewiseWave:
    """The wave with pure exp(+-i k r) behaviour beyond the barrier."""
    e = complex(e)
    k, q, _ = region_momenta(p, e)
    if direction == "plus":
        cs = omega_plus_coefficients(p, e)
        outer = Region(k, "exp", 1.0 + 0j, 0j)
    elif direction == "minus":
        cs = omega_minus_coefficients(p, e)
        outer = Region(k, "exp", 0j, 1.0 + 0j)
    else:
        raise ContractError(f"direction must be 'plus' or 'minus', got {direction!r}")
    regions = (Region(k, "exp", cs.c1, cs.c2), Region(q, "exp", cs.c3, cs.c4), outer)
    return PiecewiseWave(regions, p.breakpoints, p.heights, e)


def wronskian_closed_form(p: SquareBarrier, e: complex, which: str) -> complex:
    """W(chi, omega_plus) = 2 i sqrt(E) c4(J); W(chi, omega_minus) = -2 i sqrt(E) c3(J)."""
    e = complex(e)
    cs = chi_coefficients(p, e)
    k = branch_sqrt(e)
    if which == "plus":
        return _TWO_I * k * cs.c4
    if which == "minus":
        return -_TWO_I * k * cs.c3
    raise ContractError(f"which must be 'plus' or 'minus', got {which!r}")


def kernel_closed_form(p: SquareBarrier, e: complex, r: float, s: float, direction: str) -> complex:
    """chi(r<) omega(r>) / W from the closed forms alone: the oracle for the engine's kernels."""
    lo, hi = min(r, s), max(r, s)
    chi, om = chi_wave(p, e), omega_wave(p, e, direction)
    return chi.value(lo) * om.value(hi) / wronskian_closed_form(p, e, direction)


# ---------------------------------------------------------------------------
# Expanded closed forms.  These are the continuity solves carried out
# symbolically and written as nested products; they must agree with the
# solve-based coefficients to near machine precision and serve as an
# independent transcription check.
# ---------------------------------------------------------------------------

def chi_coefficients_expanded(p: SquareBarrier, e: complex) -> CoefficientSet:
    e = complex(e)
    k, q, _ = region_momenta(p, e)
    a, b = p.a, p.b
    c1 = 0.5 * cmath.exp(-1j * q * a) * (cmath.sin(k * a) + (k / (1j * q)) * cmath.cos(k * a))
    c2 = 0.5 * cmath.exp(1j * q * a) * (cmath.sin(k * a) - (k / (1j * q)) * cmath.cos(k * a))
    c3 = 0.5 * cmath.exp(-1j * k * b) * (
        (1 + q / k) * cmath.exp(1j * q * b) * c1 + (1 - q / k) * cmath.exp(-1j * q * b) * c2
    )
    c4 = 0.5 * cmath.exp(1j * k * b) * (
        (1 - q / k) * cmath.exp(1j * q * b) * c1 + (1 + q / k) * cmath.exp(-1j * q * b) * c2
    )
    return CoefficientSet(c1, c2, c3, c4)


def _omega_coefficients_expanded(p: SquareBarrier, e: complex, sign: float) -> CoefficientSet:
    e = complex(e)
    k, q, _ = region_momenta(p, e)
    a, b = p.a, p.b
    c3 = 0.5 * cmath.exp(-1j * q * b) * (1 + sign * k / q) * cmath.exp(sign * 1j * k * b)
    c4 = 0.5 * cmath.exp(1j * q * b) * (1 - sign * k / q) * cmath.exp(sign * 1j * k * b)
    c1 = 0.5 * cmath.exp(-1j * k * a) * (
        (1 + q / k) * cmath.exp(1j * q * a) * c3 + (1 - q / k) * cmath.exp(-1j * q * a) * c4
    )
    c2 = 0.5 * cmath.exp(1j * k * a) * (
        (1 - q / k) * cmath.exp(1j * q * a) * c3 + (1 + q / k) * cmath.exp(-1j * q * a) * c4
    )
    return CoefficientSet(c1, c2, c3, c4)


def omega_plus_coefficients_expanded(p: SquareBarrier, e: complex) -> CoefficientSet:
    return _omega_coefficients_expanded(p, e, 1.0)


def omega_minus_coefficients_expanded(p: SquareBarrier, e: complex) -> CoefficientSet:
    return _omega_coefficients_expanded(p, e, -1.0)
