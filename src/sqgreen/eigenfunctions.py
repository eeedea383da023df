"""Piecewise waves, and the square-barrier closed forms that check the engine.

Three solutions of the radial equation -w'' + V w = E w matter here:

* ``chi`` -- the regular solution, sin(sqrt(E) r) inside the first step and
  thus exactly zero at the origin;
* ``omega_plus`` -- the solution that is exactly exp(+i sqrt(E) r) beyond the
  last step (outgoing / decaying for Im E > 0);
* ``omega_minus`` -- the solution that is exactly exp(-i sqrt(E) r) there.

Each wave is a plane-wave pair per region, stored as a :class:`PiecewiseWave`.
The staircase engine in :mod:`sqgreen.piecewise` builds the kernels' waves;
the square-barrier closed forms here are its oracle and share only
:mod:`sqgreen.model` with it, none of its matching.  Their amplitudes solve
the two 2x2 continuity systems at r = a and r = b by hand, and the expanded
products of those solves are kept alongside as an independent cross-check.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DomainError
from .model import SquareBarrier, branch_sqrt, region_momenta

_TWO_I = 2j


class CoefficientSet(NamedTuple):
    """Matching amplitudes (c1..c4) of one wave."""

    c1: complex
    c2: complex
    c3: complex
    c4: complex


@dataclass(frozen=True)
class Region:
    """One region of a piecewise wave.

    ``form == "exp"``: value = c_plus * exp(i k (r - ref)) + c_minus * exp(-i k (r - ref)).
    ``form == "sin"``: value = c_plus * sin(k r); used for the innermost region of
    the regular solution so that the origin value is exactly zero and small
    |k r| suffers no cancellation.
    """

    k: complex
    form: str
    c_plus: complex
    c_minus: complex = 0j
    ref: float = 0.0

    def value(self, r):
        if self.form == "sin":
            return self.c_plus * np.sin(self.k * np.asarray(r))
        x = np.asarray(r) - self.ref
        return self.c_plus * np.exp(1j * self.k * x) + self.c_minus * np.exp(-1j * self.k * x)

    def derivative(self, r):
        if self.form == "sin":
            return self.c_plus * self.k * np.cos(self.k * np.asarray(r))
        x = np.asarray(r) - self.ref
        return 1j * self.k * (
            self.c_plus * np.exp(1j * self.k * x) - self.c_minus * np.exp(-1j * self.k * x)
        )

    def plane_pair(self) -> tuple[complex, complex, float]:
        """Equivalent (c_plus, c_minus, ref) plane-wave representation."""
        if self.form == "sin":
            # sin(k r) = (exp(ikr) - exp(-ikr)) / 2i, anchored at ref = 0
            amp = self.c_plus
            return (amp / _TWO_I, -amp / _TWO_I, 0.0)
        return (self.c_plus, self.c_minus, self.ref)


@dataclass(frozen=True)
class PiecewiseWave:
    """A solution of the radial equation stored region by region.

    ``breakpoints``/``heights`` identify the potential the wave belongs to and
    ``energy`` its eigenvalue; the Wronskians refuse to combine waves that
    disagree on either.
    """

    regions: tuple[Region, ...]
    breakpoints: tuple[float, ...]
    heights: tuple[float, ...]
    energy: complex

    def _eval(self, r, side: str, what: str):
        if side not in ("+", "-"):
            raise ContractError(f"side must be '+' or '-', got {side!r}")
        if isinstance(r, (float, int)) and 0.0 <= r < math.inf:
            # a finite scalar: bisect picks the index searchsorted would, and
            # the region formula runs on a one-element array as below
            find = bisect_right if side == "+" else bisect_left
            reg = self.regions[find(self.breakpoints, r)]
            arr = np.array([r], dtype=float)
            return complex((reg.value(arr) if what == "value" else reg.derivative(arr))[0])
        arr = np.asarray(r, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if not np.all((arr >= 0.0) & (arr < np.inf)):
            raise DomainError("radius must be finite and nonnegative")
        idx = np.searchsorted(self.breakpoints, arr, side="right" if side == "+" else "left")
        out = np.empty(arr.shape, dtype=complex)
        for j, reg in enumerate(self.regions):
            mask = idx == j
            if not mask.any():
                continue
            piece = reg.value(arr[mask]) if what == "value" else reg.derivative(arr[mask])
            out[mask] = piece
        return complex(out[0]) if scalar else out

    def value(self, r, side: str = "+"):
        """Wave value at ``r`` (scalar or array); ``side`` picks the region at a breakpoint."""
        return self._eval(r, side, "value")

    def derivative(self, r, side: str = "+"):
        """Analytic derivative of the region formula; one-sided at breakpoints."""
        return self._eval(r, side, "deriv")


def _require_same_problem(f: PiecewiseWave, g: PiecewiseWave) -> None:
    """Refuse two waves of different potentials or energies: their Wronskian means nothing."""
    if (f.breakpoints, f.heights, f.energy) != (g.breakpoints, g.heights, g.energy):
        raise ContractError("waves belong to different problems")


def wronskian(f: PiecewiseWave, g: PiecewiseWave, r: float) -> complex:
    """f(r) g'(r) - f'(r) g(r); constant in r for two solutions at one energy."""
    _require_same_problem(f, g)
    return f.value(r) * g.derivative(r) - f.derivative(r) * g.value(r)


def _overflow(e: complex) -> DomainError:
    return DomainError(f"wave amplitudes at E={e} overflow double precision")


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
