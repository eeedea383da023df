"""Piecewise waves: how every wave of the engine is stored and evaluated.

Three solutions of the radial equation -w'' + V w = E w matter here:

* ``chi`` -- the regular solution, sin(sqrt(E) r) inside the first step and
  thus exactly zero at the origin;
* ``omega_plus`` -- the solution that is exactly exp(+i sqrt(E) r) beyond the
  last step (outgoing / decaying for Im E > 0);
* ``omega_minus`` -- the solution that is exactly exp(-i sqrt(E) r) there.

Each wave is a plane-wave pair per region, stored as a :class:`PiecewiseWave`;
the staircase engine in :mod:`sqgreen.piecewise` builds them.  The r-dependent
:func:`wronskian` reads two waves at one radius.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError

_TWO_I = 2j


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
