"""Piecewise waves: how every wave of the engine is stored and evaluated.

Three solutions of the radial equation -w'' + V w = E w matter here:

* ``chi`` -- the regular solution, sin(sqrt(E) r) inside the first step and
  thus exactly zero at the origin;
* ``omega_plus`` -- the solution that is exactly exp(+i sqrt(E) r) beyond the
  last step (outgoing / decaying for Im E > 0);
* ``omega_minus`` -- the solution that is exactly exp(-i sqrt(E) r) there.

Each wave is a plane-wave pair per region, stored as a :class:`PiecewiseWave`;
the staircase engine in :mod:`sqgreen.piecewise` builds them.  The r-dependent
:func:`wronskian` reads two waves at one radius or at an array of radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .model import of_type, radii_array, same_problem

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

    A radius or an array of radii is evaluated in one pass: each radius's
    region comes from ``searchsorted``, the plane-wave formula from per-wave
    tables (:attr:`_tables`), and the ``sin`` region's points are overwritten
    by its own formula, so every point takes its :class:`Region`'s formula
    bit for bit.  A scalar radius is a one-element array and comes back as a
    Python complex.
    """

    regions: tuple[Region, ...]
    breakpoints: tuple[float, ...]
    heights: tuple[float, ...]
    energy: complex

    @cached_property
    def _tables(self):
        """(breakpoints, constants, sin region): the lookup tables of :meth:`_evaluate`.

        ``constants`` has the rows i k, -i k, c+, c- and ref and one column
        per region, each formed from the region's scalars as :class:`Region`
        forms it (ref is real).  The ``sin`` region, if the wave has one
        (else its index is -1), is evaluated by :class:`Region` itself.  Its
        column holds zeros, so the plane-wave formula gives exactly 0 there
        and cannot overflow before the ``sin`` formula overwrites it.
        """
        columns, sin = [], -1
        for j, reg in enumerate(self.regions):
            if reg.form == "sin":
                sin, reg = j, Region(0j, "exp", 0j)
            columns += (1j * reg.k, -1j * reg.k, reg.c_plus, reg.c_minus, reg.ref)
        constants = np.array(columns, dtype=complex).reshape(-1, 5).T
        return np.array(self.breakpoints, dtype=float), constants, sin

    def _evaluate(self, r, both_sides: bool, derivative: bool) -> tuple:
        """Values, and derivatives if asked, at the radii ``r``.

        A radius on a breakpoint takes the region to its right, or with
        ``both_sides`` first the region to its left and then the one to its
        right.  Returns one value array per side, then one derivative array
        per side, each of the shape of ``r``; a scalar ``r`` gives Python
        complexes instead.  Raises :class:`DomainError` where an entry is not
        finite.
        """
        arr = radii_array(r)
        shape = arr.shape
        x = arr = arr.ravel()
        edges, constants, sin = self._tables
        idx = edges.searchsorted(arr, "right")
        if both_sides:
            x = np.concatenate((arr, arr))
            idx = np.concatenate((edges.searchsorted(arr, "left"), idx))
        with np.errstate(all="ignore"):
            out = _plane_waves(constants, idx, x, derivative)
            if sin >= 0:  # only the regular solution has one; its points take their Region's formula
                inner, reg = idx == sin, self.regions[sin]
                xs = x[inner]
                out[0][inner] = reg.value(xs)
                if derivative:
                    out[1][inner] = reg.derivative(xs)
        _require_finite(all(np.isfinite(whole).all() for whole in out), self.energy)
        if both_sides:
            n = arr.size
            out = [half for whole in out for half in (whole[:n], whole[n:])]
        if not shape:
            return tuple([whole.item(0) for whole in out])
        return tuple([whole.reshape(shape) for whole in out])

    def value(self, r):
        """Wave value at ``r`` (scalar or array); at a breakpoint, the right limit."""
        return self._evaluate(r, False, False)[0]

    def value_and_derivative(self, r):
        """(value, derivative) at ``r`` from one evaluation; at a breakpoint, the right limits."""
        return self._evaluate(r, False, True)

    def one_sided(self, r):
        """(value, derivative) at ``r`` from the left, then from the right, in one evaluation.

        Returns (value-, value+, derivative-, derivative+); at a breakpoint the
        two sides are the limits of the regions that meet there.
        """
        return self._evaluate(r, True, True)


def _plane_waves(constants, idx: np.ndarray, x: np.ndarray, derivative: bool) -> tuple:
    """The plane-wave formula of :class:`Region` at radii ``x`` in regions ``idx``.

    Returns (value,) or (value, derivative); the two share their
    exponentials.  Each product keeps the operand order of :class:`Region`.
    The rows are gathered two at a time and worked on in place, which keeps
    the peak memory near that of the region formula itself.
    """
    # rows c+ exp(i k (r - ref)) and c- exp(-i k (r - ref))
    waves = constants[:2].take(idx, axis=1)
    np.multiply(waves, x - constants[4].real.take(idx), out=waves)
    np.exp(waves, out=waves)
    np.multiply(constants[2:4].take(idx, axis=1), waves, out=waves)
    value = waves[0] + waves[1]
    if not derivative:
        return (value,)
    # numpy rounds a product written in place over one element apart from the
    # same product out of place (at any length, out-of-place +, *, / and exp
    # round alike), so this one gets its own output
    return value, constants[0].take(idx) * (waves[0] - waves[1])


def wronskian(f: PiecewiseWave, g: PiecewiseWave, r):
    """f(r) g'(r) - f'(r) g(r); constant in r for two solutions at one energy.

    ``r`` is a radius, giving a complex, or an array of radii, giving an
    array.  Each wave is evaluated once and the Wronskian is formed once, in
    numpy; a radius is the single entry of a one-radius array.
    """
    same_problem(of_type(f, PiecewiseWave), of_type(g, PiecewiseWave))
    radii = radii_array(r)
    fv, fd = f.value_and_derivative(radii.ravel())
    gv, gd = g.value_and_derivative(radii.ravel())
    out = (fv * gd - fd * gv).reshape(radii.shape)
    return out if out.ndim else out.item()


def _require_finite(finite: bool, e: complex) -> None:
    """The :class:`DomainError` of wave or kernel values that are not finite."""
    if not finite:
        raise DomainError(f"values at E={e} are not finite: a wave overflows at these radii")


def _overflow(e: complex) -> DomainError:
    return DomainError(f"wave amplitudes at E={e} overflow double precision")
