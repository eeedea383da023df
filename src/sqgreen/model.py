"""Potential description, complex energies and the branch of the square root.

Every momentum in this package is produced by :func:`branch_sqrt`, which maps
arg(z) from (-pi, pi] to (-pi/2, pi/2].  The negative real axis is included in
the domain and is sent to the positive imaginary axis, so energies just above
the cut and energies on the cut agree, while energies just below disagree:
that discontinuity *is* the resolvent cut.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def branch_sqrt(z: complex) -> complex:
    """Square root with arg(result) in (-pi/2, pi/2].

    The angle is computed explicitly and halved; the host language's default
    complex sqrt is never consulted, so negative real inputs (arg = pi) always
    come out on the positive imaginary axis regardless of the sign of a zero
    imaginary part.

    Raises
    ------
    DomainError
        If either part of ``z`` is NaN or infinite.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"branch_sqrt requires a finite argument, got {z!r}")
    if z.imag == 0.0:
        # exact axis cases; imag == 0.0 matches both +0.0 and -0.0
        if z.real < 0.0:
            return complex(0.0, math.sqrt(-z.real))
        return complex(math.sqrt(z.real), 0.0)
    theta = math.atan2(z.imag, z.real)
    rho = math.sqrt(abs(z))
    half = 0.5 * theta
    return complex(rho * math.cos(half), rho * math.sin(half))


def _branch_sqrt_array(z) -> np.ndarray:
    """:func:`branch_sqrt` over an array of finite complex numbers.

    On the real axis, for either sign of a zero imaginary part, every entry
    equals the scalar result bit for bit: the root is taken of the real part
    alone and the other part is exactly +0.0.  Off the axis the same halved
    angle is used, with numpy's transcendental functions.
    """
    z = np.asarray(z, dtype=complex)
    re, im = z.real, z.imag
    rho = np.sqrt(np.abs(z))
    half = 0.5 * np.arctan2(im, re)
    axis = im == 0.0
    neg = axis & (re < 0.0)
    root = np.sqrt(np.where(neg, -re, np.where(axis, re, 0.0)))
    out = np.empty(z.shape, dtype=complex)
    out.real = np.where(neg, 0.0, np.where(axis, root, rho * np.cos(half)))
    out.imag = np.where(neg, root, np.where(axis, 0.0, rho * np.sin(half)))
    return out


def staircase_value(p, r: float) -> float:
    """V(r) of a potential from its ``breakpoints`` and ``heights``; right limits at the jumps."""
    if not 0.0 <= r < math.inf:
        raise DomainError(f"radius must be finite and nonnegative, got {r}")
    return p.heights[bisect.bisect_right(p.breakpoints, r)]


@dataclass(frozen=True)
class SquareBarrier:
    """Square barrier of height ``v0`` on the shell a < r < b (well if v0 < 0)."""

    v0: float
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.v0) and math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("barrier parameters must be finite")
        if not 0.0 < self.a < self.b:
            raise DomainError(f"need 0 < a < b, got a={self.a}, b={self.b}")

    @property
    def breakpoints(self) -> tuple[float, float]:
        return (self.a, self.b)

    @property
    def heights(self) -> tuple[float, float, float]:
        return (0.0, self.v0, 0.0)

    value_at = staircase_value


def momenta(p: SquareBarrier, e: complex) -> tuple[complex, complex]:
    """The exterior and interior momenta (sqrt(E), sqrt(E - v0)) of an energy.

    Both roots are taken with :func:`branch_sqrt`, so for real E below the
    barrier top the interior momentum is +i*sqrt(v0 - E).
    """
    e = complex(e)
    if not cmath.isfinite(e):
        raise DomainError(f"energy must be finite, got {e!r}")
    return branch_sqrt(e), branch_sqrt(e - p.v0)
