"""The staircase potential, its region momenta, the branch of the square root
and the readers of every argument of the package's entry points.

A :class:`PiecewisePotential` is the one description of a potential; a
:class:`SquareBarrier` is the staircase (0, v0, 0) on the breakpoints (a, b).

Every momentum in this package is produced by :func:`branch_sqrt`, the root of
``cmath.sqrt`` with arg in (-pi/2, pi/2].  The negative real axis, for either
sign of a zero imaginary part, is sent to the positive imaginary axis, so
energies just above the cut and energies on the cut agree, while energies just
below disagree: that discontinuity *is* the resolvent cut.  Each reader
applies one rule and raises the one class of :mod:`sqgreen.errors` it names.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchPointError, ContractError, DomainError, EPS_BRANCH


def branch_sqrt(z: complex) -> complex:
    """Square root with arg(result) in (-pi/2, pi/2].

    Off the real axis this is ``cmath.sqrt``.  On it the root is taken of the
    real part alone, so a negative real input always comes out on the positive
    imaginary axis, where ``cmath.sqrt`` follows the sign of a zero imaginary part.

    Raises
    ------
    DomainError
        If ``z`` is not a number, or either part of it is NaN or infinite.
    """
    try:  # inline, not through complex_energy: region_momenta calls this once per region
        z = complex(z)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"the argument of branch_sqrt must be a number, got {z!r}") from None
    if not cmath.isfinite(z):
        raise DomainError(f"branch_sqrt requires a finite argument, got {z!r}")
    if z.imag == 0.0:
        # exact axis cases; imag == 0.0 matches both +0.0 and -0.0
        if z.real < 0.0:
            return complex(0.0, math.sqrt(-z.real))
        return complex(math.sqrt(z.real), 0.0)
    return cmath.sqrt(z)


def _branch_sqrt_array(z) -> np.ndarray:
    """:func:`branch_sqrt` over an array of finite complex numbers.

    Off the real axis this is ``np.sqrt``.  The axis entries, if there are any,
    are then patched to the scalar result bit for bit, for either sign of a zero
    imaginary part: the root of the real part alone, the other part exactly +0.0.
    """
    z = np.asarray(z, dtype=complex)
    out = np.sqrt(z, out=np.empty_like(z))  # an array, for a 0-d z too
    axis = z.imag == 0.0
    if axis.any():
        x = z.real[axis]
        neg = x < 0.0
        root = np.sqrt(np.where(neg, -x, x))  # sqrt(-0.0) is -0.0, as in branch_sqrt
        out.real[axis] = np.where(neg, 0.0, root)
        out.imag[axis] = np.where(neg, root, 0.0)
    return out


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
        try:
            bps = tuple(real_number(x, "breakpoints", 0.0) for x in self.breakpoints)
            hts = tuple(real_number(v, "heights") for v in self.heights)
        except TypeError:  # from iter(): a bare number, not a sequence
            raise DomainError("breakpoints and heights must be sequences of numbers") from None
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "heights", hts)
        if len(hts) != len(bps) + 1:
            raise DomainError("need exactly one more height than breakpoints")
        if any(x2 <= x1 for x1, x2 in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly ascending")
        if hts[-1] != 0.0:
            raise DomainError("the outermost height must be 0 (potential vanishes at infinity)")

    def value_at(self, r: float) -> float:
        """V(r), the right limit at a jump; :class:`DomainError` unless r is one radius."""
        (r,) = radii_floats(r)
        return self.heights[bisect.bisect_right(self.breakpoints, r)]


class SquareBarrier(PiecewisePotential):
    """Square barrier of height ``v0`` on the shell a < r < b (well if v0 < 0)."""

    v0 = property(lambda self: self.heights[1])
    a = property(lambda self: self.breakpoints[0])
    b = property(lambda self: self.breakpoints[1])

    def __init__(self, v0: float, a: float, b: float):
        super().__init__((a, b), (0.0, v0, 0.0))


def real_energy(e, what: str) -> float:
    """``e`` as a float for ``what``, an operation on the positive real axis.

    Raises :class:`DomainError` unless ``e`` is real (a complex number with a
    zero imaginary part counts), finite and positive; whatever ``complex``
    cannot read, such as the string "x", is refused too.
    """
    try:
        z = complex(e)
    except (TypeError, ValueError, OverflowError):
        z = complex(math.nan)
    if z.imag != 0.0 or not (math.isfinite(z.real) and z.real > 0.0):
        raise DomainError(f"{what} runs at real E > 0, got {e}")
    return z.real


def complex_energy(e, what: str = "the energy") -> complex:
    """``e`` as a complex; :class:`DomainError`, naming ``what``, if ``complex`` cannot read it."""
    try:
        return complex(e)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be a number, got {e!r}") from None


def off_axis_energy(e, what: str) -> complex:
    """:func:`complex_energy` of ``e``; :class:`ContractError`, naming ``what``, if Im E = 0."""
    e = complex_energy(e)
    if e.imag == 0.0:
        raise ContractError(f"{what} requires Im E != 0")
    return e


def real_array(x, what: str) -> np.ndarray:
    """``x``, a real number or an array of them, as a float array of its shape.

    Raises :class:`DomainError`, naming ``what``, for anything else: a
    complex number or a string is refused, not cast, and so is a ragged
    nesting of lists.
    """
    try:
        arr = np.asarray(x)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise DomainError(f"{what} must form a regular array, got {x!r}") from None
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{what} must be real numbers, got {arr.dtype} entries")
    return arr.astype(float, copy=False)


def radii_array(r) -> np.ndarray:
    """:func:`real_array` of radii; :class:`DomainError` unless each is finite and nonnegative."""
    arr = real_array(r, "radii")
    # NaN fails both comparisons
    if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
        raise DomainError("radii must be finite and nonnegative")
    return arr


def radii_floats(*radii) -> list[float]:
    """:func:`radii_array` of single radii, as floats; :class:`DomainError` unless each is one."""
    arr = radii_array(radii)
    if arr.shape != (len(radii),):
        raise DomainError(f"each radius must be one number, got {radii}")
    return arr.tolist()


def real_number(x, what: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``x`` as a float; :class:`DomainError`, naming ``what``, unless it is a finite real number in (lo, hi].

    A numeric string such as "5" is read, as ``float`` reads it; a complex
    number is refused, even one with a zero imaginary part, and not cast.
    """
    try:
        if type(x) in (float, int) or not np.iscomplexobj(x):
            v = float(x)
            if math.isfinite(v) and lo < v <= hi:
                return v
    except (TypeError, ValueError, OverflowError):
        pass
    bounds = (f" above {lo}" if lo > -math.inf else "") + (f" and at most {hi}" if hi < math.inf else "")
    raise DomainError(f"{what} must be a finite real number{bounds}, got {x!r}")


def nonzero_real(x, what: str) -> float:
    """:func:`real_number` of ``x``; :class:`DomainError`, naming ``what``, if it is 0."""
    v = real_number(x, what)
    if v == 0.0:
        raise DomainError(f"{what} must be a finite real number other than 0, got {x!r}")
    return v


#: the most steps of one RK4 run or Simpson grid; a finer step raises before anything is allocated
MAX_STEPS = 10**6


def step_count(count: float, what: str) -> None:
    """:class:`DomainError` if ``what``, a run or a grid, takes more than ``MAX_STEPS`` steps."""
    if not count <= MAX_STEPS:
        raise DomainError(f"{what} needs {count:.4g} steps, more than {MAX_STEPS}")


def search_box(box) -> tuple[float, float, float, float]:
    """``box`` as four floats (re_min, re_max, im_min, im_max); :class:`DomainError` for a bad box."""
    entries = real_array(box, "search box entries")
    if entries.shape != (4,):
        raise DomainError(f"search box must be four real numbers, got {box}")
    bounds = tuple(entries.tolist())
    re_min, re_max, im_min, im_max = bounds
    if not all(math.isfinite(x) for x in bounds):
        raise DomainError(f"search box entries must be finite, got {box}")
    if not (re_min < re_max and im_min < im_max):
        raise DomainError(f"degenerate search box {box}")
    return bounds


def choice(x, what: str, options: tuple[str, ...] = ("plus", "minus")) -> str:
    """``x``; :class:`ContractError`, naming ``what``, unless it is one of ``options``, directions by default."""
    if not (isinstance(x, str) and x in options):
        raise ContractError(f"{what} must be {' or '.join(map(repr, options))}, got {x!r}")
    return x


def of_type(x, cls: type = PiecewisePotential):
    """``x``; :class:`ContractError` unless it is a ``cls``, a potential by default."""
    if not isinstance(x, cls):
        raise ContractError(f"expected a {cls.__name__}, got {x!r}")
    return x


def same_problem(f, g) -> None:
    """:class:`ContractError` unless the waves ``f`` and ``g`` share a potential and an energy."""
    if (f.breakpoints, f.heights, f.energy) != (g.breakpoints, g.heights, g.energy):
        raise ContractError("waves belong to different problems")


def require_off_branch(p: PiecewisePotential, e: complex) -> None:
    """Raise :class:`BranchPointError` if ``e`` lies within ``EPS_BRANCH`` of a height."""
    for v in p.heights:
        if abs(e - v) < EPS_BRANCH:
            raise BranchPointError(f"energy {e} degenerates the region with height {v}")


def region_momenta(p: PiecewisePotential, e: complex) -> tuple[complex, ...]:
    """branch_sqrt(E - v_j) for every region, refusing degenerate regions.

    For real E below a step's height the momentum there is +i*sqrt(v_j - E).
    """
    e = complex_energy(e)
    require_off_branch(of_type(p), e)
    return tuple(branch_sqrt(e - v) for v in p.heights)


def region_momenta_array(p: PiecewisePotential, e: np.ndarray) -> list[np.ndarray]:
    """:func:`region_momenta` over an array of energies, one array per region.

    Branch points are not checked here; callers check the entries they keep
    with :func:`require_off_branch`.
    """
    roots = {v: _branch_sqrt_array(e - v) for v in set(p.heights)}
    return [roots[v] for v in p.heights]
