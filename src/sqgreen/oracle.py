"""Independent checks of the kernel construction.

Nothing in this module reuses the matching algebra: waves are re-derived by
the exact flow of each region (:func:`propagate`) and by fixed-step RK4
integration of the radial equation, solved in each region by powers of the
RK4 one-step matrix (:func:`rk4_step_matrix`), the operator is applied
by a central second difference, one-sided kernel derivatives come from
Richardson-extrapolated difference quotients of kernel *values*, and the
resolvent is rebuilt as an integral operator with composite Simpson panels
split at the diagonal.  The RK4 runs (:func:`rk4_runs`) and the Simpson and
finite-difference grids of ``verify`` step region by region.  Agreement of
these reconstructions with the kernels of matched waves is the package's
evidence that the construction is right.  A potential is read only through
its ``breakpoints`` and ``heights``.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .eigenfunctions import PiecewiseWave
from .errors import ContractError, DomainError
from .kernel import wave_pair
from .model import branch_sqrt, complex_energy, radii_floats, real_array, real_energy, real_number

#: Gaussian bumps count as supported within this many widths of the center.
GAUSSIAN_SUPPORT_WIDTHS = 5.5
#: past this many radians per step an RK4 step amplifies even an oscillating wave
RK4_STABILITY = 2.0**1.5
#: one Richardson derivative combines the difference quotients at h0 / 2^j for j below this
RICHARDSON_LEVELS = 5
#: the most steps of one RK4 run or Simpson grid; a finer step raises before anything is allocated
MAX_STEPS = 10**6
#: the inward RK4 run of the distributional check starts this far beyond the last breakpoint
TAIL_START = 5.0
#: the resolvent check sizes its steps for this residual, relative to max |f|
RESOLVENT_TARGET = 1e-5
#: the resolvent check's first pass advances a region's wave or the bump this many rad per step
COARSE_PHASE = 0.1
#: the fewest steps of one region of the resolvent check's grids, an odd count as all of them
MIN_REGION_STEPS = 17


@dataclass(frozen=True)
class TestFunction:
    """A smooth bump vanishing (to working precision) at the origin.

    kind = "gaussian_bump":            exp(-(r-c)^2 / (2 w^2))
    kind = "compact_polynomial_bump":  (1 - t^2)^4 on |t| < 1, t = (r-c)/w, else 0
    """

    __test__ = False  # not a pytest class, despite the name

    kind: str
    center: float
    width: float

    def __post_init__(self):
        if self.kind not in ("gaussian_bump", "compact_polynomial_bump"):
            raise DomainError(f"unknown test-function kind {self.kind!r}")
        for name in ("center", "width"):
            object.__setattr__(self, name, real_number(getattr(self, name), name))
        if not (math.isfinite(self.center) and math.isfinite(self.width)) or self.width <= 0.0:
            raise DomainError("center and width must be finite, width positive")
        lo = self.support[0]
        if lo <= 0.0:
            raise DomainError(
                f"support must sit inside (0, inf); got lower edge {lo} "
                f"(center too close to the origin for this width)"
            )

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == "gaussian_bump":
            half = GAUSSIAN_SUPPORT_WIDTHS * self.width
        else:
            half = self.width
        return (self.center - half, self.center + half)

    def _scaled(self, r) -> np.ndarray:
        """(r - center) / width, clipped where the bump and f'' reach 0; r must be finite."""
        r = real_array(r, "radii")
        if not np.isfinite(r).all():
            raise DomainError("radii must be finite")
        reach = (40.0 if self.kind == "gaussian_bump" else 1.0) * self.width
        return np.clip(r - self.center, -reach, reach) / self.width

    def __call__(self, r):
        t = self._scaled(r)
        if self.kind == "gaussian_bump":
            return np.exp(-0.5 * t * t)
        return (1.0 - t * t) ** 4

    def second_derivative(self, r):
        t = self._scaled(r)
        w2 = self.width * self.width
        if self.kind == "gaussian_bump":
            return (t * t - 1.0) / w2 * np.exp(-0.5 * t * t)
        core = 1.0 - t * t
        return 8.0 * core * core * (7.0 * t * t - 1.0) / w2


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one verification check.

    For composite checks the components carry their own tolerances and the
    top-level residual is the worst residual/tolerance ratio (tolerance 1.0),
    so the pass flag always equals max_residual <= tolerance.
    """

    name: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    excluded: int = 0
    components: tuple["ResidualReport", ...] = field(default=())

    @classmethod
    def build(cls, name, samples, max_residual, tolerance, excluded=0, components=()):
        return cls(
            name=name,
            samples=int(samples),
            max_residual=float(max_residual),
            tolerance=float(tolerance),
            passed=bool(max_residual <= tolerance),
            excluded=int(excluded),
            components=tuple(components),
        )

    @classmethod
    def combine(cls, name, components):
        components = tuple(components)
        worst = max(c.max_residual / c.tolerance for c in components)
        return cls.build(
            name,
            samples=sum(c.samples for c in components),
            max_residual=worst,
            tolerance=1.0,
            excluded=sum(c.excluded for c in components),
            components=components,
        )

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "samples": self.samples,
            "excluded": self.excluded,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.components:
            out["components"] = [c.to_dict() for c in self.components]
        return out


class Trajectory(NamedTuple):
    r: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray


def _require_step(step: float, name: str = "step") -> float:
    """``step`` as a float; :class:`ContractError` unless it is a finite, positive real number."""
    h = real_number(step, name, ContractError)
    if not 0.0 < h < math.inf:
        raise ContractError(f"{name} must be finite and positive, got {step}")
    return h


def _require_steps(count: float, step: float) -> None:
    """:class:`ContractError` if a grid of ``count`` steps of ``step`` exceeds ``MAX_STEPS``."""
    if not count <= MAX_STEPS:
        raise ContractError(f"a step of {step} needs {count:.4g} steps, more than {MAX_STEPS}")


def _aligned_steps(r_from: float, r_to: float, step: float, breakpoints) -> tuple[int, float]:
    step = _require_step(step)
    span = r_to - r_from
    _require_steps(abs(span) / step, step)
    n = int(round(abs(span) / step))
    if n < 1 or abs(n * step - abs(span)) > 1e-9 * max(step, abs(span)):
        raise ContractError(
            f"step {step} does not divide the interval [{r_from}, {r_to}]"
        )
    h = math.copysign(step, span)
    lo, hi = min(r_from, r_to), max(r_from, r_to)
    for bp in [x for x in breakpoints if lo < x < hi]:
        t = (bp - r_from) / h  # at most n, so finite
        if abs(t - round(t)) > 1e-9 * max(1.0, abs(t)):
            raise ContractError(f"breakpoint {bp} is not aligned with the integration grid")
    return n, h


def integrate_schrodinger(
    p,
    e: complex,
    y0: complex,
    dy0: complex,
    r_from: float,
    r_to: float,
    step: float,
) -> Trajectory:
    """Fixed-step RK4 integration of w'' = (V - E) w, forward or backward.

    The step must divide the interval and every breakpoint strictly inside it
    must land on a grid node, so no step straddles a potential jump; the
    potential of each step is read at the step midpoint.  Within a region
    the coefficient is constant, so one RK4 step is a fixed 2x2 matrix M
    (:func:`rk4_step_matrix`) and the region's states are the powers of M
    applied to its first state, filled by doubling: once the first b states
    are known, the next b are M^b times them.  Each region starts from the
    last state of the one before.  A step longer than ``RK4_STABILITY`` over
    the largest momentum of the regions the run crosses raises
    :class:`DomainError`: RK4 would grow even an oscillating wave to NaN.
    So does a start state that is not a number, a radius that is not a
    finite, nonnegative real number, and a trajectory that is not finite,
    such as an evanescent one grown past double precision.  A step that is
    not a finite, positive real number, or that needs more than
    ``MAX_STEPS`` steps, raises :class:`ContractError`.
    """
    e = complex_energy(e)
    y0, dy0 = complex_energy(y0, "the start state"), complex_energy(dy0, "the start state")
    r_from, r_to = radii_floats(r_from, r_to)
    n, h = _aligned_steps(r_from, r_to, step, p.breakpoints)
    lo, hi = min(r_from, r_to), max(r_from, r_to)
    crossed = p.heights[bisect_right(p.breakpoints, lo) : bisect_left(p.breakpoints, hi) + 1]
    phase = _momentum_scale(crossed, e) * step
    if phase > RK4_STABILITY:
        raise DomainError(
            f"a step of {step} advances the fastest wave at E={e} by {phase:.4g} rad, "
            f"past the {RK4_STABILITY:.4g} at which RK4 turns unstable"
        )

    r = r_from + h * np.arange(n + 1)
    mid = r_from + (np.arange(n) + 0.5) * h
    regions = np.searchsorted(p.breakpoints, mid, side="right")
    # the steps [a, b) of one region take state a to states a+1 .. b
    cuts = [0, *(np.flatnonzero(np.diff(regions)) + 1).tolist(), n]
    states = np.empty((2, n + 1), dtype=complex)
    states[:, 0] = y0, dy0
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(cuts, cuts[1:]):
            seg, size = states[:, a : b + 1], b + 1 - a
            power = rk4_step_matrix(p.heights[regions[a]] - e, h)
            done = 1
            while done < size:
                block = min(done, size - done)
                seg[:, done : done + block] = power @ seg[:, :block]
                done += block
                power = power @ power
    if not np.isfinite(states).all():
        raise DomainError(f"the RK4 trajectory at E={e} from r={r_from} to {r_to} is not finite")
    return Trajectory(r, states[0], states[1])


def rk4_step_matrix(c: complex, h: float) -> np.ndarray:
    """The 2x2 matrix of one RK4 step of (y, d)' = (d, c y), for a constant c.

    With constant coefficients RK4 is exactly the degree-4 Taylor polynomial
    sum (hA)^n / n!, n <= 4, of the flow, with A = [[0, 1], [c, 0]].  As A^2 = c I,
    that is [[a, b], [c b, a]] with x = c h^2, a = 1 + x/2 + x^2/24, b = h (1 + x/6).
    """
    x = c * h * h
    a, b = 1.0 + x / 2.0 + x * x / 24.0, h * (1.0 + x / 6.0)
    return np.array([[a, b], [c * b, a]], dtype=complex)


def propagate(p, e: complex, y: complex, dy: complex, r_from: float, r_to: float):
    """Carry (w, w') of w'' = (V - E) w from ``r_from`` to ``r_to`` exactly.

    Over a stretch of signed length d in a region of height v the flow is
    w -> cos(kd) w + sin(kd)/k w' and w' -> -k sin(kd) w + cos(kd) w', with
    k^2 = E - v.  The map is even in k, so no branch of the root is chosen,
    and no plane-wave amplitude is formed.  Raises :class:`DomainError` for
    a radius that is not a finite, nonnegative real number, or a state that
    is not a number or not finite.
    """
    e = complex_energy(e)
    y, dy = complex_energy(y, "the start state"), complex_energy(dy, "the start state")
    r_from, r_to = radii_floats(r_from, r_to)
    lo, hi = min(r_from, r_to), max(r_from, r_to)
    inside = sorted((x for x in p.breakpoints if lo < x < hi), reverse=r_to < r_from)
    cuts = [r_from, *inside, r_to]
    try:
        for x0, x1 in zip(cuts, cuts[1:]):
            d = x1 - x0
            k = cmath.sqrt(e - p.heights[bisect_right(p.breakpoints, 0.5 * (x0 + x1))])
            c, s = cmath.cos(k * d), cmath.sin(k * d)
            y, dy = c * y + (s / k if k else d) * dy, -k * s * y + c * dy
        finite = cmath.isfinite(y) and cmath.isfinite(dy)
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"the flow at E={e} from r={r_from} to {r_to} is not finite")
    return y, dy


def apply_hamiltonian_fd(
    r: np.ndarray,
    u: np.ndarray,
    p,
    step: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply -u'' + V u by a central second difference on a uniform grid.

    ``r`` ascends by ``step`` (by its first spacing if None), up to the
    rounding of its nodes.  Returns (hu, valid): ``valid`` is False at the
    two end nodes and wherever the stencil [r - h, r + h] has a breakpoint
    strictly inside it; callers keep those out of residual norms and report
    them.  A grid within one region, such as each grid of
    :func:`check_resolvent_identity`, so loses only its ends.  A step that is
    not a finite, positive real number, or a grid not uniform at it, raises
    :class:`ContractError`; radii that are not real numbers or values that
    are not numbers raise :class:`DomainError`.
    """
    r = real_array(r, "radii")
    try:
        u = np.asarray(u, dtype=complex)
    except (TypeError, ValueError):
        raise DomainError(f"values u must form a regular array of numbers, got {u!r}") from None
    if r.ndim != 1 or r.shape != u.shape or r.size < 3:
        raise ContractError("need matching 1-d arrays with at least 3 samples")
    steps = np.diff(r)
    h = _require_step(steps[0] if step is None else step)
    # each node of a uniform grid is rounded to a double
    if np.any(np.abs(steps - h) > 1e-9 * h + 2.0 * np.spacing(max(-r[0], r[-1]))):
        raise ContractError("grid must be uniform with the declared step")

    v = np.asarray(p.heights)[np.searchsorted(p.breakpoints, r, side="right")]
    hu = np.zeros_like(u, dtype=complex)
    hu[1:-1] = -(u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h) + v[1:-1] * u[1:-1]

    valid = np.ones(r.shape, dtype=bool)
    valid[0] = valid[-1] = False
    collar = h * (1.0 - 1e-6)
    for x in p.breakpoints:
        valid &= np.abs(r - x) >= collar
    return hu, valid


def _richardson_radii(x: float, side: int, h0: float) -> list[float]:
    """x and the radii x + side * h0 / 2^j that one :func:`_richardson` derivative needs."""
    return [x] + [x + side * (h0 * 0.5**j) for j in range(RICHARDSON_LEVELS)]


def _richardson(values: list[complex], side: int, h0: float) -> complex:
    """One-sided derivative from value differences, Richardson-extrapolated.

    ``values`` are the values at :func:`_richardson_radii` of (x, side, h0);
    ``side`` is +1 (right) or -1 (left).  The first-order quotients at
    h0 / 2^j are combined through a Neville table that cancels the h, h^2,
    ... error terms in turn.
    """
    gx = values[0]
    table = []
    for j in range(RICHARDSON_LEVELS):
        h = h0 * 0.5**j
        quot = side * (values[j + 1] - gx) / h
        row = [quot]
        for m in range(1, j + 1):
            factor = 2.0**m
            row.append((factor * row[m - 1] - table[j - 1][m - 1]) / (factor - 1.0))
        table.append(row)
    return table[-1][-1]


#: errors of at most eps in the values beside x move a :func:`_richardson` derivative by up to this * eps / h0
_RICHARDSON_GAIN = sum(abs(_richardson(list(unit), 1, 1.0)) for unit in np.eye(RICHARDSON_LEVELS + 1)[1:])


def _factor(wave: PiecewiseWave, r: np.ndarray, s: float, mask: np.ndarray) -> np.ndarray:
    """``wave`` at the radii of ``r`` under ``mask`` and its frozen value at s elsewhere, from one call."""
    v = wave.value(np.append(r[mask], s))
    out = np.full(r.shape, v[-1])
    out[mask] = v[:-1]
    return out


class _KernelSlice(NamedTuple):
    """The waves and Wronskian of G(., s) for a formal kernel at real E."""

    chi: PiecewiseWave
    om: PiecewiseWave
    w: complex

    def values(self, r, s: float) -> np.ndarray:
        """G(r, s) at the radii ``r``, from chi(min(r, s)) and omega(max(r, s)), one call per wave.

        Unscaled, this is a :func:`~sqgreen.kernel.kernel_grid` column.
        """
        r = np.asarray(r, dtype=float)
        below = r <= s
        return _factor(self.chi, r, s, below) * _factor(self.om, r, s, ~below) / self.w


def _require_scale(scale, error: type[Exception] = DomainError) -> float:
    """``scale`` as a float; ``error`` unless it is a finite, nonzero real number."""
    x = real_number(scale, "wronskian_scale", error)
    if not (math.isfinite(x) and x != 0.0):
        raise error(f"wronskian_scale must be finite and nonzero, got {x}")
    return x


def _kernel_slice(p, e: float, direction: str, wronskian_scale: float = 1.0) -> _KernelSlice:
    """G(., s) of a formal kernel at real E; the scale hooks the negative control.

    A ``wronskian_scale`` that is not a finite, nonzero real number raises
    :class:`DomainError` before any wave is built.
    """
    scale = _require_scale(wronskian_scale)
    chi, om, w = wave_pair(p, complex(float(e)), direction)
    return _KernelSlice(chi, om, w * scale)


def _momentum_scale(heights, e: complex) -> float:
    """Largest |sqrt(E - v)| over the region ``heights``; sets resolvable probe steps."""
    return max(abs(branch_sqrt(complex(e) - v)) for v in heights)


def check_jump(p, e: float, s: float, direction: str, wronskian_scale: float = 1.0) -> ResidualReport:
    """Measure the derivative jump of G(., s) across r = s; it must equal 1.

    The one-sided derivatives are Richardson extrapolations of plain
    difference quotients of kernel values, so this check is blind to how the
    waves compute their analytic derivatives.  Rounding the probes s +- h0 / 2^j
    to doubles, by at most u / 2 with u = ulp(s + h0), can move the jump by up
    to ``_RICHARDSON_GAIN`` (80.1) * u / h0 per unit slope of G; where that
    exceeds the 1e-6 tolerance (s = 1e9 at h0 = 1/6) it raises :class:`DomainError`.
    """
    e = real_energy(e, "the jump check")
    (s,) = radii_floats(s)
    kernel = _kernel_slice(p, e, direction, wronskian_scale)
    stencils = _jump_stencils(p, e, s)
    radii = [x for stencil in stencils for x in _richardson_radii(*stencil)]
    return _jump_report(*_derivatives(kernel.values(radii, s).tolist(), stencils))


def _jump_stencils(
    p, e: float, s: float, error: type[Exception] = ContractError
) -> tuple[tuple[float, int, float], ...]:
    """The (x, side, h0) of the right and left derivatives at r = s that :func:`check_jump` takes.

    ``error`` is raised for an s within 1e-3 of a breakpoint or the origin.
    """
    dist = min([abs(s - bp) for bp in p.breakpoints] + [s])
    if dist < 1e-3:
        raise error(f"s={s} is within 1e-3 of a potential breakpoint or the origin")
    # probes must resolve the fastest oscillation of the kernel
    h0 = min(dist, 2.0 / (1.0 + _momentum_scale(p.heights, e))) / 4.0
    if _RICHARDSON_GAIN * math.ulp(s + h0) / h0 > 1e-6:
        raise DomainError(f"s={s}: rounding its probes, {h0:.4g} apart, could move the jump by over 1e-6")
    return (s, +1, h0), (s, -1, h0)


def _derivatives(values: list[complex], stencils) -> list[complex]:
    """The :func:`_richardson` derivative of each (x, side, h0) stencil, in order.

    ``values`` starts with the values at each stencil's radii, in order;
    whatever follows them is ignored.
    """
    width = RICHARDSON_LEVELS + 1
    return [
        _richardson(values[i * width : (i + 1) * width], side, h0)
        for i, (_, side, h0) in enumerate(stencils)
    ]


def _jump_report(d_right: complex, d_left: complex) -> ResidualReport:
    return ResidualReport.build(
        "derivative_jump",
        samples=2 * RICHARDSON_LEVELS,
        max_residual=abs(d_right - d_left - 1.0),
        tolerance=1e-6,
    )


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Prefix integrals, along the last axis, of uniformly sampled y with O(h^4) accuracy at every node.

    Even prefixes use composite Simpson pairs; odd prefixes close with a
    3/8 panel over the last three intervals (the first interval alone uses
    the cubic through the leading four samples, whose error is O(h^5) like
    the panels').
    """
    if y.shape[-1] < 4:
        raise ContractError("cumulative Simpson needs at least 4 samples")
    out = np.zeros(y.shape, dtype=y.dtype)
    out[..., 2::2] = np.cumsum((h / 3.0) * (y[..., :-2:2] + 4.0 * y[..., 1:-1:2] + y[..., 2::2]), axis=-1)
    out[..., 1] = (h / 24.0) * (9.0 * y[..., 0] + 19.0 * y[..., 1] - 5.0 * y[..., 2] + y[..., 3])
    out[..., 3::2] = out[..., :-3:2] + (3.0 * h / 8.0) * (
        y[..., :-3:2] + 3.0 * y[..., 1:-2:2] + 3.0 * y[..., 2:-1:2] + y[..., 3::2]
    )
    return out


def check_resolvent_identity(
    p, e: complex, f: TestFunction, target: float = RESOLVENT_TARGET
) -> ResidualReport:
    """Rebuild (E - H)^{-1} f by quadrature and verify (E - h) u = f.

    u(r) = integral of G(r, s; E) f(s) ds is assembled from prefix/suffix
    Simpson integrals of chi*f and omega*f, which is composite Simpson with a
    panel boundary exactly at the kink s = r.  The finite-difference operator
    then has to return f.  The support of f is cut at the breakpoints, and
    each region has a uniform grid of its own, at least ``MIN_REGION_STEPS``
    steps, whose interior nodes are checked; the cuts are excluded.

    A first pass at ``COARSE_PHASE`` rad per step of the region's wave or of
    the bump measures each region's residual R, relative to max |f|.  Its
    difference and Simpson errors shrink at least as the step squared, so a
    region with R above ``target`` is run again at its step times
    sqrt(target / R), but never past the step at which the rounding of u,
    over the step squared, would reach ``target``.  A region too thin for
    ``MIN_REGION_STEPS`` such steps is integrated but not differenced, and
    its nodes count as excluded.  A target that is not finite and positive
    raises :class:`ContractError`; grids past ``MAX_STEPS`` steps raise
    :class:`DomainError` before they are allocated.
    """
    e = complex_energy(e)
    if e.imag == 0.0:
        raise ContractError("resolvent identity requires Im E != 0")
    target = _require_step(target, "target")
    lo, hi = f.support
    cuts = [lo, *(x for x in p.breakpoints if lo < x < hi), hi]
    widths = np.diff(cuts)
    rates = np.array([
        max(abs(e - p.heights[bisect_right(p.breakpoints, 0.5 * (x0 + x1))]) ** 0.5, 1.0 / f.width)
        for x0, x1 in zip(cuts, cuts[1:])
    ])
    counts = _region_steps(widths * rates / COARSE_PHASE, target)
    resid, size, inner, scale = _region_residuals(p, e, f, cuts, counts)
    # u carries a rounding of eps |size|, and rounding r by eps |r| moves it by
    # eps |size| |r| rate; the stencil turns a rounding nu into up to 2 nu / h^2
    noise = np.finfo(float).eps * size * (1.0 + np.abs(cuts[1:]) * rates)
    with np.errstate(divide="ignore"):
        most = widths * np.sqrt(target * scale / (2.0 * noise))
    kept = most >= MIN_REGION_STEPS
    if not kept.any():
        raise DomainError(f"the image of f at E={e} carries too much rounding to difference")
    refine = np.sqrt(resid / (target * scale))
    if (refine[kept] > 1.0).any():
        refined = np.maximum(np.minimum(refine * counts, most), counts)
        counts = _region_steps(np.where(kept, refined, counts), target)
        resid, _, inner, scale = _region_residuals(p, e, f, cuts, counts)
    samples = int(inner[kept].sum())
    return ResidualReport.build(
        "resolvent_identity",
        samples=samples,
        max_residual=resid[kept].max() / scale,
        tolerance=1e-4,
        excluded=sum(counts) + 1 - samples,
    )


def _region_steps(counts: np.ndarray, target: float) -> list[int]:
    """``counts`` rounded up to odd counts of at least ``MIN_REGION_STEPS``.

    In a region of an odd count the 3/8 closings of the prefix sums fall on
    the nodes where those of the suffix sums do not, and the leading
    alternating errors the two leave in u cancel.  Raises
    :class:`DomainError` past ``MAX_STEPS`` steps in all.
    """
    total = float(np.sum(counts))
    if not total <= MAX_STEPS:
        raise DomainError(
            f"the resolvent check at target {target} needs {total:.4g} steps, more than {MAX_STEPS}"
        )
    return [max(MIN_REGION_STEPS, math.ceil(n)) | 1 for n in counts.tolist()]


def _region_residuals(p, e: complex, f: TestFunction, cuts, counts):
    """Per region: max |(E - h) u - f|, max size of u's terms and interior nodes; and max |f|."""
    resid, size, inner, scale = [], [], [], 0.0
    image = _resolvent_image(p, e, f, cuts, counts)
    for (r, u, f_r, terms), x0, x1, n in zip(image, cuts, cuts[1:], counts):
        hu, valid = apply_hamiltonian_fd(r, u, p, (x1 - x0) / n)
        resid.append(float(np.abs(e * u - hu - f_r)[valid].max()))
        size.append(float(terms.max()))
        inner.append(int(np.count_nonzero(valid)))
        scale = max(scale, float(np.abs(f_r).max()))
    return np.array(resid), np.array(size), np.array(inner), scale


def _resolvent_image(p, e: complex, f: TestFunction, cuts, counts):
    """[(r_j, u_j, f_j, terms_j)]: the Simpson image u of f under the resolvent kernel, by region.

    Region j runs from cuts[j] to cuts[j + 1] in counts[j] steps, and its
    nodes include both ends.  u = (omega P + chi S) / W, with P the prefix
    integral of chi*f and S the suffix integral of omega*f, each summed from
    its own end so that neither is a difference of larger sums; terms_j is
    (|omega P| + |chi S|) / |W|, which bounds the rounding of u.
    """
    direction = "plus" if e.imag > 0.0 else "minus"
    chi, om, w = wave_pair(p, e, direction)
    grids = [np.linspace(x0, x1, n + 1) for x0, x1, n in zip(cuts, cuts[1:], counts)]
    ends = np.cumsum([0] + [n + 1 for n in counts]).tolist()
    regions = [slice(a, b) for a, b in zip(ends, ends[1:])]
    s = np.concatenate(grids)
    chi_s, om_s, f_s = chi.value(s), om.value(s), f(s)
    chi_f, om_f = chi_s * f_s, om_s * f_s
    # each region's prefix integrals of chi*f and, read backwards, suffix integrals of omega*f
    sums = [_cumulative_simpson(np.stack((chi_f[j], om_f[j][::-1])), (x1 - x0) / n)
            for j, x0, x1, n in zip(regions, cuts, cuts[1:], counts)]
    totals = np.array([part[:, -1] for part in sums])
    before = np.concatenate(([0.0], np.cumsum(totals[:-1, 0])))
    after = np.concatenate((np.cumsum(totals[:0:-1, 1])[::-1], [0.0]))
    image = []
    for r, j, part, b, a in zip(grids, regions, sums, before, after):
        left, right = om_s[j] * (b + part[0]), chi_s[j] * (a + part[1, ::-1])
        image.append((r, (left + right) / w, f_s[j], (np.abs(left) + np.abs(right)) / abs(w)))
    return image


def rk4_runs(p, e: float, s: float, error: type[Exception] = ContractError):
    """The RK4 runs of :func:`check_distributional_equation` to s, from 0 and from beyond V.

    Each run, from 0 or from ``TAIL_START`` past the last breakpoint (past 1
    without one), is (cuts, counts): it takes counts[j] steps from cuts[j] to
    cuts[j + 1], cut at s and at the breakpoints.  A region of width d and
    momentum k takes ceil(d max(|k|, 1) / theta) steps, with theta = 0.01 min(1,
    (300 / Phi)^(1/4)) for the run's phase Phi = sum d max(|k|, 1): RK4's error
    grows as Phi theta^4.  A run past ``MAX_STEPS`` steps raises ``error``.
    """
    r_out = (p.breakpoints[-1] if p.breakpoints else 1.0) + TAIL_START
    runs = []
    for r_from in (0.0, r_out):
        lo, hi = sorted((r_from, s))
        cuts = sorted({r_from, s, *(x for x in p.breakpoints if lo < x < hi)}, reverse=s < r_from)
        phases = [abs(x1 - x0) * max(abs(e - p.heights[bisect_right(p.breakpoints, (x0 + x1) / 2)]), 1.0)
                  ** 0.5 for x0, x1 in zip(cuts, cuts[1:])]
        per_rad = 100.0 * max(1.0, (sum(phases) / 300.0) ** 0.25)  # 1 / theta, inf at most
        if not per_rad * sum(phases) <= MAX_STEPS:
            raise error(f"the RK4 run from r={r_from} to s={s} at E={e} needs "
                        f"{per_rad * sum(phases):.4g} steps, more than {MAX_STEPS}")
        runs.append((cuts, [math.ceil(per_rad * x) for x in phases]))
    return runs


def _rk4_run(p, e: float, y: complex, dy: complex, cuts, counts) -> Trajectory:
    """One trajectory from (y, dy) at cuts[0], by counts[j] equal RK4 steps up to each cuts[j + 1]."""
    parts = [([cuts[0]], [y], [dy])]
    for x0, x1, n in zip(cuts, cuts[1:], counts):
        r, ys, dys = integrate_schrodinger(p, complex(e), y, dy, x0, x1, abs(x1 - x0) / n)
        y, dy = ys[-1], dys[-1]
        parts.append((r[1:], ys[1:], dys[1:]))
    return Trajectory(*map(np.concatenate, zip(*parts)))


def check_distributional_equation(
    p,
    e: float,
    s: float,
    direction: str,
    wronskian_scale: float = 1.0,
) -> ResidualReport:
    """Check that G(., s; E) solves the defining distributional equation.

    Components: the unit derivative jump at r = s, the off-diagonal radial
    equation (RK4 re-integration on both sides of s, seeded purely from
    kernel values and difference-quotient slopes), value/derivative
    continuity at the potential jumps, and kernel continuity across r = s
    (the gap must shrink linearly with the probe offset).  The RK4 runs step
    region by region (:func:`rk4_runs`), so s and the breakpoints may sit
    anywhere; a run past ``MAX_STEPS`` steps raises :class:`ContractError`
    before any wave is built.  A ``wronskian_scale`` so large that the kernel
    underflows to 0 beside s raises :class:`DomainError`.
    """
    return _distributional_reports(p, e, s, (direction,), wronskian_scale)[0]


def _distributional_reports(p, e: float, s: float, directions, wronskian_scale: float):
    """The :func:`check_distributional_equation` report of each direction, in order.

    The RK4 plan, the stencils and probe radii, and chi at the probes, at the
    left run's nodes and at the breakpoints below s are shared; each direction
    has its own omega, seeds, RK4 runs and report, bit for bit those of its own request.
    """
    e = real_energy(e, "the distributional check")
    (s,) = radii_floats(s)
    left, right = rk4_runs(p, e, s)
    r_out = right[0][0]

    kernels = [_kernel_slice(p, e, direction, wronskian_scale) for direction in directions]
    chi = kernels[0].chi
    probe_cap = 2.0 / (1.0 + _momentum_scale(p.heights, e))
    dist0 = min(s, min(p.breakpoints) if p.breakpoints else s)
    dist_s = min([abs(s - bp) for bp in p.breakpoints] + [s, 1.0, probe_cap])
    # every probe radius in one call, starting at s: the jump at s, the seed
    # slopes at 0 and r_out, the slopes beside the diagonal, the diagonal gaps
    # and the seed G(r_out, s)
    stencils = _jump_stencils(p, e, s) + (
        (0.0, +1, min(dist0, probe_cap) / 4.0),
        (r_out, -1, min(1.0, probe_cap) / 4.0),
        (s, +1, dist_s / 4.0),
        (s, -1, dist_s / 4.0),
    )
    probes = np.array([1e-2, 1e-3, 1e-4]) * min(1.0, dist_s)
    radii = [x for stencil in stencils for x in _richardson_radii(*stencil)]
    radii = np.array(radii + [x for h in probes.tolist() for x in (s + h, s - h)] + [r_out])
    chi_lo = _factor(chi, radii, s, radii <= s)
    chi_sides = chi.one_sided(np.array([bp for bp in p.breakpoints if bp < s]))
    chi_left, reports = None, []
    for kernel in kernels:
        om_hi = _factor(kernel.om, radii, s, radii > s)
        values = chi_lo * om_hi / kernel.w
        d_right, d_left, slope0, slope_out, slope_right, slope_left = _derivatives(
            values.tolist(), stencils
        )
        jump_report = _jump_report(d_right, d_left)

        # left of the diagonal: start from G(0, s) = 0 with a measured slope
        traj = _rk4_run(p, e, 0.0, slope0, *left)
        if chi_left is None:  # the left run's nodes are the same in every direction
            chi_left = _factor(chi, traj.r, s, traj.r <= s)
        kern = chi_left * _factor(kernel.om, traj.r, s, traj.r > s) / kernel.w
        # right of the diagonal: integrate inward from beyond the potential, where
        # the tail solution dominates; integrating outward from s would amplify
        # the seed error exponentially through evanescent regions
        traj_r = _rk4_run(p, e, values[-1], slope_out, *right)
        kern_r = kernel.values(traj_r.r, s)
        scale, scale_r = float(np.max(np.abs(kern))), float(np.max(np.abs(kern_r)))
        if not (scale > 0.0 and scale_r > 0.0):  # a Wronskian scaled past 1e300 leaves only zeros
            raise DomainError(f"the kernel at E={e} beside s={s} underflows to 0")
        left_resid = float(np.max(np.abs(traj.values - kern))) / scale
        right_resid = float(np.max(np.abs(traj_r.values - kern_r))) / scale_r
        ode_report = ResidualReport.build("offdiagonal_radial_equation", traj.r.size + traj_r.r.size,
                                          max(left_resid, right_resid), 1e-7)
        del traj, traj_r, kern, kern_r  # so that the next direction's runs do not sit beside these

        # continuity at the potential jumps, value and slope, both as one-sided limits;
        # G(., s) varies through chi left of the diagonal and through omega right of
        # it, times the frozen omega(s) or chi(s), the factors of the probe at r = s
        interface_resid = 0.0
        om_sides = kernel.om.one_sided(np.array([bp for bp in p.breakpoints if bp >= s]))
        for (v_left, v_right, dv_left, dv_right), frozen in ((chi_sides, om_hi[0]), (om_sides, chi_lo[0])):
            g_here = np.abs(v_right * frozen / kernel.w)
            jumps = np.abs([v_left - v_right, dv_left - dv_right]) * abs(frozen) / abs(kernel.w)
            interface_resid = max(interface_resid, float((jumps / (1.0 + g_here)).max(initial=0.0)))
        interface_report = ResidualReport.build("interface_continuity", 4 * len(p.breakpoints),
                                                interface_resid, 1e-10)

        # continuity across the diagonal: the gap must vanish linearly in h
        gap_values = values[len(stencils) * (RICHARDSON_LEVELS + 1) : -1]
        gaps = np.abs(gap_values[0::2] - gap_values[1::2])
        slope_scale = abs(slope_right) + abs(slope_left) + 1.0
        diag_resid = float(gaps[-1] / (probes[-1] * slope_scale))
        diag_report = ResidualReport.build("diagonal_continuity", probes.size, diag_resid, 10.0)
        reports.append(ResidualReport.combine(
            "distributional_equation", (jump_report, ode_report, interface_report, diag_report)
        ))
    return reports
