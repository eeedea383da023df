"""Independent checks of the kernel construction.

Nothing in this module reuses the matching algebra: waves are re-derived by
the exact flow of each region (:func:`propagate`) and by fixed-step RK4
integration of the radial equation, solved in each region by powers of the
RK4 one-step matrix (:func:`rk4_step_matrix`), the operator is applied
by a central second difference, one-sided kernel derivatives come from
Richardson-extrapolated difference quotients of kernel *values*, and the
resolvent is rebuilt as an integral operator with composite Simpson panels
split at the diagonal.  The RK4 runs of ``verify`` step region by region
(:func:`rk4_runs`); its finite-difference and Simpson grids share one step,
``LATTICE``.  Agreement of these reconstructions with the kernels of matched
waves is the package's evidence that the construction is right.  A potential
is read only through its ``breakpoints`` and ``heights``.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .eigenfunctions import PiecewiseWave
from .errors import ContractError, DomainError
from .kernel import wave_pair
from .model import branch_sqrt, complex_energy, radii_floats, real_array, real_energy, real_number

#: the one step of the finite-difference and Simpson grids that ``verify`` checks on
LATTICE = 1e-3
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


def _require_step(step: float) -> float:
    """``step`` as a float; :class:`ContractError` unless it is a finite, positive real number."""
    h = real_number(step, "step", ContractError)
    if not 0.0 < h < math.inf:
        raise ContractError(f"step must be finite and positive, got {step}")
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
    the largest region momentum raises :class:`DomainError`: RK4 would grow
    even an oscillating wave to NaN.  So does a start state that is not a
    number, a radius that is not a finite, nonnegative real number, and a
    trajectory that is not finite, such as an evanescent one grown past
    double precision.  A step that is not a finite, positive real number, or
    that needs more than ``MAX_STEPS`` steps, raises :class:`ContractError`.
    """
    e = complex_energy(e)
    y0, dy0 = complex_energy(y0, "the start state"), complex_energy(dy0, "the start state")
    r_from, r_to = radii_floats(r_from, r_to)
    n, h = _aligned_steps(r_from, r_to, step, p.breakpoints)
    phase = _momentum_scale(p, e) * step
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
            while True:
                block = min(done, size - done)
                seg[:, done : done + block] = power @ seg[:, :block]
                done += block
                if done == size:
                    break
                power = power @ power
    if not np.isfinite(states).all():
        raise DomainError(f"the RK4 trajectory at E={e} from r={r_from} to {r_to} is not finite")
    return Trajectory(r, states[0], states[1])


def rk4_step_matrix(c: complex, h: float) -> np.ndarray:
    """The 2x2 matrix of one RK4 step of (y, d)' = (d, c y), for a constant c.

    Its columns are the four-stage step applied to (1, 0) and to (0, 1);
    RK4 is linear in the state, so it maps any (y, d) by this matrix.
    """
    half, sixth = 0.5 * h, h / 6.0
    columns = []
    for y, d in ((1.0, 0.0), (0.0, 1.0)):
        k1y, k1d = d, c * y
        k2y = d + half * k1d
        k2d = c * (y + half * k1y)
        k3y = d + half * k2d
        k3d = c * (y + half * k2y)
        k4y = d + h * k3d
        k4d = c * (y + h * k3y)
        columns.append(
            (y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
             d + sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d))
        )
    return np.array(columns, dtype=complex).T


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


def step_too_coarse(p, step: float = LATTICE) -> bool:
    """Whether a region of ``p`` inside its last breakpoint spans fewer than 16 steps."""
    gaps = np.diff((0.0,) + tuple(p.breakpoints))
    return bool(gaps.size) and step > gaps.min() / 16.0


def apply_hamiltonian_fd(
    r: np.ndarray,
    u: np.ndarray,
    p,
    step: float | None = None,
    exclude_near: tuple[float, ...] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Apply -u'' + V u by a central second difference on a uniform grid.

    Returns (hu, valid).  ``valid`` is False at the two edge points, within
    one step of any potential breakpoint (the stencil order degrades across
    the jump) and within one step of every radius in ``exclude_near``; those
    points must stay out of residual norms, and the count of exclusions is
    reported by the callers.  A step that is not a finite, positive real
    number raises :class:`ContractError`, and radii that are not real numbers
    or values that are not numbers :class:`DomainError`.
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
    if np.any(np.abs(steps - h) > 1e-9 * h):
        raise ContractError("grid must be uniform with the declared step")
    if step_too_coarse(p, h):
        raise ContractError(f"grid step {h} too coarse for the regions of {p.breakpoints}")

    v = np.asarray(p.heights)[np.searchsorted(p.breakpoints, r, side="right")]
    hu = np.zeros_like(u, dtype=complex)
    hu[1:-1] = -(u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h) + v[1:-1] * u[1:-1]

    valid = np.ones(r.shape, dtype=bool)
    valid[0] = valid[-1] = False
    collar = h * (1.0 - 1e-6)
    for x in tuple(p.breakpoints) + tuple(exclude_near):
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


class _KernelSlice(NamedTuple):
    """The waves and Wronskian of G(., s) for a formal kernel at real E."""

    chi: PiecewiseWave
    om: PiecewiseWave
    w: complex

    def factors(self, r, s: float) -> tuple[np.ndarray, np.ndarray]:
        """chi(min(r, s)) and omega(max(r, s)) at every radius of ``r``.

        Each wave takes one call: chi at the radii up to s and omega at those
        beyond, each with s appended for the factor that stays frozen there.
        """
        r = np.asarray(r, dtype=float)
        below = r <= s
        chi_v = self.chi.value(np.append(r[below], s))
        om_v = self.om.value(np.append(r[~below], s))
        chi_lo, om_hi = np.full(r.shape, chi_v[-1]), np.full(r.shape, om_v[-1])
        chi_lo[below], om_hi[~below] = chi_v[:-1], om_v[:-1]
        return chi_lo, om_hi

    def values(self, r, s: float) -> np.ndarray:
        """G(r, s) at the radii ``r``; unscaled, a :func:`~sqgreen.kernel.kernel_grid` column."""
        chi_lo, om_hi = self.factors(r, s)
        return chi_lo * om_hi / self.w


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


def _momentum_scale(p, e: complex) -> float:
    """Largest |sqrt(E - v_j)| over the regions; sets resolvable probe steps."""
    return max(abs(branch_sqrt(complex(e) - v)) for v in p.heights)


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


def _jump_stencils(p, e: float, s: float) -> tuple[tuple[float, int, float], ...]:
    """The (x, side, h0) of the right and left derivatives at r = s that :func:`check_jump` takes."""
    dist = min([abs(s - bp) for bp in p.breakpoints] + [s])
    if dist < 1e-3:
        raise ContractError(f"s={s} is within 1e-3 of a potential breakpoint or the origin")
    # probes must resolve the fastest oscillation of the kernel
    h0 = min(dist, 2.0 / (1.0 + _momentum_scale(p, e))) / 4.0
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
    """Prefix integrals of uniformly sampled y with O(h^4) accuracy at every node.

    Even prefixes use composite Simpson pairs; odd prefixes close with a
    3/8 panel over the last three intervals (the first interval alone uses
    the quadratic through the leading three samples).
    """
    n = y.size
    if n < 4:
        raise ContractError("cumulative Simpson needs at least 4 samples")
    out = np.zeros(n, dtype=y.dtype)
    pairs = (h / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    even_idx = np.arange(2, n, 2)
    out[even_idx] = np.cumsum(pairs)
    out[1] = (h / 12.0) * (5.0 * y[0] + 8.0 * y[1] - y[2])
    odd_idx = np.arange(3, n, 2)
    if odd_idx.size:
        closing = (3.0 * h / 8.0) * (
            y[odd_idx - 3] + 3.0 * y[odd_idx - 2] + 3.0 * y[odd_idx - 1] + y[odd_idx]
        )
        out[odd_idx] = out[odd_idx - 3] + closing
    return out


def check_resolvent_identity(
    p, e: complex, f: TestFunction, quad_step: float = LATTICE
) -> ResidualReport:
    """Rebuild (E - H)^{-1} f by quadrature and verify (E - h) u = f.

    u(r) = integral of G(r, s; E) f(s) ds is assembled from prefix/suffix
    Simpson integrals of chi*f and omega*f, which is composite Simpson with a
    panel boundary exactly at the kink s = r.  The finite-difference operator
    then has to return f; its second-order truncation error dominates the
    reported residual, so halving ``quad_step`` shrinks it about fourfold.
    The same step is used for quadrature and differencing; one that is not
    finite and positive, or that needs more than ``MAX_STEPS`` steps over the
    support of f, raises :class:`ContractError`.
    """
    e = complex_energy(e)
    if e.imag == 0.0:
        raise ContractError("resolvent identity requires Im E != 0")
    h = _require_step(quad_step)
    r_grid, u = _resolvent_image(p, e, f, h)
    f_r = f(r_grid)

    # the declared support truncates the source, so u'' has a (tiny) jump at
    # the two support edges; flag their collars exactly like potential jumps
    hu, valid = apply_hamiltonian_fd(
        r_grid, u, p, h, exclude_near=(float(r_grid[1]), float(r_grid[-2]))
    )
    resid = np.abs(e * u - hu - f_r)
    scale = float(np.max(np.abs(f_r[1:-1])))
    inside = (r_grid >= f.support[0]) & (r_grid <= r_grid[-2]) & valid
    max_resid = float(np.max(resid[inside])) / scale
    return ResidualReport.build(
        "resolvent_identity",
        samples=int(np.count_nonzero(inside)),
        max_residual=max_resid,
        tolerance=1e-4,
        excluded=int(np.count_nonzero(~valid[1:-1])),
    )


def _resolvent_image(p, e: complex, f: TestFunction, h: float):
    """(r_grid, u): the Simpson image of f under the resolvent kernel, at step h.

    r_grid is the support grid of f plus one node beyond each end, where only
    one of the two partial integrals is nonzero.
    """
    lo, hi = f.support
    _require_steps((hi - lo) / h, h)
    if lo - h <= 0.0:
        raise ContractError("support must leave room for one grid step above the origin")
    direction = "plus" if e.imag > 0.0 else "minus"
    chi, om, w = wave_pair(p, e, direction)
    n = int(math.ceil((hi - lo) / h - 1e-9))
    s_grid = lo + h * np.arange(n + 1)
    chi_s = chi.value(s_grid)
    om_s = om.value(s_grid)
    f_s = f(s_grid)
    pre_chi = _cumulative_simpson(chi_s * f_s, h)
    pre_om = _cumulative_simpson(om_s * f_s, h)
    total_chi = pre_chi[-1]
    total_om = pre_om[-1]

    r_grid = np.concatenate(([s_grid[0] - h], s_grid, [s_grid[-1] + h]))
    u = np.empty(r_grid.size, dtype=complex)
    u[1:-1] = (om_s * pre_chi + chi_s * (total_om - pre_om)) / w
    u[0] = chi.value(r_grid[0]) * total_om / w
    u[-1] = om.value(r_grid[-1]) * total_chi / w
    return r_grid, u


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
    e = real_energy(e, "the distributional check")
    (s,) = radii_floats(s)
    left, right = rk4_runs(p, e, s)
    r_out = right[0][0]

    kernel = _kernel_slice(p, e, direction, wronskian_scale)
    probe_cap = 2.0 / (1.0 + _momentum_scale(p, e))
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
    radii += [x for h in probes.tolist() for x in (s + h, s - h)] + [r_out]
    chi_lo, om_hi = kernel.factors(radii, s)
    values = chi_lo * om_hi / kernel.w
    d_right, d_left, slope0, slope_out, slope_right, slope_left = _derivatives(
        values.tolist(), stencils
    )
    jump_report = _jump_report(d_right, d_left)

    # left of the diagonal: start from G(0, s) = 0 with a measured slope
    traj = _rk4_run(p, e, 0.0, slope0, *left)
    kern = kernel.values(traj.r, s)
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
    ode_report = ResidualReport.build(
        "offdiagonal_radial_equation",
        samples=traj.r.size + traj_r.r.size,
        max_residual=max(left_resid, right_resid),
        tolerance=1e-7,
    )

    # continuity at the potential jumps, value and slope, both as one-sided limits;
    # G(., s) varies through chi left of the diagonal and through omega right of
    # it, times the frozen omega(s) or chi(s), the factors of the probe at r = s
    interface_resid = 0.0
    for radial, frozen, inside in ((kernel.chi, om_hi[0], True), (kernel.om, chi_lo[0], False)):
        bps = np.array([bp for bp in p.breakpoints if (bp < s) == inside])
        v_left, v_right, dv_left, dv_right = radial.one_sided(bps)
        g_here = np.abs(v_right * frozen / kernel.w)
        jumps = np.abs([v_left - v_right, dv_left - dv_right]) * abs(frozen) / abs(kernel.w)
        interface_resid = max(interface_resid, float((jumps / (1.0 + g_here)).max(initial=0.0)))
    interface_report = ResidualReport.build(
        "interface_continuity",
        samples=4 * len(p.breakpoints),
        max_residual=interface_resid,
        tolerance=1e-10,
    )

    # continuity across the diagonal: the gap must vanish linearly in h
    gap_values = values[len(stencils) * (RICHARDSON_LEVELS + 1) : -1]
    gaps = np.abs(gap_values[0::2] - gap_values[1::2])
    slope_scale = abs(slope_right) + abs(slope_left) + 1.0
    diag_resid = float(gaps[-1] / (probes[-1] * slope_scale))
    diag_report = ResidualReport.build(
        "diagonal_continuity", samples=probes.size, max_residual=diag_resid, tolerance=10.0
    )

    return ResidualReport.combine(
        "distributional_equation",
        (jump_report, ode_report, interface_report, diag_report),
    )
