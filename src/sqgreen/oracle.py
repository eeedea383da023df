"""Independent checks of the kernel construction.

Nothing in this module reuses the matching algebra: waves are re-derived by
the exact flow of each region (:func:`propagate`; one walk serves all radii of
a start) and by fixed-step RK4 integration of the radial equation, solved in
each region by powers of the RK4 one-step matrix (:func:`rk4_step_matrix`),
the operator is applied by a second difference on the nodes' own spacings,
one-sided kernel derivatives come from Richardson-extrapolated difference
quotients of kernel *values*, and the resolvent is rebuilt as an integral
operator with composite Simpson panels split at the diagonal.  The RK4 runs
(:func:`rk4_runs`; one pass a side carries every direction's seed) and the
Simpson and finite-difference grid of ``verify`` step region by region.
Agreement of these reconstructions with the kernels of matched waves is the
package's evidence that the construction is right.  A potential is read only
through its ``breakpoints`` and ``heights``.
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
from .model import (
    branch_sqrt, choice, complex_energy, nonzero_real, of_type, off_axis_energy,
    radii_floats, real_array, real_energy, real_number, step_count,
)

#: Gaussian bumps count as supported within this many widths of the center.
GAUSSIAN_SUPPORT_WIDTHS = 5.5
#: past this many radians per step an RK4 step amplifies even an oscillating wave
RK4_STABILITY = 2.0**1.5
#: one Richardson derivative combines the difference quotients at h0 / 2^j for j below this
RICHARDSON_LEVELS = 5
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
        choice(self.kind, "kind", ("gaussian_bump", "compact_polynomial_bump"))
        object.__setattr__(self, "center", real_number(self.center, "center"))
        object.__setattr__(self, "width", real_number(self.width, "width", 0.0))
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

    def __call__(self, r):
        """The bump at the finite radii ``r``, read 0 past where it reaches 0."""
        r = real_array(r, "radii")
        if not np.isfinite(r).all():
            raise DomainError("radii must be finite")
        reach = (40.0 if self.kind == "gaussian_bump" else 1.0) * self.width
        t = np.clip(r - self.center, -reach, reach) / self.width
        if self.kind == "gaussian_bump":
            return np.exp(-0.5 * t * t)
        return (1.0 - t * t) ** 4


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


def integrate_schrodinger(
    p,
    e: complex,
    y0: complex,
    dy0: complex,
    r_from: float,
    r_to: float,
    step: float,
) -> Trajectory:
    """Fixed-step RK4 integration of w'' = (V - E) w, forward or backward: :func:`_rk4` from one seed.

    The step must divide the interval and every breakpoint strictly inside it must land on
    a grid node, so no step straddles a potential jump; each step reads the potential at its
    midpoint, and the nodes are ``r_from + h * arange(n + 1)``.  Raises :class:`DomainError` for a
    step that does not fit the grid, needs more than ``MAX_STEPS`` steps or advances a wave by more
    than ``RK4_STABILITY`` rad, and for a trajectory that is not finite.
    """
    p, e = of_type(p), complex_energy(e)
    y0, dy0 = complex_energy(y0, "the start state"), complex_energy(dy0, "the start state")
    r_from, r_to = radii_floats(r_from, r_to)
    step, span = real_number(step, "step", 0.0), r_to - r_from
    step_count(abs(span) / step, f"a step of {step}")
    n, h = int(round(abs(span) / step)), math.copysign(step, span)
    if n < 1 or abs(n * step - abs(span)) > 1e-9 * max(step, abs(span)):
        raise DomainError(f"step {step} does not divide the interval [{r_from}, {r_to}]")
    for bp in [x for x in p.breakpoints if min(r_from, r_to) < x < max(r_from, r_to)]:
        t = (bp - r_from) / h  # at most n, so finite
        if abs(t - round(t)) > 1e-9 * max(1.0, abs(t)):
            raise DomainError(f"breakpoint {bp} is not aligned with the integration grid")
    regions = np.searchsorted(p.breakpoints, r_from + (np.arange(n) + 0.5) * h, side="right")
    # the steps [a, b) of one region take state a to states a+1 .. b
    cuts = [0, *(np.flatnonzero(np.diff(regions)) + 1).tolist(), n]
    blocks = [(h, p.heights[regions[a]], b - a) for a, b in zip(cuts, cuts[1:])]
    (states,) = _rk4(e, [(y0, dy0)], blocks, (r_from, r_to))
    return Trajectory(r_from + h * np.arange(n + 1), *states)


def _rk4(e: complex, seeds, blocks, ends) -> np.ndarray:
    """The (m, 2, n + 1) states of one RK4 run from each of the m ``seeds`` (w, w'), ``ends`` apart.

    ``blocks`` are the run's regions in order, each (h, v, count): count steps of h where
    V = v.  There one step is a fixed 2x2 matrix M (:func:`rk4_step_matrix`), and the states
    are the powers of M applied to the region's first, filled by doubling: once b states
    are known, the next b are M^b times them.  Each seed's states are, bit for bit, those
    of a run from it alone.  A step longer than ``RK4_STABILITY`` over its region's momentum
    raises :class:`DomainError`: RK4 would grow even an oscillating wave to NaN.  So does a
    run that is not finite, such as an evanescent one grown past double precision.
    """
    phase, step = max((abs(branch_sqrt(e - v)) * abs(h), abs(h)) for h, v, _ in blocks)
    if phase > RK4_STABILITY:
        raise DomainError(
            f"a step of {step} advances the fastest wave at E={e} by {phase:.4g} rad, "
            f"past the {RK4_STABILITY:.4g} at which RK4 turns unstable"
        )
    states = np.empty((len(seeds), 2, 1 + sum(n for *_, n in blocks)), dtype=complex)
    states[:, :, 0], a = seeds, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for h, v, n in blocks:
            seg, power, done = states[:, :, a : a + n + 1], rk4_step_matrix(v - e, h), 1
            while done <= n:
                block = min(done, n + 1 - done)
                seg[:, :, done : done + block] = power @ seg[:, :, :block]
                done += block
                power = power @ power
            a += n
    if not np.isfinite(states).all():
        raise DomainError(f"the RK4 trajectory at E={e} from r={ends[0]} to {ends[1]} is not finite")
    return states


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
    and no plane-wave amplitude is formed.  This is :func:`_flow` to one
    radius.  Raises :class:`DomainError` for a state that is not finite.
    """
    p, e = of_type(p), complex_energy(e)
    y, dy = complex_energy(y, "the start state"), complex_energy(dy, "the start state")
    r_from, r_to = radii_floats(r_from, r_to)
    return _flow(p, e, y, dy, r_from, [r_to])[0]


def _flow(p, e: complex, y: complex, dy: complex, r_from: float, radii) -> list[tuple[complex, complex]]:
    """The :func:`propagate` states from (y, dy) at ``r_from`` at each of the float ``radii``.

    Each stretch between breakpoints is walked once for all radii, so each state is, bit for
    bit, that of a walk to its radius alone; the first that is not finite raises :class:`DomainError`.
    """
    at = {}  # the state at the end of each stretch taken
    for r in radii:
        state, lo, hi = (y, dy), min(r_from, r), max(r_from, r)
        cuts = [r_from, *sorted((x for x in p.breakpoints if lo < x < hi), reverse=r < r_from), r]
        for x0, x1 in zip(cuts, cuts[1:]):
            if x1 not in at:
                (w, dw), d = state, x1 - x0
                try:
                    k = cmath.sqrt(e - p.heights[bisect_right(p.breakpoints, 0.5 * (x0 + x1))])
                    c, s = cmath.cos(k * d), cmath.sin(k * d)
                    at[x1] = c * w + (s / k if k else d) * dw, -k * s * w + c * dw
                except (OverflowError, ValueError):  # cmath's "math domain error" at an infinite phase
                    at[x1] = cmath.nan, cmath.nan
            state = at[x1]
        if not (cmath.isfinite(state[0]) and cmath.isfinite(state[1])):
            raise DomainError(f"the flow at E={e} from r={r_from} to {r} is not finite")
    return [at[r] for r in radii]


def apply_hamiltonian_fd(r: np.ndarray, u: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """Apply -u'' + V u by the three-point second difference on the nodes' own spacings.

    At a node with spacings h- and h+ to its neighbours, -u'' is
    -2 [(u+ - u) / h+ - (u - u-) / h-] / (h+ + h-), exact for a quadratic.
    Returns (hu, valid): ``valid`` is False at the two end nodes and wherever
    a breakpoint lies strictly between a node's two neighbours; callers keep
    those out of residual norms and report them.  A grid cut at the
    breakpoints, such as that of :func:`check_resolvent_identity`, so loses
    its ends and its cut nodes.  Radii that are not finite and strictly
    ascending raise :class:`DomainError`.
    """
    p, r = of_type(p), real_array(r, "radii")
    try:
        u = np.asarray(u, dtype=complex)
    except (TypeError, ValueError):
        raise DomainError(f"values u must form a regular array of numbers, got {u!r}") from None
    if r.ndim != 1 or r.shape != u.shape or r.size < 3:
        raise ContractError("need matching 1-d arrays with at least 3 samples")
    h = np.diff(r)
    if not (np.isfinite(r).all() and (h > 0.0).all()):
        raise DomainError("radii must be finite and strictly ascending")

    v = np.asarray(p.heights)[np.searchsorted(p.breakpoints, r, side="right")]
    slopes = np.diff(u) / h
    hu = np.zeros_like(u)
    hu[1:-1] = -2.0 * (slopes[1:] - slopes[:-1]) / (h[1:] + h[:-1]) + v[1:-1] * u[1:-1]

    valid = np.zeros(r.shape, dtype=bool)
    bps = p.breakpoints
    valid[1:-1] = np.searchsorted(bps, r[2:], side="left") == np.searchsorted(bps, r[:-2], side="right")
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


def _kernel_slice(p, e: float, direction: str, wronskian_scale: float = 1.0) -> _KernelSlice:
    """G(., s) of a formal kernel at real E; the scale hooks the negative control.

    A ``wronskian_scale`` that is not a finite, nonzero real number raises
    :class:`DomainError` before any wave is built.
    """
    scale = nonzero_real(wronskian_scale, "wronskian_scale")
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
    p, e = of_type(p), real_energy(e, "the jump check")
    (s,) = radii_floats(s)
    stencils = _jump_stencils(p, e, s)
    kernel = _kernel_slice(p, e, direction, wronskian_scale)
    radii = [x for stencil in stencils for x in _richardson_radii(*stencil)]
    return _jump_report(*_derivatives(kernel.values(radii, s).tolist(), stencils))


def _jump_stencils(p, e: float, s: float) -> tuple[tuple[float, int, float], ...]:
    """The (x, side, h0) of the right and left derivatives at r = s that :func:`check_jump` takes.

    :class:`DomainError` for an s within 1e-3 of a breakpoint or the origin.
    """
    dist = min([abs(s - bp) for bp in p.breakpoints] + [s])
    if dist < 1e-3:
        raise DomainError(f"s={s} is within 1e-3 of a potential breakpoint or the origin")
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
    then has to return f.  The support of f is cut at the breakpoints, each
    region is stepped uniformly, in at least ``MIN_REGION_STEPS`` steps, and
    one grid holds every region with each cut once; the nodes between the
    cuts are checked, and the cuts are excluded.

    A first pass at ``COARSE_PHASE`` rad per step of the region's wave or of
    the bump measures each region's residual R, relative to max |f|.  Its
    difference and Simpson errors shrink at least as the step squared, so a
    region with R above ``target`` is run again at its step times
    sqrt(target / R), but never past the step at which the rounding of u,
    over the step squared, would reach ``target``.  A region too thin for
    ``MIN_REGION_STEPS`` such steps is integrated but not differenced, and
    its nodes count as excluded.  Grids past ``MAX_STEPS`` steps raise
    :class:`DomainError` before they are allocated.
    """
    p, f = of_type(p), of_type(f, TestFunction)
    e = off_axis_energy(e, "the resolvent identity")
    target = real_number(target, "target", 0.0)
    lo, hi = f.support
    cuts = [lo, *(x for x in p.breakpoints if lo < x < hi), hi]
    widths = np.diff(cuts)
    rates = np.array([
        max(abs(e - p.heights[bisect_right(p.breakpoints, 0.5 * (x0 + x1))]) ** 0.5, 1.0 / f.width)
        for x0, x1 in zip(cuts, cuts[1:])
    ])
    counts = _region_steps(widths * rates / COARSE_PHASE, target)
    resid, size, inner, scale = _region_residuals(p, e, f, cuts, counts)
    # u carries a rounding of eps |size|; the stencil turns a rounding nu into up to 2 nu / h^2
    noise = np.finfo(float).eps * size
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
    step_count(float(np.sum(counts)), f"the resolvent check at target {target}")
    return [max(MIN_REGION_STEPS, math.ceil(n)) | 1 for n in counts.tolist()]


def _region_residuals(p, e: complex, f: TestFunction, cuts, counts):
    """Per region: max |(E - h) u - f|, max size of u's terms and interior nodes; and max |f|: one stencil call."""
    r, u, f_r, terms, ends = _resolvent_image(p, e, f, cuts, counts)
    hu, valid = apply_hamiltonian_fd(r, u, p)
    starts = ends[:-1]
    resid = np.maximum.reduceat(np.where(valid, np.abs(e * u - hu - f_r), 0.0), starts)
    inner = np.add.reduceat(valid, starts, dtype=int)
    return resid, np.maximum.reduceat(terms, starts), inner, float(np.abs(f_r).max())


def _resolvent_image(p, e: complex, f: TestFunction, cuts, counts):
    """(r, u, f, terms, ends): the Simpson image u of f under the resolvent kernel, on one grid.

    Region j runs from cuts[j] to cuts[j + 1] in counts[j] steps, from node
    ends[j] to node ends[j + 1]; each cut is one node.  u = (omega P + chi S) / W,
    with P the prefix integral of chi*f and S the suffix integral of omega*f,
    each summed from its own end so that neither is a difference of larger
    sums; terms is (|omega P| + |chi S|) / |W|, which bounds the rounding of u.
    """
    direction = "plus" if e.imag > 0.0 else "minus"
    chi, om, w = wave_pair(p, e, direction)
    ends = np.cumsum([0, *counts])
    r = _joined([np.linspace(x0, x1, n + 1) for x0, x1, n in zip(cuts, cuts[1:], counts)])
    chi_r, om_r, f_r = chi.value(r), om.value(r), f(r)
    chi_f, om_f = chi_r * f_r, om_r * f_r
    # each region's prefix integrals of chi*f and, read backwards, suffix integrals of omega*f
    sums = [_cumulative_simpson(np.stack((chi_f[a : b + 1], om_f[a : b + 1][::-1])), (x1 - x0) / n)
            for a, b, x0, x1, n in zip(ends, ends[1:], cuts, cuts[1:], counts)]
    totals = np.array([part[:, -1] for part in sums])
    before = np.concatenate(([0.0], np.cumsum(totals[:-1, 0])))
    after = np.concatenate((np.cumsum(totals[:0:-1, 1])[::-1], [0.0]))
    # chained so, the two regions at a cut give it the same sums to the bit
    left = om_r * _joined([b + part[0] for b, part in zip(before, sums)])
    right = chi_r * _joined([a + part[1, ::-1] for a, part in zip(after, sums)])
    return r, (left + right) / w, f_r, (np.abs(left) + np.abs(right)) / abs(w), ends


def _joined(parts) -> np.ndarray:
    """The per-region arrays ``parts``, each region's first node dropped after the first region's."""
    return np.concatenate([parts[0], *(part[1:] for part in parts[1:])])


def rk4_runs(p, e: float, s: float):
    """The RK4 runs of :func:`check_distributional_equation` to s, from 0 and from beyond V.

    Each run, from 0 or from ``TAIL_START`` past the last breakpoint (past 1
    without one), is (cuts, counts): it takes counts[j] steps from cuts[j] to
    cuts[j + 1], cut at s and at the breakpoints.  A region of width d and
    momentum k takes ceil(d max(|k|, 1) / theta) steps, with theta = 0.01 min(1,
    (300 / Phi)^(1/4)) for the run's phase Phi = sum d max(|k|, 1): RK4's error
    grows as Phi theta^4.  A run past ``MAX_STEPS`` steps raises :class:`DomainError`.
    """
    r_out = (p.breakpoints[-1] if p.breakpoints else 1.0) + TAIL_START
    runs = []
    for r_from in (0.0, r_out):
        lo, hi = sorted((r_from, s))
        cuts = sorted({r_from, s, *(x for x in p.breakpoints if lo < x < hi)}, reverse=s < r_from)
        phases = [abs(x1 - x0) * max(abs(e - p.heights[bisect_right(p.breakpoints, (x0 + x1) / 2)]), 1.0)
                  ** 0.5 for x0, x1 in zip(cuts, cuts[1:])]
        per_rad = 100.0 * max(1.0, (sum(phases) / 300.0) ** 0.25)  # 1 / theta, inf at most
        step_count(per_rad * sum(phases), f"the RK4 run from r={r_from} to s={s} at E={e}")
        runs.append((cuts, [math.ceil(per_rad * x) for x in phases]))
    return runs


def _rk4_pass(p, e: float, seeds, cuts, counts) -> tuple[np.ndarray, np.ndarray]:
    """(r, states) of :func:`_rk4` from each of ``seeds`` at cuts[0], counts[j] steps to each cuts[j + 1]."""
    steps = [math.copysign(abs(x1 - x0) / n, x1 - x0) for x0, x1, n in zip(cuts, cuts[1:], counts)]
    r = _joined([x0 + h * np.arange(n + 1) for x0, h, n in zip(cuts, steps, counts)])
    heights = [p.heights[bisect_right(p.breakpoints, 0.5 * (x0 + x1))] for x0, x1 in zip(cuts, cuts[1:])]
    return r, _rk4(complex(e), seeds, list(zip(steps, heights, counts)), (cuts[0], cuts[-1]))


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
    anywhere; a run past ``MAX_STEPS`` steps raises :class:`DomainError`
    before any wave is built.  A ``wronskian_scale`` so large that the kernel
    underflows to 0 beside s raises :class:`DomainError`.
    """
    return _distributional_reports(p, e, s, (direction,), wronskian_scale)[0]


def _distributional_reports(p, e: float, s: float, directions, wronskian_scale: float):
    """The :func:`check_distributional_equation` report of each direction, in order.

    The RK4 plan, the stencils and probe radii, and chi at the probes, at the
    breakpoints below s and at the RK4 nodes are shared.  Each direction has
    its own omega, seeds and report, bit for bit those of its own request, and
    one RK4 pass a side carries every direction's seed.
    """
    p, e = of_type(p), real_energy(e, "the distributional check")
    (s,) = radii_floats(s)
    runs = rk4_runs(p, e, s)
    r_out = runs[1][0][0]
    jump = _jump_stencils(p, e, s)

    kernels = [_kernel_slice(p, e, direction, wronskian_scale) for direction in directions]
    chi = kernels[0].chi
    probe_cap = 2.0 / (1.0 + _momentum_scale(p.heights, e))
    dist0 = min(s, min(p.breakpoints) if p.breakpoints else s)
    dist_s = min([abs(s - bp) for bp in p.breakpoints] + [s, 1.0, probe_cap])
    # every probe radius in one call, starting at s: the jump at s, the seed
    # slopes at 0 and r_out, the slopes beside the diagonal, the diagonal gaps
    # and the seed G(r_out, s)
    stencils = jump + (
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
    om_hi = [_factor(kernel.om, radii, s, radii > s) for kernel in kernels]
    values = [chi_lo * om / kernel.w for om, kernel in zip(om_hi, kernels)]
    slopes = [_derivatives(v.tolist(), stencils) for v in values]
    # left of the diagonal each seed starts from G(0, s) = 0 with a measured slope; right of
    # it, inward from beyond the potential, where the tail solution dominates: outward from s
    # the seed error would grow exponentially through evanescent regions
    seeds = [(0.0, d[2]) for d in slopes], [(v[-1], d[3]) for v, d in zip(values, slopes)]
    passes = [_rk4_pass(p, e, side, *run) for side, run in zip(seeds, runs)]
    chi_runs = [_factor(chi, r, s, r <= s) for r, _ in passes]
    reports = []
    for j, kernel in enumerate(kernels):
        d_right, d_left, _, _, slope_right, slope_left = slopes[j]
        jump_report = _jump_report(d_right, d_left)

        resid = []
        for (r, states), chi_r in zip(passes, chi_runs):
            kern = chi_r * _factor(kernel.om, r, s, r > s) / kernel.w
            scale = float(np.max(np.abs(kern)))
            if not scale > 0.0:  # a Wronskian scaled past 1e300 leaves only zeros
                raise DomainError(f"the kernel at E={e} beside s={s} underflows to 0")
            resid.append(float(np.max(np.abs(states[j, 0] - kern))) / scale)
        ode_report = ResidualReport.build("offdiagonal_radial_equation", sum(r.size for r, _ in passes),
                                          max(resid), 1e-7)

        # continuity at the potential jumps, value and slope, both as one-sided limits;
        # G(., s) varies through chi left of the diagonal and through omega right of
        # it, times the frozen omega(s) or chi(s), the factors of the probe at r = s
        interface_resid = 0.0
        om_sides = kernel.om.one_sided(np.array([bp for bp in p.breakpoints if bp >= s]))
        for (v_left, v_right, dv_left, dv_right), frozen in ((chi_sides, om_hi[j][0]), (om_sides, chi_lo[0])):
            g_here = np.abs(v_right * frozen / kernel.w)
            jumps = np.abs([v_left - v_right, dv_left - dv_right]) * abs(frozen) / abs(kernel.w)
            interface_resid = max(interface_resid, float((jumps / (1.0 + g_here)).max(initial=0.0)))
        interface_report = ResidualReport.build("interface_continuity", 4 * len(p.breakpoints),
                                                interface_resid, 1e-10)

        # continuity across the diagonal: the gap must vanish linearly in h
        gap_values = values[j][len(stencils) * (RICHARDSON_LEVELS + 1) : -1]
        gaps = np.abs(gap_values[0::2] - gap_values[1::2])
        slope_scale = abs(slope_right) + abs(slope_left) + 1.0
        diag_resid = float(gaps[-1] / (probes[-1] * slope_scale))
        diag_report = ResidualReport.build("diagonal_continuity", probes.size, diag_resid, 10.0)
        reports.append(ResidualReport.combine(
            "distributional_equation", (jump_report, ode_report, interface_report, diag_report)
        ))
    return reports
