"""The resolvent kernel, its real-axis boundary values and its poles.

For Im E != 0 the kernel is

    G(r, s; E) = chi(r_<) * omega(r_>) / W(chi, omega),

with omega the exponentially bounded tail solution of the matching
half-plane (omega_plus above the axis, omega_minus below).  Both waves and
the Wronskian come from the staircase engine of :mod:`sqgreen.piecewise`,
for a square barrier as for any other staircase.  On the positive real axis
the same quotient with real-axis momenta gives the formal outgoing/incoming
kernels.  :func:`boundary_limit` follows the complex kernel to the axis and
returns the trajectory together with the formal kernel it should reach, so
one value holds both sides of that claim and how far apart they ended.
Two small memos let the checks of one command share their waves, and a
repeat gets the very objects a cold request builds, bit for bit:
:func:`wave_pair` keeps one chi per (potential, E) for the ``WAVE_MEMO`` = 2
latest, and each omega once it is asked for.  The limit studies keep the
last engine sweep (``SWEEP_MEMO`` = 1), which runs above the axis only and
serves both directions: the potential is real, so G(E - i mu) = conj G(E + i mu),
and every step of the sweep (+, -, *, /, exp, sin, cos, and sqrt, which C99
Annex G requires to satisfy csqrt(conj z) = conj csqrt(z)) commutes exactly
with conjugation, so the "minus" trajectory is the conjugate of the "plus"
one, bit for bit.  The formal "minus" kernel is still built from omega_minus.
:func:`boundary_limits` thus takes one :func:`boundary_limit` per (r, s)
point and reflects it for the other direction, whose formal kernel it builds.
:func:`find_kernel_poles` finds the kernel's poles in a box: one adaptive
contour integral of c-'/c- gives their number (:func:`zero_count`) and,
through its moments, the poles themselves, quadrisecting crowded boxes; a
box the count does not apply to runs a grid of Newton seeds instead.
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (
    EPS_BRANCH,
    ContractError,
    DomainError,
    PoleError,
)
from .eigenfunctions import PiecewiseWave, _overflow, _require_finite
from .model import (
    choice, of_type, off_axis_energy, radii_array, radii_floats, real_array, real_energy,
    real_number, region_momenta_array, require_off_branch, search_box,
)
from .piecewise import (
    _chi_regions,
    _omega_regions,
    _plane_wronskian,
    build_chi,
    build_omega,
    chi_outer_amplitudes,
    outer_wronskian,
    pole_function_array,
)


@dataclass(frozen=True)
class LimitStudy:
    """A mu -> 0 trajectory of kernel values at E +- i*mu, and the formal kernel it should reach.

    ``converged`` says whether the sequence settled within ``MAX_HALVINGS``
    halvings; ``extrapolated`` is its final sample and ``abs_diff`` that
    sample's distance to ``formal``.
    """

    mu_sequence: tuple[float, ...]
    samples: tuple[complex, ...]
    formal: complex
    converged: bool

    @property
    def extrapolated(self) -> complex:
        return self.samples[-1]

    @property
    def abs_diff(self) -> float:
        return abs(self.extrapolated - self.formal)

    @property
    def halvings(self) -> int:
        return len(self.mu_sequence)

    def reflected(self, formal: complex) -> LimitStudy:
        """The Schwarz-reflected study: the same mu sequence and ``converged``,
        conjugated samples, and ``formal``, the other direction's formal kernel."""
        samples = tuple(g.conjugate() for g in self.samples)
        return LimitStudy(self.mu_sequence, samples, formal, self.converged)


#: the energies whose waves :func:`wave_pair` keeps: ``verify`` reads E + i and the
#: real E, then one energy per random instance
WAVE_MEMO = 2
#: the engine sweeps :func:`_engine_sweep` keeps: the limit studies of one energy,
#: in either direction, read one sweep
SWEEP_MEMO = 1


@functools.lru_cache(maxsize=WAVE_MEMO)
def _waves(p, e: complex) -> dict:
    """The waves of (p, E) built so far: chi under "chi", and (omega, W) under each direction."""
    return {"chi": build_chi(p, e)}


def wave_pair(p, e: complex, direction: str) -> tuple[PiecewiseWave, PiecewiseWave, complex]:
    """(chi, omega, W) for a staircase potential (a square barrier is one).

    Memoized on (p, E) for the ``WAVE_MEMO`` latest energies: chi is matched
    once, omega and W when their direction is first asked for (an omega nobody
    reads may overflow).  A repeat returns the very objects the first request
    built; E = x + 0j and x - 0j share an entry.  A wave that raises is not
    kept.  Any direction but "plus" or "minus" raises :class:`ContractError` first.
    """
    choice(direction, "direction")
    waves = _waves(p, e)
    if direction not in waves:
        om = build_omega(p, e, direction)
        waves[direction] = om, outer_wronskian(waves["chi"], om)
    return (waves["chi"], *waves[direction])


def _kernel_request(p, e, radii, direction: str | None) -> tuple[complex, str, np.ndarray]:
    """Validate one kernel request and return (E, omega direction, radii as floats).

    ``direction=None`` asks for the resolvent kernel at Im E != 0, whose tail
    solution follows the sign of Im E.  "plus"/"minus" ask for the formal
    kernel at real E > 0, whose pole test :func:`kernel_grid` makes on its
    waves.  Every radius must be a finite, nonnegative real number.
    """
    of_type(p)
    if direction is None:
        e = off_axis_energy(e, "resolvent_kernel")
        direction = "plus" if e.imag > 0.0 else "minus"
    else:
        choice(direction, "direction")
        e = real_energy(e, "the formal kernel")
    return complex(e), direction, radii_array(radii)


def resolvent_kernel(p, e: complex, r: float, s: float) -> complex:
    """Kernel of (E - H)^{-1} at complex E; omega_plus above the axis, omega_minus below."""
    r, s = radii_floats(r, s)
    return kernel_grid(p, e, (r,), (s,)).item()


def formal_green(p, e: float, r: float, s: float, direction: str) -> complex:
    """Outgoing/incoming kernel at real E > 0 with real-axis momenta."""
    r, s = radii_floats(r, s)
    return kernel_grid(p, e, (r,), (s,), direction).item()


def kernel_grid(p, e, rs, ss, direction: str | None = None) -> np.ndarray:
    """Kernel values on the grid ``rs`` x ``ss``, as an array of shape (len(rs), len(ss)).

    ``direction=None`` gives the resolvent kernel at complex E, as
    :func:`resolvent_kernel`; "plus"/"minus" give the formal kernels at real
    E > 0, as :func:`formal_green`.  The waves are built once for the whole
    grid, and each is evaluated in one array call on the radii of ``rs`` and
    ``ss``, not on every grid point; each entry reads chi at min(r, s) and
    omega at max(r, s) off those by broadcasting, and the quotient is formed
    once, in numpy.  Radii are clipped first to the range each wave is read
    at, so a wave that overflows only where no entry reads it is no error.
    A scalar function is the single entry of its 1 x 1 grid.  Like them, it
    raises :class:`DomainError` where a value is not finite, and a formal
    kernel raises :class:`PoleError` where |W / 2k| < 1e-14: on the axis
    W = 2ik c- (plus) or -2ik c+ (minus), c+- chi's outer amplitudes.
    """
    rs, ss = real_array(rs, "radii"), real_array(ss, "radii")
    n = rs.size
    radii = np.concatenate((rs.ravel(), ss.ravel()))
    e, direction, radii = _kernel_request(p, e, radii, direction)
    chi, om, w = wave_pair(p, e, direction)
    if e.imag == 0.0 and abs(w) < 2e-14 * abs(chi.regions[-1].k):
        raise PoleError(f"kernel denominator vanishes at E={e.real} (direction {direction})")
    r, s = radii[:n], radii[n:]
    if not (r.size and s.size):
        return np.empty((r.size, s.size), dtype=complex)
    chi_at = chi.value(np.minimum(radii, min(r.max(), s.max())))
    om_at = om.value(np.maximum(radii, max(r.min(), s.min())))
    with np.errstate(all="ignore"):
        below = r[:, None] <= s
        chi_lo = np.where(below, chi_at[:n, None], chi_at[n:])
        om_hi = np.where(below, om_at[n:], om_at[:n, None])
        values = chi_lo * om_hi
        values /= w  # in place: one grid-sized temporary fewer, the same bits
    _require_finite(bool(np.isfinite(values).all()), e)
    return values


#: mu halving stops once mu < MU_FLOOR and successive samples differ by < CAUCHY_TOL.
MU_FLOOR = 1e-8
CAUCHY_TOL = 1e-10
MAX_HALVINGS = 40


def boundary_limit(
    p,
    e: float,
    r: float,
    s: float,
    direction: str,
    mu0: float | None = None,
) -> LimitStudy:
    """Follow G(r, s; E +- i mu) along mu = mu0 * 2^-k down to the axis.

    The sequence stops at the first k with mu_k below ``MU_FLOOR`` and the
    last two samples within ``CAUCHY_TOL`` of each other, or after
    ``MAX_HALVINGS`` halvings.  The study always comes back, with
    ``converged`` telling the two apart (a branch mix-up or a pole just off
    the axis keeps the sequence from settling), and with the formal kernel
    of the same request in ``formal``.  It raises only for a bad request or
    with the :class:`PoleError`/:class:`DomainError` of a kernel value.

    The whole mu sequence is one sweep of the wave engine over an array of
    ``MAX_HALVINGS + 1`` energies above the axis (:func:`_engine_sweep`),
    and G(r, s) is read off it at every energy, "minus" taking its conjugate
    (see the module notes).  One pass then walks the samples in order: each
    gets the checks :func:`resolvent_kernel` makes on its value, and then
    the stop rule, so no sample past the cut is checked.
    """
    e, r, s, mu0 = _limit_request(p, e, r, s, direction, mu0)
    mus, samples, converged = _limit_walk(p, e, r, s, direction, mu0)
    return LimitStudy(mus, samples, formal_green(p, e, r, s, direction), converged)


def _limit_request(p, e, r, s, direction: str, mu0) -> tuple[float, float, float, float]:
    """(E, r, s, mu0) of a :func:`boundary_limit` request, every argument read; mu0 is 0.05 E by default."""
    choice(direction, "direction")  # to _kernel_request, None asks for the resolvent kernel
    r, s = radii_floats(r, s)
    e = _kernel_request(p, e, (r, s), direction)[0].real
    return e, r, s, real_number(0.05 * e if mu0 is None else mu0, "mu0", 0.0, 0.1 * e)


def _limit_walk(p, e: float, r: float, s: float, direction: str, mu0: float):
    """(mu sequence, samples, converged) of a checked :func:`boundary_limit` request, off its sweep."""
    mus, energies, chi, om, w, finite_waves = _engine_sweep(p, e, mu0)
    lo, hi = (r, s) if r <= s else (s, r)
    with np.errstate(all="ignore"):
        chi_lo = chi[bisect_right(p.breakpoints, lo)].value(lo)
        om_hi = om[bisect_right(p.breakpoints, hi)].value(hi)
        values = chi_lo * om_hi / w
    if direction == "minus":  # the Schwarz reflection of the sweep above the axis
        energies, values = energies.conj(), values.conj()
    values = values.tolist()
    converged, prev = False, None
    for k, (mu, z, waves_ok, g) in enumerate(
        zip(mus.tolist(), energies.tolist(), finite_waves.tolist(), values)
    ):
        require_off_branch(p, z)
        if not waves_ok:
            raise _overflow(z)
        _require_finite(cmath.isfinite(g), z)
        # sample k stops the sequence if mu_k < MU_FLOOR and it is within the
        # Cauchy tolerance of sample k - 1; the tolerance widens for very large
        # kernels, where an absolute 1e-10 would sit inside double-precision noise
        if k and mu < MU_FLOOR and abs(g - prev) < max(CAUCHY_TOL, 1e-13 * max(abs(g), abs(prev))):
            converged = True
            break
        prev = g
    kept = k + 1
    return tuple(mus[:kept].tolist()), tuple(values[:kept]), converged


def boundary_limits(p, e: float, r: float, s: float, directions,
                    mu0: float | None = None) -> list[LimitStudy]:
    """The :func:`boundary_limit` study of (r, s) in each of ``directions``, in order.

    The first is :func:`boundary_limit`'s; every other direction's is its
    :meth:`LimitStudy.reflected` with that direction's :func:`formal_green`,
    field for field the study :func:`boundary_limit` gives: conjugation
    changes neither a sample's checks nor the stop rule's distances (see the
    module notes).  A direction other than "plus" or "minus", or ``directions``
    that are not iterable, raise :class:`ContractError` before any study; with
    no direction the other arguments are read all the same, and the list is empty.
    """
    try:
        directions = list(directions)
    except TypeError:
        raise ContractError(f"each direction must be 'plus' or 'minus', got {directions!r}") from None
    for direction in directions:
        choice(direction, "direction")
    if not directions:
        _limit_request(p, e, r, s, "plus", mu0)
        return []
    first = boundary_limit(p, e, r, s, directions[0], mu0)
    return [
        first if d == directions[0] else first.reflected(formal_green(p, e, r, s, d))
        for d in directions
    ]


@functools.lru_cache(maxsize=SWEEP_MEMO)
def _engine_sweep(p, e: float, mu0: float):
    """(mu_k, E + i mu_k, chi regions, omega_plus regions, W, finite-wave mask) of one limit request.

    mu_k = mu0 * 2^-k for k = 0, ..., ``MAX_HALVINGS``.  One numpy run of
    the matching loop builds chi and omega at all energies at once.  Nothing
    is checked here: energies near a branch point or with overflowing waves
    come back as they fall, for :func:`boundary_limit` to refuse.  Memoized
    on (p, E, mu0), the ``SWEEP_MEMO`` most recent sweeps, so the limit
    studies of one energy at several radii, in either direction, share one
    sweep; every array it returns is read-only.
    """
    mus = mu0 * 0.5 ** np.arange(MAX_HALVINGS + 1)
    energies = e + 1j * mus
    ks = region_momenta_array(p, energies)
    with np.errstate(all="ignore"):
        chi = _chi_regions(ks, p.breakpoints, np)
        om = _omega_regions(ks, p.breakpoints, "plus", np)
        w = _plane_wronskian(chi[-1], om[-1])
        finite = np.ones(ks[0].shape, dtype=bool)
        for reg in chi + om:
            finite &= np.isfinite(reg.c_plus) & np.isfinite(reg.c_minus)
    amplitudes = (c for reg in chi + om for c in (reg.c_plus, reg.c_minus))
    for a in (mus, energies, w, finite, *ks, *amplitudes):
        if hasattr(a, "setflags"):  # not a scalar amplitude: chi's sin factor, omega's outer 0
            a.setflags(write=False)
    return mus, energies, chi, om, w, finite


#: Newton seeds advanced together as arrays in one step; bounds the temporaries of a step.
SCREEN_BLOCK = 2048
#: the most seeds a pole scan lays; a larger box or a finer spacing raises.
MAX_SEEDS = 10**6
#: roots nearer than this to a branch point or to an accepted root are dropped
_ROOT_MARGIN = 1e-6
_NEWTON_STEPS = 60
#: the Newton steps that polish a root taken from the contour moments
_POLISH_STEPS = 30
#: a counted box with more zeros than this is quadrisected before its roots are taken
_MOMENT_ROOTS = 6
#: how many times a counted box may be quadrisected, by its count or after a miss
_SPLIT_DEPTH = 8
#: a contour panel is settled once it and its two halves agree to this, in units of 2 pi
_COUNT_PANEL_TOL = 1e-6
#: the zero count gives up beyond this many evaluations of the pole function
_COUNT_MAX_NODES = 2**16


class KernelPoles(list):
    """The sorted roots of :func:`find_kernel_poles`, their residuals and the zero count of its box.

    ``residuals[i]`` is :func:`kernel_pole_residual` at the ``i``-th root,
    and ``certified`` is the box's :func:`zero_count`, or None where the
    count does not apply; the list is otherwise a plain list of complex roots.
    """

    def __init__(self, roots, residuals, certified: int | None):
        super().__init__(roots)
        self.residuals = list(residuals)
        self.certified = certified


#: the positive nodes of the 16-point Gauss-Legendre rule on [-1, 1] and their
#: weights (Abramowitz & Stegun, table 25.4); the rule is symmetric about 0
_GAUSS_HALF = np.array([
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
])
_GAUSS_NODES = np.concatenate((-_GAUSS_HALF[:, 0], _GAUSS_HALF[:, 0]))
_GAUSS_WEIGHTS = np.concatenate((_GAUSS_HALF[:, 1], _GAUSS_HALF[:, 1]))


def _log_derivative_integrals(p, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """The 16-point rule for the integral of c-'/c- along each segment a -> b.

    Returns its nodes and its terms, c-'/c- times the weight at each node,
    one row per segment, so a row sums to the segment's integral; and
    whether every term is finite.
    """
    with np.errstate(all="ignore"):  # a node may overflow; its term is then not finite
        half = 0.5 * (b - a)
        nodes = (0.5 * (a + b))[:, None] + half[:, None] * _GAUSS_NODES
        f, df = pole_function_array(p, nodes)
        terms = df / f * (half[:, None] * _GAUSS_WEIGHTS)
    return nodes, terms, bool(np.isfinite(terms).all())


def _contour(p, bounds) -> tuple[int, np.ndarray, np.ndarray] | None:
    """(N, z, q): the zero count of ``bounds``, and the nodes and weights of its settled panels.

    sum(q * g(z)) is (1 / 2 pi i) times the integral of g c-'/c- around the
    box, for g analytic inside it, and N is that sum for g = 1, rounded.
    None where the count does not apply (see :func:`zero_count`).
    """
    re_min, re_max, im_min, im_max = bounds
    if im_min <= 0.0 <= im_max and re_min <= max(0.0, p.heights[0]):
        return None
    a = np.array([complex(re_min, im_min), complex(re_max, im_min),
                  complex(re_max, im_max), complex(re_min, im_max)])
    b = np.roll(a, -1)
    _, q, finite = _log_derivative_integrals(p, a, b)
    whole, evaluations, nodes, terms = q.sum(axis=1), 16 * a.size, [], []
    while finite and a.size:
        evaluations += 32 * a.size
        if evaluations > _COUNT_MAX_NODES:
            return None
        with np.errstate(all="ignore"):
            m = 0.5 * (a + b)
        z, q, finite = _log_derivative_integrals(p, np.concatenate((a, m)), np.concatenate((m, b)))
        left, right = np.split(q.sum(axis=1), 2)
        settled = np.abs(whole - (left + right)) <= 2.0 * math.pi * _COUNT_PANEL_TOL
        nodes.append(z[np.tile(settled, 2)])
        terms.append(q[np.tile(settled, 2)])
        split = ~settled
        a, b = np.concatenate((a[split], m[split])), np.concatenate((m[split], b[split]))
        whole = np.concatenate((left[split], right[split]))
    if not finite:
        return None
    q = np.concatenate(terms).ravel() / (2j * math.pi)
    n = complex(q.sum())
    if not (cmath.isfinite(n) and abs(n - round(n.real)) < 1e-3):
        return None
    return round(n.real), np.concatenate(nodes).ravel(), q


def zero_count(p, box) -> int | None:
    """The number of zeros of the pole function c-(E) inside ``box``, by the argument principle.

    The count is (1 / 2 pi i) times the integral of c-'/c- around the
    box's edges, with the exact derivative of
    :func:`~sqgreen.piecewise.pole_function_array`.  Each edge starts as one
    panel of a composite 16-point Gauss-Legendre rule, and a panel is split
    in two wherever it and its halves disagree by more than
    ``_COUNT_PANEL_TOL``, so the nodes gather where a zero comes close to
    the contour.  None means the count does not apply: the box meets the
    real axis at or left of max(0, v0), where c- has a cut (the outer
    momentum's, and the innermost region's when its height v0 is not 0);
    a node gave a non-finite c-'/c-; the panels did not settle within
    ``_COUNT_MAX_NODES`` evaluations; or the total is not within 1e-3 of
    an integer.  Raises :class:`DomainError` for a non-finite or degenerate
    box.
    """
    contour = _contour(of_type(p), search_box(box))
    return None if contour is None else contour[0]


def _moment_roots(bounds, count: int, z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The ``count`` zeros of c- in ``bounds``, to quadrature accuracy, from its :func:`_contour`.

    In w = (E - c) / rho, with c the box's center and rho its half-diagonal,
    the moments s_k = sum(q w^k) are the power sums of the zeros.  Newton's
    identities turn s_1, ..., s_N into the coefficients of the monic
    polynomial with those roots, the eigenvalues of its companion matrix
    (``np.roots``).  A non-finite coefficient gives no roots: the box is quadrisected.
    """
    re_min, re_max, im_min, im_max = bounds
    c = complex(re_min + re_max, im_min + im_max) / 2
    rho = math.hypot(re_max - re_min, im_max - im_min) / 2
    w, sums, coeffs = (z - c) / rho, [], [1.0 + 0j]
    for k in range(1, count + 1):
        q = q * w
        sums.append(complex(q.sum()))
        coeffs.append(-sum(coeffs[k - i] * sums[i - 1] for i in range(1, k + 1)) / k)
    if not all(map(cmath.isfinite, coeffs)):  # np.roots would raise LinAlgError
        return np.empty(0, dtype=complex)
    return c + rho * np.roots(coeffs)


def _near(z: np.ndarray, p, margin: float) -> np.ndarray:
    """Mask of the entries of ``z`` within ``margin`` of a branch point, a region height."""
    out = np.zeros(z.shape, dtype=bool)
    for v in set(p.heights):
        out |= np.abs(z - v) < margin
    return out


def _newton(p, z: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(iterates, converged mask) of at most ``steps`` Newton steps on c- from each entry of ``z``.

    Each step advances every active entry, ``SCREEN_BLOCK`` at a time, with
    c- and dc-/dE from one :func:`~sqgreen.piecewise.pole_function_array`;
    the iteration is elementwise, so the block size changes no digit.  An
    entry has converged once a step fell below 1e-13 * max(1, |z|) and its
    last step is below 1e-12.  It dies at an iterate within ``EPS_BRANCH``
    of a branch point, a c- of exactly 0 (chi's incoming part cancelled
    below rounding beside its outgoing part, so Newton would stand still),
    a non-finite or zero derivative or a non-finite iterate; entries within
    1e-6 of a branch point never start.  ``z`` is overwritten.
    """
    last_step = np.full(z.shape, np.inf)
    ok = np.zeros(z.shape, dtype=bool)
    active = ~_near(z, p, _ROOT_MARGIN)
    for _ in range(steps):
        moving = np.flatnonzero(active)
        for start in range(0, moving.size, SCREEN_BLOCK):
            idx = moving[start:start + SCREEN_BLOCK]
            za = z[idx]
            with np.errstate(all="ignore"):
                near = _near(za, p, EPS_BRANCH)
                fz, dfz = pole_function_array(p, za)
                dz = fz / dfz
                za = za - dz
                step = np.abs(dz)
                live = ~near & (fz != 0) & (dfz != 0) & np.isfinite(dfz) & np.isfinite(za)
                done = live & (step < 1e-13 * np.maximum(1.0, np.abs(za)))
            z[idx[live]] = za[live]
            last_step[idx[live]] = step[live]
            ok[idx[done]] = True
            active[idx[~live | done]] = False
    return z, ok & (last_step < 1e-12)


def _screen(p, bounds, seed_density: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_newton`, 60 steps, from a grid of seeds ``seed_density`` apart over ``bounds``."""
    re_min, re_max, im_min, im_max = bounds
    # a side of MAX_SEEDS spacings or more (inf included) is too long by itself
    n_re, n_im = (
        int(span) + 1 if span < MAX_SEEDS else MAX_SEEDS + 1
        for span in ((re_max - re_min) / seed_density, (im_max - im_min) / seed_density)
    )
    if n_re * n_im > MAX_SEEDS:
        raise DomainError(f"box {bounds} at spacing {seed_density} needs over {MAX_SEEDS} seeds")
    seeds = np.empty(n_re * n_im, dtype=complex)
    seeds.real = re_min + np.arange(seeds.size) // n_im * seed_density
    seeds.imag = im_min + np.arange(seeds.size) % n_im * seed_density
    return _newton(p, seeds, _NEWTON_STEPS)


def _accept(p, roots, converged, bounds, accepted: dict[complex, float]) -> None:
    """Add to ``accepted``, in order, the ``roots`` that pass the scan's rules, with their |c-|."""
    re_min, re_max, im_min, im_max = bounds
    keep = (
        converged
        & (re_min <= roots.real) & (roots.real <= re_max)
        & (im_min <= roots.imag) & (roots.imag <= im_max)
        & ~_near(roots, p, _ROOT_MARGIN)
    )
    for z in roots[keep].tolist():
        if all(abs(z - w) >= _ROOT_MARGIN for w in accepted):
            residual = kernel_pole_residual(p, z)
            if residual < 1e-10:
                accepted[z] = residual


def _find(p, bounds, contour, seed_density: float, accepted: dict[complex, float],
          depth: int) -> None:
    """Add to ``accepted`` the roots in ``bounds``, whose :func:`_contour` is ``contour``."""
    if contour is None:
        _accept(p, *_screen(p, bounds, seed_density), bounds, accepted)
        return
    count = contour[0]
    re_min, re_max, im_min, im_max = bounds
    if count > 0 and (count <= _MOMENT_ROOTS or depth == _SPLIT_DEPTH):
        _accept(p, *_newton(p, _moment_roots(bounds, *contour), _POLISH_STEPS), bounds, accepted)
    inside = sum(re_min <= z.real <= re_max and im_min <= z.imag <= im_max for z in accepted)
    if inside >= count or depth == _SPLIT_DEPTH:
        return
    re_mid, im_mid = 0.5 * (re_min + re_max), 0.5 * (im_min + im_max)
    for quad in ((re_min, re_mid, im_min, im_mid), (re_mid, re_max, im_min, im_mid),
                 (re_min, re_mid, im_mid, im_max), (re_mid, re_max, im_mid, im_max)):
        _find(p, quad, _contour(p, quad), seed_density, accepted, depth + 1)


def find_kernel_poles(
    p,
    box: tuple[float, float, float, float],
    seed_density: float = 0.25,
) -> KernelPoles:
    """The zeros of the outgoing-kernel denominator in ``box = (re_min, re_max, im_min, im_max)``.

    The denominator is the pole function c-(E), chi's incoming amplitude
    beyond the last step (:func:`chi_outer_amplitudes`), whose exact dc-/dE
    the matching sweep carries by the chain rule.  Where :func:`zero_count`
    certifies the box, its contour pass gives the roots too: the moments of
    c-'/c- on its nodes are the power sums of the zeros (Delves & Lyness,
    Math. Comp. 21, 543, 1967), whose polynomial :func:`_moment_roots` solves
    by ``np.roots``; each root is polished by at most 30 Newton steps.  A box
    of more than ``_MOMENT_ROOTS`` zeros, or whose roots fall short of its
    count under the rules below, is quadrisected and each quadrant counted
    again, at most ``_SPLIT_DEPTH`` levels deep.  A box, or quadrant, without
    a count runs 60 Newton steps from each seed of a grid of spacing
    ``seed_density`` (:func:`_screen`), O(n_seeds) memory: about 25 MB at
    ``MAX_SEEDS``.

    A root is kept only if its final Newton step is below 1e-12, |c-| is
    below 1e-10 but not exactly 0 (a c- that cancelled to 0 is rounding, not
    a root), it lies in the (sub-)box it came from, and it is at least 1e-6
    away from every branch point (the region heights) and every root
    accepted before it.  An empty list is a valid outcome.  The returned
    :class:`KernelPoles` carries each root's |c-|, taken once by that rule,
    in ``residuals``, and the box's count in ``certified`` (None for an
    uncertified box), so a caller can tell a scan that fell short of it.

    Raises :class:`DomainError` for a non-finite or degenerate box, a
    ``seed_density`` that is not a finite, positive real number, or a seed
    grid that would hold more than ``MAX_SEEDS`` seeds.
    """
    p, bounds = of_type(p), search_box(box)
    seed_density = real_number(seed_density, "seed_density", 0.0)
    contour = _contour(p, bounds)
    accepted: dict[complex, float] = {}
    _find(p, bounds, contour, seed_density, accepted, 0)
    roots = sorted(accepted, key=lambda w: (w.real, w.imag))
    return KernelPoles(roots, map(accepted.get, roots), None if contour is None else contour[0])


def kernel_pole_residual(p, z: complex) -> float:
    """|c-(z)|, chi's incoming outer amplitude, driven to zero by :func:`find_kernel_poles`."""
    return abs(chi_outer_amplitudes(p, z)[1])
