"""The full invariant suite behind ``sqgreen verify``.

Runs every cross-check the package knows about on one configured staircase
plus a few seeded random ones and collects the outcomes into a single
machine-readable report.  The engine's waves, Wronskians and kernels are
compared with the exact region-by-region flow of :func:`~sqgreen.oracle.propagate`,
which forms no plane-wave amplitudes, so one path serves every potential.
``wronskian_scale`` is a test hook: scaling the kernel normalization must
make the jump check fail, which proves the suite can actually reject a wrong
kernel.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import replace
from random import Random

import numpy as np

from .errors import ConfigError, DomainError
from .kernel import _limit_walk, kernel_grid, wave_pair
from .model import PiecewisePotential, nonzero_real, of_type, real_energy
from .oracle import (
    ResidualReport,
    TestFunction,
    _distributional_reports,
    _flow,
    _jump_stencils,
    check_resolvent_identity,
    rk4_runs,
)

#: the most random instances one run draws (about 0.3 ms each on a 2-vCPU x86-64 host)
MAX_RANDOM_INSTANCES = 10**4


def _engine_waves(p: PiecewisePotential, e: complex):
    """(chi, omega_plus, omega_minus) of the engine at E, from :func:`wave_pair`."""
    return (*wave_pair(p, e, "plus")[:2], wave_pair(p, e, "minus")[1])


def _reference(p: PiecewisePotential, e: complex):
    """Starts (w, w', r) of chi, omega_plus and omega_minus, and W(chi, omega+-).

    The starts are for :func:`~sqgreen.oracle.propagate`: chi starts at (0, k0) at the origin,
    as the engine's sin(k0 r) does, and omega+- at exp(+-ikR) at the last
    breakpoint R, where the Wronskians are read.  Both roots are
    ``cmath.sqrt``'s, never the engine's ``branch_sqrt``, so a wrong branch
    in the engine cannot pass as a reference that shares it.  At Im E != 0
    the two agree bit for bit; the sign of k0 only normalizes chi.
    """
    k, outer = cmath.sqrt(e), p.breakpoints[-1]
    starts = [(0j, cmath.sqrt(e - p.heights[0]), 0.0)]
    for sign in (1.0, -1.0):
        phase = cmath.exp(sign * 1j * k * outer)
        starts.append((phase, sign * 1j * k * phase, outer))
    ((y, dy),) = _flow(p, e, *starts[0], [outer])
    return starts, [y * w1 - dy * w0 for w0, w1, _ in starts[1:]]


def _wave_agreement(p: PiecewisePotential, waves, exact) -> tuple[float, float]:
    """(continuity, wronskian) residuals of the waves, from one evaluation per wave.

    Continuity is the largest relative jump of a wave's value or slope at a
    breakpoint; the Wronskians of the kernels, mid-region and beyond the last
    step, are read on the right-side values and set against the ``exact`` ones
    of :func:`_reference`.
    """
    edges, n = (0.0,) + p.breakpoints, len(p.breakpoints)
    points = [0.5 * (x1 + x2) for x1, x2 in zip(edges, edges[1:])] + [edges[-1] + 1.0]
    # rows (value-, value+, derivative-, derivative+) of every wave, breakpoints first
    sides = np.array([w.one_sided(p.breakpoints + tuple(points)) for w in waves])
    left, right = sides[:, 0:4:2, :n], sides[:, 1:4:2, :n]
    continuity = float((np.abs(left - right) / (1.0 + np.abs(right))).max())
    (chi, dchi), (om, dom) = sides[0, 1::2, n:], sides[1:, 1::2, n:].transpose(1, 0, 2)
    values = chi * dom - dchi * om
    exact = np.array(exact)[:, None]
    # each value's distance to the exact Wronskian and to the farthest other value
    spread = np.abs(values[:, :, None] - values[:, None, :]).max(axis=2)
    return continuity, float((np.maximum(np.abs(values - exact), spread) / np.abs(exact)).max())


def _engine_agreement(p: PiecewisePotential, e: complex, waves, reference, rng: Random) -> float:
    """The engine's waves and kernels against the exact flow of ``reference``, at Im E > 0.

    The three waves are compared at 8 drawn radii and the kernel at the 4 pairs
    of them, 28 values in all; one walk of the exact flow serves each start.
    """
    hi = p.breakpoints[-1] + 2.0
    radii = np.array([0.05 + (hi - 0.05) * rng.random() for _ in range(8)])
    starts, (w_plus, _) = reference
    exact = np.array([[w for w, _ in _flow(p, e, *start, radii.tolist())] for start in starts])
    engine = np.array([w.value(radii) for w in waves])
    wave_resid = np.abs(exact - engine) / (np.abs(exact) + 1.0)
    # the kernel at the pairs (r, s) of consecutive radii, from the exact chi and omega_plus
    r, s = radii[0::2], radii[1::2]
    below = r <= s
    chi_lo = np.where(below, exact[0, 0::2], exact[0, 1::2])
    om_hi = np.where(below, exact[1, 1::2], exact[1, 0::2])
    g_exact = chi_lo * om_hi / w_plus
    g_engine = kernel_grid(p, e, r, s).diagonal()
    kernel_resid = np.abs(g_exact - g_engine) / (1.0 + np.abs(g_exact))
    return float(max(wave_resid.max(), kernel_resid.max()))


def _limit_agreement(p: PiecewisePotential, e: float, rng: Random) -> float:
    """The largest ``abs_diff`` of the :func:`boundary_limits` studies at 3 drawn points.

    Each point's "plus" trajectory is walked once and reflected for "minus",
    and each direction's formal kernels come from one :func:`kernel_grid`.
    """
    hi = p.breakpoints[-1] + 2.0
    pairs = [(0.1 + (hi - 0.1) * rng.random(), 0.1 + (hi - 0.1) * rng.random()) for _ in range(3)]
    # boundary_limit's default mu0 = 0.05 E
    ends = [_limit_walk(p, e, r, s, "plus", 0.05 * e)[1][-1] for r, s in pairs]
    rs, ss = zip(*pairs)
    plus, minus = (kernel_grid(p, e, rs, ss, d).diagonal().tolist() for d in ("plus", "minus"))
    return max(max(abs(g - f), abs(g.conjugate() - h)) for g, f, h in zip(ends, plus, minus))


def _random_instances(rng: Random, n: int):
    """``n`` staircases of 1-4 steps, widths in (0.3, 2), heights in (-5, 10), each with an energy.

    Every region has |E - v_j| >= 0.05.
    """
    out = []
    while len(out) < n:
        steps = 1 + int(4 * rng.random())  # exactly uniform: 4 divides 2**53
        breakpoints = np.cumsum([0.3 + 1.7 * rng.random() for _ in range(steps)])
        heights = np.array([-5.0 + 15.0 * rng.random() for _ in range(steps)] + [0.0])
        hi = max(0.2, 2.0 * float(heights.max()) + 5.0)
        e = 0.1 + (hi - 0.1) * rng.random()
        if np.min(np.abs(e - heights)) < 0.05:
            continue
        out.append((PiecewisePotential(tuple(breakpoints), tuple(heights)), e))
    return out


def run_verification(
    p: PiecewisePotential,
    e: float,
    seed: int = 0,
    n_random: int = 2,
    wronskian_scale: float = 1.0,
) -> dict:
    """Run the whole suite; returns the report dictionary used by the CLI.

    Any staircase runs through the same checks.  Every drawn value comes from
    ``random.Random(seed).random()``, whose stream CPython keeps from version
    to version for a given seed.  Before any draw or check it
    raises :class:`ConfigError` for a ``seed`` or ``n_random`` that is not an
    integer, a negative ``seed`` or an ``n_random`` outside
    [0, ``MAX_RANDOM_INSTANCES``], and :class:`DomainError` for a
    ``wronskian_scale`` that is not finite and nonzero, an energy that is not
    real, finite and positive, for a potential without breakpoints, for a
    last region so thin that the jump probes at its midpoint come within
    1e-3 of a breakpoint, or if a run of the distributional check's RK4
    oracle would take more steps than it allows
    (:func:`~sqgreen.oracle.rk4_runs`).  The resolvent check's grids step
    region by region, so no other region width is refused; that check raises
    :class:`DomainError` itself, when it runs, for grids it cannot lay
    (:func:`~sqgreen.oracle.check_resolvent_identity`).
    """
    try:
        seed, n_random = operator.index(seed), operator.index(n_random)
    except TypeError:
        raise ConfigError(
            f"seed and n_random must be integers, got {seed!r} and {n_random!r}"
        ) from None
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if not 0 <= n_random <= MAX_RANDOM_INSTANCES:
        raise ConfigError(f"n_random must lie in [0, {MAX_RANDOM_INSTANCES}], got {n_random}")
    p, e = of_type(p), real_energy(e, "verification")
    wronskian_scale = nonzero_real(wronskian_scale, "wronskian_scale")
    if not p.breakpoints:
        # the probe radii, the bump and the reference tails sit at the last breakpoint
        raise DomainError("verification needs a potential with at least one breakpoint")
    edges = (0.0,) + p.breakpoints
    s_mid = 0.5 * (edges[-2] + edges[-1])
    rk4_runs(p, e, s_mid)
    _jump_stencils(p, e, s_mid)
    ec = complex(e, 1.0)
    waves, reference = _engine_waves(p, ec), _reference(p, ec)
    continuity, wronskian = _wave_agreement(p, waves, reference[1])
    rng = Random(seed)
    n = len(p.breakpoints)
    checks = [
        ResidualReport.build("continuity", 6 * n, continuity, 1e-10),
        ResidualReport.build("wronskian", 2 * (n + 1), wronskian, 1e-10),
    ]
    directions = ("plus", "minus")
    for direction, dist in zip(directions, _distributional_reports(p, e, s_mid, directions, wronskian_scale)):
        checks += [replace(c, name=f"{c.name}_{direction}") for c in dist.components]
    bump = TestFunction("gaussian_bump", center=max(p.breakpoints[-1] + 1.0, 3.0), width=0.5)
    checks.append(check_resolvent_identity(p, ec, bump))
    checks.append(
        ResidualReport.build(
            "engine_equivalence",
            samples=28,
            max_residual=_engine_agreement(p, ec, waves, reference, rng),
            tolerance=1e-12,
        )
    )
    checks.append(
        ResidualReport.build(
            "limit_equivalence",
            samples=12,
            max_residual=_limit_agreement(p, e, rng),
            tolerance=1e-8,
        )
    )

    worst_random = 0.0
    for rp, re_ in _random_instances(rng, n_random):
        rec = complex(re_, 1.0)
        residuals = _wave_agreement(rp, _engine_waves(rp, rec), _reference(rp, rec)[1])
        worst_random = max(worst_random, *residuals)
    if n_random > 0:
        checks.append(
            ResidualReport.build(
                "randomized_instances",
                samples=n_random,
                max_residual=worst_random,
                tolerance=1e-10,
            )
        )

    report = {
        "instance": {
            "breakpoints": list(p.breakpoints),
            "heights": list(p.heights),
            "energy": {"re": e, "im": 0.0},
            "seed": seed,
        },
        "checks": [c.to_dict() for c in checks],
        "pass": all(c.passed for c in checks),
    }
    return report
