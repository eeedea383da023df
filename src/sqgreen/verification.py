"""The full invariant suite behind ``sqgreen verify``.

Runs every cross-check the package knows about on one configured instance
plus a few seeded random ones and collects the outcomes into a single
machine-readable report.  ``wronskian_scale`` is a test hook: scaling the
kernel normalization must make the jump check fail, which proves the suite
can actually reject a wrong kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .eigenfunctions import (
    chi_wave,
    kernel_closed_form,
    omega_wave,
    wronskian,
    wronskian_closed_form,
)
from .errors import ConfigError, DomainError
from .kernel import boundary_limit, resolvent_kernel, wave_pair
from .model import SquareBarrier, real_energy
from .oracle import (
    ResidualReport,
    TestFunction,
    _momentum_scale,
    check_distributional_equation,
    check_resolvent_identity,
    on_lattice,
    step_too_coarse,
)
from .piecewise import build_omega

#: step of the RK4 oracle; the barrier edges and the diagonal point sit on its lattice
LATTICE = 1e-3
#: the largest region momentum times LATTICE that RK4 resolves to its 1e-7
#: tolerance: on SquareBarrier(5, 1, 2), 0.0173 (E = 300) left a 7.1e-8
#: residual and 0.0187 (E = 350) one of 1.02e-7
MAX_LATTICE_PHASE = 0.018
#: the most random instances one run draws (about 1 ms each)
MAX_RANDOM_INSTANCES = 10**4


def _engine_waves(p: SquareBarrier, e: complex):
    """(chi, omega_plus, omega_minus) of the engine at E, the first two from :func:`wave_pair`."""
    chi, om_plus, _ = wave_pair(p, e, "plus")
    return chi, om_plus, build_omega(p, e, "minus")


def _wave_continuity(p: SquareBarrier, waves) -> float:
    worst = 0.0
    for w in waves:
        for bp in p.breakpoints:
            for fn in ("value", "derivative"):
                left = getattr(w, fn)(bp, "-")
                right = getattr(w, fn)(bp, "+")
                worst = max(worst, abs(left - right) / (1.0 + abs(right)))
    return worst


def _wronskian_agreement(p: SquareBarrier, e: complex, waves) -> float:
    """The kernels' Wronskian read at three radii, against the closed form."""
    worst = 0.0
    points = (0.5 * p.a, 0.5 * (p.a + p.b), p.b + 1.0)
    chi = waves[0]
    for direction, om in zip(("plus", "minus"), waves[1:]):
        closed = wronskian_closed_form(p, e, direction)
        values = [wronskian(chi, om, r) for r in points]
        for v in values:
            worst = max(worst, abs(v - closed) / abs(closed))
        spread = max(abs(v1 - v2) for v1 in values for v2 in values)
        worst = max(worst, spread / abs(closed))
    return worst


def _engine_agreement(p: SquareBarrier, e: complex, waves, rng: np.random.Generator) -> float:
    """The engine's waves and kernels against the closed forms, at Im E > 0."""
    radii = rng.uniform(0.05, p.b + 2.0, size=8)
    worst = 0.0
    closed_waves = (chi_wave(p, e), omega_wave(p, e, "plus"), omega_wave(p, e, "minus"))
    for closed, engine in zip(closed_waves, waves):
        vals_c = closed.value(radii)
        vals_e = engine.value(radii)
        scale = np.abs(vals_c) + 1.0
        worst = max(worst, float(np.max(np.abs(vals_c - vals_e) / scale)))
    for r, s in [(0.4, 1.7), (2.5, 0.9)]:
        g_closed = kernel_closed_form(p, e, r, s, "plus")
        g_engine = resolvent_kernel(p, e, r, s)
        worst = max(worst, abs(g_closed - g_engine) / (1.0 + abs(g_closed)))
    return worst


def _limit_agreement(p: SquareBarrier, e: float, rng: np.random.Generator) -> float:
    worst = 0.0
    for _ in range(3):
        r = float(rng.uniform(0.1, p.b + 2.0))
        s = float(rng.uniform(0.1, p.b + 2.0))
        for direction in ("plus", "minus"):
            worst = max(worst, boundary_limit(p, e, r, s, direction).abs_diff)
    return worst


def _random_instances(rng: np.random.Generator, n: int):
    out = []
    while len(out) < n:
        v0 = float(rng.uniform(-5.0, 10.0))
        a = float(rng.uniform(0.2, 3.0))
        b = float(a + rng.uniform(0.3, 2.0))
        e = float(rng.uniform(0.1, max(0.2, 2.0 * v0 + 5.0)))
        if abs(e - v0) < 0.05:
            continue
        out.append((SquareBarrier(v0, a, b), e))
    return out


def run_verification(
    p: SquareBarrier,
    e: float,
    seed: int = 0,
    n_random: int = 2,
    wronskian_scale: float = 1.0,
) -> dict:
    """Run the whole suite; returns the report dictionary used by the CLI.

    Before any draw or check it raises :class:`ConfigError` for a potential
    that is not a ``SquareBarrier``, a negative ``seed``, an ``n_random``
    outside [0, ``MAX_RANDOM_INSTANCES``] or a ``wronskian_scale`` that is
    not finite and nonzero, and :class:`DomainError` for an energy that is
    not real, finite and positive, if a barrier edge is off the ``LATTICE``
    (1e-3) that the RK4 re-integration steps on, if a region spans fewer than
    16 of its steps (:func:`~sqgreen.oracle.step_too_coarse`), or if the
    largest region momentum times ``LATTICE`` exceeds ``MAX_LATTICE_PHASE``
    (0.018), so that RK4 would not resolve the waves.  The last test comes
    after the instance's engine waves are built, so that waves which
    overflow double precision raise that error instead.
    """
    if not isinstance(p, SquareBarrier):
        # the report schema and its closed-form checks are barrier-specific
        raise ConfigError("verification currently runs on square barriers")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if not 0 <= n_random <= MAX_RANDOM_INSTANCES:
        raise ConfigError(f"n_random must lie in [0, {MAX_RANDOM_INSTANCES}], got {n_random}")
    if not (math.isfinite(wronskian_scale) and wronskian_scale != 0.0):
        raise ConfigError(f"wronskian_scale must be finite and nonzero, got {wronskian_scale}")
    e = real_energy(e, "verification")
    off = [x for x in p.breakpoints if not on_lattice(x, LATTICE)]
    if off:
        raise DomainError(
            f"barrier edges {off} must sit on the {LATTICE} lattice of the RK4 oracle"
        )
    if step_too_coarse(p, LATTICE):
        raise DomainError(f"regions (0, a) and (a, b) need 16 steps of the {LATTICE} lattice each")
    ec = complex(e, 1.0)
    # built first, so that waves which overflow are refused as such
    waves = _engine_waves(p, ec)
    phase = _momentum_scale(p, e) * LATTICE
    if phase > MAX_LATTICE_PHASE:
        # past 2 sqrt(2) rad an RK4 step amplifies even an oscillating wave
        unstable = "; its steps would grow until they overflow" if phase > 2.0**1.5 else ""
        raise DomainError(
            f"the fastest wave at E={e} advances {phase:.4g} rad per {LATTICE} step, "
            f"more than the {MAX_LATTICE_PHASE} that the RK4 oracle resolves{unstable}"
        )
    rng = np.random.default_rng(seed)
    s_mid = round((0.5 * (p.a + p.b)) / LATTICE) * LATTICE
    checks = [
        ResidualReport.build("continuity", 12, _wave_continuity(p, waves), 1e-10),
        ResidualReport.build("wronskian", 6, _wronskian_agreement(p, ec, waves), 1e-10),
    ]
    for direction in ("plus", "minus"):
        dist = check_distributional_equation(
            p, e, s_mid, direction, step=LATTICE, wronskian_scale=wronskian_scale
        )
        for comp in dist.components:
            checks.append(
                ResidualReport.build(
                    f"{comp.name}_{direction}",
                    samples=comp.samples,
                    max_residual=comp.max_residual,
                    tolerance=comp.tolerance,
                    excluded=comp.excluded,
                )
            )
    bump = TestFunction("gaussian_bump", center=max(p.b + 1.0, 3.0), width=0.5)
    checks.append(check_resolvent_identity(p, ec, bump))
    checks.append(
        ResidualReport.build(
            "engine_equivalence",
            samples=30,
            max_residual=_engine_agreement(p, ec, waves, rng),
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
        rwaves = _engine_waves(rp, rec)
        worst_random = max(worst_random, _wave_continuity(rp, rwaves))
        worst_random = max(worst_random, _wronskian_agreement(rp, rec, rwaves))
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
            "v0": p.v0,
            "a": p.a,
            "b": p.b,
            "energy": {"re": e, "im": 0.0},
            "seed": seed,
        },
        "checks": [c.to_dict() for c in checks],
        "pass": all(c.passed for c in checks),
    }
    return report
