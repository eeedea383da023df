import cmath

import numpy as np
import pytest

from sqgreen import (
    BranchPointError,
    ContractError,
    DomainError,
    PiecewisePotential,
    SquareBarrier,
    branch_sqrt,
    build_chi,
    build_omega,
    chi_outer_amplitudes,
    kernel_grid,
    outer_wronskian,
    wronskian,
)

from sqgreen.model import region_momenta_array
from sqgreen.piecewise import _chi_outer, pole_function_array

from closed_forms import chi_coefficients, chi_wave, omega_wave, wronskian_closed_form
from conftest import close, random_instances, random_staircase


class TestPotential:
    def test_invariants(self):
        with pytest.raises(DomainError):
            PiecewisePotential((1.0, 0.5), (0.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            PiecewisePotential((1.0, 2.0), (0.0, 1.0, 3.0))  # tail must vanish
        with pytest.raises(DomainError):
            PiecewisePotential((-1.0, 2.0), (0.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            PiecewisePotential((1.0,), (0.0, 1.0, 0.0))  # length mismatch

    def test_square_barrier_embedding(self, barrier):
        pw = PiecewisePotential(barrier.breakpoints, barrier.heights)
        assert pw.breakpoints == (1.0, 2.0)
        assert pw.heights == (0.0, 5.0, 0.0)
        for r in (0.5, 1.0, 1.5, 2.0, 3.0):
            assert pw.value_at(r) == barrier.value_at(r)

    @pytest.mark.parametrize("r", [-0.1, np.nan, np.inf])
    def test_bad_radius_rejected(self, r):
        # nan and inf used to fall through to the outer height 0.0
        with pytest.raises(DomainError):
            PiecewisePotential((1.0, 2.0), (0.0, 5.0, 0.0)).value_at(r)


def test_outer_wronskian_refuses_waves_of_different_problems(barrier):
    # the same guard as wronskian: another energy or another potential
    chi = build_chi(barrier, 1.0 + 0.5j)
    split = PiecewisePotential((1.0, 1.5, 2.0), (0.0, 5.0, 5.0, 0.0))
    for other in (build_omega(barrier, 2.0 + 0.5j, "plus"), build_omega(split, 1.0 + 0.5j, "plus")):
        with pytest.raises(ContractError, match="different problems"):
            outer_wronskian(chi, other)


class TestEngineWaves:
    def test_free_chi_is_sine(self):
        pw = PiecewisePotential((), (0.0,))
        wave = build_chi(pw, 1.0 + 0j)
        r = np.linspace(0.0, 8.0, 33)
        assert close(wave.value(r), np.sin(r), atol=1e-13)

    def test_free_omega_plus_is_exponential(self):
        pw = PiecewisePotential((), (0.0,))
        wave = build_omega(pw, 1.0 + 0j, "plus")
        r = np.linspace(0.0, 8.0, 33)
        assert close(wave.value(r), np.exp(1j * r), atol=1e-13)

    def test_chi_vanishes_at_origin(self, rng):
        for n in (1, 3, 5):
            pw = random_staircase(rng, n)
            assert build_chi(pw, 1.3 + 0.4j).value(0.0) == 0.0

    def test_square_barrier_equivalence(self, rng):
        for p, e in random_instances(rng, 12):
            pw = PiecewisePotential(p.breakpoints, p.heights)
            for energy in (complex(e), complex(e, 0.9), complex(e, -0.9)):
                r = np.concatenate(
                    [np.linspace(0.05, p.b + 2.0, 17), [p.a, p.b]]
                )
                pairs = [
                    (chi_wave(p, energy), build_chi(pw, energy)),
                    (omega_wave(p, energy, "plus"), build_omega(pw, energy, "plus")),
                    (omega_wave(p, energy, "minus"), build_omega(pw, energy, "minus")),
                ]
                for closed, engine in pairs:
                    vc, ve = closed.value(r), engine.value(r)
                    assert np.max(np.abs(vc - ve) / (1.0 + np.abs(vc))) <= 1e-12
                    dc, de = closed.value_and_derivative(r)[1], engine.value_and_derivative(r)[1]
                    assert np.max(np.abs(dc - de) / (1.0 + np.abs(dc))) <= 1e-12

    def test_split_segment_invariance(self, barrier):
        e = 2.0 + 0.7j
        whole = PiecewisePotential(barrier.breakpoints, barrier.heights)
        mid = 0.5 * (barrier.a + barrier.b)
        split = PiecewisePotential(
            (barrier.a, mid, barrier.b), (0.0, barrier.v0, barrier.v0, 0.0)
        )
        r = np.linspace(0.05, barrier.b + 3.0, 41)
        for direction in ("plus", "minus"):
            w1 = build_omega(whole, e, direction)
            w2 = build_omega(split, e, direction)
            assert np.max(np.abs(w1.value(r) - w2.value(r)) / (1.0 + np.abs(w1.value(r)))) <= 1e-12
        c1, c2 = build_chi(whole, e), build_chi(split, e)
        assert np.max(np.abs(c1.value(r) - c2.value(r)) / (1.0 + np.abs(c1.value(r)))) <= 1e-12

    def test_wronskian_constant_across_many_regions(self, rng):
        for n in (2, 4, 8):
            pw = random_staircase(rng, n)
            e = complex(rng.uniform(0.5, 6.0), rng.uniform(0.2, 1.5))
            chi = build_chi(pw, e)
            om = build_omega(pw, e, "plus")
            w_ref = outer_wronskian(chi, om)
            probes = [0.5 * pw.breakpoints[0]]
            probes += [0.5 * (x + y) for x, y in zip(pw.breakpoints, pw.breakpoints[1:])]
            probes.append(pw.breakpoints[-1] + 1.0)
            for r in probes:
                assert abs(wronskian(chi, om, r) - w_ref) <= 1e-10 * abs(w_ref)

    def test_engine_wronskian_matches_closed_form(self, rng):
        for p, e in random_instances(rng, 8):
            pw = PiecewisePotential(p.breakpoints, p.heights)
            energy = complex(e, 0.6)
            for direction in ("plus", "minus"):
                w_engine = outer_wronskian(build_chi(pw, energy), build_omega(pw, energy, direction))
                w_closed = wronskian_closed_form(p, energy, direction)
                assert abs(w_engine - w_closed) <= 1e-12 * abs(w_closed)

    def test_interfaces_preserve_value_and_derivative(self, rng):
        # every interface of a random staircase matches value and slope, at
        # complex and at real energies, for each of the three waves
        for n in (1, 3, 6):
            pw = random_staircase(rng, n)
            for e in (complex(rng.uniform(0.5, 6.0), rng.uniform(-1.5, 1.5)), 7.5 + 0j):
                for wave in (
                    build_chi(pw, e), build_omega(pw, e, "plus"), build_omega(pw, e, "minus")
                ):
                    scale = 1.0 + np.max(np.abs(wave.value(np.array(pw.breakpoints))))
                    for bp in pw.breakpoints:
                        v_left, v_right, d_left, d_right = wave.one_sided(bp)
                        for left, right in ((v_left, v_right), (d_left, d_right)):
                            assert abs(left - right) <= 1e-12 * scale

    def test_free_particle_wronskian_reads_the_sin_region(self):
        # without breakpoints chi's outermost region is its sin region, whose
        # plane-wave pair outer_wronskian reads: W(chi, omega_plus) = -k
        free = PiecewisePotential((), (0.0,))
        for e in (2.25 + 0.5j, 0.3 + 2.0j, 4.0 + 0j):
            k = branch_sqrt(e)
            chi, om = build_chi(free, e), build_omega(free, e, "plus")
            assert abs(outer_wronskian(chi, om) + k) <= 1e-15 * abs(k)
            for r, s in ((0.4, 1.7), (2.5, 0.9)):
                lo, hi = min(r, s), max(r, s)
                want = cmath.sin(k * lo) * cmath.exp(1j * k * hi) / -k
                got = kernel_grid(free, e, [r], [s], None if e.imag else "plus")[0, 0]
                assert abs(got - want) <= 1e-14 * abs(want)

    def test_outer_amplitudes_are_the_closed_form_c3_c4(self, rng):
        # chi's outer amplitudes in the absolute convention, and so the pole
        # function c-, are the closed-form c3(J), c4(J) of a square barrier
        for p, e in random_instances(rng, 12):
            for energy in (complex(e), complex(e, 0.6), complex(e, -0.6)):
                cs = chi_coefficients(p, energy)
                c_plus, c_minus = chi_outer_amplitudes(p, energy)
                scale = abs(cs.c3) + abs(cs.c4)
                assert abs(c_plus - cs.c3) <= 1e-12 * scale
                assert abs(c_minus - cs.c4) <= 1e-12 * scale
        free = PiecewisePotential((), (0.0,))
        assert chi_outer_amplitudes(free, 2.0 + 0.5j) == (-0.5j, 0.5j)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: SquareBarrier(5.0, 1.0, 2.0),
            lambda rng: SquareBarrier(-4.0, 1.0, 2.0),
            *[lambda rng, n=n: random_staircase(rng, n) for n in (1, 2, 3, 4)],
            lambda rng: PiecewisePotential((), (0.0,)),
        ],
        ids=["barrier", "well", "1-step", "2-step", "3-step", "4-step", "free"],
    )
    def test_pole_function_derivative_is_the_central_difference(self, rng, make):
        # dc-/dE carried through the sweep against (c-(E + h) - c-(E - h)) / 2h
        # at 50 seeded complex energies at least 0.05 from every height
        p = make(rng)
        e = rng.uniform(-8.0, 12.0, 400) + 1j * rng.uniform(-3.0, 3.0, 400)
        e = e[np.all([np.abs(e - v) >= 0.05 for v in p.heights], axis=0)][:50]
        assert e.size == 50
        c_minus, slope = pole_function_array(p, e)
        # carrying the derivative never moves the value
        plain = _chi_outer(region_momenta_array(p, e), p.breakpoints, np)[1]
        assert c_minus.tobytes() == plain.tobytes()
        h = 1e-6
        central = (pole_function_array(p, e + h)[0] - pole_function_array(p, e - h)[0]) / (2.0 * h)
        assert np.all(np.abs(slope - central) <= 1e-6 * np.abs(central))

    def test_degenerate_region_rejected(self):
        pw = PiecewisePotential((1.0, 2.0), (0.0, 3.0, 0.0))
        with pytest.raises(BranchPointError):
            build_chi(pw, 3.0 + 0j)
        with pytest.raises(BranchPointError):
            build_omega(pw, 0.0 + 0j, "plus")

    def test_strongly_evanescent_segment_stays_finite(self):
        # tall wide step: amplitudes relative to local edges stay representable
        pw = PiecewisePotential((2.0, 6.0), (0.0, 400.0, 0.0))
        e = 1.0 + 0.5j
        chi = build_chi(pw, e)
        om = build_omega(pw, e, "plus")
        r = np.linspace(0.1, 7.0, 29)
        assert np.all(np.isfinite(chi.value(r).astype(complex)))
        assert np.all(np.isfinite(om.value(r).astype(complex)))
        w_ref = outer_wronskian(chi, om)
        assert np.isfinite(w_ref)
        # continuity still holds at both edges
        for wave in (chi, om):
            for bp in pw.breakpoints:
                l, rr = wave.one_sided(bp)[:2]
                assert abs(l - rr) <= 1e-9 * (1.0 + abs(rr))
