import cmath
import warnings
from bisect import bisect_left, bisect_right

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
    wronskian,
)

from closed_forms import (
    chi_coefficients,
    chi_coefficients_expanded,
    chi_wave,
    omega_minus_coefficients,
    omega_minus_coefficients_expanded,
    omega_plus_coefficients,
    omega_plus_coefficients_expanded,
    omega_wave,
    wronskian_closed_form,
)
from conftest import close, random_instances

ENERGIES = [2.3 + 0.0j, 0.7 + 0.0j, 2.0 + 0.7j, 1.4 - 1.1j, -2.5 + 0.0j]


def _continuity_residual(wave):
    worst = 0.0
    for bp in wave.breakpoints:
        v_left, v_right, d_left, d_right = wave.one_sided(bp)
        for left, right in ((v_left, v_right), (d_left, d_right)):
            worst = max(worst, abs(left - right) / (1.0 + abs(right)))
    return worst


class TestChi:
    def test_free_particle_coefficients(self, free):
        cs = chi_coefficients(free, 1.0 + 0j)
        assert close(tuple(cs), (-0.5j, 0.5j, -0.5j, 0.5j), atol=1e-14)

    def test_free_particle_is_sine_everywhere(self, free):
        wave = chi_wave(free, 1.0 + 0j)
        r = np.array([0.3, 1.0, 1.5, 2.0, 2.7, 6.0])
        assert close(wave.value(r), np.sin(r), atol=1e-13)

    def test_vanishes_at_origin_exactly(self, barrier):
        for e in ENERGIES:
            assert chi_wave(barrier, e).value(0.0) == 0.0

    def test_continuity_random_instances(self, rng):
        for p, e in random_instances(rng, 20):
            for energy in (complex(e), complex(e, 0.6)):
                assert _continuity_residual(chi_wave(p, energy)) <= 1e-10

    def test_inner_region_value(self, free):
        wave = chi_wave(free, 1.0 + 0j)
        assert close(wave.one_sided(1.0)[0], cmath.sin(1.0), atol=1e-15)

    def test_branch_points_are_hard_errors(self, barrier):
        with pytest.raises(BranchPointError):
            chi_coefficients(barrier, 0.0 + 0j)
        with pytest.raises(BranchPointError):
            chi_coefficients(barrier, complex(barrier.v0))


class TestOmega:
    def test_free_particle_plus(self, free):
        cs = omega_plus_coefficients(free, 1.0 + 0j)
        assert close(tuple(cs), (1.0, 0.0, 1.0, 0.0), atol=1e-14)

    def test_free_particle_minus(self, free):
        cs = omega_minus_coefficients(free, 1.0 + 0j)
        assert close(tuple(cs), (0.0, 1.0, 0.0, 1.0), atol=1e-14)

    def test_continuity_random_instances(self, rng):
        for p, e in random_instances(rng, 15):
            for energy in (complex(e), complex(e, -0.8)):
                assert _continuity_residual(omega_wave(p, energy, "plus")) <= 1e-10
                assert _continuity_residual(omega_wave(p, energy, "minus")) <= 1e-10

    def test_outer_region_is_pure_exponential(self, barrier):
        e = 1.0 + 0j
        k = branch_sqrt(e)
        wave = omega_wave(barrier, e, "plus")
        r = barrier.b + 1.0
        assert close(wave.value(r), cmath.exp(1j * k * r), atol=1e-15)

    def test_decay_in_upper_half_plane(self, barrier):
        e = 2.0 + 1.5j
        k = branch_sqrt(e)
        wave = omega_wave(barrier, e, "plus")
        for r in (barrier.b + 1.0, barrier.b + 4.0, barrier.b + 12.0):
            # outer region is exactly exp(ikr), so the bound is an equality
            assert abs(wave.value(r)) <= 1.0000001 * cmath.exp(-k.imag * r).real

    def test_conjugate_pairing_at_real_energy(self, rng):
        # for real E above both thresholds the two tail solutions are complex
        # conjugates, which swaps the roles of the two members of each pair
        for p, e in random_instances(rng, 10):
            if e <= max(p.v0, 0.0) + 0.05:
                continue
            plus = omega_plus_coefficients(p, complex(e))
            minus = omega_minus_coefficients(p, complex(e))
            assert close(minus.c1, plus.c2.conjugate(), rtol=1e-12, atol=1e-15)
            assert close(minus.c2, plus.c1.conjugate(), rtol=1e-12, atol=1e-15)
            assert close(minus.c3, plus.c4.conjugate(), rtol=1e-12, atol=1e-15)
            assert close(minus.c4, plus.c3.conjugate(), rtol=1e-12, atol=1e-15)
            r = np.array([0.3, 0.5 * (p.a + p.b), p.b + 2.0])
            wp = omega_wave(p, complex(e), "plus")
            wm = omega_wave(p, complex(e), "minus")
            assert close(wm.value(r), np.conj(wp.value(r)), rtol=1e-12, atol=1e-15)


class TestSchwarzReflection:
    def test_chi_conjugate_energy(self, barrier):
        e = 1.7 + 0.9j
        r = np.array([0.4, 1.3, 2.8])
        direct = chi_wave(barrier, e.conjugate()).value(r)
        mirrored = np.conj(chi_wave(barrier, e).value(r))
        assert close(direct, mirrored, rtol=1e-12, atol=1e-15)

    def test_omega_pair_swaps_under_conjugation(self, barrier):
        e = 1.7 + 0.9j
        r = np.array([0.4, 1.3, 2.8])
        direct = omega_wave(barrier, e.conjugate(), "plus").value(r)
        mirrored = np.conj(omega_wave(barrier, e, "minus").value(r))
        assert close(direct, mirrored, rtol=1e-12, atol=1e-15)


class TestDerivatives:
    def test_free_chi_derivative(self, free):
        wave = chi_wave(free, 1.0 + 0j)
        assert close(wave.one_sided(1.0)[2], cmath.cos(1.0), atol=1e-15)

    def test_outgoing_outer_derivative(self, barrier):
        e = 1.0 + 0j
        k = branch_sqrt(e)
        wave = omega_wave(barrier, e, "plus")
        r = barrier.b + 0.7
        assert close(wave.value_and_derivative(r)[1], 1j * k * cmath.exp(1j * k * r), atol=1e-15)

    def test_one_sided_derivatives_match_at_breakpoints(self, barrier):
        wave = chi_wave(barrier, 2.0 + 0.7j)
        for bp in barrier.breakpoints:
            _, _, left, right = wave.one_sided(bp)
            assert abs(left - right) <= 1e-10 * (1.0 + abs(right))

    def test_negative_radius_rejected(self, barrier):
        from sqgreen import DomainError

        wave = chi_wave(barrier, 1.0 + 0j)
        for r in (-0.5, -1e-300, -np.inf, np.float64(-2.0)):
            with pytest.raises(DomainError):
                wave.value(r)
            with pytest.raises(DomainError):
                wave.one_sided(r)


def test_non_finite_radius_rejected():
    # numpy's searchsorted sent NaN to the outermost region, whose formula
    # returned nan+nanj with at most a RuntimeWarning
    for wave in (chi_wave(SquareBarrier(5, 1, 2), 1), build_chi(SquareBarrier(5, 1, 2), 1)):
        with pytest.raises(DomainError):
            wave.value(float("nan"))
        with pytest.raises(DomainError):
            wave.value(np.array([0.5, np.nan]))
        with pytest.raises(DomainError):
            wave.value_and_derivative(float("inf"))


def test_non_real_radius_rejected():
    # a complex radius was cast to its real part with only a ComplexWarning, and
    # a string raised numpy's bare ValueError
    p = SquareBarrier(5, 1, 2)
    chi, om = build_chi(p, 1.3), build_omega(p, 1.3, "plus")
    for r in (np.array([0.5 + 2j]), 0.5 + 2j, "x", ["x"]):
        for read in (chi.value, chi.value_and_derivative, chi.one_sided):
            with pytest.raises(DomainError, match="real numbers"):
                read(r)
        with pytest.raises(DomainError, match="real numbers"):
            wronskian(chi, om, r)


def test_overflowing_wave_reads_raise():
    # at r = 1e308 chi read nan+infj and the Wronskian nan+nanj, with only
    # numpy RuntimeWarnings, where kernel_grid raised DomainError
    p = SquareBarrier(5, 1, 2)
    chi, om = build_chi(p, 1 + 1j), build_omega(p, 1 + 1j, "plus")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (chi.value, chi.value_and_derivative, chi.one_sided, om.value):
            with pytest.raises(DomainError, match="not finite"):
                read(1e308)
        with pytest.raises(DomainError, match="not finite"):
            wronskian(chi, om, 1e308)


def test_sin_region_past_the_plane_wave_range_is_finite_without_warning():
    # at this radius sin(k r) is finite but exp(kappa r) is not, so the plane-wave
    # formula must give the sin region exactly 0 before its own formula overwrites it
    chi = build_chi(PiecewisePotential((), (0.0,)), 1 + 1j)
    r = 1559.9117043015965
    want = -1.0044344014038564e308 + 1.1237482546183088e307j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert chi.value(r) == want
        assert chi.value(np.array([r, r]))[1] == want
        assert chi.one_sided(r)[:2] == (want, want)


def _scalar_probe_waves():
    barrier = SquareBarrier(5.0, 1.0, 2.0)
    stair = PiecewisePotential((0.6, 1.3, 2.1), (1.5, -2.0, 4.0, 0.0))
    for e in (1.0 + 0j, 2.3 + 0.9j):
        yield barrier, chi_wave(barrier, e)
        for direction in ("plus", "minus"):
            yield barrier, omega_wave(barrier, e, direction)
        yield stair, build_chi(stair, e)
        for direction in ("plus", "minus"):
            yield stair, build_omega(stair, e, direction)


def test_scalar_lookups_equal_one_element_arrays():
    # a scalar radius must pick the same region and return the same bits as a
    # one-element array, at the origin, inside every region and on both sides
    # of every breakpoint
    for p, wave in _scalar_probe_waves():
        edges = (0.0,) + tuple(p.breakpoints)
        inner = [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])] + [edges[-1] + 1.3]
        for r in [0.0, 0, *inner, *p.breakpoints]:
            # one_sided reads both sides, value and value_and_derivative the right one
            for fn in (lambda x: (wave.value(x),), wave.value_and_derivative, wave.one_sided):
                for scalar, array in zip(fn(r), fn(np.array([r]))):
                    assert type(scalar) is complex
                    assert np.complex128(scalar).tobytes() == array[0].tobytes(), (p, r)


def _region_formula(wave, r: float, side: str, what: str) -> complex:
    """Region.value or Region.derivative of the region ``side`` picks at ``r``, on [r]."""
    find = bisect_right if side == "+" else bisect_left
    region = wave.regions[find(wave.breakpoints, r)]
    return getattr(region, what)(np.array([r]))[0]


def _table_waves():
    """chi (with its sin region) and omega+- of engine and closed-form waves, at real and complex E."""
    barrier = SquareBarrier(5.0, 1.0, 2.0)
    stair = PiecewisePotential((0.6, 1.3, 2.1), (1.5, -2.0, 4.0, 0.0))
    for e in (1.0 + 0j, 6.5 + 0j, 2.3 + 0.9j, 0.7 - 0.4j):
        for p in (barrier, stair):
            yield p, build_chi(p, e)
            for direction in ("plus", "minus"):
                yield p, build_omega(p, e, direction)
        yield barrier, chi_wave(barrier, e)
        for direction in ("plus", "minus"):
            yield barrier, omega_wave(barrier, e, direction)


def test_table_lookup_is_the_region_formula_bit_for_bit():
    # every radius takes its region's own Region.value/derivative, whatever
    # the other radii of the call: the origin, radii in every region and
    # both sides of every breakpoint, in one array call and one at a time
    rng = np.random.default_rng(16)
    for p, wave in _table_waves():
        edges = (0.0,) + tuple(p.breakpoints) + (p.breakpoints[-1] + 3.0,)
        inside = [rng.uniform(lo, hi, 4) for lo, hi in zip(edges, edges[1:])]
        radii = np.concatenate([[0.0], *inside, p.breakpoints])
        rng.shuffle(radii)
        v_left, v_right, d_left, d_right = wave.one_sided(radii)
        value, deriv = wave.value_and_derivative(radii)
        assert (value.tobytes(), deriv.tobytes()) == (v_right.tobytes(), d_right.tobytes())
        assert wave.value(radii).tobytes() == value.tobytes()
        for side, reads in (("-", (v_left, d_left)), ("+", (v_right, d_right))):
            for what, got in zip(("value", "derivative"), reads):
                expected = [_region_formula(wave, r, side, what) for r in radii.tolist()]
                assert np.array(expected).tobytes() == got.tobytes(), (p, wave.energy, side, what)
        # one radius at a time, through each read
        single = [wave.one_sided(r) for r in radii.tolist()]
        for j, got in enumerate((v_left, v_right, d_left, d_right)):
            assert np.array([s[j] for s in single]).tobytes() == got.tobytes(), (p, wave.energy, j)
        single = [wave.value_and_derivative(r) for r in radii.tolist()]
        assert np.array(single).T.tobytes() == np.array([value, deriv]).tobytes()
        single = [wave.value(r) for r in radii.tolist()]
        assert np.array(single).tobytes() == value.tobytes()


def test_table_lookup_shapes():
    wave = build_chi(SquareBarrier(5.0, 1.0, 2.0), 2.3 + 0.9j)
    # a 0-d array is a scalar
    got = wave.value(np.array(1.5))
    assert type(got) is complex and got == wave.value(1.5)
    for fn in (wave.value_and_derivative, wave.one_sided):
        got = fn(np.array(1.5))
        assert all(type(x) is complex for x in got) and got == fn(1.5)
    assert wave.value_and_derivative(np.array(0.5)) == (wave.value(0.5), wave.one_sided(0.5)[3])
    # an empty array gives empty arrays
    empty = np.array([])
    assert wave.value(empty).shape == (0,) and wave.value(empty).dtype == complex
    assert [x.shape for x in wave.one_sided(empty)] == [(0,)] * 4
    # a grid keeps its shape
    grid = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    assert wave.value(grid).tobytes() == wave.value(grid.ravel()).tobytes()
    assert wave.value(grid).shape == (3, 4)


class TestWronskian:
    def test_constant_across_regions(self, barrier):
        e = 2.0 + 0.7j
        chi = chi_wave(barrier, e)
        om = omega_wave(barrier, e, "plus")
        pts = (0.5 * barrier.a, 0.5 * (barrier.a + barrier.b), barrier.b + 1.0)
        values = [wronskian(chi, om, r) for r in pts]
        for v1 in values:
            for v2 in values:
                assert abs(v1 - v2) <= 1e-10 * abs(v2)

    def test_matches_closed_form(self, rng):
        for p, e in random_instances(rng, 15):
            for energy in (complex(e), complex(e, 0.45)):
                chi = chi_wave(p, energy)
                for which in ("plus", "minus"):
                    om = omega_wave(p, energy, which)
                    closed = wronskian_closed_form(p, energy, which)
                    numeric = wronskian(chi, om, 0.5 * (p.a + p.b))
                    assert abs(numeric - closed) <= 1e-10 * abs(closed)

    def test_free_particle_value(self, free):
        e = 1.0 + 0j
        assert close(wronskian_closed_form(free, e, "plus"), -1.0, atol=1e-14)
        assert close(wronskian_closed_form(free, e, "minus"), -1.0, atol=1e-14)

    def test_plus_uses_c4_times_energy_root(self, barrier):
        e = 2.0 + 0.7j
        cs = chi_coefficients(barrier, e)
        k = branch_sqrt(e)
        assert wronskian_closed_form(barrier, e, "plus") == 2j * k * cs.c4
        assert wronskian_closed_form(barrier, e, "minus") == -2j * k * cs.c3

    def test_mismatched_waves_rejected(self, barrier, free):
        chi = chi_wave(barrier, 1.0 + 0j)
        with pytest.raises(ContractError):
            wronskian(chi, omega_wave(barrier, 2.0 + 0j, "plus"), 1.5)
        with pytest.raises(ContractError):
            wronskian(chi, omega_wave(free, 1.0 + 0j, "plus"), 1.5)

    def test_mismatched_waves_rejected_on_arrays(self, barrier, free):
        chi = build_chi(barrier, 1.0 + 0j)
        radii = np.array([0.5, 1.5, 3.0])
        for other in (build_omega(barrier, 2.0 + 0j, "plus"), build_omega(free, 1.0 + 0j, "plus")):
            with pytest.raises(ContractError):
                wronskian(chi, other, radii)

    def test_array_entries_equal_single_radii(self, barrier):
        chi = build_chi(barrier, 2.0 + 0.7j)
        om = build_omega(barrier, 2.0 + 0.7j, "plus")
        radii = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        batched = wronskian(chi, om, radii)
        assert batched.tobytes() == np.array([wronskian(chi, om, r) for r in radii.tolist()]).tobytes()


class TestExpandedForms:
    """The nested-product closed forms must reproduce the continuity solves."""

    def test_all_twelve_coefficients_agree(self, rng):
        for p, e in random_instances(rng, 15):
            for energy in (complex(e), complex(e, 0.8), complex(e, -0.8)):
                for solve, expanded in (
                    (chi_coefficients, chi_coefficients_expanded),
                    (omega_plus_coefficients, omega_plus_coefficients_expanded),
                    (omega_minus_coefficients, omega_minus_coefficients_expanded),
                ):
                    got = tuple(solve(p, energy))
                    ref = tuple(expanded(p, energy))
                    for g, r in zip(got, ref):
                        assert abs(g - r) <= 1e-12 * max(1.0, abs(r))

    def test_edge_phase_variant_is_caught(self, barrier):
        # negative control: referencing the final phase of c2 at the outer
        # edge b instead of the inner edge a must break the agreement, so a
        # single-term transcription slip cannot slide through this check
        from sqgreen.model import region_momenta

        e = 2.0 + 0.7j
        k, q, _ = region_momenta(barrier, e)
        a, b = barrier.a, barrier.b
        cs = omega_plus_coefficients(barrier, e)
        variant_c2 = 0.5 * cmath.exp(1j * k * a) * (
            (1 - q / k) * cmath.exp(1j * q * a) * cs.c3
            + (1 + q / k) * cmath.exp(-1j * q * b) * cs.c4
        )
        correct_c2 = omega_plus_coefficients_expanded(barrier, e).c2
        assert abs(correct_c2 - cs.c2) <= 1e-12 * abs(cs.c2)
        assert abs(variant_c2 - cs.c2) > 1e-6 * abs(cs.c2)
