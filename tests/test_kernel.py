import cmath
import math
import random
import warnings
from bisect import bisect_right

import numpy as np
import pytest

import sqgreen.kernel as kernel_module
import sqgreen.piecewise as piecewise_module
from sqgreen import (
    BranchPointError,
    ContractError,
    DomainError,
    PiecewisePotential,
    PoleError,
    SquareBarrier,
    boundary_limit,
    branch_sqrt,
    build_chi,
    find_kernel_poles,
    formal_green,
    integrate_schrodinger,
    kernel_grid,
    kernel_pole_residual,
    resolvent_kernel,
    run_verification,
)
from sqgreen.model import _branch_sqrt_array, region_momenta_array, require_off_branch

from closed_forms import kernel_closed_form
from conftest import _MEMOS, close, random_instances, random_staircase


class TestResolventKernel:
    def test_zero_at_origin_exactly(self, barrier):
        for e in (1.5 + 0.4j, 2.0 - 1.0j):
            for s in (0.3, 1.5, 4.0):
                assert resolvent_kernel(barrier, e, 0.0, s) == 0.0

    def test_symmetry_is_exact(self, barrier, rng):
        for _ in range(10):
            e = complex(rng.uniform(0.2, 6.0), rng.choice([-1, 1]) * rng.uniform(0.1, 1.5))
            r, s = rng.uniform(0.05, 4.0, size=2)
            assert (
                resolvent_kernel(barrier, e, r, s)
                == resolvent_kernel(barrier, e, s, r)
            )

    @pytest.mark.parametrize("e", [1.0 + 0.3j, 1.0 - 0.3j, 2.5 + 1.0j, 2.5 - 1.0j])
    def test_schwarz_reflection(self, barrier, e):
        for r, s in ((0.4, 1.7), (2.6, 3.3), (1.2, 0.8)):
            direct = resolvent_kernel(barrier, e.conjugate(), r, s)
            mirrored = resolvent_kernel(barrier, e, r, s).conjugate()
            assert abs(direct - mirrored) <= 1e-10 * abs(mirrored)

    def test_real_energy_redirected(self, barrier):
        with pytest.raises(ContractError):
            resolvent_kernel(barrier, 1.0 + 0j, 0.5, 1.5)

    def test_engine_path_matches_closed_form(self, rng):
        for p, e in random_instances(rng, 8):
            energy = complex(e, rng.choice([-1, 1]) * 0.7)
            r, s = rng.uniform(0.05, p.b + 2.0, size=2)
            direction = "plus" if energy.imag > 0.0 else "minus"
            g_closed = kernel_closed_form(p, energy, r, s, direction)
            g_engine = resolvent_kernel(p, energy, r, s)
            assert abs(g_closed - g_engine) <= 1e-12 * (1.0 + abs(g_closed))

    def test_overflowing_waves_raise(self, barrier):
        # chi overflows at r = 600 far above the axis; the product would be nan
        with pytest.raises(DomainError):
            resolvent_kernel(barrier, 1.5 + 5j, 600.0, 600.0)
        with pytest.raises(DomainError):
            kernel_grid(barrier, 1.5 + 5j, [1.0, 600.0], [600.0])

    def test_a_wave_overflowing_where_no_entry_reads_it_is_no_error(self):
        # chi overflows at s, but the grid reads chi only at r <= s and omega at s
        p, e, s = SquareBarrier(20.0, 1.0, 3.0), 1.5 + 5j, 517.9474679231213
        with pytest.raises(DomainError, match="not finite"):
            build_chi(p, e).value(s)
        assert np.isfinite(kernel_grid(p, e, [0.5, 2.0], [s])).all()

    @pytest.mark.parametrize("r", [[1, 2], np.array([1.0, 2.0])])
    def test_scalar_kernel_needs_one_real_radius(self, barrier, r):
        # a list radius raised a bare ValueError from .item()
        with pytest.raises(DomainError, match="radii must form a regular array"):
            resolvent_kernel(barrier, 1 + 1j, r, 1.5)
        with pytest.raises(DomainError, match="radii must form a regular array"):
            formal_green(barrier, 1.0, 1.5, r, "plus")

    @pytest.mark.parametrize(
        "p, e",
        [
            (SquareBarrier(5.0, 1.0, 2.0), complex(1e300, 5e298)),
            (SquareBarrier(1e6, 1.0, 2.0), 1.0 + 1.0j),
            (PiecewisePotential((1.0, 3.0), (0.0, 1e6, 0.0)), 1.0 + 1.0j),
            # exp at the outer edge 1e308 raised a bare ValueError ("math domain error")
            (SquareBarrier(5.0, 1.0, 1e308), 7.0),
            (PiecewisePotential((1.0, 1e308), (3.0, -2.0, 0.0)), 4.0 + 1.0j),
        ],
    )
    def test_overflowing_amplitudes_raise(self, p, e):
        # cmath raised a bare OverflowError while the waves were matched, before
        # any radius was read; a real energy asks for the formal kernel
        with pytest.raises(DomainError, match="overflow"):
            if isinstance(e, complex):
                resolvent_kernel(p, e, 1.0, 1.0)
            else:
                formal_green(p, e, 0.5, 0.7, "plus")

    def test_unmatched_amplitudes_raise(self):
        # the outer phase underflowed to 0 and c+ / phase raised ZeroDivisionError
        with pytest.raises(DomainError, match="overflow"):
            kernel_pole_residual(SquareBarrier(5.0, 1.0, 1e308), 1.5 + 0.2j)
        # a step at 1e308 left NaN amplitudes beyond it, and |c-| read nan
        p, e = PiecewisePotential((1.0, 1e308), (0.0, 1e6, 0.0)), 3 - 1e-310j
        with pytest.raises(DomainError, match="overflow"):
            build_chi(p, e)
        with pytest.raises(DomainError, match="overflow"):
            kernel_pole_residual(p, e)

    def test_offdiagonal_decay_above_axis(self, barrier):
        e = 2.0 + 1.2j
        im_k = branch_sqrt(e).imag
        s = 0.8
        r0 = barrier.b + 1.0
        base = abs(resolvent_kernel(barrier, e, r0, s))
        for dr in (1.0, 2.5, 4.0):
            val = abs(resolvent_kernel(barrier, e, r0 + dr, s))
            assert val <= 1.0000001 * base * np.exp(-im_k * dr)


class TestKernelGrid:
    RS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.75]
    SS = [0.25, 1.0, 2.0, 3.5]

    def test_entries_equal_scalar_resolvent_kernel(self, barrier):
        stair = PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -1.0, 0.0))
        for p in (barrier, stair):
            for e in (1.5 + 0.2j, 2.0 - 0.7j):
                grid = kernel_grid(p, e, self.RS, self.SS)
                assert grid.shape == (len(self.RS), len(self.SS))
                for i, r in enumerate(self.RS):
                    for j, s in enumerate(self.SS):
                        assert grid[i, j] == resolvent_kernel(p, e, r, s)

    @pytest.mark.parametrize("direction", ["plus", "minus"])
    def test_entries_equal_scalar_formal_green(self, barrier, direction):
        grid = kernel_grid(barrier, 1.5, self.RS, self.SS, direction)
        for i, r in enumerate(self.RS):
            for j, s in enumerate(self.SS):
                assert grid[i, j] == formal_green(barrier, 1.5, r, s, direction)

    def test_repeated_and_unsorted_radii(self, barrier):
        # each wave is evaluated on the radii of both axes; every entry still
        # reads the value at its own min(r, s) and max(r, s)
        rs, ss = [2.75, 0.5, 2.75, 1.0, 0.0], [1.0, 0.5, 3.5, 1.0]
        grid = kernel_grid(barrier, 1.5 + 0.2j, rs, ss)
        for i, r in enumerate(rs):
            for j, s in enumerate(ss):
                assert grid[i, j] == resolvent_kernel(barrier, 1.5 + 0.2j, r, s)

    @staticmethod
    def _crossing_axis(rng, p) -> list[float]:
        """Radii on each breakpoint, just either side of it, at 0 and scattered to 2 beyond."""
        bps = p.breakpoints
        points = [0.0, *bps, *(b - 1e-3 for b in bps), *(b + 1e-3 for b in bps)]
        points += list(rng.uniform(0.0, bps[-1] + 2.0, size=6))
        return sorted(points)

    def _draws(self, rng):
        """(staircase, E, direction, axis): complex E above and below the axis, real E both ways."""
        for n_steps in (1, 2, 3, 4):
            for _ in range(6):
                p = random_staircase(rng, n_steps)
                axis = self._crossing_axis(rng, p)
                for sign in (1.0, -1.0):
                    e = complex(rng.uniform(-3.0, 10.0), sign * rng.uniform(0.05, 2.0))
                    yield p, e, None, axis
                e = float(rng.uniform(0.1, 10.0))
                for direction in ("plus", "minus"):
                    yield p, e, direction, axis

    def test_square_grid_is_symmetric_bit_for_bit(self, rng):
        # eval prints each entry below the diagonal of a square grid from its mirror
        for p, e, direction, axis in self._draws(rng):
            grid = kernel_grid(p, e, axis, axis, direction)
            assert grid.tobytes() == grid.T.tobytes(), (p, e, direction)

    def test_swapped_axes_give_the_transpose_bit_for_bit(self, rng):
        for p, e, direction, axis in self._draws(rng):
            rs = axis[::2]
            ss = list(rng.uniform(0.0, p.breakpoints[-1] + 2.0, size=5)) + axis[1::3]
            grid = kernel_grid(p, e, rs, ss, direction)
            assert kernel_grid(p, e, ss, rs, direction).tobytes() == grid.T.tobytes()

    def test_empty_axis(self, barrier):
        assert kernel_grid(barrier, 1.0 + 1.0j, [], self.SS).shape == (0, len(self.SS))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_radius_rejected(self, barrier, bad):
        with pytest.raises(DomainError):
            kernel_grid(barrier, 1.0 + 1.0j, [0.5, bad], self.SS)
        with pytest.raises(DomainError):
            kernel_grid(barrier, 1.5, self.RS, [bad], "plus")
        with pytest.raises(DomainError):
            resolvent_kernel(barrier, 1.0 + 1.0j, 0.5, bad)

    def test_non_real_radius_rejected(self, barrier):
        # a complex radius was cast to its real part with only a ComplexWarning,
        # or raised a bare TypeError
        with pytest.raises(DomainError, match="real numbers"):
            kernel_grid(barrier, 1 + 1j, np.array([0.5 + 2j]), [1.0])
        with pytest.raises(DomainError, match="real numbers"):
            resolvent_kernel(barrier, 1 + 1j, 0.5 + 2j, 1.0)
        with pytest.raises(DomainError, match="real numbers"):
            boundary_limit(barrier, 1.3, 0.5 + 2j, 1.0, "plus")
        with pytest.raises(DomainError, match="real numbers"):
            kernel_grid(barrier, 1.5, ["x"], self.SS, "plus")

    def test_ragged_axis_rejected(self, barrier):
        # np.size raised numpy's bare "inhomogeneous shape" ValueError
        with pytest.raises(DomainError, match="radii must form a regular array"):
            kernel_grid(barrier, 1 + 1j, [[0.5, 1.0], [2.0]], [1.0])
        with pytest.raises(DomainError, match="radii must form a regular array"):
            kernel_grid(barrier, 1.5, [1.0], [[0.5, 1.0], [2.0]], "plus")

    def test_energy_contracts(self, barrier):
        with pytest.raises(ContractError):
            kernel_grid(barrier, 1.5, self.RS, self.SS)
        with pytest.raises(DomainError):
            kernel_grid(barrier, -1.5, self.RS, self.SS, "plus")
        with pytest.raises(ContractError):
            kernel_grid(barrier, 1.5, self.RS, self.SS, "up")


class TestFormalGreen:
    def test_free_particle_closed_form(self, free):
        got = formal_green(free, 1.0, 1.0, 2.0, "plus")
        want = -np.sin(1.0) * np.exp(2j)
        assert close(got, want, rtol=1e-12)
        assert close(got, 0.35017548837401463 - 0.7651474012342926j, rtol=1e-10)

    def test_minus_is_conjugate_of_plus_free(self, free):
        for r, s in ((0.5, 2.5), (3.0, 1.0)):
            plus = formal_green(free, 1.7, r, s, "plus")
            minus = formal_green(free, 1.7, r, s, "minus")
            assert close(minus, plus.conjugate(), rtol=1e-12)

    def test_zero_at_origin(self, barrier):
        assert formal_green(barrier, 1.0, 0.0, 2.0, "plus") == 0.0

    def test_tunnelling_energies_allowed(self, barrier):
        # 0 < E < v0: interior momentum is +i sqrt(v0 - E), kernel stays finite
        g = formal_green(barrier, 2.0, 0.7, 1.6, "plus")
        assert np.isfinite(g)

    def test_non_numeric_energy_rejected(self, barrier):
        # complex("x") raised a bare ValueError
        with pytest.raises(DomainError, match="real E > 0"):
            formal_green(barrier, "x", 1.0, 1.5, "plus")

    def test_nonpositive_energy_rejected(self, barrier):
        with pytest.raises(DomainError):
            formal_green(barrier, 0.0, 0.5, 1.5, "plus")
        with pytest.raises(DomainError):
            formal_green(barrier, -1.0, 0.5, 1.5, "plus")

    def test_samples_are_plain_complex(self, barrier):
        assert type(formal_green(barrier, 1.0, 0.5, 1.5, "plus")) is complex
        assert type(resolvent_kernel(barrier, 1.0 + 0.5j, 0.5, 1.5)) is complex

    def test_one_chi_matching_per_sample(self, barrier, monkeypatch):
        calls = []
        matching = piecewise_module._chi_amplitudes

        def counted(*args):
            calls.append(args)
            return matching(*args)

        monkeypatch.setattr(piecewise_module, "_chi_amplitudes", counted)
        formal_green(barrier, 1.0, 0.5, 1.5, "plus")
        assert len(calls) == 1

    @pytest.mark.parametrize("direction", ["plus", "minus"])
    def test_vanishing_denominator_raises(self, barrier, monkeypatch, direction):
        # W = 2ik c- (plus) or -2ik c+ (minus); the pole bound is |c-+| < 1e-14
        waves = kernel_module.wave_pair
        amplitude = [0.0]

        def pole(p, e, d):
            chi, om, _ = waves(p, e, d)
            return chi, om, 2j * chi.regions[-1].k * amplitude[0]

        monkeypatch.setattr(kernel_module, "wave_pair", pole)
        for c in (0.0, 5e-15):
            amplitude[0] = c
            with pytest.raises(PoleError):
                formal_green(barrier, 1.5, 0.5, 1.5, direction)
            with pytest.raises(PoleError):
                kernel_grid(barrier, 1.5, [0.5, 1.0], [1.5], direction)
        amplitude[0] = 2e-14
        assert cmath.isfinite(formal_green(barrier, 1.5, 0.5, 1.5, direction))


def _lane_draws(n, seed=40):
    """(p, E, r, s, direction) draws for the scalar kernels: staircases of 1-4 steps with
    heights within +-30, real E in both directions and complex E on both sides of the axis
    (|Im E| from 1e-6 to 30), r and s at 0, on a breakpoint, at r = s, inside chi's sin
    region, inside the potential and beyond it."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < n:
        m = int(rng.integers(1, 5))
        bps = np.sort(rng.uniform(0.1, 6.0, m))
        if np.any(np.diff(bps) < 0.05):
            continue
        p = PiecewisePotential(tuple(bps.tolist()), tuple(rng.uniform(-30.0, 30.0, m).tolist()) + (0.0,))
        re, kind = float(rng.uniform(0.05, 40.0)), int(rng.integers(0, 4))
        if kind < 2:
            e, direction = re, ("plus", "minus")[kind]
        else:
            e, direction = complex(re, (-1) ** kind * 10 ** rng.uniform(-6.0, math.log10(30.0))), None
        if any(abs(e - v) < 1e-3 for v in p.heights):
            continue
        places = (0.0, float(rng.choice(bps)), float(rng.uniform(0.0, bps[0])),
                  float(rng.uniform(0.0, bps[-1])), float(rng.uniform(bps[-1], bps[-1] + 20.0)))
        r = places[int(rng.integers(0, 5))]
        s = r if rng.random() < 0.2 else places[int(rng.integers(0, 5))]
        draws.append((p, e, r, s, direction))
    return draws


def _scalar(p, e, r, s, direction):
    return resolvent_kernel(p, e, r, s) if direction is None else formal_green(p, e, r, s, direction)


def _bits(z):
    return np.array([z]).view(np.uint64).tolist()


def _outcome(call):
    """The bits of ``call()``, or the class and message of what it raised."""
    try:
        return _bits(call())
    except Exception as error:
        return type(error), str(error)


_BARRIER, _HIGH = SquareBarrier(5.0, 1.0, 2.0), PiecewisePotential((1.0, 3.0), (0.0, 1e6, 0.0))


class TestScalarLanes:
    """A scalar kernel reads one-entry lanes and is its 1 x 1 kernel_grid entry, bit for bit."""

    def test_equals_the_grid_entry_bit_for_bit(self):
        draws = _lane_draws(300)
        assert {d for *_, d in draws} == {None, "plus", "minus"}
        assert {e.imag > 0 for _, e, *_, d in draws if d is None} == {True, False}
        for p, e, r, s, direction in draws:
            grid = kernel_grid(p, e, (r,), (s,), direction)[0, 0]
            got = _scalar(p, e, r, s, direction)
            assert type(got) is complex
            assert _bits(got) == _bits(grid), (p, e, r, s, direction)

    @pytest.mark.parametrize(
        "p, e, r, s, direction",
        [
            # the waves overflow at r = s = 600
            (_BARRIER, 1.5 + 5j, 600.0, 600.0, None),
            (_BARRIER, 1.5 - 5j, 600.0, 600.0, None),
            # the amplitudes overflow under a step of height 1e6
            (_HIGH, 2.0 + 1j, 0.5, 2.0, None),
            (_HIGH, 2.0, 0.5, 2.0, "plus"),
            (_HIGH, 2.0, 0.5, 2.0, "minus"),
            # the barrier top is a branch point
            (_BARRIER, 5.0, 0.5, 1.5, "plus"),
            (_BARRIER, 5.0, 0.5, 1.5, "minus"),
            # chi overflows at r = s = 1e308; omega alone does not
            (_BARRIER, 1.5 + 1j, 1e308, 1e308, None),
            (_BARRIER, 1.5 + 1j, 0.5, 1e308, None),
            (_BARRIER, 1.5, 1e308, 1e308, "plus"),
        ],
    )
    def test_edges_take_the_grid_outcome(self, p, e, r, s, direction):
        grid = _outcome(lambda: kernel_grid(p, e, (r,), (s,), direction)[0, 0])
        assert _outcome(lambda: _scalar(p, e, r, s, direction)) == grid

    @pytest.mark.parametrize(
        "w, e, direction, error",
        [
            # W = 0 is a pole of the formal kernel
            (0j, 1.5, "plus", PoleError),
            (0j, 1.5, "minus", PoleError),
            # a subnormal W leaves chi and omega finite and the kernel not: the error names E
            (5e-324 + 0j, 1.5 + 1j, None, DomainError),
            (5e-324 + 0j, 1.5 - 1j, None, DomainError),
        ],
    )
    def test_a_spoiled_wronskian_takes_the_grid_error(self, monkeypatch, w, e, direction, error):
        pair = kernel_module.wave_pair
        monkeypatch.setattr(kernel_module, "wave_pair", lambda *args: (*pair(*args)[:2], w))
        grid = _outcome(lambda: kernel_grid(_BARRIER, e, (0.5,), (1.5,), direction)[0, 0])
        assert grid[0] is error
        assert _outcome(lambda: _scalar(_BARRIER, e, 0.5, 1.5, direction)) == grid


class TestBoundaryLimit:
    def test_matches_formal_kernels(self, rng):
        for p, e in random_instances(rng, 10):
            r, s = rng.uniform(0.05, p.b + 2.0, size=2)
            for direction in ("plus", "minus"):
                study = boundary_limit(p, e, r, s, direction)
                formal = formal_green(p, e, r, s, direction)
                assert abs(study.extrapolated - formal) <= 1e-8

    def test_schwarz_pairing_of_limits(self, barrier):
        r, s = 0.7, 2.4
        plus = boundary_limit(barrier, 1.3, r, s, "plus").extrapolated
        minus = boundary_limit(barrier, 1.3, r, s, "minus").extrapolated
        assert abs(plus - minus.conjugate()) <= 1e-8

    def test_mu_sequence_invariants(self, barrier):
        study = boundary_limit(barrier, 1.0, 0.7, 1.8, "plus")
        mus = np.array(study.mu_sequence)
        assert np.all(np.diff(mus) < 0)
        assert mus[-1] < 1e-8
        assert study.converged
        assert study.halvings == len(study.samples)

    def test_first_order_approach(self, barrier):
        # the gap to the limit halves with mu once mu is small
        study = boundary_limit(barrier, 1.0, 0.7, 1.8, "plus", mu0=0.05)
        diffs = np.abs(np.diff(np.array(study.samples)))
        ratios = diffs[8:16] / diffs[7:15]
        assert np.all(np.abs(ratios - 0.5) < 0.15)

    def test_formal_is_formal_green_bit_for_bit(self, barrier):
        for direction in ("plus", "minus"):
            study = boundary_limit(barrier, 1.3, 0.7, 2.4, direction)
            formal = formal_green(barrier, 1.3, 0.7, 2.4, direction)
            assert (study.formal.real, study.formal.imag) == (formal.real, formal.imag)
            assert study.abs_diff == abs(study.samples[-1] - formal)
            assert study.extrapolated == study.samples[-1]

    @pytest.mark.parametrize("direction", ["plus", "minus"])
    def test_narrow_resonance_returns_an_unconverged_study(self, direction):
        # a pole 1.4e-6 below the axis: the sequence is not Cauchy in 40 halvings,
        # which raised and handed the study over only inside the exception
        p = SquareBarrier(20.0, 1.0, 3.0)
        study = boundary_limit(p, 6.44187942446349, 0.5, 0.5, direction)
        assert study.converged is False
        assert len(study.samples) == len(study.mu_sequence) == kernel_module.MAX_HALVINGS + 1
        assert study.halvings == 41
        assert math.isfinite(study.abs_diff) and study.abs_diff > 1e-8

    def test_mu0_contract(self, barrier):
        with pytest.raises(DomainError):
            boundary_limit(barrier, 1.0, 0.5, 1.5, "plus", mu0=0.5)
        with pytest.raises(DomainError):
            boundary_limit(barrier, -1.0, 0.5, 1.5, "plus")

    @pytest.mark.parametrize(
        "e, r, direction, error",
        [
            (float("nan"), 0.5, "plus", DomainError),
            (1.0, -0.5, "plus", DomainError),
            (1.0, float("inf"), "minus", DomainError),
            (1.0, 0.5, "up", ContractError),
            (1.0, 0.5, None, ContractError),
            (1.0 + 1.0j, 0.5, None, ContractError),
        ],
    )
    def test_request_checked_before_any_sample(self, barrier, monkeypatch, e, r, direction, error):
        def no_sample(*args):
            raise AssertionError("a kernel sample ran")

        monkeypatch.setattr(kernel_module, "resolvent_kernel", no_sample)
        monkeypatch.setattr(kernel_module, "_engine_sweep", no_sample)
        with pytest.raises(error):
            boundary_limit(barrier, e, r, 1.5, direction)


def _per_mu_study(p, e, r, s, direction):
    """(mu_sequence, samples, converged) of a limit study as one resolvent_kernel call per mu."""
    sign = 1.0 if direction == "plus" else -1.0
    mus, samples = [], []
    for k in range(kernel_module.MAX_HALVINGS + 1):
        mu = 0.05 * e * 0.5**k
        mus.append(mu)
        samples.append(resolvent_kernel(p, complex(e, sign * mu), r, s))
        if k >= 1 and mu < kernel_module.MU_FLOOR:
            tol = max(kernel_module.CAUCHY_TOL, 1e-13 * max(abs(samples[-1]), abs(samples[-2])))
            if abs(samples[-1] - samples[-2]) < tol:
                return tuple(mus), samples, True
    return tuple(mus), samples, False


def _per_sample_checks(p, energies, values, finite) -> tuple[int, bool]:
    """A reference per-sample loop for boundary_limit's checks.

    Returns the number of samples kept and whether the stop rule ended them.

    Each sample in turn must be off the branch points, with finite waves and a
    finite value, before the stop rule looks at it.
    """
    samples = []
    for k, (z, g, waves_ok) in enumerate(zip(energies.tolist(), values.tolist(), finite.tolist())):
        require_off_branch(p, z)
        if not waves_ok:
            raise DomainError(f"wave amplitudes at E={z} overflow double precision")
        if not cmath.isfinite(g):
            raise DomainError(f"values at E={z} are not finite: a wave overflows at these radii")
        samples.append(g)
        mu = abs(z.imag)
        if k >= 1 and mu < kernel_module.MU_FLOOR:
            tol = max(kernel_module.CAUCHY_TOL, 1e-13 * max(abs(samples[-1]), abs(samples[-2])))
            if abs(samples[-1] - samples[-2]) < tol:
                return len(samples), True
    return len(samples), False


def _sweep_values(p, sweep, r, s) -> np.ndarray:
    """G(r, s) at every energy of an engine sweep, for r <= s: chi(r) omega(s) / W."""
    _, _, chi, om, w, _ = sweep
    with np.errstate(all="ignore"):
        chi_r = chi[bisect_right(p.breakpoints, r)].value(r)
        return chi_r * om[bisect_right(p.breakpoints, s)].value(s) / w


def _limit_requests():
    """The golden limit_barrier/limit_staircase requests and 120 random staircases of 1-4 steps."""
    out = [
        (SquareBarrier(5.0, 1.0, 2.0), 1.0, 0.7, 1.8),
        (PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -1.0, 0.0)), 1.5, 0.7, 2.5),
    ]
    rng = np.random.default_rng(1414)
    while len(out) < 122:
        steps = int(rng.integers(1, 5))
        breakpoints = tuple(np.cumsum(rng.uniform(0.3, 2.0, size=steps)).tolist())
        heights = tuple(rng.uniform(-5.0, 10.0, size=steps).tolist()) + (0.0,)
        e = float(rng.uniform(0.1, 2.0 * max(heights) + 5.0))
        if min(abs(e - v) for v in heights) < 0.05:
            continue
        r, s = rng.uniform(0.05, breakpoints[-1] + 2.0, size=2).tolist()
        out.append((PiecewisePotential(breakpoints, heights), e, r, s))
    return out


class TestBatchedLimitStudy:
    """boundary_limit sweeps the whole mu sequence at once; it must equal the per-mu study."""

    @pytest.mark.parametrize("direction", ["plus", "minus"])
    def test_equals_the_per_mu_scalar_kernel(self, direction):
        for p, e, r, s in _limit_requests():
            study = boundary_limit(p, e, r, s, direction)
            mus, samples, converged = _per_mu_study(p, e, r, s, direction)
            assert study.mu_sequence == mus
            assert study.halvings == len(mus)
            assert study.converged is converged
            scale = max(abs(g) for g in samples)
            assert all(type(g) is complex for g in study.samples)
            # the worst of these requests reads 2.6e-14
            assert max(abs(a - b) for a, b in zip(study.samples, samples)) <= 5e-14 * scale

    def test_minus_study_equals_the_direct_minus_sweep(self):
        # the minus trajectory is the conjugate of the sweep above the axis; the
        # reference sweeps E - i mu_k itself, with omega_minus, bit for bit
        for p, e, r, s in _limit_requests():
            study = boundary_limit(p, e, r, s, "minus")
            mus = 0.05 * e * 0.5 ** np.arange(kernel_module.MAX_HALVINGS + 1)
            energies = e + 1j * (-1.0 * mus)
            ks = region_momenta_array(p, energies)
            with np.errstate(all="ignore"):
                chi = piecewise_module._chi_regions(ks, p.breakpoints, np)
                om = piecewise_module._omega_regions(ks, p.breakpoints, "minus", np)
                w = piecewise_module._plane_wronskian(chi[-1], om[-1])
                finite = np.ones(mus.shape, dtype=bool)
                for reg in chi + om:
                    finite &= np.isfinite(reg.c_plus) & np.isfinite(reg.c_minus)
            values = _sweep_values(p, (mus, energies, chi, om, w, finite), min(r, s), max(r, s))
            kept, converged = _per_sample_checks(p, energies, values, finite)
            assert study.mu_sequence == tuple(mus[:kept].tolist())
            assert np.array(study.samples).tobytes() == values[:kept].tobytes()
            assert study.converged is converged
            assert study.formal == formal_green(p, e, r, s, "minus")

    @pytest.mark.parametrize(
        "p, e, r, mu0, error",
        [
            # a wave overflows at r = 2e4 on the first sample
            (SquareBarrier(5.0, 1.0, 2.0), 3.3, 2e4, None, DomainError),
            # the amplitudes overflow under a barrier of height 1e6
            (PiecewisePotential((1.0, 3.0), (0.0, 1e6, 0.0)), 2.0, 0.5, None, DomainError),
            # E + i mu0 lies within EPS_BRANCH of the height 5
            (SquareBarrier(5.0, 1.0, 2.0), 5.0, 0.5, 5e-13, BranchPointError),
        ],
    )
    def test_a_kept_sample_raises_the_scalar_error(self, p, e, r, mu0, error):
        # minus first, on a cold sweep; plus then reads the sweep the minus study built
        for direction, sign in (("minus", -1.0), ("plus", 1.0)):
            first = complex(e, sign * (0.05 * e if mu0 is None else mu0))
            with pytest.raises(error) as scalar:
                resolvent_kernel(p, first, r, r)
            with pytest.raises(error) as batched:
                boundary_limit(p, e, r, r, direction, mu0=mu0)
            assert type(batched.value) is type(scalar.value)
            assert str(batched.value) == str(scalar.value)
            assert str(first) in str(batched.value)

    @pytest.mark.parametrize(
        "e, spoil",
        [
            # E + i mu_k comes within EPS_BRANCH of the height 5 at k = 39; W
            # scaled by 1 + 1e-3 k keeps the sequence from settling before it gets there
            (5.0 + 5e-13, "drift"),
            # the waves of sample 6 overflow
            (1.3, "overflow"),
            # sample 9 is not finite: W = 0 there
            (1.3, "infinite"),
        ],
    )
    def test_masks_refuse_the_sample_the_loop_refused(self, barrier, monkeypatch, e, spoil):
        # the in-order checks of boundary_limit against a reference per-sample
        # loop, on the same spoiled sweep: same error class, message and sample.
        # Below the axis both read the sweep's conjugate and name E - i mu_k
        sweep = kernel_module._engine_sweep

        def spoiled(*args):
            mus, energies, chi, om, w, finite = sweep(*args)
            w, finite = w.copy(), finite.copy()
            if spoil == "drift":
                w *= 1.0 + 1e-3 * np.arange(w.size)
            elif spoil == "overflow":
                finite[6] = False
            else:
                w[9] = 0.0
            return mus, energies, chi, om, w, finite

        monkeypatch.setattr(kernel_module, "_engine_sweep", spoiled)
        swept = spoiled(barrier, e, 0.05 * e)
        values, finite = _sweep_values(barrier, swept, 0.5, 1.5), swept[5]
        first = {"drift": 39, "overflow": 6, "infinite": 9}[spoil]
        for direction, reflect in (("plus", np.asarray), ("minus", np.conj)):
            energies = reflect(swept[1])
            with pytest.raises(DomainError) as looped:
                _per_sample_checks(barrier, energies, reflect(values), finite)
            with pytest.raises(DomainError) as passed:
                boundary_limit(barrier, e, 0.5, 1.5, direction)
            assert type(passed.value) is type(looped.value)
            assert str(passed.value) == str(looped.value)
            named = complex(energies[first])
            assert str(named) in str(passed.value)
            assert (named.imag < 0.0) is (direction == "minus")
            if spoil == "drift":
                assert type(passed.value) is BranchPointError

    def test_entries_past_the_cut_are_never_checked(self, barrier, monkeypatch):
        study = boundary_limit(barrier, 1.0, 0.7, 1.8, "plus")
        assert study.converged and study.halvings < kernel_module.MAX_HALVINGS + 1
        sweep = kernel_module._engine_sweep

        def spoiled(*args):
            # past the cut: at the branch point 5, with overflowing waves and W = nan
            mus, energies, chi, om, w, finite = sweep(*args)
            energies, w, finite = energies.copy(), w.copy(), finite.copy()
            energies[study.halvings:] = 5.0
            w[study.halvings:] = complex("nan")
            finite[study.halvings:] = False
            return mus, energies, chi, om, w, finite

        monkeypatch.setattr(kernel_module, "_engine_sweep", spoiled)
        assert boundary_limit(barrier, 1.0, 0.7, 1.8, "plus") == study


class TestMemos:
    """wave_pair and the engine sweep of the limit studies keep their recent results."""

    def test_every_kernel_memo_starts_cold_in_each_test(self):
        # conftest clears the memos it finds; these two must be among them
        assert kernel_module._waves in _MEMOS
        assert kernel_module._engine_sweep in _MEMOS

    def test_verify_matches_chi_once_per_distinct_pair(self, barrier, monkeypatch):
        # the barrier's chi at E + i and at E, each serving both directions, and
        # one chi per random instance; its six limit studies, in both directions,
        # take one sweep. Without the memos: 16 matchings and 6 sweeps
        libs = []
        matching = piecewise_module._chi_amplitudes

        def counted(ks, breakpoints, lib):
            libs.append(lib.__name__)
            return matching(ks, breakpoints, lib)

        monkeypatch.setattr(piecewise_module, "_chi_amplitudes", counted)
        run_verification(barrier, 1.0, seed=7)
        assert (libs.count("cmath"), libs.count("numpy")) == (2 + 2, 1)

    @pytest.mark.parametrize(
        "e, direction", [(1.5 + 0.2j, "plus"), (2.0 - 0.7j, "minus"), (1.5, "plus"), (1.5, "minus")]
    )
    def test_a_wave_pair_equals_cold_waves(self, e, direction):
        p = PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -1.0, 0.0))
        radii = np.linspace(0.0, 4.0, 17)
        alone = build_chi(p, e), piecewise_module.build_omega(p, e, direction)
        other = "minus" if direction == "plus" else "plus"
        if e.imag == 0.0:  # the memo's chi was built for the other direction first
            kernel_module.wave_pair(p, e, other)
        chi, om, w = kernel_module.wave_pair(p, e, direction)
        for wave, single in zip((chi, om), alone):
            assert wave.regions == single.regions
            assert wave.value(radii).tobytes() == single.value(radii).tobytes()
        assert w == piecewise_module.outer_wronskian(*alone)

    @pytest.mark.parametrize("direction", ["plus", "minus"])
    def test_one_chi_serves_both_directions(self, monkeypatch, direction):
        p = PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -1.0, 0.0))
        calls = []
        matching = piecewise_module._chi_amplitudes

        def counted(*args):
            calls.append(args)
            return matching(*args)

        monkeypatch.setattr(piecewise_module, "_chi_amplitudes", counted)
        first = kernel_module.wave_pair(p, 1.5, direction)
        other = kernel_module.wave_pair(p, 1.5 - 0j, "minus" if direction == "plus" else "plus")
        assert len(calls) == 1
        assert other[0] is first[0] and other[1] is not first[1]
        assert all(a is b for a, b in zip(kernel_module.wave_pair(p, 1.5, direction), first))
        assert len(calls) == 1

    def test_limit_studies_of_one_energy_share_one_sweep(self, barrier, monkeypatch):
        pairs = [(0.5, 1.8), (1.2, 0.7), (2.5, 1.8)]
        sweeps = []
        regions = kernel_module._chi_regions

        def counted(*args):
            sweeps.append(args)
            return regions(*args)

        monkeypatch.setattr(kernel_module, "_chi_regions", counted)
        requests = [(r, s, d) for r, s in pairs for d in ("plus", "minus")]
        studies = [boundary_limit(barrier, 1.0, *request) for request in requests]
        assert len(sweeps) == 1
        for request, study in zip(requests, studies):
            kernel_module._engine_sweep.cache_clear()
            assert boundary_limit(barrier, 1.0, *request) == study
        assert len(sweeps) == 1 + len(requests)

    @pytest.mark.parametrize(
        "request_, error, kept",
        [
            # the amplitudes overflow while the waves are matched
            (lambda: resolvent_kernel(SquareBarrier(1e6, 1.0, 2.0), 1.0 + 1.0j, 1.0, 1.0),
             DomainError, 0),
            (lambda: formal_green(SquareBarrier(5.0, 1.0, 2.0), 5.0, 0.5, 1.5, "plus"),
             BranchPointError, 0),
            # the waves are fine and kept; the pole test runs on every request
            (lambda: formal_green(SquareBarrier(5.0, 1.0, 2.0), 1.5, 0.5, 1.5, "minus"),
             PoleError, 1),
        ],
        ids=["overflow", "branch_point", "pole"],
    )
    def test_an_error_is_raised_again_on_the_same_request(self, monkeypatch, request_, error, kept):
        # W = 0: every formal request whose waves build is a pole
        monkeypatch.setattr(kernel_module, "outer_wronskian", lambda f, g: 0j)
        for _ in range(2):
            with pytest.raises(error):
                request_()
        assert kernel_module._waves.cache_info().currsize == kept
        if kept:  # the entry holds chi and the one direction asked for
            waves = kernel_module._waves(SquareBarrier(5.0, 1.0, 2.0), 1.5 + 0j)
            assert sorted(waves) == ["chi", "minus"]

    def test_a_wave_that_raises_is_not_kept(self, monkeypatch):
        # chi builds and is kept; the omega that overflows raises on every request
        p = SquareBarrier(5.0, 1.0, 2.0)
        build = kernel_module.build_omega

        def overflowing(p, e, direction):
            if direction == "minus":
                raise DomainError("overflow")
            return build(p, e, direction)

        monkeypatch.setattr(kernel_module, "build_omega", overflowing)
        for _ in range(2):
            with pytest.raises(DomainError, match="overflow"):
                kernel_module.wave_pair(p, 1.5, "minus")
        assert sorted(kernel_module._waves(p, 1.5)) == ["chi"]
        assert cmath.isfinite(kernel_module.wave_pair(p, 1.5, "plus")[2])

    @pytest.mark.parametrize("direction", [[1, 2], "both", None, np.array("plus")])
    def test_a_bad_direction_raises_before_the_memo(self, barrier, direction):
        # a list raised a bare TypeError from the memo's key
        with pytest.raises(ContractError, match="direction must be"):
            kernel_module.wave_pair(barrier, 1.5, direction)
        assert kernel_module._waves.cache_info().currsize == 0

    def test_writing_into_a_returned_sweep_leaves_the_next_study_alone(self, barrier):
        # the sweep is keyed on the request (p, E, mu0); its arrays refuse
        # writes, and a study in either direction reads them without writing into any
        study = boundary_limit(barrier, 1.0, 0.7, 1.8, "plus")
        mus, energies, chi, om, w, finite = kernel_module._engine_sweep(barrier, 1.0, 0.05)
        assert kernel_module._engine_sweep.cache_info().hits == 1
        arrays = (mus, energies, w, finite, chi[-1].c_plus, om[0].c_minus, chi[0].k, om[-1].k)
        held = [a.tobytes() for a in arrays]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert boundary_limit(barrier, 1.0, 0.7, 1.8, "plus") == study
        assert boundary_limit(barrier, 1.0, 2.5, 0.5, "plus") != study
        minus = boundary_limit(barrier, 1.0, 0.7, 1.8, "minus")
        assert minus.samples == tuple(g.conjugate() for g in study.samples)
        assert kernel_module._engine_sweep.cache_info().hits == 4
        assert [a.tobytes() for a in arrays] == held


class TestPoleScan:
    def test_free_particle_has_no_poles(self, free):
        roots = find_kernel_poles(free, (-5.0, 5.0, -5.0, 5.0), seed_density=0.5)
        assert roots == []

    def test_barrier_resonance(self, barrier):
        roots = find_kernel_poles(barrier, (3.0, 6.0, -1.0, -0.01), seed_density=0.25)
        assert roots == [4.202900168796609 - 0.25564393159876436j]
        for z in roots:
            assert kernel_pole_residual(barrier, z) < 1e-10

    def test_well_bound_state(self):
        well = SquareBarrier(-4.0, 1.0, 2.0)
        roots = find_kernel_poles(well, (-3.9, -0.05, -0.5, 0.5), seed_density=0.25)
        assert roots == [-1.7291272192208231 + 0j]
        for z in roots:
            assert kernel_pole_residual(well, z) < 1e-10

    def test_roots_deduplicated_and_sorted(self, barrier):
        roots = find_kernel_poles(barrier, (3.0, 6.0, -1.0, -0.01), seed_density=0.25)
        for z1, z2 in zip(roots, roots[1:]):
            assert abs(z1 - z2) >= 1e-6
            assert (z1.real, z1.imag) <= (z2.real, z2.imag)

    def test_deterministic(self, barrier):
        box = (3.0, 6.0, -1.0, -0.01)
        assert find_kernel_poles(barrier, box) == find_kernel_poles(barrier, box)

    def test_degenerate_box_rejected(self, barrier):
        with pytest.raises(DomainError):
            find_kernel_poles(barrier, (1.0, 1.0, -1.0, 1.0))

    def test_screening_blocks_do_not_change_roots(self, monkeypatch):
        # the box meets the cut of the real axis left of 0, so it has no count
        # and runs the seed grid
        p = SquareBarrier(12.0, 1.0, 3.0)
        box = (-0.5, 40.0, -6.0, 0.5)
        assert kernel_module.zero_count(p, box) is None
        n_seeds = (int(40.5 / 0.25) + 1) * (int(6.5 / 0.25) + 1)
        default = kernel_module.SCREEN_BLOCK
        # the reference run screens several blocks of 1024 seeds
        monkeypatch.setattr(kernel_module, "SCREEN_BLOCK", 1024)
        assert n_seeds > 3 * kernel_module.SCREEN_BLOCK
        roots = find_kernel_poles(p, box)
        assert len(roots) == 5
        for block in (37, default, n_seeds):
            monkeypatch.setattr(kernel_module, "SCREEN_BLOCK", block)
            assert find_kernel_poles(p, box) == roots
        # two sub-boxes overlapping by one column: the first is screened on the
        # same seed lattice, the second is counted and takes its roots from the
        # moments; a root may come from another start, so its last digits may differ
        monkeypatch.undo()
        left, right = find_kernel_poles(p, (-0.5, 20.5, -6.0, 0.5)), find_kernel_poles(
            p, (20.0, 40.0, -6.0, 0.5)
        )
        assert left.certified is None and right.certified == len(right)
        pieces = left + right
        assert len(pieces) == len(roots)
        for z, w in zip(pieces, roots):
            assert abs(z - w) < 1e-12 * abs(w)

    def test_acceptance_rules(self, barrier, monkeypatch):
        # one screened root of each kind; the residual is read off a table so
        # that each root fails exactly one rule
        root = 4.202900168796607 - 0.25564393159876414j
        screened = {
            root: (True, 0.0),
            root + 5e-7: (True, 0.0),  # duplicate of the root above
            5.0 + 5e-7j: (True, 0.0),  # within 1e-6 of the branch point v0 = 5
            6.5 - 0.2j: (True, 0.0),  # outside the box
            3.5 - 0.5j: (True, 1e-10),  # |c-| too large
            4.5 - 0.5j: (False, 0.0),  # did not converge
        }

        def screen(p, bounds, seed_density):
            roots = np.array(list(screened), dtype=complex)
            return roots, np.array([ok for ok, _ in screened.values()])

        # the box meets the cut of the real axis left of 0: no count, so the screen runs
        box = (-1.0, 6.0, -1.0, 0.5)
        assert kernel_module.zero_count(barrier, box) is None
        monkeypatch.setattr(kernel_module, "_screen", screen)
        monkeypatch.setattr(kernel_module, "kernel_pole_residual", lambda p, z: screened[z][1])
        assert find_kernel_poles(barrier, box, seed_density=1.0) == [root]

    @pytest.mark.parametrize(
        "box, density",
        [
            ((0.0, np.inf, -1.0, 0.0), 0.25),
            ((3.0, 6.0, -1.0, -0.01), np.nan),
            ((3.0, 6.0, -1.0, -0.01), np.inf),
            ((1.0, 1e300, -1.0, 0.0), 0.25),  # about 4e300 seeds
        ],
    )
    def test_unbounded_requests_rejected(self, barrier, box, density):
        with pytest.raises(DomainError):
            find_kernel_poles(barrier, box, seed_density=density)

    @pytest.mark.parametrize(
        "p, box",
        [
            # V = 0: chi = sin(kr) and c- = i/2 at every E, but far below the
            # axis its exp(-ikr) part falls below rounding and c- comes out 0
            (SquareBarrier(0.0, 1.0, 60.0), (0.5, 10.0, -8.0, -0.01)),
            (SquareBarrier(0.0, 1.0, 1000.0), (3.0, 6.0, -1.0, 1.0)),
            (PiecewisePotential((1000.0,), (0.0, 0.0)), (3.0, 6.0, -1.0, 1.0)),
        ],
        ids=["barrier_b60", "barrier_b1000", "staircase_r1000"],
    )
    def test_a_c_minus_cancelled_to_zero_is_no_root(self, p, box):
        # these scans printed 291, 14 and 22 "roots", each with residual exactly 0
        roots = find_kernel_poles(p, box)
        assert roots == []
        assert roots.certified is None

    def test_a_crowded_box_is_quadrisected_without_the_screen(self, monkeypatch):
        # the box counts 89 zeros, closer together than the seed spacing 0.25
        # (the seed grid alone accepted 84 of them); quadrisection by counts
        # and the moments find them all, and no seed is laid
        def refused(*args):
            raise AssertionError("the seed grid ran")

        monkeypatch.setattr(kernel_module, "_screen", refused)
        p, box = SquareBarrier(2.0, 1.0, 80.0), (0.5, 20.0, -8.0, -0.01)
        roots = find_kernel_poles(p, box)
        assert len(roots) == roots.certified == 89
        assert all(0.0 < kernel_pole_residual(p, z) < 1e-10 for z in roots)
        assert min(abs(z - w) for i, z in enumerate(roots) for w in roots[:i]) >= 1e-6

    def test_wide_barrier_keeps_its_roots(self, monkeypatch):
        # a 60-digit evaluation of the closed form puts |c4/c3| <= 8.3e-14 at
        # every root: small c-, but not rounded to 0; the moments find them all
        def refused(*args):
            raise AssertionError("the seed grid ran")

        monkeypatch.setattr(kernel_module, "_screen", refused)
        p = SquareBarrier(2.0, 1.0, 40.0)
        roots = find_kernel_poles(p, (0.5, 20.0, -8.0, -0.01))
        assert len(roots) == roots.certified == 47
        assert all(0.0 < kernel_pole_residual(p, z) < 1e-10 for z in roots)

    def test_a_box_whose_moment_roots_miss_its_count_is_split(self, monkeypatch):
        # the first box's moments lose a root: its quadrants are counted and
        # give it back; a root polished from another start may differ in its
        # last digits
        p, box = SquareBarrier(12.0, 1.0, 3.0), (0.5, 40.0, -6.0, -0.01)
        reference = find_kernel_poles(p, box)
        assert len(reference) == reference.certified == 4
        moment_roots, calls = kernel_module._moment_roots, []

        def one_short(bounds, *contour):
            calls.append(bounds)
            roots = moment_roots(bounds, *contour)
            return roots[1:] if len(calls) == 1 else roots

        monkeypatch.setattr(kernel_module, "_moment_roots", one_short)
        roots = find_kernel_poles(p, box)
        assert calls[0] == box and len(calls) > 1
        assert len(roots) == roots.certified == 4
        for z, w in zip(roots, reference):
            assert abs(z - w) <= 1e-12 * abs(w)
        # at the last level a box keeps what it found, and one without zeros is skipped
        monkeypatch.setattr(kernel_module, "_SPLIT_DEPTH", 1)
        monkeypatch.setattr(kernel_module, "_moment_roots", lambda *args: moment_roots(*args)[1:])
        short = find_kernel_poles(p, box)
        assert short.certified == 4 and len(short) < 4 and set(short) <= set(roots)

    @pytest.mark.parametrize("count", range(1, 7))
    def test_moment_roots_recover_known_roots_from_exact_moments(self, count):
        # unit weights on the roots themselves: the moments are exactly their power sums
        rng = random.Random(count)
        bounds = (1.0, 3.0, -2.0, -0.5)
        roots = np.array([complex(rng.uniform(1.0, 3.0), rng.uniform(-2.0, -0.5))
                          for _ in range(count)])
        got = kernel_module._moment_roots(bounds, count, roots, np.ones(count, dtype=complex))
        assert len(got) == count
        for z in roots:
            assert np.min(np.abs(got - z)) <= 1e-12

    def test_a_non_finite_moment_coefficient_quadrisects_the_box(self, monkeypatch):
        # moments near 1e300 overflow the polynomial's coefficients: no roots
        # and no error come back, and the quadrants give the roots
        p, box = SquareBarrier(12.0, 1.0, 3.0), (0.5, 40.0, -6.0, -0.01)
        reference = find_kernel_poles(p, box)
        moment_roots, calls = kernel_module._moment_roots, []

        def overflowing(bounds, count, z, q):
            calls.append(bounds)
            if len(calls) == 1:
                q = q / np.abs(q).max() * 1e300
                assert len(moment_roots(bounds, count, z, q)) == 0
            return moment_roots(bounds, count, z, q)

        monkeypatch.setattr(kernel_module, "_moment_roots", overflowing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = find_kernel_poles(p, box)
        assert calls[0] == box and len(calls) > 1
        assert len(roots) == roots.certified == 4
        for z, w in zip(roots, reference):
            assert abs(z - w) <= 1e-12 * abs(w)


def _scan_barriers(n: int) -> list:
    """Barriers drawn as the benchmark's scan workload draws them, from a fixed seed."""
    rng = random.Random(17)
    out = []
    for _ in range(n):
        v0 = rng.uniform(2.5, 7.5)
        a = round(rng.uniform(0.5, 1.5), 3)
        out.append(SquareBarrier(v0, a, round(a + rng.uniform(0.5, 1.5), 3)))
    return out


WIDE_BOX = (0.5, 40.0, -6.0, -0.01)
STAIRCASE = PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -1.0, 0.0))
COUNT_CASES = [
    (SquareBarrier(12.0, 1.0, 3.0), WIDE_BOX),
    # the boxes of the golden pole scans
    (SquareBarrier(5.0, 1.0, 2.0), (3.0, 6.0, -1.0, -0.01)),
    (STAIRCASE, (0.5, 8.0, -2.0, -0.01)),
    (STAIRCASE, WIDE_BOX),
    # an edge 0.025 from the root 22.86306 - 5.35086i, with the root outside and inside
    (STAIRCASE, (0.5, 40.0, -5.325, -0.01)),
    (STAIRCASE, (0.5, 40.0, -6.0, -5.325)),
    (STAIRCASE, (0.5, 22.888, -6.0, -0.01)),
    # boxes that cross the real axis right of the cut
    (SquareBarrier(5.0, 1.0, 2.0), (3.0, 6.0, -1.0, 0.5)),
    (PiecewisePotential((1.0, 2.0, 3.0), (3.0, -2.0, 5.0, 0.0)), (3.5, 6.0, -1.0, 1.0)),
] + [(p, WIDE_BOX) for p in _scan_barriers(60)]


@pytest.mark.parametrize("p, box", COUNT_CASES)
def test_zero_count_matches_the_full_screen(p, box, monkeypatch):
    # the moment roots against the full 60-step Newton screen, which the box
    # runs when its contour gives no count
    roots = find_kernel_poles(p, box)
    monkeypatch.setattr(kernel_module, "_contour", lambda p, bounds: None)
    full = find_kernel_poles(p, box)
    assert full.certified is None
    assert roots.certified == len(full) == len(roots)
    for z, w in zip(roots, full):
        assert abs(z - w) <= 1e-12 * abs(w)


class TestZeroCount:
    @pytest.mark.parametrize(
        "p, box",
        [
            (SquareBarrier(-5.0, 1.0, 2.0), (-5.0, -0.5, -0.5, 0.5)),
            (SquareBarrier(0.0, 1.0, 2.0), (-5.0, 5.0, -5.0, 5.0)),
            # innermost height 3: c- has a cut on the axis left of 3, not only left of 0
            (PiecewisePotential((1.0, 2.0, 3.0), (3.0, -2.0, 5.0, 0.0)), (2.5, 6.0, -1.0, 1.0)),
        ],
    )
    def test_cut_crossing_box_evaluates_no_node(self, p, box, monkeypatch):
        def no_node(*args):
            raise AssertionError("a contour node was evaluated")

        monkeypatch.setattr(kernel_module, "_log_derivative_integrals", no_node)
        assert kernel_module.zero_count(p, box) is None
        assert find_kernel_poles(p, box).certified is None

    def test_no_count_without_a_settled_finite_integral(self, monkeypatch):
        p = SquareBarrier(12.0, 1.0, 3.0)
        # c- overflows on the edges of this box
        assert kernel_module.zero_count(p, (1.0, 2.0, -1e5, -1e4)) is None
        assert kernel_module.zero_count(p, WIDE_BOX) == 4
        monkeypatch.setattr(kernel_module, "_COUNT_MAX_NODES", 64)
        assert kernel_module.zero_count(p, WIDE_BOX) is None

    def test_cancelled_c_minus_gives_no_count_and_no_warning(self):
        # the quadrature's product with the weights ran outside the errstate
        # block and warned "invalid value encountered in matmul"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count = kernel_module.zero_count(SquareBarrier(0.0, 1.0, 60.0), (0.5, 10.0, -8.0, -0.01))
        assert count is None

    def test_bad_box_rejected(self, barrier):
        for box in ((1.0, 1.0, -1.0, 1.0), (0.0, np.inf, -1.0, -0.01)):
            with pytest.raises(DomainError):
                kernel_module.zero_count(barrier, box)

    @pytest.mark.parametrize("box", [(1, 2, 3), (1, 2, 3, 4, 5), ("a", 2, 3, 4), (1 + 1j, 2, 3, 4)])
    def test_box_of_other_than_four_real_numbers_rejected(self, barrier, box):
        # the box was unpacked or cast to float first: a bare ValueError or TypeError
        with pytest.raises(DomainError, match="search box"):
            kernel_module.zero_count(barrier, box)
        with pytest.raises(DomainError, match="search box"):
            find_kernel_poles(barrier, box)

    def test_ragged_box_rejected(self, barrier):
        # model.real_array raised numpy's bare "inhomogeneous shape" ValueError
        with pytest.raises(DomainError, match="search box entries must form a regular array"):
            kernel_module.zero_count(barrier, [[1, 2], 3, 4])
        with pytest.raises(DomainError, match="search box entries must form a regular array"):
            find_kernel_poles(barrier, [[1, 2], 3, 4])


SPLIT_CASES = [
    # a barrier, and a well with a bound state, each split at its midpoint
    (5.0, (3.0, 12.0, -3.0, -0.01)),
    (-4.0, (-3.9, -0.05, -0.5, 0.5)),
]


@pytest.mark.parametrize("v0, box", SPLIT_CASES)
def test_split_barrier_gives_the_same_kernels_and_poles(v0, box):
    barrier = SquareBarrier(v0, 1.0, 2.0)
    split = PiecewisePotential((1.0, 1.5, 2.0), (0.0, v0, v0, 0.0))
    for e in (0.7, 3.3, 8.0):
        for direction in ("plus", "minus"):
            for r, s in ((0.4, 1.7), (1.2, 1.6), (2.5, 0.9)):
                g = formal_green(barrier, e, r, s, direction)
                g_split = formal_green(split, e, r, s, direction)
                assert abs(g - g_split) <= 1e-12 * (1.0 + abs(g))
    roots = find_kernel_poles(barrier, box)
    roots_split = find_kernel_poles(split, box)
    assert len(roots) == len(roots_split) > 0
    for z, w in zip(roots, roots_split):
        assert abs(z - w) <= 1e-10 * abs(z)


def test_staircase_poles_are_zeros_of_the_pole_function():
    # at each root, RK4 from the origin, which uses no matching algebra, must
    # leave the last step as a purely outgoing wave
    stair = PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -1.0, 0.0))
    roots = find_kernel_poles(stair, (0.5, 8.0, -2.0, -0.01))
    assert roots
    for z in roots:
        assert kernel_pole_residual(stair, z) < 1e-10
        traj = integrate_schrodinger(stair, z, 0.0, 1.0, 0.0, 5.0, 1e-3)
        outer = traj.r >= 3.2
        k = branch_sqrt(z)
        basis = np.column_stack([np.exp(1j * k * traj.r[outer]), np.exp(-1j * k * traj.r[outer])])
        (c_plus, c_minus), *_ = np.linalg.lstsq(basis, traj.values[outer], rcond=None)
        assert abs(c_minus) < 1e-6 * abs(c_plus)


def test_array_branch_sqrt_is_scalar_on_real_axis():
    reals = [-1e300, -4.0, -1.7291272192208234, -1e-300, -0.0, 0.0, 1e-300, 2.5, 1e300]
    zs = [complex(x, zero) for x in reals for zero in (0.0, -0.0)]
    got = _branch_sqrt_array(np.array(zs))
    for z, g in zip(zs, got.tolist()):
        want = branch_sqrt(z)
        # compare the bits, so that the sign of a zero counts
        assert np.array([g.real, g.imag]).tobytes() == np.array([want.real, want.imag]).tobytes(), z


def _off_axis_sample(n: int) -> list[tuple[float, float]]:
    """Seeded (re, im) pairs off both axes, of magnitudes 1e-150 to 1e150.

    Past that range a part of the root can be subnormal, and numpy and cmath
    round a subnormal part differently.
    """
    rng = random.Random(35)

    def part():
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-150.0, 150.0)

    return [(part(), part()) for _ in range(n)] + [
        (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(n)
    ]


@pytest.mark.parametrize(
    "parts",
    [
        # none on the axis
        [(1.0, 2.0), (-3.0, 0.5), (-1e-300, -1e300), (2.5, -1e-300), (-0.0, 1.0)],
        [(-4.0, 0.0), (-4.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (2.5, 0.0), (-1.0, 1e-300),
         (3.0, -2.0)],
        [(-1e300, -0.0), (1e-300, 0.0), (-2.0, 0.0)],  # all on the axis
        _off_axis_sample(1000),
    ],
    ids=["off_axis", "mixed", "on_axis", "seeded"],
)
def test_array_branch_sqrt_is_scalar_with_and_without_axis_entries(parts):
    # the axis entries are patched only when there are any; every entry takes
    # the scalar's bits, except that on the imaginary axis (Re z = +-0) numpy's
    # sqrt may differ from cmath's by one unit in the last place
    def bits(z):
        return np.array([z.real, z.imag]).tobytes()

    zs = [complex(x, y) for x, y in parts]
    batches = [np.array(zs), np.array(zs).reshape(1, -1), *(np.array(z) for z in zs[:20])]
    for batch in batches:
        got = _branch_sqrt_array(batch).ravel().tolist()
        for z, g in zip(batch.ravel().tolist(), got):
            want = branch_sqrt(z)
            if z.real == 0.0 and z.imag != 0.0:
                assert abs(g.real - want.real) <= math.ulp(want.real), z
                assert abs(g.imag - want.imag) <= math.ulp(want.imag), z
            else:
                assert bits(g) == bits(want), z


def test_zero_count_of_an_overflowing_box_warns_nothing():
    # the contour's node line sat outside np.errstate: two RuntimeWarnings
    # (overflow in add, invalid value in multiply) came with the None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        count = kernel_module.zero_count(SquareBarrier(5.0, 1.0, 2.0), (1.0, 1e308, -1.0, -0.5))
    assert count is None


class TestBoundaryLimits:
    def test_one_study_per_point_through_the_module_global(self, barrier, monkeypatch):
        # the tracer rebinds kernel.boundary_limit; the reflected study must not hide from it
        calls = []
        original = kernel_module.boundary_limit

        def counted(*args, **kwargs):
            calls.append(args[4])
            return original(*args, **kwargs)

        monkeypatch.setattr(kernel_module, "boundary_limit", counted)
        plus, minus = kernel_module.boundary_limits(barrier, 1.3, 0.7, 2.4, ("plus", "minus"))
        assert calls == ["plus"]
        assert minus.mu_sequence == plus.mu_sequence and minus.converged == plus.converged
        assert minus.samples == tuple(g.conjugate() for g in plus.samples)
        assert minus.formal == formal_green(barrier, 1.3, 0.7, 2.4, "minus")
        assert kernel_module.boundary_limits(barrier, 1.3, 0.7, 2.4, ()) == []

    # None raised a bare TypeError from list(None)
    @pytest.mark.parametrize("directions", [("plus", "up"), ("sideways",), (None,), "plus", None])
    def test_bad_direction_raises_before_any_study(self, barrier, monkeypatch, directions):
        def no_study(*args, **kwargs):
            raise AssertionError("a study ran")

        monkeypatch.setattr(kernel_module, "boundary_limit", no_study)
        with pytest.raises(ContractError, match="direction must be"):
            kernel_module.boundary_limits(barrier, 1.3, 0.7, 2.4, directions)
