import cmath
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from sqgreen import (
    ContractError,
    DomainError,
    PiecewisePotential,
    SquareBarrier,
    TestFunction,
    apply_hamiltonian_fd,
    check_distributional_equation,
    check_jump,
    check_resolvent_identity,
    integrate_schrodinger,
    kernel_grid,
    propagate,
)
from sqgreen.eigenfunctions import PiecewiseWave, wronskian
import sqgreen.oracle as oracle_module
import sqgreen.verification as verification
import sqgreen.kernel as kernel_module
from sqgreen.kernel import wave_pair
from sqgreen.verification import run_verification
from sqgreen.oracle import _cumulative_simpson, _resolvent_image

from closed_forms import chi_wave, omega_wave
from conftest import random_instances, random_staircase

STAIRCASE = PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -2.0, 0.0))


def _peak_bytes(call):
    """Peak traced allocation while ``call`` runs (numpy arrays included)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTestFunction:
    def test_kinds_validated(self):
        with pytest.raises(ContractError):
            TestFunction("triangle", 3.0, 0.5)
        with pytest.raises(DomainError):
            TestFunction("gaussian_bump", 1.0, 0.5)  # support would cross the origin
        with pytest.raises(DomainError):
            TestFunction("compact_polynomial_bump", 0.5, 1.0)

    def test_center_and_width_are_floats(self):
        f = TestFunction("gaussian_bump", 3, "0.5")
        assert (f.center, f.width) == (3.0, 0.5) and type(f.center) is float

    @pytest.mark.parametrize("r", [np.array([3 + 1j]), 3 + 1j, "x"], ids=["array", "complex", "string"])
    def test_radii_not_real_numbers_rejected(self, r):
        # the complex array lost its imaginary part with only a ComplexWarning;
        # 3+1j raised a bare TypeError and "x" a bare ValueError
        f = TestFunction("gaussian_bump", 3.0, 0.5)
        with pytest.raises(DomainError, match="radii must be real numbers"):
            f(r)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 1e308, -1e308])
    @pytest.mark.parametrize("kind", ["gaussian_bump", "compact_polynomial_bump"])
    def test_far_radii_read_zero_and_non_finite_radii_rejected(self, kind, r):
        # nan came back as NaN, and 1e308 overflowed in (r - c) / w with a RuntimeWarning
        f = TestFunction(kind, 3.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if math.isfinite(r):
                assert f(r) == 0.0
            else:
                with pytest.raises(DomainError, match="radii must be finite"):
                    f(r)

    def test_small_at_origin(self):
        f = TestFunction("gaussian_bump", 3.0, 0.5)
        assert abs(f(0.0)) < 1e-7
        g = TestFunction("compact_polynomial_bump", 3.0, 1.0)
        assert g(0.0) == 0.0 and g(1.9) == 0.0 and g(3.0) == 1.0


class TestIntegrateSchrodinger:
    def test_free_sine(self):
        # a potential with no steps at all, so any step length is aligned
        vacuum = PiecewisePotential((), (0.0,))
        n = 3142
        step = math.pi / n
        traj = integrate_schrodinger(vacuum, 1.0, 0.0, 1.0, 0.0, math.pi, step)
        assert np.max(np.abs(traj.values - np.sin(traj.r))) <= 1e-8

    def test_chi_reintegrates(self, barrier):
        for e in (1.0 + 0j, 2.3 + 0.9j):
            chi = chi_wave(barrier, e)
            dy0 = chi.value_and_derivative(0.0)[1]
            traj = integrate_schrodinger(barrier, e, 0.0, dy0, 0.0, 7.0, 1e-3)
            assert np.max(np.abs(traj.values - chi.value(traj.r))) <= 1e-8

    def test_omega_integrates_inward(self, barrier):
        e = 1.0 + 0j
        om = omega_wave(barrier, e, "plus")
        start = barrier.b + 5.0
        traj = integrate_schrodinger(barrier, e, *om.value_and_derivative(start), start, 0.5, 1e-3)
        assert abs(traj.values[-1] - om.value(0.5)) <= 1e-7

    def test_misaligned_breakpoint_rejected(self, barrier):
        with pytest.raises(DomainError):
            integrate_schrodinger(barrier, 1.0, 0.0, 1.0, 0.0, 3.0, 0.7)
        # 0.3 divides [0, 3], so only the breakpoint 1 off the grid refuses it
        with pytest.raises(DomainError, match="breakpoint 1.0 is not aligned"):
            integrate_schrodinger(barrier, 1.0, 0.0, 1.0, 0.0, 3.0, 0.3)

    @pytest.mark.parametrize("p", [SquareBarrier(5, 1, 2), STAIRCASE], ids=["barrier", "staircase"])
    def test_lattice_aligned_run_has_node_j_at_j_steps(self, p):
        # RK4 kernels that index their nodes by round(r / 1e-3) rely on this grid
        traj = integrate_schrodinger(p, 1.5 + 0.5j, 0, 1, 0.0, 6.0, 1e-3)
        assert [round(x / 1e-3) for x in traj.r] == list(range(6001))

    def test_step_must_divide_interval(self, barrier):
        with pytest.raises(DomainError):
            integrate_schrodinger(barrier, 1.0, 0.0, 1.0, 0.0, 1.0005, 1e-2)

    def test_staircase_supported(self, rng):
        pw = PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -2.0, 0.0))
        from sqgreen import build_chi

        e = 1.5 + 0.5j
        chi = build_chi(pw, e)
        dy0 = chi.value_and_derivative(0.0)[1]
        traj = integrate_schrodinger(pw, e, 0.0, dy0, 0.0, 5.0, 1e-3)
        assert np.max(np.abs(traj.values - chi.value(traj.r))) <= 1e-8

    def test_step_past_the_stability_bound_raises(self):
        # k h = 3 > 2 sqrt(2): the steps grew the wave to NaN, returned silently
        with pytest.raises(DomainError, match="unstable"):
            integrate_schrodinger(SquareBarrier(5, 1, 2), 9e6, 0, 1, 0, 3, 1e-3)
        traj = integrate_schrodinger(SquareBarrier(5, 1, 2), 2.7e6, 0, 1, 0, 3, 1e-3)
        assert np.all(np.isfinite(traj.values)) and np.all(np.isfinite(traj.derivatives))

    @pytest.mark.parametrize("r_from, r_to", [(0.0, 1.0), (1.05, 6.05), (6.05, 1.05)])
    def test_stability_reads_only_the_regions_crossed(self, r_from, r_to):
        # the bound took the momentum of the whole potential, so a step of 0.01
        # where k = 1 was refused for the 3.162 rad it would advance in the well
        well = SquareBarrier(-1e5, 1, 1.05)
        traj = integrate_schrodinger(well, 1.0, 0, 1, r_from, r_to, 0.01)
        assert np.all(np.isfinite(traj.values))
        with pytest.raises(DomainError, match="3.162 rad"):
            integrate_schrodinger(well, 1.0, 0, 1, 0.0, 1.05, 0.01)


class TestPropagate:
    def test_free_flow_is_the_sine(self):
        vacuum = PiecewisePotential((), (0.0,))
        for e in (2.25 + 0j, 2.25 + 1j):
            k = np.sqrt(e)
            for r in (0.0, 0.7, 5.0):
                y, dy = propagate(vacuum, e, 0.0, k, 0.0, r)
                assert abs(y - np.sin(k * r)) <= 1e-14 * (1.0 + abs(y))
                assert abs(dy - k * np.cos(k * r)) <= 1e-14 * (1.0 + abs(dy))

    def test_matches_the_closed_forms(self, barrier):
        for e in (1.0 + 0j, 3.3 + 1j, 7.0 - 0.4j):
            chi, om = chi_wave(barrier, e), omega_wave(barrier, e, "minus")
            for r in (0.4, 1.0, 1.6, 2.0, 3.5):
                for wave, r0 in ((chi, 0.0), (om, 2.0)):
                    y, dy = propagate(barrier, e, *wave.value_and_derivative(r0), r0, r)
                    value, deriv = wave.value_and_derivative(r)
                    assert abs(y - value) <= 1e-13 * (1.0 + abs(y))
                    assert abs(dy - deriv) <= 1e-13 * (1.0 + abs(dy))

    def test_inward_undoes_outward(self):
        pw = PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -2.0, 0.0))
        there = propagate(pw, 1.5 + 0.5j, 0.3, -1.2j, 0.5, 3.7)
        back = propagate(pw, 1.5 + 0.5j, *there, 3.7, 0.5)
        assert abs(back[0] - 0.3) <= 1e-13 and abs(back[1] + 1.2j) <= 1e-13

    def test_energy_at_a_height_flows_linearly(self, barrier):
        # k = 0 in (1, 2): w' is constant there and w grows by w' times the width
        assert propagate(barrier, 5.0, 1.0, 0.5, 1.0, 2.0) == (1.5 + 0j, 0.5 + 0j)

    @pytest.mark.parametrize(
        "e, y, r_from, r_to",
        [(1.0, 1.0, -1.0, 1.0), (1.0, 1.0, 0.0, math.inf), (1.0, 1.0, math.nan, 1.0),
         (1.0, math.nan, 0.0, 1.0), (1.0 + 1e6j, 1.0, 0.0, 2.0)],
    )
    def test_bad_radius_or_state_raises(self, barrier, e, y, r_from, r_to):
        with pytest.raises(DomainError):
            propagate(barrier, e, y, 0.0, r_from, r_to)

    @pytest.mark.parametrize("steps", [1, 2, 4])
    def test_one_walk_is_each_radius_alone(self, rng, steps):
        # verify's engine check walks each start once through all its radii: every state, on
        # either side of the start, on a breakpoint, repeated or at the start itself, must be
        # propagate's to that radius alone, bit for bit
        p = random_staircase(rng, steps)
        for e in (complex(rng.uniform(0.2, 30.0)), complex(rng.uniform(-5.0, 30.0), 1.0), 3.0 - 0.5j):
            for r_from in (0.0, p.breakpoints[0], p.breakpoints[-1], float(rng.uniform(0.0, 7.0))):
                radii = [*rng.uniform(0.0, 7.0, size=8).tolist(), *p.breakpoints, p.breakpoints[0], r_from]
                rng.shuffle(radii)
                y, dy = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
                walk = oracle_module._flow(p, e, y, dy, r_from, radii)
                alone = [propagate(p, e, y, dy, r_from, r) for r in radii]
                assert np.array(walk).tobytes() == np.array(alone).tobytes()

    def test_one_walk_raises_for_its_first_radius_past_double_precision(self):
        # past the barrier the state overflows: the walk names the first such radius in its order
        p = SquareBarrier(1e6, 1, 3)
        assert oracle_module._flow(p, 1.0, 0, 1, 0.0, [0.5, 1.0])[1] == propagate(p, 1.0, 0, 1, 0.0, 1.0)
        with pytest.raises(DomainError, match="from r=0.0 to 3.5 is not finite"):
            oracle_module._flow(p, 1.0, 0, 1, 0.0, [0.5, 3.5, 4.0])

    def test_overflowing_flow_raises(self):
        # cmath.cos(k d) itself overflows across the barrier (k ~ 1000i, d = 2)
        with pytest.raises(DomainError, match="not finite"):
            propagate(SquareBarrier(1e6, 1, 3), 1.0, 0, 1, 0, 3)


def _rk4_step(c, h, y, d):
    """One four-stage RK4 step of (y, d)' = (d, c y)."""
    k1y, k1d = d, c * y
    k2y = d + 0.5 * h * k1d
    k2d = c * (y + 0.5 * h * k1y)
    k3y = d + 0.5 * h * k2d
    k3d = c * (y + 0.5 * h * k2y)
    k4y = d + h * k3d
    k4d = c * (y + h * k3y)
    return (y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
            d + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d))


def _reference_rk4(p, e, y0, dy0, r_from, r_to, step):
    """RK4 stepped node by node, the reference for the powers of the one-step matrix."""
    pw = PiecewisePotential(p.breakpoints, p.heights)
    e = complex(e)
    n = int(round(abs(r_to - r_from) / step))
    h = math.copysign(step, r_to - r_from)
    ys = np.empty(n + 1, dtype=complex)
    ds = np.empty(n + 1, dtype=complex)
    y, d = complex(y0), complex(dy0)
    ys[0], ds[0] = y, d
    for j in range(n):
        y, d = _rk4_step(pw.value_at(r_from + (j + 0.5) * h) - e, h, y, d)
        ys[j + 1], ds[j + 1] = y, d
    return r_from + h * np.arange(n + 1), ys, ds


@pytest.mark.parametrize("kind", ["oscillating", "evanescent", "complex"])
def test_rk4_step_matrix_is_the_four_stage_step(kind):
    # the closed form against the four stages run on (1, 0) and (0, 1): c = v - E
    # below 0 (E above a well or barrier), above 0 (E below a barrier) or complex,
    # for x = c h^2 up to the stability bound |x| = RK4_STABILITY^2 and steps of
    # 1e-4 to 1; each entry within a few units in the last place of its terms
    rng = random.Random(35)
    eps = np.finfo(float).eps
    for _ in range(500):
        h = 10.0 ** rng.uniform(-4.0, 0.0)
        size = rng.uniform(0.0, oracle_module.RK4_STABILITY**2)
        x = {"oscillating": -size, "evanescent": size}.get(kind)
        if x is None:
            x = size * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        c = x / (h * h)
        want = np.array([_rk4_step(c, h, 1.0, 0.0), _rk4_step(c, h, 0.0, 1.0)], dtype=complex).T
        a, b = 1.0 + size / 2.0 + size * size / 24.0, h * (1.0 + size / 6.0)
        scale = np.array([[a, b], [abs(c) * b, a]])
        assert np.all(np.abs(oracle_module.rk4_step_matrix(c, h) - want) <= 4.0 * eps * scale), c


@pytest.mark.parametrize(
    "potential, e, y0, dy0, r_from, r_to",
    [
        (SquareBarrier(5.0, 1.0, 2.0), 1.0, 0.0, 0.83, 0.0, 1.5),  # forward 0 -> s
        (SquareBarrier(5.0, 1.0, 2.0), 1.0, 0.2 - 0.7j, 0.4 + 0.1j, 7.0, 1.5),  # backward
        (SquareBarrier(-3.0, 0.7, 1.9), 2.3 + 0.9j, 0.0, 1.0, 0.0, 4.0),  # complex E
        (PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -2.0, 0.0)), 1.5, 0.0, 1.0, 0.0, 5.0),
        (PiecewisePotential((1.0, 2.0, 3.0), (0.0, 4.0, -2.0, 0.0)), 1.5 - 0.5j, 1.0, -1j, 5.0,
         0.25),
        (SquareBarrier(5.0, 1.0, 2.0), 300.0, 0.0, 1.0, 0.0, 7.0),  # 7000 steps, k h = 0.017
        (SquareBarrier(9.7, 0.3, 2.2), 0.2, 1.0, -0.4, 7.2, 1.25),  # inward, evanescent barrier
    ],
)
def test_rk4_trajectory_is_bit_identical_to_per_step_loop(potential, e, y0, dy0, r_from, r_to):
    # the grid is bit-identical; the states are powers of the one-step matrix, not the
    # loop's own roundings, and must agree with it to 1e-12 of their largest magnitude
    traj = integrate_schrodinger(potential, e, y0, dy0, r_from, r_to, 1e-3)
    r, ys, ds = _reference_rk4(potential, e, y0, dy0, r_from, r_to, 1e-3)
    assert traj.r.tobytes() == r.tobytes()
    for got, want in ((traj.values, ys), (traj.derivatives, ds)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("steps", [1, 2, 4])
def test_multi_seed_rk4_pass_is_each_seed_run_alone(rng, steps):
    # the distributional check steps every direction's seed in one pass a side; each
    # seed's nodes and states must be, bit for bit, those of its own one-seed pass and
    # of integrate_schrodinger run region by region from the last state of the one before
    for _ in range(5):
        p = random_staircase(rng, steps)
        e = float(rng.uniform(0.2, 30.0))
        s = float(rng.uniform(0.1, p.breakpoints[-1] + 1.0))
        for cuts, counts in oracle_module.rk4_runs(p, e, s):
            seeds = [tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(3)]
            r, states = oracle_module._rk4_pass(p, e, seeds, cuts, counts)
            assert states.shape == (3, 2, r.size)
            for seed, both in zip(seeds, states):
                r_alone, (alone,) = oracle_module._rk4_pass(p, e, [seed], cuts, counts)
                rs, ys, dys = [cuts[0]], [seed[0]], [seed[1]]
                for x0, x1, n in zip(cuts, cuts[1:], counts):
                    traj = integrate_schrodinger(p, e, ys[-1], dys[-1], x0, x1, abs(x1 - x0) / n)
                    rs += traj.r[1:].tolist()
                    ys += traj.values[1:].tolist()
                    dys += traj.derivatives[1:].tolist()
                assert r.tobytes() == r_alone.tobytes() == np.array(rs).tobytes()
                assert both.tobytes() == alone.tobytes() == np.array([ys, dys], dtype=complex).tobytes()


def test_rk4_negative_radius_rejected(barrier):
    with pytest.raises(DomainError):
        integrate_schrodinger(barrier, 1.0, 0.0, 1.0, -0.5, 1.5, 1e-3)


@pytest.mark.parametrize(
    "r_to, step",
    # an OverflowError and a bare ValueError from rounding the step count
    [(math.inf, 1e-3), (3.0, math.nan)],
)
def test_rk4_non_finite_radius_or_step_rejected(r_to, step):
    with pytest.raises(DomainError, match="finite"):
        integrate_schrodinger(SquareBarrier(5, 1, 2), 1.0, 0, 1, 0.0, r_to, step)


def test_radius_of_several_numbers_rejected(barrier):
    with pytest.raises(DomainError, match="each radius must be one number"):
        propagate(barrier, 1.0, 0, 1, [0.0, 0.5], [1.0, 2.0])
    with pytest.raises(DomainError, match="each radius must be one number"):
        barrier.value_at([0.5, 1.5])


def test_wronskian_scale_that_underflows_the_kernel_raises(barrier):
    # at 1e308 every kernel value underflowed to 0 and the relative residual
    # raised ZeroDivisionError, in the check and in run_verification
    with pytest.raises(DomainError, match="underflows"):
        check_distributional_equation(barrier, 1.0, 1.5, "plus", 1e308)
    with pytest.raises(DomainError, match="underflows"):
        run_verification(barrier, 1.0, 0, 0, 1e308)


def test_rk4_grid_past_max_steps_rejected_before_allocating():
    # 3e9 steps asked for a (2, 3e9 + 1) complex state array, about 96 GB
    def call():
        with pytest.raises(DomainError, match="steps"):
            integrate_schrodinger(SquareBarrier(5, 1, 2), 1.0, 0, 1, 0.0, 3.0, 1e-9)

    assert _peak_bytes(call) < 2**20


@pytest.mark.parametrize("r_from, r_to", [(0.0, 4.0), (4.0, 0.5)])
def test_rk4_trajectory_past_double_precision_raises(r_from, r_to):
    # k h = 0.45 passes the stability bound, but the wave grows by about e^894 under
    # the barrier; the steps returned NaN without an error
    with pytest.raises(DomainError, match="not finite"):
        integrate_schrodinger(SquareBarrier(2e5, 1, 3), 1.0, 0, 1, r_from, r_to, 1e-3)


class TestApplyHamiltonianFd:
    def test_plane_wave_eigenrelation(self, free):
        r = 0.1 + 1e-3 * np.arange(4001)
        u = np.sin(1.3 * r)
        hu, valid = apply_hamiltonian_fd(r, u, free)
        resid = np.abs(hu - 1.3**2 * u)[valid]
        assert resid.max() < 1e-5

    def test_chi_eigenrelation(self, barrier):
        e = 1.0 + 0j
        r = 1e-3 * np.arange(5001)
        u = chi_wave(barrier, e).value(r)
        hu, valid = apply_hamiltonian_fd(r, u, barrier)
        resid = np.abs(hu - e * u)[valid]
        # truncation bound (h^2/12) (v0-E)^2 sup|chi| ~ 5e-6 for this instance
        assert resid.max() <= 1e-5

    def test_second_order_refinement(self, barrier):
        e = 1.0 + 0j
        chi = chi_wave(barrier, e)

        def residual(h):
            r = h * np.arange(int(round(5.0 / h)) + 1)
            u = chi.value(r)
            hu, valid = apply_hamiltonian_fd(r, u, barrier)
            return np.max(np.abs(hu - e * u)[valid])

        ratio = residual(2e-3) / residual(1e-3)
        assert 3.0 < ratio < 5.0

    def test_non_uniform_grid_is_exact_on_a_quadratic(self, barrier):
        # the spacings are the nodes' own: jittered by up to 40% of the mean
        # step, a quadratic's -u'' still comes back to rounding, in each region
        rng = np.random.default_rng(7)
        h = 2.5 / 200
        r = 0.5 + h * (np.arange(201) + rng.uniform(-0.2, 0.2, 201))
        u = (3.0 - 1.0j) * r**2 - 2.0 * r + 1.0
        hu, valid = apply_hamiltonian_fd(r, u, barrier)
        v = np.where((r > 1.0) & (r < 2.0), 5.0, 0.0)
        bound = 8.0 * np.finfo(float).eps * np.abs(u).max() / np.diff(r).min() ** 2
        assert np.abs(hu - (-2.0 * (3.0 - 1.0j) + v * u))[valid].max() <= bound
        assert np.count_nonzero(~valid) == 6

    def test_breakpoint_collars_flagged(self, barrier):
        r = 1e-3 * np.arange(3001)
        u = np.ones_like(r, dtype=complex)
        _, valid = apply_hamiltonian_fd(r, u, barrier)
        assert not valid[0] and not valid[-1]
        assert not valid[np.argmin(np.abs(r - barrier.a))]
        assert not valid[np.argmin(np.abs(r - barrier.b))]

    def test_nan_radius_rejected(self):
        # a NaN step returned NaN values with only a RuntimeWarning; the
        # spacings are now the radii's own, so a NaN radius is refused
        r = np.linspace(2.2, 2.3, 11)
        r[4] = math.nan
        with pytest.raises(DomainError, match="finite and strictly ascending"):
            apply_hamiltonian_fd(r, np.ones(11), SquareBarrier(5, 1, 2))

    def test_one_region_grid_loses_only_its_ends(self, barrier):
        # one region, breakpoints at both ends
        r = np.linspace(1.0, 2.0, 17)
        _, valid = apply_hamiltonian_fd(r, np.ones(17), barrier)
        assert valid.tolist() == [False] + [True] * 15 + [False]

    def test_coarse_grid_drops_the_nodes_beside_each_breakpoint(self, barrier):
        # a grid of fewer than 16 steps a region used to be refused; a node
        # is dropped only where its stencil reaches across 1 or 2
        r = 0.3 * np.arange(20)
        _, valid = apply_hamiltonian_fd(r, np.ones(20, dtype=complex), barrier)
        assert np.flatnonzero(~valid).tolist() == [0, 3, 4, 6, 7, 19]

    def test_mismatched_or_non_ascending_grid_rejected(self, barrier):
        r = np.linspace(2.2, 2.3, 11)
        with pytest.raises(ContractError, match="matching 1-d arrays"):
            apply_hamiltonian_fd(r, np.ones(10), barrier)
        with pytest.raises(ContractError, match="matching 1-d arrays"):
            apply_hamiltonian_fd(r.reshape(1, 11), np.ones((1, 11)), barrier)
        with pytest.raises(DomainError, match="strictly ascending"):
            apply_hamiltonian_fd(r[::-1], np.ones(11), barrier)
        r[5] = r[4]
        with pytest.raises(DomainError, match="strictly ascending"):
            apply_hamiltonian_fd(r, np.ones(11), barrier)


class TestCumulativeSimpson:
    def test_polynomial_prefix_integrals(self):
        h = 1e-2
        x = h * np.arange(401)
        y = x**3 - 2.0 * x + 1.0
        exact = x**4 / 4.0 - x**2 + x
        got = _cumulative_simpson(y, h)
        # pair and 3/8 panels are exact on cubics; only the very first
        # interval uses a quadratic rule with O(h^4) local error
        assert np.max(np.abs(got - exact)[2:]) < 1e-12
        assert abs(got[1] - exact[1]) < h**4

    def test_oscillatory_fourth_order(self):
        def err(h):
            x = h * np.arange(int(round(3.0 / h)) + 1)
            got = _cumulative_simpson(np.cos(5.0 * x), h)
            return np.max(np.abs(got - np.sin(5.0 * x) / 5.0))

        assert err(1e-3) < 1e-10
        ratio = err(2e-3) / err(1e-3)
        assert 12.0 < ratio < 20.0


class TestCheckJump:
    def test_unit_jump_both_directions(self, barrier):
        for direction in ("plus", "minus"):
            rep = check_jump(barrier, 1.0, 1.5, direction)
            assert rep.passed and rep.max_residual <= 1e-6

    def test_jump_independent_of_position(self, barrier):
        for s in (0.5, 1.5, 4.0):
            rep = check_jump(barrier, 1.0, s, "plus")
            assert rep.passed

    def test_corrupted_normalization_fails(self, barrier):
        rep = check_jump(barrier, 1.0, 1.5, "plus", wronskian_scale=1.01)
        assert not rep.passed

    def test_probe_too_close_to_interface(self, barrier):
        with pytest.raises(DomainError):
            check_jump(barrier, 1.0, barrier.a + 1e-4, "plus")

    @pytest.mark.parametrize("s", [1e9 + 0.5, 1e308])
    def test_probes_lost_to_rounding_rejected(self, s):
        # a correct kernel read 1.9e-5 at s = 1e9 + 0.5 and 1.0 at 1e308: the
        # probes s + h0 / 2^j rounded to doubles, and the jump with them
        with pytest.raises(DomainError, match="rounding"):
            check_jump(SquareBarrier(5, 1, 2), 1.0, s, "plus")

    def test_far_probe_within_the_rounding_bound_passes(self):
        # rounding moves this jump by 1.9e-8, inside the bound of about 5.6e-8
        rep = check_jump(SquareBarrier(5, 1, 2), 1.0, 1e6 + 0.5, "plus")
        assert rep.passed and rep.max_residual < 1e-7


class TestResolventIdentity:
    @pytest.mark.parametrize(
        "p",
        [
            PiecewisePotential((), (0.0,)),
            SquareBarrier(5, 1, 2),
            SquareBarrier(-100, 1, 2),
            SquareBarrier(-300, 1, 2),
            SquareBarrier(-2e4, 1, 1.05),
            SquareBarrier(30, 2, 2.0031),
        ],
        ids=["free", "barrier", "well-100", "well-300", "well-2e4", "thin-barrier"],
    )
    def test_correct_kernels_pass(self, p):
        # the one 1e-3 grid read 1.1e-4, 3.0e-4 and 0.15 in the wells, and
        # could not lay 16 steps across the 0.0031-wide barrier
        f = TestFunction("gaussian_bump", 3.0, 0.5)
        for e in (1 + 1j, 1 - 1j):
            rep = check_resolvent_identity(p, e, f)
            assert rep.passed and rep.max_residual <= 2.5e-5
            # the two ends of the support and each breakpoint are reported, never silent
            assert rep.excluded == 2 + len(p.breakpoints)

    @pytest.mark.parametrize(
        "p", [SquareBarrier(5, 1, 2), SquareBarrier(-100, 1, 2), STAIRCASE],
        ids=["barrier", "well", "staircase"],
    )
    @pytest.mark.parametrize(
        "kind, center, width",
        [("gaussian_bump", 3.0, 0.5), ("compact_polynomial_bump", 3.5, 1.0)],
        ids=["gaussian", "compact"],
    )
    def test_residual_follows_the_target(self, p, kind, center, width):
        # each region's step comes from the check's own residual, so a tenfold
        # smaller target gives about a tenfold smaller residual
        f = TestFunction(kind, center, width)
        default = check_resolvent_identity(p, 1 + 1j, f)
        finer = check_resolvent_identity(p, 1 + 1j, f, target=1e-6)
        assert default.max_residual <= 1.5 * oracle_module.RESOLVENT_TARGET
        assert 7.0 < default.max_residual / finer.max_residual < 14.0
        assert finer.samples > 2 * default.samples

    def test_real_energy_rejected(self, barrier):
        f = TestFunction("gaussian_bump", 3.0, 0.5)
        with pytest.raises(ContractError):
            check_resolvent_identity(barrier, 1.0 + 0j, f)

    @pytest.mark.parametrize(
        "e, target, match",
        [(1e14 + 1j, 1e-5, "more than 1000000"), (1 + 1j, 1e-20, "too much rounding")],
        ids=["past-max-steps", "below-rounding"],
    )
    def test_unreachable_grid_raises_before_allocating(self, e, target, match):
        # a first pass of 5.5e8 nodes at E = 1e14; a target so small that the
        # rounding of u, over the step squared, passes it on any grid
        f = TestFunction("gaussian_bump", 3.0, 0.5)

        def call():
            with pytest.raises(DomainError, match=match):
                check_resolvent_identity(SquareBarrier(5, 1, 2), e, f, target=target)

        assert _peak_bytes(call) < 2**20

    @pytest.mark.parametrize("e, most", [(1 + 1j, 2000), (3000 + 1j, 4000)], ids=["E1", "E3000"])
    def test_node_count_stays_bounded(self, monkeypatch, e, most):
        # both passes together, against 5497 nodes on the one 1e-3 grid this
        # check used to lay; a rule that refines everywhere must fail here.
        # At E = 3000 the Simpson error sets the step: one sized from the
        # fourth derivative of u alone read 1.8e-2
        points = []

        def counted(r, *args, **kwargs):
            points.append(len(r))
            return apply_hamiltonian_fd(r, *args, **kwargs)

        monkeypatch.setattr(oracle_module, "apply_hamiltonian_fd", counted)
        f = TestFunction("gaussian_bump", 3.0, 0.5)
        rep = check_resolvent_identity(SquareBarrier(5, 1, 2), e, f)
        assert rep.passed and rep.max_residual <= 2.5e-5
        assert rep.samples + rep.excluded <= sum(points) <= most

    @pytest.mark.parametrize("p", [SquareBarrier(5, 1, 2), SquareBarrier(-2e4, 1, 1.05)], ids=["barrier", "well"])
    def test_scaled_kernel_fails(self, monkeypatch, p):
        # the steps follow the check's own residual, which must not absorb a wrong kernel
        def scaled(*args):
            chi, om, w = wave_pair(*args)
            return chi, om, 1.001 * w

        monkeypatch.setattr(oracle_module, "wave_pair", scaled)
        rep = check_resolvent_identity(p, 1 + 1j, TestFunction("gaussian_bump", max(p.b + 1.0, 3.0), 0.5))
        assert not rep.passed and rep.max_residual > 5e-4

    def test_adjoint_direction_returns_bump(self, barrier):
        # apply the kernel to (E - h) g and expect g back: no finite
        # differences involved, so this isolates the quadrature machinery
        e = 1 + 1j
        g = TestFunction("compact_polynomial_bump", 3.5, 1.0)
        lo, hi = g.support
        h = 1e-3
        s = lo + h * np.arange(int(round((hi - lo) / h)) + 1)
        v_s = np.array([barrier.value_at(x) for x in s])
        t = (s - g.center) / g.width
        g2 = 8.0 * (1.0 - t * t) ** 2 * (7.0 * t * t - 1.0) / g.width**2  # g'' of the polynomial bump
        phi = e * g(s) + g2 - v_s * g(s)
        chi, om, w = wave_pair(barrier, e, "plus")
        pc = _cumulative_simpson(chi.value(s) * phi, h)
        po = _cumulative_simpson(om.value(s) * phi, h)
        v = (om.value(s) * pc + chi.value(s) * (po[-1] - po)) / w
        assert np.max(np.abs(v - g(s))) < 1e-6

    def test_engine_potential_accepted(self, barrier):
        pw = PiecewisePotential(barrier.breakpoints, barrier.heights)
        f = TestFunction("gaussian_bump", 3.0, 0.5)
        rep = check_resolvent_identity(pw, 1 + 1j, f)
        assert rep.passed

    def test_quadrature_image_matches_brute_force(self, barrier):
        # the prefix/suffix assembly, chained across the breakpoints 1 and 2,
        # must agree with naively integrating the kernel row (trapezoids are
        # enough to cross-check at 1e-5)
        e = 1 + 1j
        f = TestFunction("compact_polynomial_bump", 2.0, 1.5)
        r, u, _, _, ends = _resolvent_image(barrier, e, f, [0.5, 1.0, 2.0, 3.5], [500, 1000, 1500])
        assert ends.tolist() == [0, 500, 1500, 3000] and r.size == 3001
        assert r[ends].tolist() == [0.5, 1.0, 2.0, 3.5]
        s_grid = 0.5 + 4e-3 * np.arange(751)
        for j, idx in ((0, 250), (1, 487), (2, 0), (2, 700)):
            i = ends[j] + idx
            g_row = kernel_grid(barrier, e, [float(r[i])], s_grid)[0]
            brute = np.trapezoid(g_row * f(s_grid), dx=4e-3)
            assert abs(u[i] - brute) < 1e-5


class TestDistributionalEquation:
    def test_default_instance(self, barrier):
        for direction in ("plus", "minus"):
            rep = check_distributional_equation(barrier, 1.0, 1.5, direction)
            assert rep.passed
            by_name = {c.name: c for c in rep.components}
            assert by_name["derivative_jump"].max_residual <= 1e-6
            assert by_name["offdiagonal_radial_equation"].max_residual <= 1e-7
            assert by_name["interface_continuity"].max_residual <= 1e-10

    def test_positions_across_regions(self, barrier):
        for s in (0.5, 1.5, 4.0):
            rep = check_distributional_equation(barrier, 1.0, s, "plus")
            assert rep.passed

    def test_lattice_aligned_random_instances(self, rng):
        for p, e in random_instances(rng, 3, lattice=1e-3):
            s = round((0.5 * (p.a + p.b)) / 1e-3) * 1e-3
            if min(abs(s - p.a), abs(s - p.b)) < 2e-3:
                continue
            rep = check_distributional_equation(p, e, s, "plus")
            assert rep.passed, [(c.name, c.max_residual) for c in rep.components]

    def test_diagonal_gap_shrinks_linearly(self, barrier):
        from sqgreen.kernel import formal_green

        s, e = 1.5, 1.0
        gaps = []
        hs = (1e-2, 5e-3, 2.5e-3)
        for h in hs:
            plus = formal_green(barrier, e, s + h, s, "plus")
            minus = formal_green(barrier, e, s - h, s, "plus")
            gaps.append(abs(plus - minus))
        assert 1.8 < gaps[0] / gaps[1] < 2.2
        assert 1.8 < gaps[1] / gaps[2] < 2.2

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_probe_rejected(self, s):
        # a bare ValueError (nan) and an OverflowError (inf) from the lattice test
        with pytest.raises(DomainError, match="finite"):
            check_distributional_equation(SquareBarrier(5, 1, 2), 1.0, s, "plus")

    def test_off_lattice_instances_pass(self, rng):
        # s and every breakpoint had to sit on a 1e-3 lattice
        for p, e in random_instances(rng, 3) + [(SquareBarrier(5, 1.0005, 2.0003), 1.0)]:
            rep = check_distributional_equation(p, e, 0.5 * (p.a + p.b) + 3.7e-4, "plus")
            assert rep.passed, [(c.name, c.max_residual) for c in rep.components]

    def test_rk4_runs_split_at_the_breakpoints_and_s(self, barrier):
        # a region of width d takes d max(|k|, 1) / 0.01 steps while a run's phase stays
        # below 300; at E = 3000 the right run's 301 rad shrink the phase per step
        assert oracle_module.rk4_runs(barrier, 1.0, 1.5) == [
            ([0.0, 1.0, 1.5], [100, 100]),
            ([7.0, 2.0, 1.5], [500, 100]),
        ]
        (_, left), (_, right) = oracle_module.rk4_runs(barrier, 3000.0, 1.5)
        k_out, k_in = 3000.0**0.5, 2995.0**0.5
        per_rad = 100.0 * ((5.0 * k_out + 0.5 * k_in) / 300.0) ** 0.25  # 1 / theta
        assert left == [math.ceil(100.0 * k_out), math.ceil(50.0 * k_in)]
        assert right == [math.ceil(5.0 * k_out * per_rad), math.ceil(0.5 * k_in * per_rad)]

    @pytest.mark.parametrize("s", [1e5, 1e308])
    def test_probe_past_the_rk4_reach_rejected_before_any_wave(self, monkeypatch, s):
        # 1e308 raised an OverflowError from a lattice test; 1e5 built the
        # kernel waves before its RK4 run refused
        def no_work(*args, **kwargs):
            raise AssertionError("a wave was built or an RK4 step taken")

        monkeypatch.setattr(oracle_module, "wave_pair", no_work)
        monkeypatch.setattr(oracle_module, "_rk4", no_work)
        with pytest.raises(DomainError, match="more than 1000000"):
            check_distributional_equation(SquareBarrier(5, 1, 2), 1.0, s, "plus")

    def test_corruption_detected(self, barrier):
        rep = check_distributional_equation(barrier, 1.0, 1.5, "plus", wronskian_scale=1.01)
        assert not rep.passed

    def test_builds_its_kernel_waves_once(self, barrier, monkeypatch):
        # the jump component used to build its own kernel slice
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return wave_pair(*args, **kwargs)

        monkeypatch.setattr(oracle_module, "wave_pair", counted)
        check_distributional_equation(barrier, 1.0, 1.5, "plus")
        assert len(calls) == 1

    def test_engine_kernels_pass_identically(self, barrier):
        # the oracle must not care whether the barrier comes as a
        # SquareBarrier or as the same PiecewisePotential
        pw = PiecewisePotential(barrier.breakpoints, barrier.heights)
        closed = check_distributional_equation(barrier, 1.0, 1.5, "plus")
        engine = check_distributional_equation(pw, 1.0, 1.5, "plus")
        assert closed.passed and engine.passed
        for c_closed, c_engine in zip(closed.components, engine.components):
            assert c_closed.name == c_engine.name
            assert abs(c_closed.max_residual - c_engine.max_residual) <= max(
                1e-12, 0.1 * c_closed.tolerance
            )
        jr = check_jump(pw, 1.0, 1.5, "minus")
        assert jr.passed


def _no_flow_or_rk4_step(monkeypatch, nothing) -> None:
    """Make every walk of the exact flow and every RK4 run, from any module, call ``nothing``."""
    for module, name in ((oracle_module, "_flow"), (verification, "_flow"), (oracle_module, "_rk4")):
        monkeypatch.setattr(module, name, nothing)


class TestRunVerification:
    def test_overflowing_amplitudes_raise(self):
        with pytest.raises(DomainError, match="overflow"):
            run_verification(SquareBarrier(1e6, 1.0, 2.0), 1.0)

    @pytest.mark.parametrize(
        "p, e",
        [(PiecewisePotential((1e306,), (1.0, 0.0)), 1.0), (SquareBarrier(5.0, 1.0, 2.0), 1e300)],
        ids=["breakpoint-1e306", "energy-1e300"],
    )
    def test_past_the_rk4_reach_raises_before_any_wave(self, monkeypatch, p, e):
        # 1e306 / 1e-3 overflowed to inf, and a lattice test raised a bare OverflowError
        monkeypatch.setattr(verification, "wave_pair", lambda *args: pytest.fail("a wave was built"))
        with pytest.raises(DomainError, match="more than 1000000"):
            run_verification(p, e)

    def test_thin_last_region_raises_before_any_draw_or_check(self, monkeypatch):
        # the jump check's probes at the midpoint 1.0005 would sit within 1e-3
        # of both breakpoints: a ContractError after up to four checks had run
        p = SquareBarrier(5.0, 1.0, 1.001)

        def nothing(*args, **kwargs):
            raise AssertionError("a draw or a check ran")

        _no_flow_or_rk4_step(monkeypatch, nothing)
        monkeypatch.setattr(verification, "Random", nothing)
        for name in ("wave_pair", "_distributional_reports", "check_resolvent_identity", "_limit_walk"):
            monkeypatch.setattr(verification, name, nothing)
        with pytest.raises(DomainError, match="within 1e-3"):
            run_verification(p, 1.0)

    @pytest.mark.parametrize("e", [-1.0, 0.0, math.nan, math.inf, 1.0 + 1.0j, "x"])
    def test_bad_energy_raises_before_any_draw_or_check(self, barrier, monkeypatch, e):
        # E = -1 ran the continuity and Wronskian checks, then raised from the
        # distributional check; nan ran the whole suite; "x" raised a bare ValueError
        def nothing(*args, **kwargs):
            raise AssertionError("a draw or a check ran")

        monkeypatch.setattr(verification, "Random", nothing)
        for name in ("wave_pair", "_distributional_reports"):
            monkeypatch.setattr(verification, name, nothing)
        with pytest.raises(DomainError, match="real E > 0"):
            run_verification(barrier, e)

    def test_builds_each_instance_waves_once(self, barrier, monkeypatch):
        # the Wronskian check built chi once more for each direction
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return wave_pair(*args, **kwargs)

        monkeypatch.setattr(verification, "wave_pair", counted)
        assert run_verification(barrier, 1.0, seed=7, n_random=1)["pass"]
        # the configured instance and the random one, each asking once per direction
        assert len(calls) == len(set(calls)) == 4
        assert len({args[:2] for args in calls}) == 2
        assert [args[1:] for args in calls[:2]] == [(1.0 + 1.0j, "plus"), (1.0 + 1.0j, "minus")]

    def test_no_breakpoints_raises_before_any_draw_or_check(self, monkeypatch):
        # the probe radii, the bump and the reference tails need a last breakpoint
        def nothing(*args, **kwargs):
            raise AssertionError("a draw or a check ran")

        _no_flow_or_rk4_step(monkeypatch, nothing)
        monkeypatch.setattr(verification, "Random", nothing)
        for name in ("wave_pair", "_distributional_reports"):
            monkeypatch.setattr(verification, name, nothing)
        with pytest.raises(DomainError, match="at least one breakpoint"):
            run_verification(PiecewisePotential((), (0.0,)), 1.0)

    def test_oracle_out_of_reach_raises_before_any_draw_or_check(self, monkeypatch):
        # each RK4 run, out to 5 beyond the last breakpoint, must fit in MAX_STEPS:
        # about 5000 rad of phase at the step rule of rk4_runs
        def nothing(*args, **kwargs):
            raise AssertionError("a draw or a check ran")

        _no_flow_or_rk4_step(monkeypatch, nothing)
        monkeypatch.setattr(verification, "Random", nothing)
        for name in ("wave_pair", "_distributional_reports"):
            monkeypatch.setattr(verification, name, nothing)
        with pytest.raises(DomainError, match="more than 1000000"):
            run_verification(PiecewisePotential((1.0, 1e4), (0.0, 1.0, 0.0)), 2.0)

    def test_staircase_passes(self):
        report = run_verification(STAIRCASE, 1.5)
        assert report["pass"] is True
        assert report["instance"]["breakpoints"] == [1.0, 2.0, 3.0]
        assert report["instance"]["heights"] == [0.0, 4.0, -2.0, 0.0]
        samples = {c["name"]: c["samples"] for c in report["checks"]}
        assert (samples["continuity"], samples["wronskian"]) == (18, 8)

    def test_engine_equivalence_pairs_its_drawn_radii(self, monkeypatch):
        # the kernel pairs were fixed at (0.4, 1.7) and (2.5, 0.9), short of the
        # outer regions, and the report said 30 samples for 26 values; the four
        # pairs are now the diagonal of one kernel_grid call
        calls = []

        def recorded(p, e, rs, ss, direction=None):
            calls.append((e, list(rs), list(ss), direction))
            return kernel_module.kernel_grid(p, e, rs, ss, direction)

        monkeypatch.setattr(verification, "kernel_grid", recorded)
        e = 1.5 + 1.0j
        waves = verification._engine_waves(STAIRCASE, e)
        reference = verification._reference(STAIRCASE, e)
        worst = verification._engine_agreement(STAIRCASE, e, waves, reference, np.random.default_rng(3))
        assert worst <= 1e-12
        radii = np.random.default_rng(3).uniform(0.05, 5.0, size=8)
        assert calls == [(e, list(radii[0::2]), list(radii[1::2]), None)]
        pairs = list(zip(*calls[0][1:3]))
        diagonal = kernel_module.kernel_grid(STAIRCASE, e, *calls[0][1:3]).diagonal()
        single = [kernel_module.resolvent_kernel(STAIRCASE, e, r, s) for r, s in pairs]
        assert diagonal.tobytes() == np.array(single).tobytes()
        assert max(max(pair) for pair in pairs) > STAIRCASE.breakpoints[-1]
        report = run_verification(STAIRCASE, 1.5, n_random=0)
        samples = {c["name"]: c["samples"] for c in report["checks"]}
        assert samples["engine_equivalence"] == 3 * 8 + 4

    @pytest.mark.parametrize(
        "p, e",
        [(SquareBarrier(5.0, 1.0, 2.0), 1.0), (STAIRCASE, 1.5)],
        ids=["barrier", "staircase"],
    )
    def test_wronskian_off_by_1e_10_fails_engine_equivalence(self, monkeypatch, p, e):
        # residuals 4.9e-12 and 7.7e-12 against 1e-12; the other checks cannot see it
        outer = kernel_module.outer_wronskian

        def corrupt(f, g):
            return outer(f, g) * (1 + 1e-10)

        monkeypatch.setattr(kernel_module, "outer_wronskian", corrupt)
        report = run_verification(p, e, n_random=0)
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["engine_equivalence"]


def _count_evaluations(monkeypatch) -> list[int]:
    """Record the number of radii of every wave evaluation from here on."""
    sizes = []
    evaluate = PiecewiseWave._evaluate

    def counted(self, r, sides, derivative):
        sizes.append(int(np.size(r)))
        return evaluate(self, r, sides, derivative)

    monkeypatch.setattr(PiecewiseWave, "_evaluate", counted)
    return sizes


def test_verification_evaluates_waves_in_batches(monkeypatch):
    # each check evaluates a wave on all its radii at once: this run takes 31
    # evaluations over 3 623 radii, where one evaluation per probe radius and
    # a frozen factor at every RK4 node took 327 over 39 348, and reading each
    # wave once per check and per direction took 51 over 3 871
    sizes = _count_evaluations(monkeypatch)
    report = run_verification(SquareBarrier(5.0, 1.0, 2.0), 1.0, seed=7, n_random=1)
    assert report["pass"]
    assert len(sizes) <= 34
    assert sum(sizes) <= 3_700


#: the fixed instances and seeded random staircases the shared paths of ``verify`` are checked on
_SHARED_CASES = [(SquareBarrier(5.0, 1.0, 2.0), 1.0), (STAIRCASE, 1.5),
                 *verification._random_instances(random.Random(34), 12)]
_SHARED_IDS = ["barrier", "staircase", *(f"random{j}" for j in range(12))]


def _last_midpoint(p) -> float:
    return 0.5 * (((0.0,) + p.breakpoints)[-2] + p.breakpoints[-1])


class TestSharedPaths:
    """Each path ``verify`` shares between waves or directions gives the bits of its single requests."""

    @pytest.mark.parametrize("p, e", _SHARED_CASES[:2], ids=_SHARED_IDS[:2])
    @pytest.mark.parametrize("scale", [1.0, 1.001])
    def test_report_components_are_the_single_direction_checks(self, p, e, scale):
        report = run_verification(p, e, n_random=0, wronskian_scale=scale)
        got = {c["name"]: c for c in report["checks"]}
        for direction in ("plus", "minus"):
            single = check_distributional_equation(p, e, _last_midpoint(p), direction, scale)
            for c in single.components:
                assert got[f"{c.name}_{direction}"] == {**c.to_dict(), "name": f"{c.name}_{direction}"}

    @pytest.mark.parametrize("p, e", _SHARED_CASES, ids=_SHARED_IDS)
    @pytest.mark.parametrize("scale", [1.0, 1.001])
    def test_both_directions_in_one_pass(self, p, e, scale):
        s = _last_midpoint(p)
        pair = oracle_module._distributional_reports(p, e, s, ("plus", "minus"), scale)
        single = [check_distributional_equation(p, e, s, d, scale) for d in ("plus", "minus")]
        assert [r.to_dict() for r in pair] == [r.to_dict() for r in single]

    @pytest.mark.parametrize("p, e", _SHARED_CASES, ids=_SHARED_IDS)
    @pytest.mark.parametrize("direction", ["plus", "minus"])
    def test_jump_check_is_the_distributional_jump_component(self, p, e, direction):
        # check_jump reads G off a kernel_grid column, the distributional check forms
        # chi omega / W from wave_pair; at a unit scale the two give the same bits
        s = _last_midpoint(p)
        jump = check_jump(p, e, s, direction)
        assert jump.to_dict() == check_distributional_equation(p, e, s, direction).components[0].to_dict()

    @pytest.mark.parametrize("p, e", _SHARED_CASES, ids=_SHARED_IDS)
    def test_limit_agreement_is_the_largest_abs_diff(self, p, e):
        for seed in (0, 7):
            got = verification._limit_agreement(p, e, random.Random(seed))
            rng, hi = random.Random(seed), p.breakpoints[-1] + 2.0
            pairs = [(0.1 + (hi - 0.1) * rng.random(), 0.1 + (hi - 0.1) * rng.random()) for _ in range(3)]
            studies = [x for r, s in pairs for x in kernel_module.boundary_limits(p, e, r, s, ("plus", "minus"))]
            assert got == max(study.abs_diff for study in studies)

    @pytest.mark.parametrize("p, e", _SHARED_CASES, ids=_SHARED_IDS)
    def test_wave_residuals_from_one_evaluation_per_wave(self, p, e):
        e = complex(e, 1.0)
        waves = verification._engine_waves(p, e)
        exact = verification._reference(p, e)[1]
        # continuity from each wave's own one_sided at the breakpoints
        sides = np.array([w.one_sided(p.breakpoints) for w in waves])
        left, right = sides[:, 0::2], sides[:, 1::2]
        continuity = float((np.abs(left - right) / (1.0 + np.abs(right))).max())
        # the Wronskians from wronskian(), which evaluates each pair of waves anew
        edges = (0.0,) + p.breakpoints
        points = [0.5 * (x1 + x2) for x1, x2 in zip(edges, edges[1:])] + [edges[-1] + 1.0]
        values = np.array([wronskian(waves[0], om, points) for om in waves[1:]])
        spread = np.abs(values[:, :, None] - values[:, None, :]).max(axis=2)
        exact_col = np.array(exact)[:, None]
        agreement = float((np.maximum(np.abs(values - exact_col), spread) / np.abs(exact_col)).max())
        assert verification._wave_agreement(p, waves, exact) == (continuity, agreement)


def test_kernel_grid_evaluates_each_wave_once_on_its_axes(monkeypatch):
    # a 100 x 80 grid takes two evaluations of 180 radii, not of 8000 grid points
    sizes = _count_evaluations(monkeypatch)
    kernel_grid(SquareBarrier(5.0, 1.0, 2.0), 1.5 + 0.2j, np.linspace(0.0, 4.0, 100), np.linspace(4.0, 0.5, 80))
    assert sizes == [180, 180]


#: seeds of one to seven 32-bit words; Random's seeding hashes every word
_STREAM_SEEDS = [*range(20), 2**31 - 1, 2**32, 2**32 + 7, 2**64 + 5, 10**30, 2**200 + 3]


def _verify_draws(seed: int, outer: float, n_random: int) -> tuple[list, list, list]:
    """The radii, limit pairs and random instances ``verify`` draws from ``Random(seed)``.

    Every value is one ``random()``, in ``verify``'s order; a uniform on [lo, hi)
    is lo + (hi - lo) * random().
    """
    rng = random.Random(seed)
    hi = outer + 2.0
    radii = [0.05 + (hi - 0.05) * rng.random() for _ in range(8)]
    pairs = [(0.1 + (hi - 0.1) * rng.random(), 0.1 + (hi - 0.1) * rng.random()) for _ in range(3)]
    instances = []
    while len(instances) < n_random:
        steps = 1 + int(4 * rng.random())
        widths = [0.3 + (2.0 - 0.3) * rng.random() for _ in range(steps)]
        heights = [-5.0 + (10.0 + 5.0) * rng.random() for _ in range(steps)] + [0.0]
        e_hi = max(0.2, 2.0 * max(heights) + 5.0)
        e = 0.1 + (e_hi - 0.1) * rng.random()
        if min(abs(e - v) for v in heights) >= 0.05:
            instances.append((np.cumsum(widths).tolist(), heights, e))
    return radii, pairs, instances


class TestDrawStream:
    """``verify`` takes every drawn value from ``random.Random(seed).random()``."""

    def test_run_verification_draws_the_standard_stream(self, barrier, monkeypatch):
        seen = {}

        def recorded(name, fn):
            def call(*args, **kwargs):
                seen.setdefault(name, []).append(args)
                return fn(*args, **kwargs)

            return call

        for name in ("kernel_grid", "_limit_walk", "_engine_waves"):
            monkeypatch.setattr(verification, name, recorded(name, getattr(verification, name)))
        for seed in _STREAM_SEEDS:
            seen.clear()
            run_verification(barrier, 1.0, seed=seed, n_random=3)
            radii, pairs, instances = _verify_draws(seed, barrier.b, 3)
            # the engine's kernel at the drawn radii, then the formal kernels at the limit pairs
            (_, _, r, s), *formal = seen["kernel_grid"]
            assert (r.tolist(), s.tolist()) == (radii[0::2], radii[1::2]), seed
            assert formal == [(barrier, 1.0, *zip(*pairs), d) for d in ("plus", "minus")], seed
            assert [args[2:4] for args in seen["_limit_walk"]] == pairs, seed
            # the first waves are the configured instance's
            waves = seen["_engine_waves"][1:]
            drawn = [(list(p.breakpoints), list(p.heights), e.real) for p, e in waves]
            assert drawn == instances, seed

    def test_literal_draws(self):
        # CPython keeps these streams from version to version
        assert random.Random(0).random() == 0.8444218515250481
        assert random.Random(10**30).random() == 0.9341508484568806

    def test_a_seed_of_any_size_is_accepted(self, barrier):
        for seed in (2**64 + 5, 10**30, 2**4096 - 1):
            report = run_verification(barrier, 1.0, seed=seed, n_random=1)
            assert report["pass"] and report["instance"]["seed"] == seed
