import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgreen import (
    DomainError,
    PiecewisePotential,
    SquareBarrier,
    branch_sqrt,
    find_kernel_poles,
    formal_green,
    region_momenta,
    resolvent_kernel,
)
from sqgreen.model import _branch_sqrt_array, complex_energy, real_energy

from conftest import close


class TestBranchSqrt:
    def test_positive_real(self):
        assert branch_sqrt(4 + 0j) == 2 + 0j

    def test_negative_real_maps_to_positive_imaginary(self):
        assert branch_sqrt(-1 + 0j) == 1j
        # a negative zero imaginary part still counts as the cut itself
        assert branch_sqrt(complex(-4.0, -0.0)) == 2j

    def test_lower_half_plane(self):
        assert close(branch_sqrt(-2j), 1 - 1j, atol=1e-15)

    def test_zero(self):
        assert branch_sqrt(0j) == 0j

    @pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf), math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            branch_sqrt(bad)

    @given(
        st.complex_numbers(
            min_magnitude=1e-100, max_magnitude=1e100, allow_nan=False, allow_infinity=False
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_square_recovers_input(self, z):
        w = branch_sqrt(z)
        assert abs(w * w - z) <= 1e-14 * abs(z)

    @given(
        st.complex_numbers(
            min_magnitude=1e-50, max_magnitude=1e50, allow_nan=False, allow_infinity=False
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_argument_lands_in_right_half_plane(self, z):
        # inputs a fraction of an ulp below the cut can round onto the open
        # boundary itself, hence the one-ulp allowance on the strict side
        w = branch_sqrt(z)
        theta = math.atan2(w.imag, w.real)
        assert -math.pi / 2 - 1e-12 < theta <= math.pi / 2 + 1e-12

    def test_exact_axis_convention_is_exact(self):
        # no rounding ambiguity for exact-axis inputs: the cut maps upward
        for x in (-1e-30, -1.0, -1e30):
            w = branch_sqrt(complex(x, 0.0))
            assert w.real == 0.0 and w.imag > 0.0

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_upper_half_plane_gives_decaying_exponent(self, x):
        w = branch_sqrt(complex(x, x))
        assert w.imag > 0.0

    @pytest.mark.parametrize("mu", [1e-6, 1e-9])
    @pytest.mark.parametrize("x", [-0.5, -1.0, -9.0])
    def test_discontinuity_across_negative_axis(self, x, mu):
        up = branch_sqrt(complex(x, mu))
        down = branch_sqrt(complex(x, -mu))
        root = math.sqrt(-x)
        assert abs(up - 1j * root) <= mu
        assert abs(down + 1j * root) <= mu
        # the cut itself belongs to the upper side
        assert branch_sqrt(complex(x, 0.0)) == 1j * root

    @pytest.mark.parametrize("z", [complex(-4.0, 1e-10), complex(-2.5, 1e-14)])
    def test_small_real_part_beside_the_cut_is_accurate(self, z):
        # beside the cut Re sqrt(z) is tiny against |sqrt(z)|: a root formed as
        # sqrt|z| cos(arg z / 2) misses it by 5e-6 relative at -4 + 1e-10i and
        # by 3% at -2.5 + 1e-14i
        with localcontext() as ctx:
            ctx.prec = 50
            x, y = Decimal(z.real), Decimal(z.imag)
            im = (((x * x + y * y).sqrt() - x) / 2).sqrt()
            want = complex(float(y / (2 * im)), float(im))  # Re = y / (2 Im), no cancellation
        for got in (branch_sqrt(z), _branch_sqrt_array(np.array([z]))[0]):
            assert abs(got.real - want.real) <= math.ulp(want.real), got
            assert got.imag == want.imag, got


class TestSquareBarrier:
    def test_invariants(self):
        with pytest.raises(DomainError):
            SquareBarrier(5.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            SquareBarrier(5.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            SquareBarrier(math.inf, 1.0, 2.0)
        SquareBarrier(-3.0, 1.0, 2.0)  # wells are legal

    def test_potential_regions(self):
        p = SquareBarrier(5.0, 1.0, 2.0)
        assert p.value_at(0.5) == 0.0
        assert p.value_at(1.5) == 5.0
        assert p.value_at(3.0) == 0.0

    def test_right_limit_at_jumps(self):
        p = SquareBarrier(5.0, 1.0, 2.0)
        assert p.value_at(1.0) == 5.0
        assert p.value_at(2.0) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            SquareBarrier(5.0, 1.0, 2.0).value_at(-0.1)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_nonfinite_radius_rejected(self, r):
        # nan used to fall through to 0.0
        with pytest.raises(DomainError):
            SquareBarrier(5.0, 1.0, 2.0).value_at(r)

    @pytest.mark.parametrize("r", [0.5 + 1j, "x"])
    def test_non_real_radius_rejected(self, r):
        # the comparison with 0.0 raised a bare TypeError
        with pytest.raises(DomainError, match="real numbers"):
            SquareBarrier(5.0, 1.0, 2.0).value_at(r)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SquareBarrier(1 + 1j, 1, 2),
            lambda: SquareBarrier(np.complex128(1 + 1j), 1, 2),
            lambda: PiecewisePotential((1.0,), ("a", 0.0)),
            lambda: PiecewisePotential((1.0,), ((1, 2), 0.0)),
        ],
        ids=["complex_height", "numpy_complex_height", "string_height", "tuple_height"],
    )
    def test_non_real_parameter_rejected(self, make):
        # float() raised a bare TypeError or ValueError, or cast numpy's complex
        # to its real part with only a ComplexWarning
        with pytest.raises(DomainError, match="heights must be a finite real number"):
            make()

    def test_numeric_strings_stay_accepted(self):
        assert SquareBarrier("5", 1, 2) == SquareBarrier(5.0, 1.0, 2.0)

    @pytest.mark.parametrize(
        "breakpoints, heights", [(1.0, (0.0,)), ((1.0,), 0.0)], ids=["breakpoints", "heights"]
    )
    def test_a_bare_number_is_not_a_sequence(self, breakpoints, heights):
        # iterating the number raised a bare TypeError
        with pytest.raises(DomainError, match="must be sequences of numbers"):
            PiecewisePotential(breakpoints, heights)


class TestSquareBarrierIsAStaircase:
    """A SquareBarrier is the staircase (0, v0, 0) on (a, b) and nothing more."""

    def test_is_a_piecewise_potential(self):
        p = SquareBarrier(5, 1, 2)
        assert isinstance(p, PiecewisePotential)
        assert (p.breakpoints, p.heights) == ((1.0, 2.0), (0.0, 5.0, 0.0))
        assert [type(x) for x in (p.v0, p.a, p.b)] == [float, float, float]
        assert (p.v0, p.a, p.b) == (5.0, 1.0, 2.0)

    def test_same_bits_as_the_equivalent_staircase(self):
        barrier = SquareBarrier(5, 1, 2)
        staircase = PiecewisePotential((1, 2), (0, 5, 0))

        def bits(values):
            return np.asarray(values, dtype=complex).tobytes()

        for r, s in [(0.4, 1.7), (2.5, 0.9), (1.0, 2.0)]:
            for e in (1.5 + 0.3j, 7.0 - 2.0j, -1.0 + 0.5j):
                assert bits(resolvent_kernel(barrier, e, r, s)) == bits(
                    resolvent_kernel(staircase, e, r, s)
                )
            for e in (1.5, 7.0):
                for direction in ("plus", "minus"):
                    assert bits(formal_green(barrier, e, r, s, direction)) == bits(
                        formal_green(staircase, e, r, s, direction)
                    )
        box = (3.0, 6.0, -1.0, -0.01)
        roots = find_kernel_poles(barrier, box)
        assert roots and bits(roots) == bits(find_kernel_poles(staircase, box))


class TestMomenta:
    def test_free(self):
        k, q, _ = region_momenta(SquareBarrier(0.0, 1.0, 2.0), 1.0 + 0j)
        assert k == 1.0 and q == 1.0

    def test_negative_energy_forces_positive_imaginary(self):
        k, q, _ = region_momenta(SquareBarrier(0.0, 1.0, 2.0), -1.0 + 0j)
        assert k == 1j and q == 1j

    def test_below_barrier_interior(self):
        k, q, _ = region_momenta(SquareBarrier(5.0, 1.0, 2.0), 1.0 + 0j)
        assert k == 1.0
        assert q == 2j

    def test_momenta_square_back(self):
        p = SquareBarrier(3.7, 0.8, 2.4)
        e = 2.1 - 0.9j
        k, q, _ = region_momenta(p, e)
        assert abs(k * k - e) <= 1e-14 * abs(e)
        assert abs(q * q - (e - p.v0)) <= 1e-14 * abs(e - p.v0)


class TestRealEnergy:
    @pytest.mark.parametrize("e", [2.0, 2, 2.0 + 0j, complex(2.0, -0.0), np.float64(2.0)])
    def test_real_positive_energies_pass_as_floats(self, e):
        value = real_energy(e, "a test")
        assert value == 2.0 and type(value) is float

    @pytest.mark.parametrize(
        "e", [1.0 + 1.0j, complex(1.0, math.nan), 0.0, -1.0, math.nan, math.inf, -math.inf]
    )
    def test_other_energies_raise(self, e):
        with pytest.raises(DomainError, match="a test runs at real E > 0"):
            real_energy(e, "a test")

    @pytest.mark.parametrize("e", ["x", (1, 2), 10**400], ids=["string", "pair", "huge_int"])
    def test_what_complex_cannot_read_raises(self, e):
        # complex() raised a bare ValueError, TypeError or OverflowError
        with pytest.raises(DomainError, match="a test runs at real E > 0"):
            real_energy(e, "a test")


@pytest.mark.parametrize("e", ["1.5+0.2j", 2, np.complex128(1.5 - 0.2j), np.float64(1.5)])
def test_complex_energy_reads_what_complex_reads(e):
    z = complex_energy(e)
    assert type(z) is complex and z == complex(e)


@pytest.mark.parametrize("e", [(1, 2), 10**400, [1.5]], ids=["pair", "huge_int", "list"])
def test_complex_energy_refuses_what_complex_cannot_read(e):
    with pytest.raises(DomainError, match="must be a number"):
        complex_energy(e)
